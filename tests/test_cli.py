"""Command-line interface: CSV ingestion, exit codes, output formats."""

import argparse
import hashlib
import json
import math
import os
import random
import re
import warnings
from collections import OrderedDict
from importlib import resources

import numpy as np
import pytest

import srsd
from srsd import DataError, DetectionParams, ParameterError, TimeSeries, cli, run_srsd
from srsd.cli import main, parse_csv, result_from_json, result_to_json

FIXTURE_HEADER = "index,x,y"


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    """The packaged canonical pair copied to a plain file path."""
    target = tmp_path_factory.mktemp("data") / "canonical.csv"
    payload = resources.files("srsd").joinpath("data/canonical_fixture.csv").read_bytes()
    target.write_bytes(payload)
    return target


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse's own exits (--version, usage)
        return exc.code


# ---------------------------------------------------------------------------
# CSV parsing


def test_parse_csv_selects_columns_with_label_column(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("year,barrow,stpaul\n1921,1.5,-0.5\n1922,2.5,0.5\n1923,3.5,1.5\n")
    series = parse_csv(str(path), ["barrow", "stpaul"])
    assert len(series) == 2
    assert series[0].values.tolist() == [1.5, 2.5, 3.5]
    assert series[0].labels.tolist() == [1921.0, 1922.0, 1923.0]
    assert series[1].labels.tolist() == [1921.0, 1922.0, 1923.0]
    assert series[0].name == "barrow"


def test_parse_csv_reports_physical_row_of_bad_cell(tmp_path):
    path = tmp_path / "in.csv"
    rows = ["t,v"] + [f"{i},{i / 10}" for i in range(1, 6)] + ["6,abc"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="row 7"):
        parse_csv(str(path), ["v"])


def test_parse_csv_empty_data_section(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n")
    with pytest.raises(DataError, match="no observations"):
        parse_csv(str(path), ["b"])


def test_parse_csv_missing_column(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="nope"):
        parse_csv(str(path), ["nope"])


@pytest.mark.parametrize(
    "text, message",
    [("", "file is empty"), ("a,b,a\n1,2,3\n", "column 'a' appears twice in the header")],
    ids=["empty_file", "duplicate_column"],
)
def test_parse_csv_rejects_an_unusable_header(tmp_path, capsys, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        parse_csv(str(path), ["a"])
    assert run_cli("detect-mean", path, "--columns", "a") == 2
    assert capsys.readouterr().err == f"srsd: data error: {path}: {message}\n"


def test_parse_csv_ragged_row(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        parse_csv(str(path), ["b"])


def test_parse_csv_skips_blank_lines_and_names_physical_rows(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n1,0.5\n\n   \n2,1.5\n\t\n3,2.5\n")
    (series,) = parse_csv(str(path), ["v"])
    assert series.values.tolist() == [0.5, 1.5, 2.5]
    assert series.labels.tolist() == [1.0, 2.0, 3.0]

    path.write_text("t,v\n1,0.5\n\n  \n2,abc\n")
    with pytest.raises(DataError, match=r"could not parse 'abc' in column 'v' at row 5$"):
        parse_csv(str(path), ["v"])
    path.write_text("t,v\n1,0.5\n \n\n2,1.5,9\n3\n")
    with pytest.raises(DataError, match=r"row 5 has 3 cells, expected 2$"):
        parse_csv(str(path), ["v"])


def test_parse_csv_crlf_padding_and_float_forms(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"t , a ,b\r\n1, 1.5 ,1_0\r\n2,\t-2e1 , +3\r\n\r\n3,0x0,inf\r\n")
    with pytest.raises(DataError, match=r"could not parse '0x0' in column 'a' at row 5$"):
        parse_csv(str(path), ["a", "b"])
    path.write_bytes(b"t , a ,b\r\n1, 1.5 ,1_0\r\n2,\t-2e1 , +3\r\n\r\n3,.25,7.\r\n")
    a, b = parse_csv(str(path), ["a", "b"])
    assert a.values.tolist() == [1.5, -20.0, 0.25]
    assert b.values.tolist() == [10.0, 3.0, 7.0]
    assert a.labels.tolist() == [1.0, 2.0, 3.0]


def test_parse_csv_non_finite_cell_is_a_series_error(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n1,0.5\n2,nan\n3,1.5\n")
    with pytest.raises(DataError, match=r"^non-finite value 'nan' in column 'v' at row 3$"):
        parse_csv(str(path), ["v"])
    path.write_text("t,v\n1,0.5\n\n2, -inf\n3,1.5\n")  # a blank line: the file row, not the position
    with pytest.raises(DataError, match=r"^non-finite value '-inf' in column 'v' at row 4$"):
        parse_csv(str(path), ["v"])


@pytest.mark.parametrize(
    "first",
    [
        ["a", "b", "c"], ["1", "3", "2"], ["1", "1", "2"], ["1", "nan", "3"], ["1", "2", "x"],
        ["1", "2", "inf"], ["-inf", "1", "2"],
    ],
)
def test_parse_csv_first_column_without_labels(tmp_path, first):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n" + "".join(f"{t},{i}\n" for i, t in enumerate(first)))
    (series,) = parse_csv(str(path), ["v"])
    assert series.labels is None
    assert series.values.tolist() == [0.0, 1.0, 2.0]


def test_parse_csv_selected_first_column_is_not_labels(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t,v\n1,5\n2,6\n3,7\n")
    t, v = parse_csv(str(path), ["t", "v"])
    assert t.labels is None and v.labels is None
    assert t.values.tolist() == [1.0, 2.0, 3.0]


def test_parse_csv_accepts_utf8_byte_order_mark(tmp_path, fixture_csv, capsys):
    rows = fixture_csv.read_text().splitlines()
    plain = "\n".join(line.split(",", 1)[1] for line in rows) + "\n"  # header "x,y"
    outputs = []
    for name, payload in (("plain.csv", plain.encode()), ("bom.csv", b"\xef\xbb\xbf" + plain.encode())):
        path = tmp_path / name
        path.write_bytes(payload)
        x, y = parse_csv(str(path), ["x", "y"])
        assert (x.name, y.name, len(x), x.labels) == ("x", "y", 70, None)
        assert run_cli("detect-correlation", path, "--columns", "x,y") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_csv_reads_a_quoted_header(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text('"year","x, north","y"\n1921,1.5,-0.5\n1922,2.5,0.5\n')
    x, y = parse_csv(str(path), ["x, north", "y"])
    assert (x.name, x.values.tolist(), x.labels.tolist()) == ("x, north", [1.5, 2.5], [1921.0, 1922.0])
    assert y.values.tolist() == [-0.5, 0.5]


def test_parse_csv_reads_quoted_cells_and_names_physical_rows(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text('t,v,note\n1,"0.5","a, b"\n\n2, "1.5","say ""hi"""\r\n3,2.5,"two\nlines"\n4,"x",""\n')
    with pytest.raises(DataError, match=r"^could not parse 'x' in column 'v' at row 7$"):
        parse_csv(str(path), ["v"])
    path.write_text('t,v,note\n1,"0.5","a, b"\n\n2, "1.5","say ""hi"""\r\n3,2.5,"two\nlines"\n4,"3",""\n')
    (v,) = parse_csv(str(path), ["v"])
    assert v.values.tolist() == [0.5, 1.5, 2.5, 3.0]
    assert v.labels.tolist() == [1.0, 2.0, 3.0, 4.0]
    path.write_text('t,v\n1,"0.5"\n2,"1,5",9\n')
    with pytest.raises(DataError, match=r"row 3 has 3 cells, expected 2$"):
        parse_csv(str(path), ["v"])


def test_parse_csv_reads_an_r_write_csv_file(tmp_path):
    """write.csv (quoted) and pandas (plain) write row names, a first column with an empty name."""
    plain = tmp_path / "plain.csv"
    plain.write_text("year,x,y\n1950,0.25,-1.5\n1951,1e-3,2\n1952,3.5,-0.125\n")
    ex, ey = parse_csv(str(plain), ["x", "y"])
    named = tmp_path / "named.csv"
    for text in (
        '"","year","x","y"\n"1",1950,0.25,-1.5\n"2",1951,1e-3,2\n"3",1952,3.5,-0.125\n',
        ",year,x,y\n0,1950,0.25,-1.5\n1,1951,1e-3,2\n2,1952,3.5,-0.125\n",
    ):
        named.write_text(text)
        x, y = parse_csv(str(named), ["x", "y"])
        assert x.values.tobytes() == ex.values.tobytes()
        assert y.values.tobytes() == ey.values.tobytes()
        assert x.labels.tolist() == [1950.0, 1951.0, 1952.0]  # the years, not the row names
        assert y.labels.tobytes() == ex.labels.tobytes()
        (year,) = parse_csv(str(named), ["year"])
        assert year.values.tolist() == [1950.0, 1951.0, 1952.0] and year.labels is None


def _reference_parse_csv(path, columns):
    """parse_csv's semantics as a row-by-row loop (after the header checks)."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    header = [name.strip() for name in lines[0].split(",")]
    rows = []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"{path}: row {rownum} has {len(cells)} cells, expected {len(header)}")
        rows.append((rownum, cells))
    if not rows:
        raise DataError(f"{path}: no observations")
    labels = None
    if header[0] not in columns:
        try:
            first = [float(cells[0]) for _, cells in rows]
        except ValueError:
            first = None
        if first is not None and all(b > a for a, b in zip(first, first[1:])):
            labels = first
    out = []
    for name in columns:
        col = header.index(name)
        values = []
        for rownum, cells in rows:
            try:
                values.append(float(cells[col]))
            except ValueError:
                raise DataError(
                    f"could not parse {cells[col].strip()!r} in column {name!r} at row {rownum}"
                ) from None
        for (rownum, cells), value in zip(rows, values):
            if not math.isfinite(value):
                raise DataError(
                    f"non-finite value {cells[col].strip()!r} in column {name!r} at row {rownum}"
                )
        out.append(TimeSeries(values, labels=labels, name=name))
    return out


def _outcome(parse, path, columns):
    """The parsed series as exact bytes, or the error message."""
    try:
        series = parse(str(path), columns)
    except DataError as exc:
        return str(exc)
    return [
        (s.name, s.values.tobytes(), None if s.labels is None else s.labels.tobytes())
        for s in series
    ]


def test_parse_csv_matches_row_by_row_reference(tmp_path):
    rng = random.Random(20261018)
    usual = ["1.5", " -2 ", "1_0", "3e2", "-0.0"]
    unusual = ["inf", "nan", "abc", "", " ", "0x1", "\u0663", "7."]
    path = tmp_path / "fuzz.csv"
    outcomes = set()
    for _ in range(400):
        n = rng.randint(0, 8)
        if rng.random() < 0.7:
            first = sorted(rng.sample(range(1, 50), n))
        else:
            first = [rng.randint(1, 9) for _ in range(n)]
        lines = ["t,a,b"]
        for t in first:
            row = [str(t)] + [rng.choice(usual if rng.random() < 0.9 else unusual) for _ in "ab"]
            if rng.random() < 0.03:  # a ragged row
                row = row[: rng.choice([1, 2])] if rng.random() < 0.5 else row + ["9"]
            lines.append(",".join(row))
            if rng.random() < 0.15:
                lines.append(rng.choice(["", "  ", "\t"]))
        end = rng.choice(["\n", "\r\n"])
        path.write_text(end.join(lines) + end)
        for columns in (["a"], ["b", "a"], ["t", "b"]):
            expected = _outcome(_reference_parse_csv, path, columns)
            assert _outcome(parse_csv, path, columns) == expected
            outcomes.add(expected if isinstance(expected, str) else "parsed")
    assert len(outcomes) > 20  # many distinct errors are reached, and successes


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_codes(tmp_path, fixture_csv, capsys):
    ok = run_cli("detect-mean", fixture_csv, "--columns", "x")
    assert ok == 0
    capsys.readouterr()

    assert run_cli("detect-mean", fixture_csv) == 1  # missing --columns
    assert run_cli("detect-mean", fixture_csv, "--columns", "x", "--bogus") == 1
    assert run_cli("detect-mean", fixture_csv, "--columns", "x", "--l", "2") == 1
    capsys.readouterr()

    missing = tmp_path / "missing.csv"
    assert run_cli("detect-mean", missing, "--columns", "x") == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a\n")
    assert run_cli("detect-mean", bad, "--columns", "a") == 2
    err = capsys.readouterr().err
    assert "data error" in err


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_a_calibration_variance_that_overflows_exits_as_a_data_error(tmp_path, capsys, scale):
    t = np.linspace(0.0, 1.0, 200)
    path = tmp_path / "big.csv"
    path.write_text("v\n" + "".join(f"{v!r}\n" for v in ((np.sin(6.0 * t) + (t > 0.5)) * scale).tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("detect-mean", path, "--columns", "v", "--l", "10") == 2
    message = "the variance of the window at points 1 to 10 overflows"
    assert capsys.readouterr().err == f"srsd: data error: {message}\n"


def test_correlation_requires_exactly_two_columns(fixture_csv, capsys):
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x") == 1
    assert run_cli("detect-correlation", fixture_csv, "--columns", "index,x,y") == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out.startswith("srsd ")


# ---------------------------------------------------------------------------
# One parser per process


def test_main_builds_one_parser_per_process(fixture_csv, capsys, monkeypatch):
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x,y") == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli("detect-mean", fixture_csv, "--columns", "x") == 0
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x,y") == 0
    capsys.readouterr()
    assert built == []
    cli.build_parser()  # a fresh parser for other callers, counted by the same wrapper
    assert len(built) == 6  # the top level and its five subcommands


def test_a_run_leaves_no_option_for_the_next(tmp_path, fixture_csv):
    corr = ("detect-correlation", fixture_csv, "--columns", "x,y")
    assert run_cli(*corr, "--p-corr", "0.01", "--l-corr", "10", "--output", tmp_path / "a") == 0
    assert run_cli(*corr, "--output", tmp_path / "b") == 0
    assert sha256_of(tmp_path / "b") == GOLDEN_DIGESTS[("detect-correlation", "x,y", "json", ())]


def test_a_usage_error_leaves_the_parser_usable(fixture_csv, capsys):
    argv = ["detect-mean", str(fixture_csv), "--columns", "x", "--format", "xml"]
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert fresh.value.code == 1 and expected.err.startswith("usage: srsd detect-mean")
    for _ in range(2):
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == expected
    assert run_cli("detect-mean", fixture_csv, "--columns", "x") == 0


@pytest.mark.parametrize(
    "command", [None, "detect-mean", "detect-variance", "detect-correlation", "generate", "diagnose"]
)
def test_help_through_main_is_the_fresh_parsers_help(command, capsys):
    parser = cli.build_parser()
    if command:
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = commands.choices[command]
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            main([*filter(None, [command]), "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == parser.format_help()


# ---------------------------------------------------------------------------
# JSON output


def test_detect_correlation_reports_fixture_shift(fixture_csv, capsys):
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x,y") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema_version"] == "1"
    assert obj["command"] == "detect-correlation"
    confirmed = [
        cp["index"]
        for cp in obj["correlation"]["change_points"]
        if not cp["provisional"]
    ]
    assert confirmed == [36]


def test_json_round_trip_reconstructs_result(fixture_csv, canonical):
    x, y, _ = canonical
    expected = run_srsd(x, y)
    text = result_to_json(expected)
    rebuilt = result_from_json(text)
    assert rebuilt == expected
    # Serialization is a fixed point.
    assert result_to_json(rebuilt) == text


def test_json_round_trip_with_prewhitening(canonical):
    x, y, _ = canonical
    expected = run_srsd(x, y, DetectionParams(p=0.05, l=20, prewhiten="ip4", m=10))
    rebuilt = result_from_json(result_to_json(expected))
    assert rebuilt == expected


def test_json_accepts_numpy_scalar_params(canonical):
    x, y, _ = canonical
    numpy_params = DetectionParams(p=np.float64(0.05), l=np.int64(20))
    assert result_to_json(run_srsd(x, y, numpy_params)) == result_to_json(run_srsd(x, y))


def test_json_rejects_invalid_params(canonical):
    x, y, _ = canonical
    obj = json.loads(result_to_json(run_srsd(x, y)))
    obj["params"]["p"] = 1.5
    with pytest.raises(ParameterError, match="p must lie strictly between 0 and 1"):
        result_from_json(json.dumps(obj))


def test_json_rejects_unknown_schema(canonical):
    x, y, _ = canonical
    obj = json.loads(result_to_json(run_srsd(x, y)))
    obj["schema_version"] = "999"
    with pytest.raises(DataError):
        result_from_json(json.dumps(obj))


# Each edit turns a result file into text that is not one; the error names what broke.
# A series check's own error (a value that is not a number) is raised as it is.
NOT_A_FILE = "not an srsd result file: "
NOT_RESULT_FILES = {
    "missing_key": (lambda doc: doc.pop("x"), NOT_A_FILE + "KeyError: 'x'"),
    "string_regimes": (lambda doc: doc["correlation"].update(regimes="1-70"), NOT_A_FILE + "TypeError"),
    "truncated": ("{", NOT_A_FILE + "JSONDecodeError"),
    "list": ("[]", NOT_A_FILE + "AttributeError: 'list' object has no attribute 'get'"),
    "no_regimes": (lambda doc: doc["mean_results"][0].update(regimes=[]), NOT_A_FILE + "IndexError"),
    "string_values": (
        lambda doc: doc["x"].update(values=["a"] * 70),
        "series values: 'a' at position 1 is not a number",
    ),
}


@pytest.mark.parametrize("edit, error", NOT_RESULT_FILES.values(), ids=NOT_RESULT_FILES)
def test_result_from_json_rejects_text_that_is_not_a_result_file(canonical_result, edit, error):
    if isinstance(edit, str):
        text = edit
    else:
        doc = json.loads(result_to_json(canonical_result))
        edit(doc)
        text = json.dumps(doc)
    with pytest.raises(DataError, match="^" + re.escape(error)):
        result_from_json(text)


# The default correlation step finds change-points 36 and 64 on the fixture.
@pytest.mark.parametrize(
    "flags, corr, found",
    [
        (["--p-corr", "0.1", "--l-corr", "25"], (0.1, 25), [33, 64]),
        (["--l-corr", "10"], (0.05, 10), [36, 49, 64]),  # p falls back to --p
    ],
    ids=["both", "l_only"],
)
def test_correlation_step_parameters(canonical, fixture_csv, capsys, flags, corr, found):
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x,y", *flags) == 0
    out, err = capsys.readouterr()
    assert err == ""
    obj = json.loads(out)
    assert (obj["corr_params"]["p"], obj["corr_params"]["l"]) == corr
    assert [cp["index"] for cp in obj["correlation"]["change_points"]] == found
    x, y, _ = canonical
    expected = run_srsd(x, y, DetectionParams(), corr_params=DetectionParams(*corr))
    assert [cp.index for cp in expected.correlation.change_points] == found
    assert out == result_to_json(expected)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--l-corr", "2", "l must be at least 3, got 2"),
        ("--p-corr", "1.5", "p must lie strictly between 0 and 1, got 1.5"),
    ],
    ids=["l_corr", "p_corr"],
)
def test_a_bad_correlation_step_option_is_named(fixture_csv, capsys, flag, value, message):
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x,y", flag, value) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"srsd: usage error: correlation step (--p-corr/--l-corr): {message}\n"


def test_single_detector_json_shape(fixture_csv, capsys):
    assert run_cli("detect-mean", fixture_csv, "--columns", "x") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["command"] == "detect-mean"
    confirmed = [cp["index"] for cp in obj["change_points"] if not cp["provisional"]]
    assert confirmed == [26]
    assert len(obj["residuals"]["values"]) == 70
    assert len(obj["rsi"]) == 70


def test_prewhitening_is_echoed(fixture_csv, capsys):
    code = run_cli(
        "detect-correlation", fixture_csv, "--columns", "x,y", "--prewhiten", "ip4", "--m", "10"
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["params"]["prewhiten"] == "ip4"
    assert obj["ar1"][0]["method"] == "ip4"
    assert abs(obj["ar1"][0]["alpha"]) < 0.3


class FloatList(list):
    """A list subclass, as a caller's container type might be."""


def _reference_dumps(command, body):
    """The indent-2 layout as the standard library's encoder writes it."""
    doc = {"schema_version": "1", "tool": "srsd", "version": srsd.__version__, "command": command}
    return json.dumps({**doc, **body}, indent=2, allow_nan=False) + "\n"


WRITER_BODIES = [
    {},
    {"empty_dict": {}, "empty_list": [], "nested": {"a": {"b": {}}, "c": [[], [{}], [[1.5]]]}},
    {"records": [{"start": 1, "end": 9, "mean": 0.25}, {"start": 10, "end": 20, "mean": -1e-300}]},
    {"floats": [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 123456789.125]},
    {"with_int": [0.5, 2, 1.5], "with_numpy": [0.5, np.float64(2.5), 1.5], "one": [3.0]},
    {"text": ["a, b", 'say "hi"', "caf\u00e9 \u2013 \U0001F600", ", ", ""], "key, \"\u00e9\"": "x"},
    {"scalars": [None, True, False, 0, -7, 2**70, -0.0, 5e-324, 1.7976931348623157e308]},
    {"none": None, "flag": True, "n": 3, "x": -0.0, "tiny": 5e-324, "big": 1.7976931348623157e308},
    {"mixed": [1.0, None, 2.0], "bools": [True, 1.0], "tuple": (1.0, 2.0), "deep": [[0.5, 1.5], [2.5]]},
    # Subclasses of the plain containers keep their base's layout, as isinstance takes them.
    {"ordered": OrderedDict([("b", 1.5), ("a", [0.5, None]), ("empty", OrderedDict())])},
    {"float_list": FloatList([0.25, -1e-300, 3.0]), "empty": FloatList()},
    {"tuple_of_dicts": ({"start": 1, "mean": 0.5}, {}, {"values": (1.0, 2.0)})},
]


@pytest.mark.parametrize("body", WRITER_BODIES, ids=range(len(WRITER_BODIES)))
def test_dumps_matches_standard_indent_2_layout(body):
    assert cli._dumps("detect-mean", body) == _reference_dumps("detect-mean", body)


def test_dumps_matches_standard_layout_on_a_pipeline_result(canonical, canonical_result):
    """The writer walks the result objects; the standard encoder re-lays out the same JSON."""
    x, y, _ = canonical
    prewhitened = srsd.step_skipping_mode(x, y, DetectionParams(prewhiten="ip4", m=10), ["mean"])
    for result in (canonical_result, prewhitened):
        text = result_to_json(result)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("command", ["detect-mean", "detect-variance"])
def test_single_detector_file_matches_standard_layout(canonical, command):
    x, _, _ = canonical
    params = DetectionParams(prewhiten="ip4", m=10)
    series, ar1 = srsd.pipeline._prewhitened(x, params)
    detect = srsd.detect_mean if command == "detect-mean" else srsd.detect_variance
    text = cli._single_to_json(command, params, series, ar1, detect(series, params))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_dumps_writes_each_array_by_its_own_values():
    """An array met again is encoded once; a fresh array is never taken for a freed one."""
    shared = np.array([0.5, 1.5, 2.5])
    body = {"a": shared, "nested": {"again": shared, "other": shared * 2, "deeper": [shared]}}
    listed = {"a": shared.tolist(), "nested": {"again": shared.tolist(), "other": [1.0, 3.0, 5.0]}}
    listed["nested"]["deeper"] = [shared.tolist()]
    assert cli._dumps("detect-mean", body) == _reference_dumps("detect-mean", listed)
    # Each result's trace is a new array on each read, dropped once its result is written.
    rng = np.random.default_rng(3)
    results = [srsd.detect_mean(rng.standard_normal(60) + np.repeat([0.0, k], 30)) for k in range(4)]
    doc = json.loads(cli._dumps("detect-mean", {"results": results}))
    assert [r["rsi"] for r in doc["results"]] == [r.trace.tolist() for r in results]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["float_list", "scalar", "nested"])
def test_dumps_rejects_non_finite_floats(bad, where):
    body = {
        "float_list": {"values": [0.5, bad, 1.5]},
        "scalar": {"value": bad},
        "nested": {"regimes": [{"mean": bad}]},
    }[where]
    with pytest.raises(ValueError, match="Out of range float values"):
        _reference_dumps("detect-mean", body)
    with pytest.raises(ValueError, match="Out of range float values"):
        cli._dumps("detect-mean", body)


# ---------------------------------------------------------------------------
# CSV output and determinism


def test_csv_table_output(fixture_csv, capsys):
    assert run_cli("detect-mean", fixture_csv, "--columns", "x", "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "record,series,kind,start,end,index,value,p_value,ci_low,ci_high,provisional,accepted"
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert "regime" in kinds and "change_point" in kinds


def test_identical_invocations_are_byte_identical(tmp_path, fixture_csv):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = run_cli("detect-correlation", fixture_csv, "--columns", "x,y", "--output", out)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# Golden output bytes on the packaged fixture

GOLDEN_DIGESTS = {
    ("detect-mean", "x", "json", ()): "011669bd66c3bea72c50f16c60fe623f8785079b15002e2d3c2112ee5bbf5d30",
    ("detect-mean", "x", "csv", ()): "eea4ede554c5b23a7d28bc3f5f2b74541676b6467e3c40fe973b57c77e9e99a2",
    ("detect-variance", "x", "json", ()): "5c9ff505b7541b57ae0ec3c3e0d4497d99b7f327a2cac58a57a5df775b4cc26f",
    ("detect-variance", "x", "csv", ()): "0d7d0dd1170a1bbd6211596d31969ad67a5dc7cdd9c109c2b6f8c20eb55f90df",
    ("detect-correlation", "x,y", "json", ()): "d499b0c490de61ff8e8a8a65669224892a6bebf6072fa3cd715de1e968db45c2",
    ("detect-correlation", "x,y", "csv", ()): "17b54efba1885f567dde536f56a0db9f0f7c8a2693fe44dd2c55282e6acccd70",
    ("detect-correlation", "x,y", "json", ("--prewhiten", "ip4", "--m", "10")): (
        "ea33ade1a2535b1185b520e9a8a931f397e76e07a7837496236fe1a1a02d25f7"
    ),
    ("detect-mean", "x", "json", ("--prewhiten", "ip4", "--m", "10")): (
        "022630c92c8cda4f9c27511f12729b2ec8e256f0329eb5dd7ec60e8cd214bf0e"
    ),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "case", list(GOLDEN_DIGESTS), ids=lambda c: "-".join([c[0], c[2], *c[3][:2]])
)
def test_output_bytes_match_golden_digest(tmp_path, fixture_csv, case):
    command, columns, fmt, extra = case
    out = tmp_path / "out"
    code = run_cli(command, fixture_csv, "--columns", columns, "--format", fmt, *extra, "--output", out)
    assert code == 0
    assert sha256_of(out) == GOLDEN_DIGESTS[case]


def test_diagnose_bytes_match_golden_digest(tmp_path, fixture_csv):
    out = tmp_path / "out"
    traces = tmp_path / "traces"
    code = run_cli(
        "diagnose", fixture_csv, "--columns", "x,y", "--output", out, "--traces", traces
    )
    assert code == 0
    assert sha256_of(out) == "7c59a05b79ab2b448efab08043e4c26feb5f998c524d0daecba64a387a4983dd"
    assert sha256_of(traces) == "cf56462b48bfa16b1c0051e263c2eca7e3419c783c71b9afa82a116539ade141"


# ---------------------------------------------------------------------------
# generate


def test_generate_default_spec_reproduces_fixture(tmp_path, fixture_csv):
    out = tmp_path / "gen.csv"
    assert run_cli("generate", "--seed", "4580", "--output", out) == 0
    assert out.read_bytes() == fixture_csv.read_bytes()


def test_generate_env_seed_override(tmp_path, monkeypatch):
    by_flag = tmp_path / "flag.csv"
    by_env = tmp_path / "env.csv"
    assert run_cli("generate", "--seed", "31337", "--output", by_flag) == 0
    monkeypatch.setenv("SRSD_SEED", "31337")
    assert run_cli("generate", "--seed", "4580", "--output", by_env) == 0
    assert by_env.read_bytes() == by_flag.read_bytes()


def test_generate_custom_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "n": 40,
                "correlation": [[1, 0.2]],
                "x_mean": [[1, 0.0]],
                "y_mean": [[1, 0.0]],
                "x_variance": [[1, 1.0]],
                "y_variance": [[1, 1.0]],
            }
        )
    )
    out = tmp_path / "gen.csv"
    assert run_cli("generate", "--spec", spec_path, "--seed", "7", "--output", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == FIXTURE_HEADER
    assert len(lines) == 41


def test_generate_malformed_spec_is_a_data_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    out = tmp_path / "gen.csv"
    nan_mean = {"x_mean": [[1, float("nan")]]}
    fractional_start = {"correlation": [[1, 0.2], [20.9, 0.5]]}  # starts are not truncated
    bad_n = ({"n": "70"}, {"n": 70.5}, {"n": True}, {"n": [70]})
    misspelt_key = {"x_means": [[1, 5.0]]}  # an unknown key is not ignored
    for bad in (*bad_n, nan_mean, fractional_start, misspelt_key):
        spec_path.write_text(json.dumps({"n": 70, "correlation": [[1, 0.2]], **bad}))
        assert run_cli("generate", "--spec", spec_path, "--output", out) == 2, bad
        err = capsys.readouterr().err
        assert "data error" in err
    assert "'x_means'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, payload",
    [
        (("detect-mean", "{path}", "--columns", "v"), b"v\n1.0\n2.\xff\n"),
        (("generate", "--spec", "{path}"), b'{"n": 5, "correlation": [[1, 0.\xff]]}'),
    ],
    ids=["csv", "spec"],
)
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys, argv, payload):
    """The message names the file and the byte offset of the first byte that does not decode."""
    path = tmp_path / "input"
    path.write_bytes(b"\xef\xbb\xbf" + payload)  # the offset counts the byte order mark
    assert run_cli(*(arg.format(path=path) for arg in argv)) == 2
    offset = 3 + payload.index(b"\xff")
    message = f"{path}: not UTF-8 text (byte 0xff at offset {offset})"
    assert capsys.readouterr().err == f"srsd: data error: {message}\n"


def test_generate_reads_a_spec_with_a_byte_order_mark(tmp_path):
    spec = json.dumps({"n": 40, "correlation": [[1, 0.2], [21, -0.5]]}).encode()
    outputs = []
    for name, payload in (("plain.json", spec), ("bom.json", b"\xef\xbb\xbf" + spec)):
        spec_path, out = tmp_path / name, tmp_path / f"{name}.csv"
        spec_path.write_bytes(payload)
        assert run_cli("generate", "--spec", spec_path, "--seed", "7", "--output", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "spec, message",
    [
        (None, "cannot read {path}: No such file or directory"),
        ("{", "{path}: invalid JSON (Expecting property name enclosed in double quotes"),
        ("[70]", "{path}: spec must be a JSON object with at least 'n'"),
        ('{"n": 70}', "{path}: spec requires a 'correlation' segment list"),
    ],
    ids=["missing_file", "invalid_json", "list", "no_correlation"],
)
def test_generate_unusable_spec_file_is_a_data_error(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    if spec is not None:
        spec_path.write_text(spec)
    out = tmp_path / "gen.csv"
    assert run_cli("generate", "--spec", spec_path, "--output", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("srsd: data error: " + message.format(path=spec_path))
    assert not out.exists()


def test_generate_non_integer_env_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SRSD_SEED", "4580.0")
    out = tmp_path / "gen.csv"
    assert run_cli("generate", "--output", out) == 1
    err = capsys.readouterr().err
    assert err == "srsd: usage error: SRSD_SEED must be an integer, got '4580.0'\n"
    assert not out.exists()
    monkeypatch.setenv("SRSD_SEED", "-3")
    assert run_cli("generate", "--output", out) == 1
    assert capsys.readouterr().err == "srsd: usage error: SRSD_SEED must not be negative, got -3\n"
    monkeypatch.delenv("SRSD_SEED")
    assert run_cli("generate", "--seed", "-1", "--output", out) == 1
    assert capsys.readouterr().err == "srsd: usage error: --seed must not be negative, got -1\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_running_correlation_length(fixture_csv, capsys):
    assert run_cli("diagnose", fixture_csv, "--columns", "x,y", "--window", "21") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "start,end,raw,adjusted"
    assert len(lines) - 1 == 50  # n - window + 1

    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "21"
    raw = [float(line.split(",")[2]) for line in lines[1:]]
    adjusted = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(-1.0 <= v <= 1.0 for v in raw + adjusted)


def test_diagnose_traces(tmp_path, fixture_csv, capsys):
    traces = tmp_path / "traces.csv"
    code = run_cli(
        "diagnose", fixture_csv, "--columns", "x,y", "--window", "21", "--traces", traces
    )
    assert code == 0
    capsys.readouterr()
    lines = traces.read_text().strip().split("\n")
    assert lines[0] == "series,detector,index,value"
    pairs = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert pairs == {
        ("x", "rsi"),
        ("y", "rsi"),
        ("x", "rssi"),
        ("y", "rssi"),
        ("sum", "rssi"),
        ("diff", "rssi"),
    }
    assert len(lines) - 1 == 6 * 70


@pytest.mark.parametrize("option", ["--output", "--traces", "diagnose --output"])
def test_unwritable_output_is_a_data_error(tmp_path, fixture_csv, capsys, option):
    bad = tmp_path / "missing" / "out.csv"
    other = tmp_path / "other.csv"
    diagnose = ("diagnose", fixture_csv, "--columns", "x,y")
    if option == "--output":
        argv = ("generate", "--output", bad)
    elif option == "--traces":
        argv = (*diagnose, "--output", other, "--traces", bad)
    else:
        argv = (*diagnose, "--output", bad, "--traces", other)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"srsd: data error: cannot write {bad}: No such file or directory\n"
    assert not other.exists()  # a failed run leaves no half of its output behind


def test_diagnose_traces_of_identical_series_skip_the_degenerate_channels(tmp_path, capsys):
    x, _, _ = srsd.canonical_fixture()
    path = tmp_path / "same.csv"
    path.write_text("a,b\n" + "".join(f"{v!r},{v!r}\n" for v in x.values.tolist()))
    traces = tmp_path / "traces.csv"
    assert run_cli("diagnose", path, "--columns", "a,b", "--traces", traces) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in traces.read_text().splitlines()[1:]]
    # x - y is zero, so the correlation is 1 throughout and neither channel is scanned.
    labels = [(series, detector) for series, detector, _, _ in rows]
    assert labels == [(s, d) for d in ("rsi", "rssi") for s in ("a", "b") for _ in range(70)]


@pytest.mark.parametrize("window", [1, 71])
def test_diagnose_window_outside_the_series_is_a_usage_error(fixture_csv, capsys, window):
    code = run_cli("diagnose", fixture_csv, "--columns", "x,y", "--window", window)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"srsd: usage error: --window must lie in [2, 70], got {window}\n"


def test_diagnose_leaves_constant_windows_empty(tmp_path, canonical, capsys):
    x, y, _ = canonical
    xv = [1.0] * 30 + x.values.tolist()[30:]  # x is constant on rows 1-30
    path = tmp_path / "const.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(xv, y.values.tolist())))
    assert run_cli("detect-correlation", path, "--columns", "x,y") == 0
    capsys.readouterr()
    assert run_cli("diagnose", path, "--columns", "x,y", "--window", "10") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 61
    assert [int(end) for _, end, raw, _ in rows if raw == ""] == list(range(10, 31))
    assert all(-1.0 <= float(raw) <= 1.0 for _, _, raw, _ in rows[21:])
