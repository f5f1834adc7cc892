"""Command-line interface: CSV ingestion, exit codes, output formats."""

import hashlib
import json
import os
from importlib import resources

import numpy as np
import pytest

from srsd import DataError, DetectionParams, run_srsd
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


def test_parse_csv_ragged_row(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        parse_csv(str(path), ["b"])


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


def test_correlation_requires_exactly_two_columns(fixture_csv, capsys):
    assert run_cli("detect-correlation", fixture_csv, "--columns", "x") == 1
    assert run_cli("detect-correlation", fixture_csv, "--columns", "index,x,y") == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out.startswith("srsd ")


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


def test_json_rejects_unknown_schema(canonical):
    x, y, _ = canonical
    obj = json.loads(result_to_json(run_srsd(x, y)))
    obj["schema_version"] = "999"
    with pytest.raises(DataError):
        result_from_json(json.dumps(obj))


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
