"""Command-line interface: CSV ingestion, detection runs, synthetic data, diagnostics.

Subcommands
-----------
detect-mean / detect-variance
    Run one detector on a single named column.
detect-correlation
    Run the full three-step pipeline on two named columns.
generate
    Write a synthetic bivariate CSV from a regime description (the built-in
    reference scenario by default). SRSD_SEED in the environment overrides
    --seed.
diagnose
    Emit plot-ready diagnostics: the running cross-correlation of the series
    as analyzed vs. after mean/variance adjustment, and optionally per-index
    RSI/RSSI traces.

Formats
-------
CSV input has a header row; value columns are selected by name with
--columns. If the first column is not selected and holds finite, strictly
increasing numbers, it is used as time labels (years, typically); a first
column with an empty name holds row names (R's write.csv, a pandas index), so
the second is tested instead. CSV output uses 9 significant digits; JSON output
uses shortest round-trip floats and carries a "schema_version" field, so
identical inputs and config produce byte-identical files. Exit codes: 0
success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from contextlib import suppress
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from types import UnionType
from typing import Any, Iterable, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from ._engine import ShiftResult
from .core import (
    _PREWHITEN_METHODS,
    ChangePoint,
    DataError,
    DetectionParams,
    ParameterError,
    Regime,
    TimeSeries,
    _check_int,
    _labels,
)
from .mean_shift import detect_mean
from .pipeline import CandidateRecord, SrsdResult, _prewhitened, run_srsd
from .stats import Ar1Estimate, _pearson
from .synthgen import _SEGMENT_FIELDS, RegimeSpec, canonical_spec, generate_pair
from .variance_shift import detect_variance

__all__ = ["main", "parse_csv", "result_to_json", "result_from_json"]

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# CSV input


def _read_text(path: str) -> str:
    """The text of a UTF-8 file, without the byte order mark it may start with."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data.decode("utf-8").removeprefix("\ufeff")  # splitlines takes \r\n and \r too
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:  # decoded whole, so its start is the file's byte offset
        byte = f"0x{exc.object[exc.start]:02x}"
        raise DataError(f"{path}: not UTF-8 text (byte {byte} at offset {exc.start})") from None


def _floats(cells: list[str], column: str, rows: Sequence[int]) -> np.ndarray:
    """One column's cells as a fresh finite float array; a bad cell is named with its file row."""
    try:
        values = np.array(cells, dtype=float)  # float() on each str: same forms, same bits
    except ValueError:
        for cell, row in zip(cells, rows):
            try:
                float(cell)
            except ValueError:
                raise DataError(
                    f"could not parse {cell.strip()!r} in column {column!r} at row {row}"
                ) from None
        raise
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        cell, row = cells[bad[0]].strip(), rows[bad[0]]
        raise DataError(f"non-finite value {cell!r} in column {column!r} at row {row}")
    return values


def _quoted_records(path: str, text: str) -> tuple[list[list[str]], list[int]]:
    """The header and the non-blank records of CSV text whose cells may be quoted.

    Quoting is RFC 4180's, as R's write.csv writes it: a quoted cell may hold
    commas, doubled quotes and line breaks, so each record is named by the
    file row it starts on.
    """
    reader = csv.reader(io.StringIO(text, newline=""), skipinitialspace=True)
    records: list[list[str]] = []
    rows: list[int] = []
    row = 1
    try:
        for record in reader:
            if not records or len(record) > 1 or record and record[0].strip():
                records.append(record)
                rows.append(row)
            row = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}: row {row}: {exc}") from None
    return records, rows


def parse_csv(path: str, columns: Sequence[str]) -> list[TimeSeries]:
    """Read named columns from a headered CSV as TimeSeries.

    Row numbers in error messages are physical file rows (the header is row
    1); blank lines are skipped. Cells and header names may be quoted, as
    RFC 4180 and R's write.csv quote them. The first column doubles as time
    labels when it is not itself selected and holds finite, strictly
    increasing numbers; one with an empty name holds row names (R's write.csv
    and pandas write them), so the second column is tested in its place.
    """
    text = _read_text(path)
    if '"' in text:  # the csv module's reader; plain text takes the splitter below
        records, rows = _quoted_records(path, text)
        head, kept, rows = records[0], records[1:], rows[1:]
        commas = [len(record) - 1 for record in kept]
        cells = [cell for record in kept for cell in record]
    else:
        lines = text.splitlines()
        if not lines:
            raise DataError(f"{path}: file is empty")
        head, body = lines[0].split(","), lines[1:]
        kept = list(filter(str.strip, body))
        rows = range(2, len(kept) + 2)  # physical row of each kept line
        if len(kept) != len(body):
            rows = [row for row, line in enumerate(body, start=2) if line.strip()]
        commas = [line.count(",") for line in kept]
        cells = ",".join(kept).split(",")
    header = [name.strip() for name in head]
    for name in columns:
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears twice in the header")
        if name not in header:
            raise DataError(
                f"{path}: column {name!r} not found; available: {', '.join(header)}"
            )
    width = len(header)
    if commas.count(width - 1) != len(commas):
        k = next(k for k, count in enumerate(commas) if count != width - 1)
        raise DataError(f"{path}: row {rows[k]} has {commas[k] + 1} cells, expected {width}")
    if not kept:
        raise DataError(f"{path}: no observations")
    labels, first = None, int(header[0] == "")  # an unnamed first column holds row names
    if first < width and header[first] not in columns:
        try:  # text, repeats, falls or non-finite values are simply not labels
            labels = _labels(cells[first::width], len(kept))
        except ValueError:
            pass
    return [
        TimeSeries._derived(_floats(cells[header.index(col) :: width], col, rows), labels, col)
        for col in columns
    ]


# ---------------------------------------------------------------------------
# JSON serialization (shortest round-trip floats, fixed key order)

# Field types of each result dataclass, in field order, resolved once per class.
_field_types = functools.cache(get_type_hints)


# JSON key of each ShiftResult member, its trace included, in file order, by regime kind.
_SHIFT_KEYS = {
    kind: {"regimes": "regimes", "change_points": "change_points", "series": series, "trace": trace}
    for kind, series, trace in (("mean", "residuals", "rsi"), ("variance", "normalized", "rssi"))
}


@functools.cache
def _members(cls: type, kind: str | None) -> tuple[tuple[str, str], ...]:
    """Attribute and JSON key text of each member of a result class; a ShiftResult's by kind."""
    keys = _SHIFT_KEYS[kind] if kind else {f.name: f.name for f in fields(cls)}
    return tuple((name, encode_basestring_ascii(key) + ": ") for name, key in keys.items())


def _from_obj(tp: Any, obj: Any) -> Any:
    """Rebuild a value of type tp from its JSON form."""
    if obj is None:
        return None
    origin = get_origin(tp)
    if origin in (Union, UnionType):  # "X | None" holding an X
        return _from_obj(get_args(tp)[0], obj)
    if origin in (list, tuple, frozenset):  # every result container holds one type
        return origin(_from_obj(get_args(tp)[0], v) for v in obj)
    if tp is TimeSeries:
        return TimeSeries(obj["values"], labels=obj["labels"], name=obj["name"])
    if is_dataclass(tp):
        keys = _SHIFT_KEYS[obj["regimes"][0]["kind"]] if tp is ShiftResult else {}
        return tp(**{n: _from_obj(t, obj[keys.get(n, n)]) for n, t in _field_types(tp).items()})
    return obj


def _scalar(value: Any) -> str:
    """A scalar's JSON, as json.dumps(value, allow_nan=False) writes it."""
    kind = type(value)
    if kind is float and value - value == 0.0:  # finite: json writes floats by float.__repr__
        return float.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value, allow_nan=False)  # non-finite floats raise; other types as json does


_SCALARS = frozenset([float, int, str, bool, type(None), None])  # None: an instance of no base
_BASES = (TimeSeries, frozenset, np.ndarray, dict, list, tuple)  # in the order isinstance tries


def _write(value: Any, indent: str, out: list[str], arrays: dict[int, tuple]) -> None:
    """Append value's JSON to out in json.dumps's indent=2 layout; indent opens its line.

    value is a plain JSON value or a result object: a TimeSeries, a dataclass,
    a frozenset of strings or a non-empty float array. arrays maps id(array) to
    the array and its items' JSON, so that an array met again (series share
    their labels) is encoded once; holding the array keeps its id from being
    reused by another (a trace is a new array on each read).
    """
    kind = type(value)
    if kind not in _SCALARS and kind not in _BASES and not is_dataclass(kind):  # by isinstance
        kind = next((base for base in _BASES if isinstance(value, base)), None)
    if kind is TimeSeries:
        value, kind = {"name": value.name, "values": value.values, "labels": value.labels}, dict
    elif kind is frozenset:
        value, kind = sorted(value), list
    inner = indent + "  "
    if kind is np.ndarray:  # one C-encoder call; no float repr holds ", "
        if id(value) not in arrays:
            arrays[id(value)] = value, json.dumps(value.tolist(), allow_nan=False)[1:-1]
        flat = arrays[id(value)][1].replace(", ", ",\n" + inner)
        out += ("[\n", inner, flat, "\n", indent, "]")
        return
    if kind in _SCALARS or not value:  # a scalar, {} or []
        out.append(_scalar(value))
        return
    if kind is dict:
        brackets, items = "{}", ((encode_basestring_ascii(k) + ": ", v) for k, v in value.items())
    elif kind is list or kind is tuple:
        brackets, items = "[]", (("", item) for item in value)
    else:  # a result dataclass
        members = _members(kind, value.regimes[0].kind if issubclass(kind, ShiftResult) else None)
        brackets, items = "{}", ((key, getattr(value, name)) for name, key in members)
    out.append(brackets[0])
    for key, item in items:
        out += ("\n", inner, key)
        _write(item, inner, out, arrays)
        out.append(",")
    out[-1] = "\n" + indent + brackets[1]  # the last item's comma


def _dumps(command: str, body: dict[str, Any]) -> str:
    """A result file: the header, then body in its order; body holds what _write takes."""
    doc = {"schema_version": SCHEMA_VERSION, "tool": "srsd", "version": __version__}
    doc.update(command=command, **body)
    out: list[str] = []
    _write(doc, "", out, {})
    out.append("\n")
    return "".join(out)


# Key order of a pipeline result file after the header.
_SRSD_KEYS = "params corr_params skipped ar1 x y mean_results variance_results correlation".split()


def result_to_json(result: SrsdResult) -> str:
    """Serialize a full pipeline result, intermediates and audit included."""
    return _dumps("detect-correlation", {key: getattr(result, key) for key in _SRSD_KEYS})


def result_from_json(text: str) -> SrsdResult:
    """Rebuild the SrsdResult a result file describes; inverse of result_to_json.

    Text that is not a result file raises DataError.
    """
    try:
        doc = json.loads(text)
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise DataError(
                f"unsupported schema_version {doc.get('schema_version')!r}; "
                f"expected {SCHEMA_VERSION!r}"
            )
        return _from_obj(SrsdResult, doc)
    except (DataError, ParameterError):  # a content check's own error
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"not an srsd result file: {type(exc).__name__}: {exc}") from None


def _single_to_json(
    command: str,
    params: DetectionParams,
    series: TimeSeries,
    ar1: Ar1Estimate | None,
    result: ShiftResult,
) -> str:
    shift = {k: getattr(result, n) for n, k in _SHIFT_KEYS[result.regimes[0].kind].items()}
    return _dumps(command, {"params": params, "series": series, "ar1": ar1, **shift})


# ---------------------------------------------------------------------------
# CSV output (9 significant digits)


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    return str(value)


def _csv(header: str, rows: Iterable[Sequence[Any]]) -> str:
    """CSV text: the header line, then one line of formatted cells per row."""
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


_TABLE_HEADER = (
    "record,series,kind,start,end,index,value,p_value,ci_low,ci_high,provisional,accepted"
)
_TABLE_COLUMNS = _TABLE_HEADER.split(",")
# Table column of each record field named differently from its column.
_COLUMN_OF = {"shift_p_value": "p_value", "index_value": "value", "source": "series"}
_RECORD_OF = {Regime: "regime", ChangePoint: "change_point", CandidateRecord: "candidate"}


def _row(record: Regime | ChangePoint | CandidateRecord, **cells: Any) -> list[Any]:
    """One table row: the record's fields in their columns, over the given cells."""
    cells["record"] = _RECORD_OF[type(record)]
    cells.update((_COLUMN_OF.get(f.name, f.name), getattr(record, f.name)) for f in fields(record))
    return [cells.get(column) for column in _TABLE_COLUMNS]


def _table_rows(
    name: str,
    regimes: Sequence[Regime],
    change_points: Sequence[ChangePoint],
    candidates: Sequence[CandidateRecord] = (),
) -> list[list[Any]]:
    kind = regimes[0].kind
    return (
        [_row(r, series=name) for r in regimes]
        + [_row(c, series=name, kind=kind) for c in change_points]
        + [_row(c, kind="correlation") for c in candidates]
    )


def _srsd_to_csv(result: SrsdResult) -> str:
    rows: list[list[Any]] = []
    for results in (result.mean_results, result.variance_results):
        for series, res in zip((result.x, result.y), results):
            rows += _table_rows(series.name, res.regimes, res.change_points)
    corr = result.correlation
    rows += _table_rows("correlation", corr.regimes, corr.change_points, corr.candidates)
    return _csv(_TABLE_HEADER, rows)


# ---------------------------------------------------------------------------
# Commands


def _write_output(path: str | None, text: str, remove_on_failure: str | None = None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            if remove_on_failure:  # a file this run wrote before the failed one
                os.remove(remove_on_failure)
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _params_from_args(args: argparse.Namespace) -> DetectionParams:
    return DetectionParams(p=args.p, l=args.l, prewhiten=args.prewhiten, m=args.m)


def _corr_params_from_args(
    args: argparse.Namespace, params: DetectionParams
) -> DetectionParams | None:
    if args.p_corr is None and args.l_corr is None:
        return None
    try:
        return DetectionParams(
            p=args.p_corr if args.p_corr is not None else params.p,
            l=args.l_corr if args.l_corr is not None else params.l,
        )
    except ParameterError as exc:
        raise ParameterError(f"correlation step (--p-corr/--l-corr): {exc}") from None


def _columns(args: argparse.Namespace) -> list[str]:
    expected, names = args.n_columns, [c.strip() for c in args.columns.split(",") if c.strip()]
    if len(names) != expected:
        raise ParameterError(
            f"{args.command} requires exactly {expected} column"
            f"{'s' if expected != 1 else ''}, got {len(names)} from {args.columns!r}"
        )
    return names


def _cmd_detect_single(args: argparse.Namespace) -> None:
    params = _params_from_args(args)
    (series,) = parse_csv(args.input, _columns(args))
    series, ar1 = _prewhitened(series, params)
    detect = detect_mean if args.command == "detect-mean" else detect_variance
    res = detect(series, params)
    if args.format == "json":
        text = _single_to_json(args.command, params, series, ar1, res)
    else:
        rows = _table_rows(series.name, res.regimes, res.change_points)
        text = _csv(_TABLE_HEADER, rows)
    _write_output(args.output, text)


def _run_pair(args: argparse.Namespace) -> SrsdResult:
    params = _params_from_args(args)
    x, y = parse_csv(args.input, _columns(args))
    return run_srsd(x, y, params, corr_params=_corr_params_from_args(args, params))


def _cmd_detect_correlation(args: argparse.Namespace) -> None:
    result = _run_pair(args)
    text = result_to_json(result) if args.format == "json" else _srsd_to_csv(result)
    _write_output(args.output, text)


def _spec_from_file(path: str, seed: int) -> RegimeSpec:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise DataError(f"{path}: spec must be a JSON object with at least 'n'")
    if "correlation" not in doc:
        raise DataError(f"{path}: spec requires a 'correlation' segment list")
    known = ("n", *_SEGMENT_FIELDS)
    unknown = sorted(set(doc).difference(known))
    if unknown:
        raise DataError(f"{path}: unknown spec keys {unknown}; known: {', '.join(known)}")
    return RegimeSpec(doc["n"], **{k: doc[k] for k in _SEGMENT_FIELDS if k in doc}, seed=seed)


def _cmd_generate(args: argparse.Namespace) -> None:
    seed, source = os.environ.get("SRSD_SEED"), "SRSD_SEED"  # which overrides --seed
    if seed is None:
        seed, source = args.seed, "--seed"
    with suppress(ValueError):  # text that int() rejects is named as it is
        seed = int(seed)
    _check_int(seed, source, 0)
    spec = _spec_from_file(args.spec, seed) if args.spec else canonical_spec(seed)
    x, y = generate_pair(spec)
    rows = zip(range(1, len(x) + 1), x.values.tolist(), y.values.tolist())
    _write_output(args.output, _csv("index,x,y", rows))


def _running_correlation(x: np.ndarray, y: np.ndarray, window: int) -> list[float | None]:
    """Pearson r of each window of two validated series; None where a window is constant."""
    return [_pearson(x[s : s + window], y[s : s + window]) for s in range(len(x) - window + 1)]


def _cmd_diagnose(args: argparse.Namespace) -> None:
    result = _run_pair(args)
    _check_int(args.window, "--window", 2, len(result.x))
    raw = _running_correlation(result.x.values, result.y.values, args.window)
    adj_x, adj_y = (res.normalized.values for res in result.variance_results)
    adjusted = _running_correlation(adj_x, adj_y, args.window)
    rows = [(s, s + args.window - 1, *rs) for s, rs in enumerate(zip(raw, adjusted), start=1)]
    table = _csv("start,end,raw,adjusted", rows)
    if args.traces:
        trace_rows = []
        names = (result.x.name, result.y.name)
        named = [
            *zip(names, result.mean_results),
            *zip(names, result.variance_results),
            ("sum", result.correlation.sum_channel),
            ("diff", result.correlation.diff_channel),
        ]
        for name, res in named:
            if res is None:
                continue
            detector = _SHIFT_KEYS[res.regimes[0].kind]["trace"]
            trace_rows += [(name, detector, i, v) for i, v in enumerate(res.trace.tolist(), 1)]
        _write_output(args.traces, _csv("series,detector,index,value", trace_rows))
    _write_output(args.output, table, remove_on_failure=args.traces)  # after the traces file


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; this tool reserves 2 for data errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_inputs(sub: argparse.ArgumentParser, n_columns: int) -> None:
    """The input, output and detection options of a command that reads n_columns (1 or 2)."""
    sub.set_defaults(n_columns=n_columns)  # the count _columns checks
    sub.add_argument("input", help="input CSV with a header row")
    sub.add_argument(
        "--columns",
        required=True,
        help=(
            "value column name" if n_columns == 1 else "two value column names, comma-separated"
        ),
    )
    sub.add_argument("--output", help="output path (default: stdout)")
    p, l, method, m = (f.default for f in fields(DetectionParams))
    sub.add_argument("--p", type=float, default=p, help=f"target significance level (default {p})")
    sub.add_argument("--l", type=int, default=l, help=f"cut-off length (default {l})")
    sub.add_argument(
        "--prewhiten",
        choices=_PREWHITEN_METHODS,
        default=method,
        help=f"AR(1) prewhitening with the given bias correction (default {method})",
    )
    sub.add_argument("--m", type=int, default=m, help="subsample size for AR(1) estimation")
    if n_columns == 2:  # the correlation step's; unset, they are None and it takes --p and --l
        sub.add_argument("--p-corr", type=float, help="override p for the correlation step")
        sub.add_argument("--l-corr", type=int, help="override l for the correlation step")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srsd", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"srsd {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, n_columns, run, helptext in (
        ("detect-mean", 1, _cmd_detect_single, "detect mean shifts in one column"),
        ("detect-variance", 1, _cmd_detect_single, "detect variance shifts in one column"),
        (
            "detect-correlation",
            2,
            _cmd_detect_correlation,
            "run the full three-step pipeline on two columns",
        ),
    ):
        sub = commands.add_parser(name, help=helptext)
        sub.set_defaults(run=run)
        _add_inputs(sub, n_columns)
        sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = commands.add_parser("generate", help="write a synthetic bivariate CSV")
    sub.set_defaults(run=_cmd_generate)
    sub.add_argument("--seed", type=int, default=0, help="generator seed (SRSD_SEED overrides)")
    sub.add_argument(
        "--spec", help="JSON regime description; defaults to the built-in reference scenario"
    )
    sub.add_argument("--output", help="output path (default: stdout)")

    sub = commands.add_parser(
        "diagnose", help="emit running correlations (and optional RSI/RSSI traces)"
    )
    sub.set_defaults(run=_cmd_diagnose)
    _add_inputs(sub, 2)
    sub.add_argument(
        "--window", type=int, default=21, help="running-correlation window (default %(default)s)"
    )
    sub.add_argument("--traces", help="also write per-index RSI/RSSI traces to this CSV")
    return parser


_parser = functools.cache(build_parser)  # main's, built on its first call, not at import


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.run(args)
    except ParameterError as exc:
        sys.stderr.write(f"srsd: usage error: {exc}\n")
        return 1
    except DataError as exc:
        sys.stderr.write(f"srsd: data error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
