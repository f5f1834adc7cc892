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
--columns. If the first column is not selected and holds strictly increasing
numbers, it is used as time labels (years, typically). CSV output uses 9
significant digits; JSON output uses shortest round-trip floats and carries a
"schema_version" field, so identical inputs and config produce byte-identical
files. Exit codes: 0 success, 1 usage error, 2 data error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields, is_dataclass
from types import UnionType
from typing import Any, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from ._engine import KINDS, ShiftResult
from .core import (
    ChangePoint,
    DataError,
    DetectionParams,
    ParameterError,
    Regime,
    TimeSeries,
    validate_params,
)
from .mean_shift import detect_mean
from .pipeline import CandidateRecord, SrsdResult, run_srsd
from .prewhiten import Ar1Estimate, estimate_ar1, prewhiten
from .stats import pearson_r
from .synthgen import RegimeSpec, canonical_spec, generate_pair
from .variance_shift import detect_variance

__all__ = ["main", "parse_csv", "result_to_json", "result_from_json"]

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# CSV input


def _parse_cell(cell: str, column: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"could not parse {cell.strip()!r} in column {column!r} at row {row}"
        ) from None


def parse_csv(path: str, columns: Sequence[str]) -> list[TimeSeries]:
    """Read named columns from a headered CSV as TimeSeries.

    Row numbers in error messages are physical file rows (the header is row
    1). The first column doubles as time labels when it is not itself
    selected and holds strictly increasing numbers.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    if not lines:
        raise DataError(f"{path}: file is empty")
    header = [name.strip() for name in lines[0].split(",")]
    for name in columns:
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears twice in the header")
        if name not in header:
            raise DataError(
                f"{path}: column {name!r} not found; available: {', '.join(header)}"
            )
    rows = []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(
                f"{path}: row {rownum} has {len(cells)} cells, expected {len(header)}"
            )
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
        values = [_parse_cell(cells[col], name, rownum) for rownum, cells in rows]
        out.append(TimeSeries(values, labels=labels, name=name))
    return out


# ---------------------------------------------------------------------------
# JSON serialization (shortest round-trip floats, fixed key order)

# Field types of each result dataclass, resolved once per class.
_field_types = functools.cache(get_type_hints)


def _shift_keys(regime_kind: str) -> dict[str, str]:
    """JSON keys of a ShiftResult's series and trace: named after its detector."""
    kind = KINDS[regime_kind]
    return {"series": kind.series_name, "trace": kind.trace_name}


def _to_obj(value: Any) -> Any:
    """JSON form of a result value; a dataclass becomes an object in field order."""
    if isinstance(value, TimeSeries):
        labels = None if value.labels is None else value.labels.tolist()
        return {"name": value.name, "values": value.values.tolist(), "labels": labels}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_to_obj(v) for v in value]
    if is_dataclass(value):
        keys = _shift_keys(value.regimes[0].kind) if isinstance(value, ShiftResult) else {}
        return {keys.get(f.name, f.name): _to_obj(getattr(value, f.name)) for f in fields(value)}
    return value


def _from_obj(tp: Any, obj: Any) -> Any:
    """Rebuild a value of type tp from its _to_obj form."""
    if obj is None:
        return None
    origin = get_origin(tp)
    if origin in (Union, UnionType):  # "X | None" holding an X
        return _from_obj(get_args(tp)[0], obj)
    if origin in (list, tuple, frozenset):  # every result container holds one type
        return origin(_from_obj(get_args(tp)[0], v) for v in obj)
    if tp is TimeSeries:
        return TimeSeries(obj["values"], labels=obj["labels"], name=obj["name"])
    if tp is np.ndarray:
        return np.asarray(obj, dtype=float)
    if is_dataclass(tp):
        keys = _shift_keys(obj["regimes"][0]["kind"]) if tp is ShiftResult else {}
        types = _field_types(tp)
        return tp(
            **{f.name: _from_obj(types[f.name], obj[keys.get(f.name, f.name)]) for f in fields(tp)}
        )
    return obj


def _dumps(command: str, body: dict[str, Any]) -> str:
    """A result file: the header, then body in its order."""
    doc = {"schema_version": SCHEMA_VERSION, "tool": "srsd", "version": __version__}
    doc.update(command=command, **body)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# Key order of a pipeline result file after the header.
_SRSD_KEYS = "params corr_params skipped ar1 x y mean_results variance_results correlation".split()


def result_to_json(result: SrsdResult, command: str = "detect-correlation") -> str:
    """Serialize a full pipeline result, intermediates and audit included."""
    return _dumps(command, {key: _to_obj(getattr(result, key)) for key in _SRSD_KEYS})


def result_from_json(text: str) -> SrsdResult:
    """Rebuild the SrsdResult a result file describes; inverse of result_to_json."""
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported schema_version {doc.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION!r}"
        )
    return _from_obj(SrsdResult, doc)


def _single_to_json(
    command: str,
    params: DetectionParams,
    series: TimeSeries,
    ar1: Ar1Estimate | None,
    result: ShiftResult,
) -> str:
    head = {"params": _to_obj(params), "series": _to_obj(series), "ar1": _to_obj(ar1)}
    return _dumps(command, {**head, **_to_obj(result)})


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


_TABLE_HEADER = (
    "record,series,kind,start,end,index,value,p_value,ci_low,ci_high,provisional,accepted"
)
_TABLE_COLUMNS = _TABLE_HEADER.split(",")
# Table column of each record field named differently from its column.
_COLUMN_OF = {"shift_p_value": "p_value", "index_value": "value", "source": "series"}
_RECORD_OF = {Regime: "regime", ChangePoint: "change_point", CandidateRecord: "candidate"}


def _row(record: Regime | ChangePoint | CandidateRecord, **cells: Any) -> str:
    """One table row: the record's fields in their columns, over the given cells."""
    cells["record"] = _RECORD_OF[type(record)]
    cells.update((_COLUMN_OF.get(f.name, f.name), getattr(record, f.name)) for f in fields(record))
    return ",".join(_fmt(cells.get(column)) for column in _TABLE_COLUMNS)


def _table_rows(
    series_name: str,
    regimes: Sequence[Regime],
    change_points: Sequence[ChangePoint],
    candidates: Sequence[CandidateRecord] = (),
) -> list[str]:
    kind = regimes[0].kind if regimes else ""
    return (
        [_row(r, series=series_name) for r in regimes]
        + [_row(c, series=series_name, kind=kind) for c in change_points]
        + [_row(c, kind="correlation") for c in candidates]
    )


def _srsd_to_csv(result: SrsdResult) -> str:
    rows = [_TABLE_HEADER]
    for results in (result.mean_results, result.variance_results):
        for series, res in zip((result.x, result.y), results):
            rows += _table_rows(series.name or "series", res.regimes, res.change_points)
    corr = result.correlation
    rows += _table_rows("correlation", corr.regimes, corr.change_points, corr.candidates)
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _params_from_args(args: argparse.Namespace) -> DetectionParams:
    return validate_params(
        DetectionParams(p=args.p, l=args.l, prewhiten=args.prewhiten, m=args.m)
    )


def _corr_params_from_args(
    args: argparse.Namespace, params: DetectionParams
) -> DetectionParams | None:
    if args.p_corr is None and args.l_corr is None:
        return None
    return validate_params(
        DetectionParams(
            p=args.p_corr if args.p_corr is not None else params.p,
            l=args.l_corr if args.l_corr is not None else params.l,
        )
    )


def _columns(args: argparse.Namespace, expected: int) -> list[str]:
    names = [c.strip() for c in args.columns.split(",") if c.strip()]
    if len(names) != expected:
        raise ParameterError(
            f"{args.command} requires exactly {expected} column"
            f"{'s' if expected != 1 else ''}, got {len(names)} from {args.columns!r}"
        )
    return names


def _cmd_detect_single(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    (series,) = parse_csv(args.input, _columns(args, 1))
    ar1 = None
    if params.prewhiten != "none":
        ar1 = estimate_ar1(series, params.m, params.prewhiten)
        series = prewhiten(series, ar1.alpha)
    detect = detect_mean if args.command == "detect-mean" else detect_variance
    res = detect(series, params)
    if args.format == "json":
        text = _single_to_json(args.command, params, series, ar1, res)
    else:
        rows = _table_rows(series.name or "series", res.regimes, res.change_points)
        text = "\n".join([_TABLE_HEADER, *rows]) + "\n"
    _write_output(args.output, text)
    return 0


def _run_pair(args: argparse.Namespace) -> SrsdResult:
    params = _params_from_args(args)
    x, y = parse_csv(args.input, _columns(args, 2))
    return run_srsd(x, y, params, corr_params=_corr_params_from_args(args, params))


def _cmd_detect_correlation(args: argparse.Namespace) -> int:
    result = _run_pair(args)
    text = result_to_json(result) if args.format == "json" else _srsd_to_csv(result)
    _write_output(args.output, text)
    return 0


def _spec_from_file(path: str, seed: int) -> RegimeSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise DataError(f"{path}: spec must be a JSON object with at least 'n'")
    kwargs: dict[str, Any] = {"n": doc["n"], "seed": seed}
    for key in ("correlation", "x_mean", "y_mean", "x_variance", "y_variance"):
        if key in doc:
            try:
                kwargs[key] = tuple((int(s), float(v)) for s, v in doc[key])
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}: {key} must be a list of [start, value] pairs"
                ) from None
    if "correlation" not in kwargs:
        raise DataError(f"{path}: spec requires a 'correlation' segment list")
    return RegimeSpec(**kwargs)


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed
    env_seed = os.environ.get("SRSD_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ParameterError(f"SRSD_SEED must be an integer, got {env_seed!r}") from None
    spec = _spec_from_file(args.spec, seed) if args.spec else canonical_spec(seed)
    x, y = generate_pair(spec)
    rows = ["index,x,y"]
    for i, (xv, yv) in enumerate(zip(x.values, y.values), start=1):
        rows.append("%d,%s,%s" % (i, _fmt(float(xv)), _fmt(float(yv))))
    _write_output(args.output, "\n".join(rows) + "\n")
    return 0


def _running_correlation(x: np.ndarray, y: np.ndarray, window: int) -> list[float]:
    return [
        pearson_r(x[s : s + window], y[s : s + window])
        for s in range(len(x) - window + 1)
    ]


def _cmd_diagnose(args: argparse.Namespace) -> int:
    result = _run_pair(args)
    n = len(result.x)
    if not 2 <= args.window <= n:
        raise ParameterError(f"--window must lie in [2, {n}], got {args.window}")
    raw = _running_correlation(result.x.values, result.y.values, args.window)
    adj_x, adj_y = (res.normalized.values for res in result.variance_results)
    adjusted = _running_correlation(adj_x, adj_y, args.window)
    rows = ["start,end,raw,adjusted"]
    for i, (rv, av) in enumerate(zip(raw, adjusted)):
        rows.append(
            "%d,%d,%s,%s" % (i + 1, i + args.window, _fmt(float(rv)), _fmt(float(av)))
        )
    _write_output(args.output, "\n".join(rows) + "\n")

    if args.traces:
        trace_rows = ["series,detector,index,value"]
        names = (result.x.name or "x", result.y.name or "y")
        named = [
            *zip(names, result.mean_results),
            *zip(names, result.variance_results),
            ("sum", result.correlation.sum_channel),
            ("diff", result.correlation.diff_channel),
        ]
        for name, res in named:
            if res is None:
                continue
            detector = KINDS[res.regimes[0].kind].trace_name
            for i, value in enumerate(res.trace.tolist(), start=1):
                trace_rows.append("%s,%s,%d,%s" % (name, detector, i, _fmt(value)))
        _write_output(args.traces, "\n".join(trace_rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; this tool reserves 2 for data errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_params(sub: argparse.ArgumentParser, corr: bool = False) -> None:
    sub.add_argument("--p", type=float, default=0.05, help="target significance level (default 0.05)")
    sub.add_argument("--l", type=int, default=20, help="cut-off length (default 20)")
    sub.add_argument(
        "--prewhiten",
        choices=("none", "mpk", "ip4"),
        default="none",
        help="AR(1) prewhitening with the given bias correction (default none)",
    )
    sub.add_argument("--m", type=int, default=None, help="subsample size for AR(1) estimation")
    if corr:
        sub.add_argument(
            "--p-corr", type=float, default=None, help="override p for the correlation step"
        )
        sub.add_argument(
            "--l-corr", type=int, default=None, help="override l for the correlation step"
        )


def _add_io(sub: argparse.ArgumentParser, n_columns: int) -> None:
    sub.add_argument("input", help="input CSV with a header row")
    sub.add_argument(
        "--columns",
        required=True,
        help=(
            "value column name" if n_columns == 1 else "two value column names, comma-separated"
        ),
    )
    sub.add_argument("--output", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="srsd", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"srsd {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, n_columns, helptext in (
        ("detect-mean", 1, "detect mean shifts in one column"),
        ("detect-variance", 1, "detect variance shifts in one column"),
        ("detect-correlation", 2, "run the full three-step pipeline on two columns"),
    ):
        sub = commands.add_parser(name, help=helptext)
        _add_io(sub, n_columns)
        _add_params(sub, corr=n_columns == 2)
        sub.add_argument("--format", choices=("json", "csv"), default="json")

    sub = commands.add_parser("generate", help="write a synthetic bivariate CSV")
    sub.add_argument("--seed", type=int, default=0, help="generator seed (SRSD_SEED overrides)")
    sub.add_argument(
        "--spec",
        default=None,
        help="JSON regime description; defaults to the built-in reference scenario",
    )
    sub.add_argument("--output", default=None, help="output path (default: stdout)")

    sub = commands.add_parser(
        "diagnose", help="emit running correlations (and optional RSI/RSSI traces)"
    )
    _add_io(sub, 2)
    _add_params(sub, corr=True)
    sub.add_argument(
        "--window", type=int, default=21, help="running-correlation window (default 21)"
    )
    sub.add_argument(
        "--traces", default=None, help="also write per-index RSI/RSSI traces to this CSV"
    )
    return parser


_HANDLERS = {
    "detect-mean": _cmd_detect_single,
    "detect-variance": _cmd_detect_single,
    "detect-correlation": _cmd_detect_correlation,
    "generate": _cmd_generate,
    "diagnose": _cmd_diagnose,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParameterError as exc:
        sys.stderr.write(f"srsd: usage error: {exc}\n")
        return 1
    except DataError as exc:
        sys.stderr.write(f"srsd: data error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
