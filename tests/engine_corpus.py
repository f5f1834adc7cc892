"""Differential corpus of the sequential engine's outputs.

Every case is one seeded series run through `detect_mean` and
`detect_variance`, and every fourth case also through a mean and a variance
monitor that is initialised part-way into the series and fed the rest point
by point. A case records, per detector, the change-point indices (provisional
ones negated) and a crc32 of the exact bits of everything the detector
returns: change-points with their index values, p-values and provisional
flags, the regimes, the output series and the trace; or the raised error's
message instead. A monitor records its confirmed change-points and a crc32 of
its `StepStatus` sequence.

The inputs cover white noise, planted mean and variance shifts, integer
rounding, a 1e12 offset and constant stretches at l in {5, 20, 80} and
p in {0.01, 0.05, 0.5}, plus the packaged fixture at every (l, p).

A second corpus, `pipeline_corpus.json`, pins the correlation layer: every
case is one seeded pair run through `run_srsd` and `step_skipping_mode`, and
records the correlation change-points (provisional ones negated) and a crc32
of the exact `result_to_json` text, or the raised error's message instead.
The pairs carry planted correlation, mean and variance shifts, integer
rounding and constant stretches at l in {5, 20} and p in {0.05, 0.5}.

    python tests/engine_corpus.py --freeze

rewrites both files from the code in `src/`; `test_engine_corpus.py` checks
the code against the frozen files. Without `--freeze` the script checks them
too, and prints what a re-freeze must report: every case with a run whose
change-points or error moved, and the number of cases whose bits alone
changed.
"""
from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).with_name("engine_corpus.json")
PIPELINE_CORPUS = Path(__file__).with_name("pipeline_corpus.json")
SERIES = 2000
STREAM_EVERY = 4
LS = (5, 20, 80)
PS = (0.01, 0.05, 0.5)
SHAPES = ("noise", "shift", "rounded", "offset", "constant")
PAIRS = 400
PAIR_LS = (5, 20)
PAIR_PS = (0.05, 0.5)
PAIR_SHAPES = ("correlation", "mean", "variance", "rounded", "constant")
PIPELINE_MODES = ("run_srsd", "step_skipping_mode")


def _hex(x: float | None) -> str:
    return "-" if x is None else float(x).hex()


def _crc(parts) -> str:
    crc = 0
    for part in parts:
        crc = zlib.crc32(part if isinstance(part, bytes) else str(part).encode(), crc)
    return "%08x" % crc


def make_series(seed: int) -> tuple[dict, np.ndarray]:
    """The case with this seed: its description and its input values."""
    l, p = LS[seed % 3], PS[(seed // 3) % 3]
    shape = SHAPES[(seed // 9) % len(SHAPES)]
    rng = np.random.default_rng([20261018, seed])
    n = int(rng.integers(l, 3 * l + 61))
    if rng.random() < 0.02:
        n = l - 1  # too short: the recorded outcome is the error
    x = rng.standard_normal(n)
    if shape == "shift":
        a, b = rng.integers(0, n, size=2)
        x[a:] += rng.normal(0.0, 2.0)
        x[b:] *= rng.uniform(0.3, 3.0)
    elif shape == "rounded":
        x = np.round(x * rng.uniform(0.5, 3.0))
    elif shape == "offset":
        x = x + 1e12
    elif shape == "constant":
        a = int(rng.integers(0, n))
        x[a : a + int(rng.integers(1, 2 * l + 1))] = rng.normal(0.0, 1.0)
    return {"seed": seed, "shape": shape, "l": l, "p": p, "n": n}, x


def fixture_cases() -> list[tuple[dict, np.ndarray]]:
    import srsd

    x, y, _ = srsd.canonical_fixture()
    return [
        ({"seed": None, "shape": f"fixture-{s.name}", "l": l, "p": p, "n": len(s)}, s.values)
        for s in (x, y)
        for l in LS
        for p in PS
    ]


def record_batch(detect, values: np.ndarray, params) -> dict:
    try:
        res = detect(values, params)
    except Exception as exc:  # the error is the recorded outcome
        return {"error": f"{type(exc).__name__}: {exc}"}
    cps = res.change_points
    return {
        "cps": [-cp.index if cp.provisional else cp.index for cp in cps],
        "crc": _crc(
            [
                *((cp.index, _hex(cp.index_value), _hex(cp.p_value), cp.provisional) for cp in cps),
                *((r.start, r.end, r.kind, _hex(r.value), _hex(r.shift_p_value)) for r in res.regimes),
                res.series.values.tobytes(),
                np.asarray(res.trace).tobytes(),
            ]
        ),
    }


def record_stream(kind: str, values: np.ndarray, params, k: int) -> dict:
    """Statuses of a monitor initialised on values[:k] and fed values[k:]."""
    import srsd

    try:
        if kind == "mean":
            avg_var = srsd.running_avg_variance(values, params.l)
            state = srsd.init_mean_monitor(values[:k], params, avg_var=avg_var)
            step = srsd.monitor_mean
        else:
            state = srsd.init_variance_monitor(values[:k], params)
            step = srsd.monitor_variance
        statuses = [step(state, float(v), params)[1] for v in values[k:]]
    except Exception as exc:  # the error is the recorded outcome
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "confirmed": [s.change_point.index for s in statuses if s.state == "confirmed"],
        "crc": _crc(
            (
                s.state,
                s.candidate_index,
                _hex(s.index_value),
                None if s.change_point is None else s.change_point.index,
                None if s.change_point is None else _hex(s.change_point.index_value),
            )
            for s in statuses
        ),
    }


def stream_start(meta: dict) -> int | None:
    """How many points the case's monitors start from; None for a case without monitors."""
    seed = meta["seed"]
    if seed is None or seed % STREAM_EVERY or meta["n"] < meta["l"]:
        return None
    return int(np.random.default_rng([20261018, seed, 1]).integers(meta["l"], meta["n"] + 1))


def run_case(meta: dict, values: np.ndarray) -> dict:
    import srsd

    params = srsd.DetectionParams(p=meta["p"], l=meta["l"])
    out = dict(meta)
    out["mean"] = record_batch(srsd.detect_mean, values, params)
    out["variance"] = record_batch(srsd.detect_variance, values, params)
    k = stream_start(meta)
    if k is not None:
        out["stream"] = {
            "k": k,
            "mean": record_stream("mean", values, params, k),
            "variance": record_stream("variance", values, params, k),
        }
    return out


def all_cases() -> list[tuple[dict, np.ndarray]]:
    return [make_series(seed) for seed in range(SERIES)] + fixture_cases()


def compute() -> list[dict]:
    return [run_case(meta, values) for meta, values in all_cases()]


def make_pair(seed: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """The pipeline case with this seed: its description and its two series."""
    l, p = PAIR_LS[seed % 2], PAIR_PS[(seed // 2) % 2]
    shape = PAIR_SHAPES[(seed // 4) % len(PAIR_SHAPES)]
    rng = np.random.default_rng([20261018, 2, seed])
    n = int(rng.integers(2 * l, 3 * l + 61))
    a, b = (int(k) for k in rng.integers(1, n, size=2))
    rho0, rho1 = rng.uniform(-0.9, 0.9, size=2)
    rho = np.where(np.arange(n) < a, rho0, rho1) if shape == "correlation" else rho0
    z = rng.standard_normal((2, n))
    x, y = z[0], rho * z[0] + np.sqrt(1.0 - rho * rho) * z[1]
    if shape == "mean":
        x[a:] += rng.normal(0.0, 2.0)
        y[b:] += rng.normal(0.0, 2.0)
    elif shape == "variance":
        x[a:] *= rng.uniform(0.3, 3.0)
        y[b:] *= rng.uniform(0.3, 3.0)
    elif shape == "rounded":
        scale = rng.uniform(0.5, 3.0)
        x, y = np.round(x * scale), np.round(y * scale)
    elif shape == "constant":
        stop = a + int(rng.integers(1, 2 * l + 1))
        x[a:stop] = rng.normal(0.0, 1.0)
        if rng.random() < 0.5:
            y[a:stop] = rng.normal(0.0, 1.0)
    return {"seed": seed, "shape": shape, "l": l, "p": p, "n": n}, x, y


def record_pipeline(run, x: np.ndarray, y: np.ndarray, params) -> dict:
    from srsd.cli import result_to_json

    try:
        res = run(x, y, params)
        text = result_to_json(res)
    except Exception as exc:  # the error is the recorded outcome
        return {"error": f"{type(exc).__name__}: {exc}"}
    cps = res.correlation_change_points
    return {
        "cps": [-cp.index if cp.provisional else cp.index for cp in cps],
        "crc": _crc([text]),
    }


def run_pair_case(meta: dict, x: np.ndarray, y: np.ndarray) -> dict:
    import srsd

    params = srsd.DetectionParams(p=meta["p"], l=meta["l"])
    out = dict(meta)
    for mode in PIPELINE_MODES:
        out[mode] = record_pipeline(getattr(srsd, mode), x, y, params)
    return out


def all_pairs() -> list[tuple[dict, np.ndarray, np.ndarray]]:
    return [make_pair(seed) for seed in range(PAIRS)]


def compute_pipeline() -> list[dict]:
    return [run_pair_case(meta, x, y) for meta, x, y in all_pairs()]


def load(path: Path = CORPUS) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def describe(case: dict) -> str:
    return f"seed={case['seed']} l={case['l']} p={case['p']} kind={case['shape']} n={case['n']}"


def pipeline_difference(frozen: dict, now: dict) -> str | None:
    """Where a recomputed pipeline case departs from its frozen record, or None."""
    for mode in PIPELINE_MODES:
        a, b = frozen[mode], now[mode]
        if a == b:
            continue
        if "error" in a or "error" in b:
            return f"{mode}: frozen {a.get('error', 'a result')!r}, now {b.get('error', 'a result')!r}"
        if a["cps"] != b["cps"]:
            return (
                f"{mode}: correlation change-points were {a['cps']}, now {b['cps']} "
                "(negative: provisional)"
            )
        return f"{mode}: same correlation change-points {a['cps']}, but the result JSON differs"
    return None


def first_difference(frozen: dict, now: dict) -> str | None:
    """Where a recomputed case departs from its frozen record, or None."""
    for what in ("mean", "variance"):
        a, b = frozen[what], now[what]
        if a == b:
            continue
        if "error" in a or "error" in b:
            return f"{what}: frozen {a.get('error', 'a result')!r}, now {b.get('error', 'a result')!r}"
        cps_a, cps_b = a["cps"], b["cps"]
        for j, (ca, cb) in enumerate(zip(cps_a, cps_b)):
            if ca != cb:
                return f"{what}: change-point {j} was {ca}, now {cb} (negative: provisional)"
        if len(cps_a) != len(cps_b):
            j = min(len(cps_a), len(cps_b))
            return f"{what}: change-point {j} was {cps_a[j:j+1]}, now {cps_b[j:j+1]}"
        return (
            f"{what}: same change-points {cps_a}, but the bits of their index values, "
            "p-values or flags, or of the regimes, series or trace differ"
        )
    if frozen.get("stream") != now.get("stream"):
        fs, ns = frozen.get("stream", {}), now.get("stream", {})
        for what in ("mean", "variance"):
            if fs.get(what) != ns.get(what):
                return f"{what} monitor from k={fs.get('k')}: frozen {fs.get(what)}, now {ns.get(what)}"
        return f"monitor: frozen {fs}, now {ns}"
    return None


def _outcome(record: dict) -> str:
    if "error" in record:
        return repr(record["error"])
    return f"change-points {record.get('cps', record.get('confirmed'))}"


def moved(frozen: dict, now: dict) -> list[str]:
    """The runs of a recomputed case whose change-points or error left the frozen record's.

    Any other run that differs changed only bits.
    """
    fs, ns = frozen.get("stream", {}), now.get("stream", {})
    runs = [(w, frozen[w], now[w]) for w in ("mean", "variance", *PIPELINE_MODES) if w in frozen]
    runs += [(f"{w} monitor", fs[w], ns.get(w, {})) for w in ("mean", "variance") if w in fs]
    return [
        f"{w}: {_outcome(a)}, now {_outcome(b)}" for w, a, b in runs if _outcome(a) != _outcome(b)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--freeze", action="store_true", help=f"rewrite {CORPUS.name}")
    args = parser.parse_args(argv)
    failed = False
    for path, cases, difference in (
        (CORPUS, compute(), first_difference),
        (PIPELINE_CORPUS, compute_pipeline(), pipeline_difference),
    ):
        if args.freeze:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases) + "\n]\n")
            print(f"froze {len(cases)} cases into {path}")
            continue
        bad = [(f, c) for f, c in zip(load(path), cases) if difference(f, c)]
        moves = [(f, moved(f, c)) for f, c in bad if moved(f, c)]
        for frozen, runs in moves:
            print(f"{describe(frozen)}: {'; '.join(runs)}")
        print(
            f"{len(cases) - len(bad)} of {len(cases)} cases of {path.name} match; "
            f"{len(moves)} move change-points or errors (listed above), "
            f"{len(bad) - len(moves)} change bits only"
        )
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
