"""Replay recorded scans with the real loop kernel, on any CPython from 3.10, without numpy.

`tests/test_scan_reference.py` records in process, on the loop kernel, every
batch scan of both corpora (the state `_engine._scan` starts from, its
arguments and what it leaves) and every engine-corpus monitor stream (its
initial state, the values fed and each `StepStatus`), and pickles them in
chunks, as it goes.

    python -I tests/scan_replay.py SRC_DIR < RECORDING

pulls `_scan`, `monitor`, `_window_sum` (with its imports) and `_STABLE` out
of `SRC_DIR/_engine.py`, and the records and errors they build out of
`SRC_DIR/core.py`, with `ast`; executes them as a module that imports only the
standard library; replays each chunk read from stdin; and prints one JSON
line: the interpreter's version, the scans, streams and steps replayed, how
many scans and streams differ from the recording (by `float.hex`; errors by
message), the first few that do, and the seconds the scans and the steps took.
"""
from __future__ import annotations

import ast
import builtins
import dis
import json
import pickle
import platform
import sys
import time
import types
from array import array
from pathlib import Path

PULLED = {
    "core.py": (
        "dataclass", "DataError", "ParameterError", "ChangePoint", "PendingCandidate",
        "StepStatus", "_check_type",
    ),
    "_engine.py": ("math", "reduce", "add", "_window_sum", "_STABLE", "_scan", "monitor"),
}
# Read only where monitor rejects a state or params of the wrong type, which no replay passes.
NOT_PULLED = {"MonitorState", "DetectionParams"}


def state_record(state) -> tuple:
    """A picklable copy of everything in a monitor state that a scan or a step reads."""
    pend = state.pending
    return (
        state.kind,
        state.threshold,
        state.index_scale,
        state.raw.tolist(),
        list(state.window),
        None if pend is None else (pend.index, pend.critical, pend.csum, list(pend.values)),
        [(cp.index, cp.index_value, cp.p_value, cp.provisional) for cp in state.change_points],
    )


def outcome(state, confirmed) -> tuple:
    """What a scan leaves, by float.hex: change-points, pending candidate, window and its return."""
    pend = state.pending
    return (
        [(cp.index, cp.index_value.hex(), cp.provisional) for cp in state.change_points],
        None
        if pend is None
        else (pend.index, pend.critical.hex(), pend.csum.hex(), [v.hex() for v in pend.values]),
        [v.hex() for v in state.window],
        None if confirmed is None else (confirmed.index, confirmed.index_value.hex()),
    )


def status(step) -> tuple:
    """A StepStatus by float.hex."""
    cp = step.change_point
    return (
        step.state,
        step.candidate_index,
        None if step.index_value is None else step.index_value.hex(),
        None if cp is None else (cp.index, cp.index_value.hex()),
    )


def error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _binds(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return []


def pull(path: Path, names: tuple[str, ...]) -> ast.Module:
    """The top-level statements of path that bind names, the __future__ import first.

    An import keeps only the names asked for. Every name must be found.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    body, found = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            body.append(node)  # dataclass then reads the annotations as strings
            continue
        wanted = [name for name in _binds(node) if name in names]
        if not wanted:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            node.names = [a for a in node.names if (a.asname or a.name).split(".")[0] in names]
        body.append(node)
        found.update(wanted)
    if found != set(names):
        raise LookupError(f"{path.name} binds no {sorted(set(names) - found)}")
    return ast.Module(body=body, type_ignores=[])


def _globals_read(code: types.CodeType) -> set[str]:
    """The names code and the code nested in it look up globally, dunder names aside.

    (A class body looks up its own __annotations__ by name.)
    """
    names = {
        ins.argval
        for ins in dis.get_instructions(code)
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME") and not ins.argval.startswith("__")
    }
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _globals_read(const)
    return names


def load_kernel(source: Path) -> types.ModuleType:
    """The pulled code of source/core.py and source/_engine.py, executed as one module.

    Raises NameError if the pulled code reads a global that was not pulled.
    """
    module = types.ModuleType("srsd_replayed")
    sys.modules[module.__name__] = module  # dataclass looks up cls.__module__ in sys.modules
    for name, names in PULLED.items():
        path = source / name
        code = compile(pull(path, names), str(path), "exec")
        exec(code, module.__dict__)
        unbound = _globals_read(code) - module.__dict__.keys() - set(dir(builtins)) - NOT_PULLED
        if unbound:
            raise NameError(f"the code pulled from {name} reads {sorted(unbound)}, not pulled")
    return module


def _state(kernel: types.ModuleType, record: tuple) -> types.SimpleNamespace:
    kind, threshold, index_scale, raw, window, pend, cps = record
    return types.SimpleNamespace(
        kind=kind,
        threshold=threshold,
        index_scale=index_scale,
        raw=array("d", raw),
        window=window,
        pending=None if pend is None else kernel.PendingCandidate(*pend),
        change_points=[kernel.ChangePoint(*cp) for cp in cps],
    )


def replay(kernel: types.ModuleType, chunk: dict, report: dict) -> None:
    """Replay one chunk of the recording and add it to report."""
    errors, differ = (kernel.DataError, kernel.ParameterError), report["first"]
    t0 = time.perf_counter()
    for before, multiplicative, buf, base, i, expected in chunk["scans"]:
        report["scans"] += 1
        state = _state(kernel, before)
        try:
            got = outcome(state, kernel._scan(state, multiplicative, buf, base, i))
        except errors as exc:
            got = error(exc)
        if got != expected:
            report["scans_differing"] += 1
            differ.append(f"scan {report['scans']}: recorded {expected}, replayed {got}"[:400])
    t1 = time.perf_counter()
    for name, squared, l, before, values, expected in chunk["streams"]:
        report["streams"] += 1
        kind, params = types.SimpleNamespace(name=name, squared=squared), types.SimpleNamespace(l=l)
        state = _state(kernel, before)
        for t, (value, want) in enumerate(zip(values, expected)):
            report["steps"] += 1
            try:
                got = status(kernel.monitor(kind, state, value, params)[1])
            except errors as exc:
                got = error(exc)
            if got != want:
                report["streams_differing"] += 1
                where = f"stream {report['streams']} step {t}"
                differ.append(f"{where}: recorded {want}, replayed {got}")
                break
    del differ[5:]
    report["scan_s"] += t1 - t0
    report["step_s"] += time.perf_counter() - t1


def main(source: str) -> dict:
    kernel = load_kernel(Path(source))
    report = {"python": platform.python_version(), "scans": 0, "streams": 0, "steps": 0}
    report.update(scans_differing=0, streams_differing=0, first=[], scan_s=0.0, step_s=0.0)
    while True:
        try:
            chunk = pickle.load(sys.stdin.buffer)
        except EOFError:
            return report
        replay(kernel, chunk, report)


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
