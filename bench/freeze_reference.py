"""Regenerate bench/reference.json from the srsd sources of this checkout.

The reference freezes what the detectors find on every benchmark input: the
change-points of all six passes and the accepted correlation shifts of the
pair_long pair, a per-call digest of the same for each ensemble_short call
(plus criterion 3's hit count and median errors), and the change-points of
both monitor_stream monitors. Only regenerate it for a change that is meant
to move a detection, and say so in the change.

    python3 bench/freeze_reference.py
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    srsd = run.import_srsd()
    reference: dict = {}
    for size, workloads in run.SIZES.items():
        reference[size] = {}
        for name, sizes in workloads.items():
            frozen = {}
            for key in range(run.REFERENCE_SEEDS):
                workload = run.WORKLOADS[name]()
                workload.setup(srsd, key, sizes, run.OUT)
                frozen[str(key)] = workload.freeze()
            reference[size][name] = frozen
            print(f"froze {size} {name}", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
