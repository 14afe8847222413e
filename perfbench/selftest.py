"""Self-test of the benchmark itself (not of the program under test).

Usage, from the root of a checkout (takes a few minutes on ``small``)::

    python3 perfbench/selftest.py

1. The correctness check must reject a perturbed volume: one voxel moved by
   one ulp, and a sign-flipped zero, both fail :func:`workloads.identical`,
   and :func:`workloads.count_failed` charges every op of a key whose first
   volume disagrees with the oracle.
2. A tail needs at least ten samples beyond it: fewer ops make it raise
   instead of reporting the maximum.
3. A short run of every workload ``run.py`` offers, untraced and traced,
   must print every metric that ``BENCHMARK.json`` names, finite, with the
   unit it declares, and a result line in the contract's shape with no
   failed op.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHORT_SECONDS = {"stream": 4, "tiled": 8, "serve": 16, "sweep": 16}
"""Shortest windows that still time eleven ops in every part of a run
(a traced run splits its window into quarters and a half)."""


def check_correctness_check() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from repro.api import Session

    from workloads import ENGINE, cine, count_failed, identical

    volume = Session(ENGINE).service().submit_frame(cine(seed=7)[0]).rf
    assert identical(volume, volume.copy())

    bumped = volume.copy()
    bumped.flat[123] = np.nextafter(bumped.flat[123], np.inf)
    assert not identical(volume, bumped), "one-ulp change went unnoticed"
    zero = np.zeros(4)
    assert not identical(zero, -zero), "sign of zero went unnoticed"
    assert not identical(volume, volume.astype(np.float32)), \
        "dtype change went unnoticed"

    counts, drift = Counter({0: 5, 1: 3}), Counter({1: 1})
    outputs = {0: bumped, 1: volume}
    assert count_failed(outputs, counts, drift, lambda key: volume) == 5 + 1
    print("selftest: correctness check rejects perturbed volumes")


def check_tail() -> None:
    from measure import TAIL_BEYOND, tail

    assert tail(list(range(100))) == (89.0, 90.0)
    try:
        tail([1.0] * TAIL_BEYOND)
    except ValueError:
        print("selftest: a tail on too few samples raises")
        return
    raise AssertionError("a tail on ten samples did not raise")


def check_workload(workload: str, trace: int, declared: dict) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(SHORT_SECONDS[workload]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(declared), \
        set(metrics) ^ set(declared)
    for name, unit in declared.items():
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (name, value)
        assert metrics[name]["unit"] == unit, (name, metrics[name]["unit"])
    print(f"selftest: {workload} trace={trace}: {len(metrics)} metrics ok")


def main() -> int:
    check_correctness_check()
    check_tail()
    from workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    levels = {0: benchmark["end_to_end"], 1: benchmark["per_layer"]}
    # Every workload run.py offers, not only the ones BENCHMARK.json gates.
    for workload in WORKLOADS:
        for trace, metrics in levels.items():
            check_workload(workload, trace,
                           {m["name"]: m["unit"] for m in metrics})
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
