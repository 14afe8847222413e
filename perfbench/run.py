"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the six end-to-end metrics; ``--trace 1`` prints the
per-layer metrics instead (see README.md for both lists).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program under test is imported from the
checkout's ``src/`` directory; without it the benchmark exits with code 2.
A run that times too few ops for its tail exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

END_TO_END = {
    "setup_s": "s",
    "norm_op_ms_p50": "ms",
    "norm_op_ms_tail": "ms",
    "norm_ops_per_s": "1/s",
    "plan_mb": "MB",
    "peak_rss_mb": "MB",
}

WALL = {
    "wall.setup_s": "s",
    "wall.op_ms_p50": "ms",
    "wall.op_ms_tail": "ms",
    "wall.ops_per_s": "1/s",
    "host.ref_kernel_ms": "ms",
}
"""The same timings on the wall clock, and the reference kernel's own time.
Every run prints them; the traced run reports them as metrics."""

PER_LAYER = {
    "acoustics.simulate_ms": "ms",
    "api.session_ms": "ms",
    "api.engine_build_ms": "ms",
    "core.delays_ms.exact": "ms",
    "core.delays_ms.tablefree": "ms",
    "core.delays_ms.tablesteer": "ms",
    "core.delays_ms.tablesteer_float": "ms",
    "core.scanline_delays_ms": "ms",
    "core.delays_per_s": "1/s",
    "beamformer.weights_ms": "ms",
    "kernels.index_ms": "ms",
    "kernels.compile_ms": "ms",
    "kernels.gather_ms": "ms",
    "kernels.weights_ms": "ms",
    "kernels.accumulate_ms": "ms",
    "kernels.gather_mb": "MB",
    "kernels.plan_bytes_per_entry": "bytes",
    "kernels.tiles_per_frame": "count",
    "kernels.segment_ms": "ms",
    "runtime.cache_hits": "count",
    "runtime.cache_misses": "count",
    "runtime.cache_evictions": "count",
    "runtime.cache_hit_ratio": "ratio",
    "runtime.beamform_ms": "ms",
    "runtime.service_overhead_ms": "ms",
    "scenarios.score_ms": "ms",
    "sweep.cell_ms.exact": "ms",
    "sweep.cell_ms.tablefree": "ms",
    "sweep.cell_ms.tablesteer": "ms",
    "sweep.cell_ms.tablesteer_float": "ms",
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_tail": "ms",
    "server.service_ms_p50": "ms",
    "server.generator_late_ms_max": "ms",
    "observability.scrape_ms": "ms",
    "observability.trace_overhead_ms": "ms",
    "observability.trace_overhead_pct": "%",
    **WALL,
}

STANDIN_SERVE_SECONDS = 8.0
"""Window of the short ``serve`` run that supplies ``server.*`` figures
to the traced runs of the other workloads."""


def wall(runs) -> dict[str, float]:
    """Wall-clock op timings pooled over ``runs``, and the reference
    kernel's median time (how fast the host ran meanwhile)."""
    from measure import median, tail
    op_s = [op for run in runs for op in run.op_s]
    return {
        "wall.setup_s": median([s for run in runs for s in run.setup_s]),
        "wall.op_ms_p50": median(op_s) * 1e3,
        "wall.op_ms_tail": tail(op_s)[0] * 1e3,
        "wall.ops_per_s": len(op_s) / sum(run.window_s for run in runs),
        "host.ref_kernel_ms":
            median([ref for run in runs for ref in run.ref_s]) * 1e3,
    }


def end_to_end(run) -> tuple[dict[str, float], list[str]]:
    """The six end-to-end figures of one run, plus notes on how they were
    taken and the same timings on the wall clock."""
    from measure import TAIL_BEYOND, median, normalised, tail
    norm_s = normalised(run.op_s, run.ref_s)
    value, percentile = tail(norm_s)
    if run.offered_rate is None:
        # a closed loop: one client completing ops back to back
        ops_per_s = len(norm_s) / sum(norm_s)
    else:
        # an open loop: goodput at the fixed offered rate
        ops_per_s = len(run.op_s) / run.window_s
    metrics = {
        "setup_s": median(normalised(run.setup_s, run.setup_ref_s)),
        "norm_op_ms_p50": median(norm_s) * 1e3,
        "norm_op_ms_tail": value * 1e3,
        "norm_ops_per_s": ops_per_s,
        "plan_mb": run.plan_bytes / 1e6,
        "peak_rss_mb": run.peak_rss_mb,
    }
    notes = [f"norm_op_ms_tail is p{percentile:.1f} of {len(norm_s)} ops "
             f"({TAIL_BEYOND} beyond it); setup_s is the median of "
             f"{len(run.setup_s)} normalised set-ups"]
    notes += [f"{name} = {value:.6g} {WALL[name]} (not gated)"
              for name, value in wall([run]).items()]
    return metrics, notes


def per_layer(workload: str, seed: int, seconds: float
              ) -> tuple[dict[str, float], list]:
    """The per-layer figures of one traced run, plus the runs it made.

    The window is split untraced / traced / untraced (a quarter, a half,
    a quarter), so a linear drift in host speed cancels out of the tracing
    overhead: the difference of the traced and the pooled untraced median
    normalised op latency.  The untraced quarters also give the wall-clock
    figures.  The layer probes supply the figures that need no traffic;
    the traced half supplies the ones only this workload's traffic
    produces, and a short ``serve`` run or one ``sweep`` pass stands in
    for the server and sweep layers on the workloads that do not load
    them.
    """
    from layers import probe_layers
    from measure import median, normalised
    from workloads import WORKLOADS, serve, sweep

    run = WORKLOADS[workload]
    before = run(seed, seconds / 4, repeats=1)
    traced = run(seed, seconds / 2, repeats=1, traced=True)
    after = run(seed, seconds / 4, repeats=1)
    runs = [before, traced, after]
    layers = probe_layers(seed)
    stand_ins = (
        ("serve", "server.", lambda: serve(seed, STANDIN_SERVE_SECONDS,
                                           repeats=1)),
        ("sweep", "sweep.", lambda: sweep(seed, 0.0, repeats=1)),
    )
    for name, prefix, stand_in in stand_ins:
        if workload != name:
            extra = stand_in()
            runs.append(extra)
            layers.update({key: value for key, value in extra.layers.items()
                           if key.startswith(prefix)})
    layers.update(traced.layers)
    layers.update(wall([before, after]))
    untraced_ms = 1e3 * median(normalised(before.op_s + after.op_s,
                                          before.ref_s + after.ref_s))
    traced_ms = 1e3 * median(normalised(traced.op_s, traced.ref_s))
    layers["observability.trace_overhead_ms"] = traced_ms - untraced_ms
    layers["observability.trace_overhead_pct"] = \
        100 * (traced_ms - untraced_ms) / untraced_ms
    return layers, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "tiled", "serve", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        values, runs = per_layer(args.workload, args.seed, args.seconds)
        units = PER_LAYER
        notes = [f"tracing overhead on norm_op_ms_p50: "
                 f"{values['observability.trace_overhead_ms']:+.2f} ms "
                 f"({values['observability.trace_overhead_pct']:+.1f}%)"]
    else:
        from workloads import WORKLOADS
        run = WORKLOADS[args.workload](args.seed, args.seconds)
        values, notes = end_to_end(run)
        runs, units = [run], END_TO_END

    missing = set(units) - set(values)
    bad = [name for name in units
           if name in values and not math.isfinite(values[name])]
    if missing or bad:
        raise RuntimeError(f"benchmark bug: metrics missing {sorted(missing)}"
                           f" or not finite {bad}")
    for name, unit in units.items():
        print(f"{args.workload}/{name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(f"{args.workload}: {note}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
