"""Layer probes: each layer's public functions timed from outside.

Every stage is timed on fresh objects (a new provider, beamformer or plan
per call, built outside the timed region), so a memo filled by one call —
the TABLESTEER reference table, ``_scanline_weights``, a plan's gather
index — cannot hide cost from the next.  Inputs are the ``sweep``
workload's seeded static-point acquisition.  Nothing here adds spans or
counters to the program.
"""

from __future__ import annotations

from repro.api import ARCHITECTURES, ScanSpec, Session
from repro.beamformer.das import DelayAndSumBeamformer
from repro.kernels import (
    TiledPlan,
    TilePlanner,
    accumulate,
    apply_weights,
    build_gather_index,
    compile_plan,
    gather_interp,
)
from repro.observability.export import render_prometheus
from repro.runtime.cache import PlanCache
from repro.scenarios import score_volume
from repro.sweep.executor import acquire_cell_inputs

from measure import median, now, timed
from workloads import (
    ENGINE,
    NOISE_STD,
    SWEEP_ARCHITECTURES,
    SWEEP_SCENARIO,
    SWEEP_SCHEME,
    TILED_BUDGET,
    sweep_spec,
)

REPEATS = 3
"""Timed calls per stage (median reported); cheap stages use more."""


def probe_layers(seed: int) -> dict[str, float]:
    """Every per-layer figure that does not need a workload's traffic."""
    session = Session(ENGINE)
    system = session.system
    grid_spec = sweep_spec(seed)
    firings, options = acquire_cell_inputs(session, grid_spec,
                                           SWEEP_SCENARIO, SWEEP_SCHEME)
    frame = firings[0]
    transducer, grid = session.transducer, session.grid
    n_points = grid.shape[0] * grid.shape[1] * grid.shape[2]
    n_elements = transducer.element_count
    out: dict[str, float] = {}

    # acoustics / api
    phantom = ScanSpec(scenario=SWEEP_SCENARIO, frames=1,
                       seed=seed).build_frames(system)[0].phantom
    out["acoustics.simulate_ms"] = 1e3 * timed(
        lambda: session.simulator.simulate(phantom, noise_std=NOISE_STD,
                                           seed=seed), 2 * REPEATS)[0]
    out["api.session_ms"] = 1e3 * timed(lambda: Session(ENGINE),
                                        2 * REPEATS)[0]
    out["api.engine_build_ms"] = 1e3 * timed(
        lambda fresh: fresh.service(), 2 * REPEATS,
        fresh=lambda: Session(ENGINE))[0]

    # core: bulk delays per architecture, streaming scanline delays
    def provider(name: str = "tablesteer"):
        return ARCHITECTURES.create(name, system)

    for name in SWEEP_ARCHITECTURES:
        out[f"core.delays_ms.{name}"] = 1e3 * timed(
            lambda p: p.volume_delays_samples(), REPEATS,
            fresh=lambda: provider(name))[0]
    out["core.delays_per_s"] = \
        n_points * n_elements / (out["core.delays_ms.tablesteer"] / 1e3)

    def all_scanlines(p) -> None:
        for i_theta in range(grid.shape[0]):
            for i_phi in range(grid.shape[1]):
                p.scanline_delays_samples(i_theta, i_phi)

    out["core.scanline_delays_ms"] = 1e3 * timed(
        all_scanlines, REPEATS, fresh=provider)[0] \
        / (grid.shape[0] * grid.shape[1])

    # beamformer weights, kernels index and whole compile
    def beamformer() -> DelayAndSumBeamformer:
        return DelayAndSumBeamformer(system, provider(),
                                     transducer=transducer, grid=grid,
                                     precision=ENGINE.precision)

    out["beamformer.weights_ms"] = 1e3 * timed(
        lambda bf: bf.volume_weights(), REPEATS, fresh=beamformer)[0]
    delays = provider().volume_delays_samples().reshape(-1, n_elements)
    out["kernels.index_ms"] = 1e3 * timed(
        lambda: build_gather_index(delays, system.echo_buffer_samples,
                                   ENGINE.interpolation), REPEATS)[0]
    del delays
    seconds, plan = timed(lambda bf: compile_plan(bf, ENGINE.precision),
                          REPEATS, fresh=beamformer)
    out["kernels.compile_ms"] = 1e3 * seconds
    out["kernels.plan_bytes_per_entry"] = plan.nbytes / (n_points * n_elements)

    # kernels: the three warm stages on the compiled plan
    samples = plan.coerce_samples(frame)
    index = plan.gather_index()
    gather_s, weights_s, accumulate_s = [], [], []
    for _ in range(3 * REPEATS):
        start = now()
        gathered = gather_interp(samples, index)
        mid = now()
        weighted = apply_weights(gathered, plan.weights)
        late = now()
        volume = accumulate(weighted)
        gather_s.append(mid - start)
        weights_s.append(late - mid)
        accumulate_s.append(now() - late)
    out["kernels.gather_ms"] = 1e3 * median(gather_s)
    out["kernels.weights_ms"] = 1e3 * median(weights_s)
    out["kernels.accumulate_ms"] = 1e3 * median(accumulate_s)
    out["kernels.gather_mb"] = gathered.nbytes / 1e6
    del gathered, weighted, plan, index

    # scenarios scoring of the probe volume
    volume = volume.reshape(grid.shape)
    out["scenarios.score_ms"] = 1e3 * timed(
        lambda: score_volume(system, volume, scenario=SWEEP_SCENARIO,
                             options=options), 2 * REPEATS)[0]

    # kernels.tiling: one segment build in steady state (weights memoised
    # by the first frame, exactly as in the tiled workload)
    tiled_bf = beamformer()
    planner = TilePlanner.for_beamformer(tiled_bf, TILED_BUDGET,
                                         precision=ENGINE.precision)
    tiled_plan = TiledPlan(tiled_bf, planner, ENGINE.precision,
                           cache=PlanCache(max_bytes=TILED_BUDGET))
    tiled_plan.execute(frame)
    segment_s = []
    for tile in planner.tiles():
        tiled_plan.cache.clear()
        start = now()
        tiled_plan.segment(tile)
        segment_s.append(now() - start)
    out["kernels.segment_ms"] = 1e3 * median(segment_s)

    # runtime service path and a scrape of its instruments
    service = session.service()
    service.submit_frame(frame)
    beamform_s, overhead_s = [], []
    for _ in range(2 * REPEATS):
        start = now()
        result = service.submit_frame(frame)
        overhead_s.append(now() - start - result.latency_seconds)
        beamform_s.append(result.beamform_seconds)
    out["runtime.beamform_ms"] = 1e3 * median(beamform_s)
    out["runtime.service_overhead_ms"] = 1e3 * median(overhead_s)
    out["observability.scrape_ms"] = 1e3 * timed(
        lambda: render_prometheus(service.export_metrics()),
        10 * REPEATS)[0]
    session.close()
    return out

