"""The four benchmark workloads: ``stream``, ``tiled``, ``serve``, ``sweep``.

Every workload runs on the ``small`` preset (16 x 16 x 64 focal points,
256 elements, 1601-sample echo buffers).  Each one builds its inputs from
the seed *before* any timing starts, sets its engine up ``repeats`` times
(``setup_s`` is the median), measures ops for the window, reads peak RSS,
and only then verifies every output it produced.  A host-speed reference
kernel is timed before every set-up and every op (see
``measure.ReferenceKernel``), so ``run.py`` can normalise each one.  See README.md for why
each workload exists and which layer it loads.
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.echo import EchoSimulator
from repro.api import EngineSpec, ScanSpec, Session, SweepSpec
from repro.observability import Tracer
from repro.observability.export import render_prometheus
from repro.server import BeamformingServer, ServerSpec
from repro.sweep.executor import acquire_cell_inputs, execute_cell

from measure import ReferenceKernel, median, now, peak_rss_mb, tail

ENGINE = EngineSpec(system="small", architecture="tablesteer",
                    backend="vectorized", precision="float64")
"""The warm-path engine: vectorized float64 TABLESTEER."""

CINE_FRAMES = 4
"""Distinct pre-simulated frames the closed loops and the server replay."""

NOISE_STD = 0.02
"""Channel noise (echo peak is 1.0), so every voxel of a volume is nonzero
and the bit-identity checks compare real data, not mostly zeros."""

TILED_BUDGET = 24_000_000
"""Plan-memory budget of ``tiled``: 5 tiles per frame against the 105 MB
whole-grid plan."""

SETUPS = 5
"""Set-ups per run; ``setup_s`` is their median."""

SERVE_SESSIONS = (
    ("ts64", ENGINE),
    ("ts32", ENGINE.with_updates(precision="float32")),
    ("tf64", ENGINE.with_updates(architecture="tablefree")),
    ("ts64b", ENGINE),  # same plan key as ts64: a shared-plan cache hit
)

SERVE_RATE = 4.0
"""Offered load of ``serve`` [frames/s], spread round-robin over the
sessions: about 0.4 of the single worker's capacity on this mix (9.0-9.9
frames/s closed-loop on a 2-vCPU Xeon guest), so the queue stays short and
latency, not backlog, is measured."""

SERVE_QUEUE = 8
SCRAPE_INTERVAL = 1.0
"""Seconds between metrics scrapes of the server during the window."""

SWEEP_ARCHITECTURES = ("exact", "tablefree", "tablesteer", "tablesteer_float")
SWEEP_SCENARIO = "static_point"
SWEEP_SCHEME = "focused"


@dataclass
class Run:
    """What one workload measured; ``run.py`` turns it into metrics."""

    setup_s: list[float]
    setup_ref_s: list[float]
    """Reference-kernel seconds timed just before each set-up."""
    op_s: list[float]
    ref_s: list[float]
    """Reference-kernel seconds timed just before each op of ``op_s``."""
    window_s: float
    """Wall time of the timed window, less the reference kernel's time when
    the op thread ran it."""
    attempted: int
    failed: int
    plan_bytes: int
    peak_rss_mb: float
    layers: dict[str, float] = field(default_factory=dict)
    """Per-layer figures only this workload's traffic can produce."""
    offered_rate: float | None = None
    """Frames/s an open loop offered; ``None`` for a closed loop."""


def identical(expected: np.ndarray, actual: np.ndarray) -> bool:
    """Bit-identity: same dtype, shape and bytes (sign bits included)."""
    return (expected.dtype == actual.dtype
            and expected.shape == actual.shape
            and np.ascontiguousarray(expected).tobytes()
            == np.ascontiguousarray(actual).tobytes())


def count_failed(outputs: dict, counts: Counter, drift: Counter,
                 oracle) -> int:
    """Failed ops once the window is over.

    ``outputs`` holds the first volume produced for each input key; every
    later op on that key was compared with it during the window (``drift``
    counts the ones that differed).  A key whose first volume disagrees
    with ``oracle(key)`` fails all of its ``counts`` ops.
    """
    failed = 0
    for key, volume in outputs.items():
        if identical(oracle(key), volume):
            failed += drift[key]
        else:
            failed += counts[key]
    return failed


def cine(seed: int) -> list:
    """``CINE_FRAMES`` moving-point frames of channel data for ``seed``.

    The seed draws the target's start depth and the noise realisation;
    simulation happens here, outside every timed region.
    """
    system = ENGINE.resolve_system()
    start = float(np.random.default_rng(seed).uniform(0.30, 0.40))
    scan = ScanSpec(scenario="moving_point", frames=CINE_FRAMES,
                    noise_std=NOISE_STD, seed=seed,
                    options={"depth_fractions": (start, start + 0.3)})
    simulator = EchoSimulator.from_config(system)
    return [simulator.simulate(request.phantom, noise_std=request.noise_std,
                               seed=request.seed)
            for request in scan.build_frames(system)]


def tiles_per_op(tracers, ops: int) -> float:
    """Plan segments executed per op, read off live traces' ``tile`` spans.

    An untiled engine executes its whole-grid plan as one segment, so a
    trace without ``tile`` spans counts 1.
    """
    tiles = sum(len(tracer.find("tile")) for tracer in tracers)
    return tiles / ops if tiles else 1.0


# ------------------------------------------------------- stream and tiled
def _closed_loop(spec: EngineSpec, seed: int, seconds: float,
                 repeats: int) -> Run:
    """One client submitting the next frame as soon as the last returns."""
    frames = cine(seed)
    kernel = ReferenceKernel()
    session = service = first = None
    setups, setup_ref = [], []
    for _ in range(repeats):
        if session is not None:
            session.close()
            session = service = first = None
            gc.collect()
        setup_ref.append(kernel())
        start = now()
        session = Session(spec)
        service = session.service()
        first = service.submit_frame(frames[0])
        setups.append(now() - start)

    outputs = {0: first.rf}
    counts: Counter = Counter()
    drift: Counter = Counter()
    op_s, ref_s, beamform_s, overhead_s = [], [], [], []
    start = now()
    end = start + seconds
    i = 0
    while now() < end:
        ref_s.append(kernel())
        k = i % len(frames)
        t = now()
        result = service.submit_frame(frames[k])
        done = now()
        op_s.append(done - t)
        beamform_s.append(result.beamform_seconds)
        overhead_s.append(done - t - result.latency_seconds)
        counts[k] += 1
        if not identical(outputs.setdefault(k, result.rf), result.rf):
            drift[k] += 1
        i += 1
    window = now() - start - sum(ref_s)
    rss = peak_rss_mb()
    stats = session.cache.stats

    oracle = session.service(backend="reference", memory_budget_bytes=None)
    failed = count_failed(outputs, counts, drift,
                          lambda k: oracle.submit_frame(frames[k]).rf)
    layers = {
        "runtime.beamform_ms": median(beamform_s) * 1e3,
        "runtime.service_overhead_ms": median(overhead_s) * 1e3,
        **cache_layers(stats.hits, stats.misses, stats.evictions),
    }
    if spec.trace:
        # the setup's cold frame ran on the same service
        layers["kernels.tiles_per_frame"] = \
            tiles_per_op([session.tracer], len(op_s) + 1)
    session.close()
    return Run(setup_s=setups, setup_ref_s=setup_ref, op_s=op_s,
               ref_s=ref_s, window_s=window,
               attempted=len(op_s), failed=failed,
               plan_bytes=stats.peak_bytes, peak_rss_mb=rss, layers=layers)


def cache_layers(hits: int, misses: int, evictions: int) -> dict[str, float]:
    """The ``runtime.cache_*`` per-layer figures from PlanCache counters."""
    lookups = hits + misses
    return {"runtime.cache_hits": float(hits),
            "runtime.cache_misses": float(misses),
            "runtime.cache_evictions": float(evictions),
            "runtime.cache_hit_ratio": hits / lookups if lookups else 0.0}


def stream(seed: int, seconds: float, repeats: int = SETUPS,
           traced: bool = False) -> Run:
    """Warm compiled plan: gather-bound, no tiling, no server."""
    return _closed_loop(ENGINE.with_updates(trace=traced), seed, seconds,
                        repeats)


def tiled(seed: int, seconds: float, repeats: int = SETUPS,
          traced: bool = False) -> Run:
    """Same engine under a plan budget: delay segments regenerated per
    frame through the byte-bounded cache."""
    spec = ENGINE.with_updates(trace=traced, memory_budget_bytes=TILED_BUDGET)
    return _closed_loop(spec, seed, seconds, repeats)


# ------------------------------------------------------------------ serve
def _open_server(frames: list, tracer) -> tuple:
    """Server + warmed sessions; returns ``(server, handles, outputs)``."""
    server = BeamformingServer(
        ServerSpec(engine=ENGINE, workers=1, policy="drop_latest",
                   queue_capacity=SERVE_QUEUE),
        tracer=tracer)
    handles = [server.open_session(spec, session_id=name)
               for name, spec in SERVE_SESSIONS]
    outputs = {(s, 0): handle.submit(frames[0]).result().rf
               for s, handle in enumerate(handles)}
    return server, handles, outputs


def serve(seed: int, seconds: float, repeats: int = SETUPS,
          traced: bool = False) -> Run:
    """Open loop into one single-worker server with four sessions.

    The calling thread is the generator: it submits on a fixed schedule,
    scrapes the server's metrics every :data:`SCRAPE_INTERVAL` seconds and
    checks finished volumes while it waits.  Each op is timed from when it
    was *due*, so a stall is charged to every frame it delays.  The
    reference kernel runs on this thread just before each frame is due.
    """
    frames = cine(seed)
    kernel = ReferenceKernel()
    server = None
    setups, setup_ref = [], []
    for _ in range(repeats):
        if server is not None:
            server.close()
            server = handles = outputs = None
            gc.collect()
        setup_ref.append(kernel())
        start = now()
        tracer = Tracer() if traced else None
        server, handles, outputs = _open_server(frames, tracer)
        setups.append(now() - start)

    done_at: dict = {}

    def stamp(ticket) -> None:
        done_at[ticket] = now()

    counts: Counter = Counter()
    drift: Counter = Counter()
    pending: deque = deque()
    op_s, ref_s, wait_s, service_s, late_s, scrape_s = [], [], [], [], [], []
    failed = 0

    def collect(block: bool) -> None:
        """Score retired tickets in submission order; ``block`` waits for
        all of them (the done callback stamps a ticket as it retires)."""
        nonlocal failed
        deadline = now() + 120
        while pending:
            s, f, due, ref, ticket = pending[0]
            if ticket not in done_at:
                if not block:
                    return
                if now() > deadline:
                    raise TimeoutError("server did not retire its frames")
                time.sleep(0.001)
                continue
            pending.popleft()
            if ticket.exception(timeout=0) is not None:
                failed += 1   # dropped by backpressure, or beamforming raised
                continue
            result = ticket.result(timeout=0)
            latency = done_at[ticket] - due
            op_s.append(latency)
            ref_s.append(ref)
            service_s.append(result.latency_seconds)
            wait_s.append(latency - result.latency_seconds)
            counts[s, f] += 1
            if not identical(outputs.setdefault((s, f), result.rf),
                             result.rf):
                drift[s, f] += 1

    start = now()
    end = start + seconds
    next_scrape = start
    k = 0
    while True:
        due = start + (k + 1) / SERVE_RATE
        if due >= end:
            break
        if now() >= next_scrape:
            t = now()
            render_prometheus(server.export_metrics())
            scrape_s.append(now() - t)
            next_scrape += SCRAPE_INTERVAL
        collect(block=False)
        # timed while the worker is most likely idle, before the frame is due
        ref = kernel()
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        late_s.append(now() - due)
        s, f = k % len(handles), (k // len(handles)) % len(frames)
        ticket = handles[s].submit(frames[f])
        ticket.add_done_callback(stamp)
        pending.append((s, f, due, ref, ticket))
        k += 1
    collect(block=True)
    # The window ends when the last frame due inside it retired.
    window = max(done_at.values()) - start
    rss = peak_rss_mb()
    stats = server.cache.stats
    server.close()
    server = handles = None
    gc.collect()

    pipelines: dict = {}

    def oracle(key):
        spec = SERVE_SESSIONS[key[0]][1]
        if spec not in pipelines:
            pipelines[spec] = Session(spec).pipeline()
        return pipelines[spec].image_volume(frames[key[1]]).rf

    failed += count_failed(outputs, counts, drift, oracle)
    wait_tail, _ = tail(wait_s)
    layers = {
        "server.queue_wait_ms_p50": median(wait_s) * 1e3,
        "server.queue_wait_ms_tail": wait_tail * 1e3,
        "server.service_ms_p50": median(service_s) * 1e3,
        "server.generator_late_ms_max": max(late_s) * 1e3,
        "observability.scrape_ms": median(scrape_s) * 1e3,
        **cache_layers(stats.hits, stats.misses, stats.evictions),
    }
    if traced:
        layers["kernels.tiles_per_frame"] = tiles_per_op(
            [tracer], len(op_s) + len(SERVE_SESSIONS))
    return Run(setup_s=setups, setup_ref_s=setup_ref, op_s=op_s,
               ref_s=ref_s, window_s=window,
               attempted=k,
               failed=failed, plan_bytes=stats.peak_bytes,
               peak_rss_mb=rss, layers=layers, offered_rate=SERVE_RATE)


# ------------------------------------------------------------------ sweep
def sweep_spec(seed: int) -> SweepSpec:
    """The focused static-point grid over the four architectures."""
    return SweepSpec(scenarios=(SWEEP_SCENARIO,), schemes=(SWEEP_SCHEME,),
                     architectures=SWEEP_ARCHITECTURES,
                     noise_std=NOISE_STD, seed=seed)


def sweep(seed: int, seconds: float, repeats: int = SETUPS,
          traced: bool = False) -> Run:
    """Cold-compile grid cells: one op is one ``execute_cell``.

    Every grid pass opens a fresh ``Session`` (fresh plan cache, no
    provider reuse), so each cell compiles delays, weights and the gather
    index from scratch.  The window runs whole passes, so every
    architecture contributes equally many ops.
    """
    grid = sweep_spec(seed)
    firings, options = acquire_cell_inputs(Session(ENGINE), grid,
                                           SWEEP_SCENARIO, SWEEP_SCHEME)
    spec = ENGINE.with_updates(trace=traced)
    kernel = ReferenceKernel()

    def cell(session: Session, architecture: str) -> dict:
        return execute_cell(session, grid, SWEEP_SCENARIO, SWEEP_SCHEME,
                            architecture, "vectorized", firings, options)[0]

    setups, setup_ref = [], []
    plan_bytes = 0
    for _ in range(repeats):
        gc.collect()
        setup_ref.append(kernel())
        start = now()
        session = Session(spec)
        first = cell(session, SWEEP_ARCHITECTURES[0])
        setups.append(now() - start)
        plan_bytes = max(plan_bytes, session.cache.stats.peak_bytes)
        session.close()
        session = None

    outputs = {SWEEP_ARCHITECTURES[0]: first["volume"]}
    drift: Counter = Counter()
    op_s: list[float] = []
    ref_s: list[float] = []
    cell_s: dict[str, list[float]] = defaultdict(list)
    hits = misses = evictions = 0
    tracers = []
    start = now()
    end = start + seconds
    while True:
        gc.collect()
        session = Session(spec)
        for architecture in SWEEP_ARCHITECTURES:
            ref_s.append(kernel())
            t = now()
            result = cell(session, architecture)
            elapsed = now() - t
            op_s.append(elapsed)
            cell_s[architecture].append(elapsed)
            volume = result["volume"]
            if not identical(outputs.setdefault(architecture, volume),
                             volume) or \
                    not math.isfinite(result["metrics"]["peak_value"]):
                drift[architecture] += 1
        stats = session.cache.stats
        tracers.append(session.tracer)
        plan_bytes = max(plan_bytes, stats.peak_bytes)
        hits, misses = hits + stats.hits, misses + stats.misses
        evictions += stats.evictions
        session.close()
        session = None
        if now() >= end:
            break
    window = now() - start - sum(ref_s)
    rss = peak_rss_mb()
    # Every pass must reproduce each cell of the first bit for bit.
    failed = sum(drift.values())
    layers = {f"sweep.cell_ms.{name}": median(values) * 1e3
              for name, values in cell_s.items()}
    layers.update(cache_layers(hits, misses, evictions))
    if traced:
        layers["kernels.tiles_per_frame"] = tiles_per_op(tracers, len(op_s))
    return Run(setup_s=setups, setup_ref_s=setup_ref, op_s=op_s,
               ref_s=ref_s, window_s=window,
               attempted=len(op_s), failed=failed, plan_bytes=plan_bytes,
               peak_rss_mb=rss, layers=layers)


WORKLOADS = {"stream": stream, "tiled": tiled, "serve": serve,
             "sweep": sweep}
