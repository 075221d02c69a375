"""The serving workloads, ``serve_shared`` and ``serve_cold``.

Both replay a seeded three-tenant trace against ``repro.serve.Server``
(thread backend, one job at a time) in rounds. Each round runs, on fresh
servers warmed in set-up:

- a *burst*: every request of the burst trace arrives at t=0, the queue
  is unbounded and no tenant has a deadline; completions per second is
  ``capacity_rps``;
- an *open loop* on the wall clock: the requests of the replay trace are
  submitted when they fall due at a fixed offered rate, whatever the
  server is doing, and each is timed from its due time, so work done in
  ``Server.submit`` and stalls that delay later submissions are counted.

Every round repeats the same work (on serve_cold over datasets of its
own). Each burst and replay is timed next to a reading of the host
gauge (``stats.Gauge``) and scaled to the nominal host; capacity comes
from the quietest quarter of the bursts.

``serve_shared`` draws every job from six datasets that fit the server's
dataset pool, so the pool, the run cache, coalescing and the engines'
memos all see reuse. ``serve_cold`` gives every request a dataset of its
own and never repeats a job, so every one of those mechanisms is
bypassed. Offered rate and SLO are fixed numbers, never derived from a
measured capacity.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.apps.base import get_app
from repro.apps.datagen import DATAGEN_VERSION
from repro.bench.jobs import DatasetSpec, JobSpec
from repro.engines.base import EngineConfig
from repro.errors import SloViolationError
from repro.serve import (
    DEFAULT_TENANTS,
    ServeConfig,
    ServeMetrics,
    ServeRequest,
    Server,
    engine_spec_by_name,
    oneshot_oracle,
    with_slo,
)
from repro.units import KiB

from stats import (
    ERR_FLOOR,
    Gauge,
    bit_equal,
    host_scale,
    median,
    nearest_rank,
    quietest,
    tail,
)

APPS = ("wordcount", "dna", "kmeans")
ENGINES = ("bigkernel", "gpu_double", "gpu_uvm")
#: eight chunk sizes and two launch widths per engine and dataset
CHUNK_KIB = (16, 24, 32, 48, 64, 96, 128, 192)
NUM_BLOCKS = (8, 16)
#: dataset seeds per app on serve_shared (3 apps x 2 = 6 datasets, which
#: fit the default dataset pool of 8)
SHARED_SEEDS = 2
#: latency SLO of every tenant in the open loop
SLO_MS = 250.0
#: warm-up jobs use a config the traces never draw, so set-up fills the
#: dataset pool, engine pool and pricer calibration but not the run cache
WARMUP_CONFIG = dict(chunk_bytes=40 * KiB, num_blocks=4)
#: share of ``--seconds`` the open-loop replays span; bursts, predictor
#: timing and set-up fill most of the rest
OPEN_SHARE = 0.75
MIN_ROUNDS = 2
COMPLETED = ("served", "coalesced", "cached")
#: engines the analytic predictor has a closed form for
MODELLED = ("bigkernel", "gpu_double")
#: wall seconds of ``predict_run`` timing before each burst and replay
PREDICT_SLICE_S = 0.25
#: the open loop reads the host gauge while it waits this long or longer
#: for the next arrival (a reading takes about 10 ms); a burst reads it
#: between dispatch rounds this far apart
GAUGE_GAP_S = 0.03
BURST_GAUGE_EVERY_S = 0.1
#: data seeds of one trace version on serve_cold; versions never overlap
VERSION_STRIDE = 2**16


@dataclass(frozen=True)
class Shape:
    #: offered load of the open loop, requests per second
    rate: float
    #: every request gets a dataset of its own and no job repeats
    fresh: bool
    #: every ``new_every``-th request is a job not seen before; the others
    #: repeat an earlier job, picked uniformly
    new_every: int
    #: requests of one open-loop replay and of one burst, whole blocks of
    #: new jobs, so every seed gives them the same mix of work
    replay: int
    burst: int
    #: bytes of every dataset
    data_bytes: int
    #: chunk sizes (KiB) and launch widths new jobs cycle through
    chunk_kib: tuple = CHUNK_KIB
    num_blocks: tuple = NUM_BLOCKS
    #: apps of one block of new jobs, each paired with every engine once
    #: (an app listed twice gets twice the share)
    mix: tuple = APPS


SHAPES = {
    "serve_shared": Shape(
        rate=20.0, fresh=False, new_every=4, replay=72, burst=216,
        data_bytes=512 * KiB,
    ),
    # wordcount generates a dataset for ~35 ms, the others for ~1 ms; at a
    # third of the requests its latencies and the delays they cause put
    # the median in the gap between the two clusters, so it gets a fifth,
    # and the pooled replays put the tail (p90) inside the wordcount
    # cluster. Half-size datasets keep the server mostly idle at this
    # rate, so a latency is one request's work rather than a queue. Three
    # configs per engine: a replay runs each of them equally often, so
    # the seed does not change the work.
    "serve_cold": Shape(
        rate=8.0, fresh=True, new_every=1, replay=45, burst=60,
        data_bytes=256 * KiB, chunk_kib=(32, 64, 128), num_blocks=(16,),
        mix=("wordcount", "dna", "dna", "kmeans", "kmeans"),
    ),
}


def _job(
    app: str, seed: int, n_bytes: int, engine: str, chunk_kib: int, blocks: int
) -> JobSpec:
    return JobSpec(
        dataset=DatasetSpec(app, seed, n_bytes, DATAGEN_VERSION),
        engine=engine_spec_by_name(engine),
        config=EngineConfig(
            functional=True, chunk_bytes=chunk_kib * KiB, num_blocks=blocks
        ),
    )


def make_trace(workload: str, seed: int, n_requests: int, version: int = 0) -> list:
    """``n_requests`` open-loop arrivals at the workload's fixed rate.

    Gaps are exponential (a Poisson process). The count is fixed, so the
    tail percentile a run can report does not change from seed to seed.
    New jobs arrive at a fixed share (every ``new_every``-th request), so
    cache misses spread over the whole trace; every block of new jobs
    holds each (app of the shape's mix) x engine pair once, and each pair
    cycles through its (chunk size, launch width, dataset) combinations
    in an order of its own that no seed changes. The seed moves the order
    of the pairs, the repeats, tenants, arrival times and dataset
    contents, but not the mix of work. Each ``version`` is the same
    sequence of jobs arriving at times of its own, and on serve_cold over
    datasets of its own, so replays share no data either.
    """
    shape = SHAPES[workload]
    index = 1 + list(SHAPES).index(workload)
    rng = np.random.default_rng([seed, index])
    arrivals = np.random.default_rng([seed, index, version])
    weights = np.array([t.weight for t in DEFAULT_TENANTS])
    weights = weights / weights.sum()
    shared_seeds = [int(s) for s in rng.integers(0, 2**31, SHARED_SEEDS)]
    fresh_base = int(rng.integers(0, 2**30))
    cells = [(app, engine) for app in shape.mix for engine in ENGINES]
    data_seeds = [fresh_base] if shape.fresh else shared_seeds
    combos = [
        (chunk, blocks, seed_index)
        for chunk in shape.chunk_kib
        for blocks in shape.num_blocks
        for seed_index in range(len(data_seeds))
    ]
    orders = {
        cell: [combos[i] for i in np.random.default_rng(i).permutation(len(combos))]
        for i, cell in enumerate(sorted(set(cells)))
    }
    pending: dict = {cell: [] for cell in orders}
    requests, history, block, t = [], [], [], 0.0
    while len(requests) < n_requests:
        t += float(arrivals.exponential(1.0 / shape.rate))
        tenant = DEFAULT_TENANTS[int(rng.choice(len(weights), p=weights))].name
        if len(requests) % shape.new_every:
            job = history[int(rng.integers(len(history)))]
        else:
            if not block:
                block = [cells[i] for i in rng.permutation(len(cells))]
            app, engine = block.pop()
            if not pending[(app, engine)]:
                pending[(app, engine)] = list(orders[(app, engine)])
            chunk, blocks, seed_index = pending[(app, engine)].pop()
            data_seed = data_seeds[seed_index]
            if shape.fresh:
                data_seed += version * VERSION_STRIDE + len(requests)
            job = _job(app, data_seed, shape.data_bytes, engine, chunk, blocks)
            history.append(job)
        requests.append(ServeRequest(len(requests), tenant, t, job))
    return requests


def warmup_requests(trace: list, fresh: bool) -> list:
    """One job per (dataset, engine) on the trace's datasets, or on three
    datasets of their own when the workload is cold."""
    if fresh:
        n_bytes = trace[0].job.dataset.n_bytes
        specs = [DatasetSpec(app, 2**31 + i, n_bytes, DATAGEN_VERSION)
                 for i, app in enumerate(APPS)]
    else:
        specs = sorted({r.job.dataset for r in trace}, key=repr)
    jobs = [
        JobSpec(spec, engine_spec_by_name(engine),
                EngineConfig(functional=True, **WARMUP_CONFIG))
        for spec in specs
        for engine in ENGINES
    ]
    return [ServeRequest(10**9 + i, "alpha", 0.0, job) for i, job in enumerate(jobs)]


def make_server(trace: list, fresh: bool, slo_ms, max_queue: int = 64) -> Server:
    """A thread-backend server, warmed on :func:`warmup_requests`."""
    server = Server(
        ServeConfig(max_queue=max_queue, backend="thread", jobs=1),
        tenants=with_slo(DEFAULT_TENANTS, slo_ms),
    )
    for req in warmup_requests(trace, fresh):
        server.submit(req, now=0.0)
    server.drain(now=0.0)
    server.metrics = ServeMetrics()
    server.cache.hits = server.cache.misses = 0
    return server


def rounds(workload: str, seconds: float) -> int:
    """Rounds of a run: its open-loop replays span about
    :data:`OPEN_SHARE` of ``seconds``."""
    shape = SHAPES[workload]
    open_s = OPEN_SHARE * seconds
    return max(MIN_ROUNDS, round(open_s * shape.rate / shape.replay))


# ------------------------------------------------------- load generators
@dataclass
class BurstResult:
    responses: list
    wall: float
    start: float
    end: float
    engine_runs: int
    #: median host gauge reading over the burst
    gauge: float = 0.0


def run_burst(
    server: Server, trace: list, clock=time.perf_counter, gauge=None
) -> BurstResult:
    """Every request at t=0, then dispatch until the queue is empty.

    With a ``gauge``, the load generator reads it before and after the burst and
    between dispatch rounds at least :data:`BURST_GAUGE_EVERY_S` apart; the
    readings are left out of the burst's wall time, and the result
    carries their median.
    """
    readings = [gauge.read()] if gauge is not None else []
    start = clock()
    paused = 0.0
    last_read = start
    responses = []
    for req in trace:
        rejection = server.submit(replace(req, arrival=0.0), now=0.0)
        if rejection is not None:
            responses.append(rejection)
    while server.pending():
        round_resps = server.dispatch_round(now=clock() - start - paused)
        server.finish(round_resps, clock() - start - paused)
        responses.extend(round_resps)
        if gauge is not None and clock() - last_read >= BURST_GAUGE_EVERY_S:
            t0 = clock()
            readings.append(gauge.read())
            last_read = clock()
            paused += last_read - t0
    end = clock()
    if gauge is not None:
        readings.append(gauge.read())
    return BurstResult(
        responses, end - start - paused, start, end,
        server.metrics.engine_runs,
        gauge=median(readings) if readings else 0.0,
    )


@dataclass
class OpenLoopResult:
    responses: list
    #: per request: seconds between its due time and its submission
    late: list
    #: wall seconds inside ``submit`` and inside ``dispatch_round``
    submit_s: float
    dispatch_s: float
    #: wall seconds the load generator slept waiting for the next arrival
    idle_s: float
    start: float
    end: float
    #: median host gauge reading over the replay
    gauge: float = 0.0


def run_open_loop(
    server, trace: list, clock=time.perf_counter, sleep=time.sleep, gauge=None
) -> OpenLoopResult:
    """Submit each request when it falls due on the wall clock.

    The server is synchronous, so requests falling due during a dispatch
    round are submitted after it: ``late`` records by how much. Every
    latency is measured from the due time (``arrival``), not from the
    submission, so such stalls count against the requests they delay.
    With a ``gauge``, the load generator reads it before and after the replay and
    whenever the next arrival is at least :data:`GAUGE_GAP_S` away; the
    result carries the median reading.
    """
    order = sorted(trace, key=lambda r: (r.arrival, r.req_id))
    readings = [gauge.read()] if gauge is not None else []
    start = clock()
    responses, late = [], []
    submit_s = dispatch_s = idle_s = 0.0
    i, n = 0, len(order)
    while i < n or server.pending():
        now = clock() - start
        while i < n and order[i].arrival <= now:
            req = order[i]
            late.append(now - req.arrival)
            rejection = server.submit(req, now=now)
            done = clock() - start
            submit_s += done - now
            if rejection is not None:
                rejection.completion = done
                responses.append(rejection)
            i += 1
            now = done
        if server.pending():
            round_start = clock() - start
            round_resps = server.dispatch_round(now=round_start)
            round_end = clock() - start
            dispatch_s += round_end - round_start
            server.finish(round_resps, round_end)
            responses.extend(round_resps)
        elif i < n:
            wait = order[i].arrival - (clock() - start)
            if gauge is not None and wait >= GAUGE_GAP_S:
                t0 = clock()
                readings.append(gauge.read())
                idle_s += clock() - t0
                wait = order[i].arrival - (clock() - start)
            if wait > 0:
                sleep(wait)
                idle_s += wait
    end = clock()
    if gauge is not None:
        readings.append(gauge.read())
    return OpenLoopResult(
        responses, late, submit_s, dispatch_s, idle_s, start, end,
        gauge=median(readings) if readings else 0.0,
    )


# ------------------------------------------------------------ correctness
@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatches: int = 0
    oracle_s: float = 0.0
    #: one-shot oracle result per distinct completed job
    oracles: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def verify(phases: list, clock=time.perf_counter) -> Verdict:
    """Bit-compare every completed response with ``oneshot_oracle`` and
    check that every shed or predictively rejected one carries a
    ``SloViolationError``; a response that fails either check, or a
    request without a response, is a failed operation. ``phases`` holds
    one ``(trace, responses)`` pair per replay."""
    verdict = Verdict()
    oracles = verdict.oracles
    for trace, responses in phases:
        verdict.attempted += len(trace)
        missing = len(trace) - len({r.req_id for r in responses})
        if missing:
            verdict.failed += missing
            verdict.notes.append(f"{missing} requests got no response")
        for resp in responses:
            req = trace[resp.req_id]
            ok = True
            if resp.status in COMPLETED:
                oracle = oracles.get(req.job)
                if oracle is None:
                    t0 = clock()
                    oracle = oracles[req.job] = oneshot_oracle(req.job)
                    verdict.oracle_s += clock() - t0
                verdict.checked += 1
                ok = bit_equal(resp.result.sim_time, oracle.sim_time) and bit_equal(
                    resp.result.output, oracle.output
                )
                verdict.mismatches += not ok
            elif resp.status == "shed" or (
                resp.status == "rejected" and resp.error != "queue full"
            ):
                ok = isinstance(resp.exception, SloViolationError)
                verdict.mismatches += not ok
            elif resp.status == "failed":
                ok = False
            if not ok:
                verdict.failed += 1
                verdict.notes.append(f"req {resp.req_id}: {resp.status} {resp.error}")
    return verdict


class PredictorProbe:
    """Times the analytic ``predict_run`` between the measured windows.

    Every seed prices the same fixed set: each (chunk size, launch width)
    x {bigkernel, gpu_double} on the first warm-up dataset of each app,
    which no trace request uses. Each pass over the set is timed on its
    own, and the rate comes from the quietest passes.
    """

    def __init__(self, datasets: list):
        from repro.analytic import predict_run

        self._predict = predict_run
        first: dict = {}
        for spec in datasets:
            first.setdefault(spec.app, spec)
        self.probes = []
        for app, spec in sorted(first.items()):
            application = get_app(app)
            data = application.generate(n_bytes=spec.n_bytes, seed=spec.seed)
            for chunk in CHUNK_KIB:
                for blocks in NUM_BLOCKS:
                    config = EngineConfig(
                        functional=True, chunk_bytes=chunk * KiB, num_blocks=blocks
                    )
                    for engine in MODELLED:
                        self.probes.append((application, data, config, engine))
        self._pass()  # fills the process-wide memos before timing
        #: (wall seconds, host gauge reading) of every timed pass
        self.passes: list = []

    def _pass(self) -> None:
        for application, data, config, engine in self.probes:
            self._predict(application, data, config, engine=engine)

    def time(self, seconds: float, gauge: Gauge, clock=time.perf_counter) -> None:
        """Whole passes over the set until ``seconds`` have passed, with
        the gauge read between them."""
        before = gauge.read()
        start = clock()
        while clock() - start < seconds:
            t0 = clock()
            self._pass()
            wall = clock() - t0
            after = gauge.read()
            self.passes.append((wall, (before + after) / 2))
            before = after

    @property
    def rate(self) -> float:
        """Predictions per second of the quietest passes on the nominal
        host."""
        quiet = quietest(self.passes, lambda p: p[0])
        wall = sum(w for w, _ in quiet) * host_scale([g for _, g in quiet])
        return len(quiet) * len(self.probes) / wall


def predictor_error(trace: list, oracles: dict) -> float:
    """Largest relative error of ``predict_run`` against the oracle's
    ``sim_time`` over the trace's distinct bigkernel/gpu_double jobs."""
    from repro.analytic import predict_run

    datasets: dict = {}
    err_max = 0.0
    for job in dict.fromkeys(r.job for r in trace):
        if job.engine.name not in MODELLED or job not in oracles:
            continue
        spec = job.dataset
        if spec not in datasets:
            datasets[spec] = get_app(spec.app).generate(
                n_bytes=spec.n_bytes, seed=spec.seed
            )
        predicted = predict_run(
            get_app(spec.app), datasets[spec], job.config, engine=job.engine.name
        ).sim_time
        expected = oracles[job].sim_time
        err_max = max(err_max, abs(predicted - expected) / expected)
    return err_max


# ---------------------------------------------------------------- metrics
def pooled(loops: list) -> OpenLoopResult:
    """Several open-loop replays as one."""
    return OpenLoopResult(
        responses=[r for part in loops for r in part.responses],
        late=[x for part in loops for x in part.late],
        submit_s=sum(part.submit_s for part in loops),
        dispatch_s=sum(part.dispatch_s for part in loops),
        idle_s=sum(part.idle_s for part in loops),
        start=loops[0].start,
        end=loops[-1].end,
    )


def open_loop_figures(result: OpenLoopResult, submitted: int) -> dict:
    """SLO and queueing figures of open-loop replays in which
    ``submitted`` requests fell due, with their latencies as timed."""
    completed = [r for r in result.responses if r.status in COMPLETED]
    latencies = sorted(r.completion - r.arrival for r in completed)
    met = sum(1 for r in completed if r.completion <= r.deadline)
    waits = [r.dispatch - r.arrival for r in completed]
    _, wait_tail, _ = tail(waits)
    lq, late_tail, _ = tail(result.late)
    service = result.submit_s + result.dispatch_s
    return {
        "slo_attainment": met / submitted,
        "queue_wait_p50_ms": median(waits) * 1e3,
        "queue_wait_tail_ms": wait_tail * 1e3,
        "queue_wait_total_s": sum(waits),
        "generator_late_tail_ms": late_tail * 1e3,
        "generator_late_percentile": lq,
        "submit_share": result.submit_s / service if service > 0 else 0.0,
        "quantiles_ms": [
            nearest_rank(latencies, q) * 1e3 for q in (10, 25, 50, 75, 90)
        ],
    }


def server_counters(servers: list) -> dict:
    """Serve-layer counters summed over the measured servers."""
    total = ServeMetrics()
    hits = misses = 0
    for server in servers:
        m = server.metrics
        for name in ("engine_runs", "cached", "coalesced", "shed", "rejected",
                     "rejected_predicted", "failed", "served", "batches"):
            setattr(total, name, getattr(total, name) + getattr(m, name))
        hits += server.cache.hits
        misses += server.cache.misses
    executed = total.served + total.coalesced + total.cached + total.failed
    return {
        "serve.batch_size.mean": (
            executed / total.batches if total.batches else 0.0, "count"
        ),
        "serve.engine_runs": (total.engine_runs, "count"),
        "serve.cached": (total.cached, "count"),
        "serve.coalesced": (total.coalesced, "count"),
        "serve.shed": (total.shed, "count"),
        "serve.rejected": (total.rejected, "count"),
        "serve.rejected_predicted": (total.rejected_predicted, "count"),
        "serve.failed": (total.failed, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "share"),
    }


def completed(burst: BurstResult) -> int:
    return sum(1 for r in burst.responses if r.status in COMPLETED)


# ------------------------------------------------------------------- run
def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a serving workload; see ``run.py`` for the result shape."""
    from layers import Session
    from stats import peak_rss_mb

    shape = SHAPES[workload]
    n_rounds = rounds(workload, seconds)
    # on serve_cold every replay and burst gets datasets of its own:
    # versions 0..n_rounds-1 are the open loop's, the next n_rounds the
    # bursts' and the last the traced run's untraced reference burst
    replays = [make_trace(workload, seed, shape.replay, v) for v in range(n_rounds)]
    burst_traces = [
        make_trace(workload, seed, shape.burst, n_rounds + v)
        for v in range(n_rounds + 1)
    ]
    gauge = Gauge()
    setup_times: list = []

    def build(requests: list, slo_ms, max_queue: int) -> Server:
        before = gauge.read()
        start = time.perf_counter()
        server = make_server(requests, shape.fresh, slo_ms, max_queue)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * host_scale([before, gauge.read()]))
        return server

    probe = PredictorProbe(
        [r.job.dataset for r in warmup_requests(replays[0], shape.fresh)]
    )
    servers, bursts, loops = [], [], []
    with Session(trace) as session:
        for k in range(n_rounds):
            # each unit starts from a collected heap, whatever the units
            # before it left behind
            with session.paused():
                gc.collect()
                probe.time(PREDICT_SLICE_S, gauge)
                servers.append(build(burst_traces[k], None, shape.burst + 64))
                gc.collect()
            bursts.append(run_burst(servers[-1], burst_traces[k], gauge=gauge))
            session.window(bursts[-1].start, bursts[-1].end)
            with session.paused():
                gc.collect()
                probe.time(PREDICT_SLICE_S, gauge)
                servers.append(build(replays[k], SLO_MS, 64))
                gc.collect()
            loops.append(run_open_loop(servers[-1], replays[k], gauge=gauge))
            session.window(loops[-1].start, loops[-1].end)
    rss_mb = peak_rss_mb()
    reference = None
    if trace:
        ref_server = build(burst_traces[-1], None, shape.burst + 64)
        reference = run_burst(ref_server, burst_traces[-1], gauge=gauge)
    verdict = verify(
        [(burst_traces[k], b.responses) for k, b in enumerate(bursts)]
        + [(replays[k], loop.responses) for k, loop in enumerate(loops)]
    )
    err_max = predictor_error(burst_traces[0] + replays[0], verdict.oracles)
    every = pooled(loops)
    fig = open_loop_figures(every, len(loops) * shape.replay)
    # every replay's latencies and the quietest bursts, scaled to the
    # nominal host by the gauge readings next to them
    latencies = [
        (r.completion - r.arrival) * host_scale([loop.gauge])
        for loop in loops
        for r in loop.responses
        if r.status in COMPLETED
    ]
    q, tail_value, beyond = tail(latencies)
    quiet_bursts = quietest(bursts, lambda b: b.wall)
    quiet_wall = sum(b.wall for b in quiet_bursts) * host_scale(
        [b.gauge for b in quiet_bursts]
    )
    end_to_end = {
        "capacity_rps": (sum(map(completed, quiet_bursts)) / quiet_wall, "1/s"),
        "latency_p50_ms": (median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "slo_attainment": (fig["slo_attainment"], "share"),
        "sweep_points_per_s": (
            sum(b.engine_runs for b in quiet_bursts) / quiet_wall, "1/s"
        ),
        "analytic_points_per_s": (probe.rate, "1/s"),
        "predictor_err_max": (max(err_max, ERR_FLOOR), "ratio"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    lines = [
        f"latency_tail_ms is p{q:g} of {len(latencies)} completed requests "
        f"({beyond} beyond it)",
        f"{n_rounds} rounds of a {shape.burst}-request burst and a "
        f"{shape.replay}-request open-loop replay at {shape.rate:g}/s, SLO "
        f"{SLO_MS:g} ms; capacity from the {len(quiet_bursts)} bursts that "
        "took least wall time; times scaled to the nominal host by "
        + ", ".join(f"{host_scale([loop.gauge]):.3f}" for loop in loops),
        f"open loop: generator ran late by up to "
        f"{fig['generator_late_tail_ms']:.1f} ms "
        f"(p{fig['generator_late_percentile']:g}); submit took "
        f"{fig['submit_share']:.1%} of service wall time",
        "open-loop latency p10/p25/p50/p75/p90 as timed: "
        + " / ".join(f"{v:.1f}" for v in fig["quantiles_ms"]) + " ms",
        f"correctness: {verdict.checked} responses bit-compared with "
        f"oneshot_oracle, {verdict.mismatches} mismatches",
    ] + verdict.notes[:20]
    per_layer = {}
    waiting = {}
    if trace:
        per_layer = session.per_layer()
        per_layer.update(server_counters(servers))
        per_layer.update({
            "serve.queue_wait_ms.p50": (fig["queue_wait_p50_ms"], "ms"),
            "serve.queue_wait_ms.tail": (fig["queue_wait_tail_ms"], "ms"),
            "serve.generator_late_ms.tail": (fig["generator_late_tail_ms"], "ms"),
            "serve.submit_share": (fig["submit_share"], "share"),
            "trace.overhead_share": (
                median([b.wall * host_scale([b.gauge]) for b in bursts])
                / (reference.wall * host_scale([reference.gauge])) - 1.0,
                "share",
            ),
        })
        waiting = {"serve": fig["queue_wait_total_s"]}
    per_layer.update({
        "verify.oracle.s": (verdict.oracle_s, "s"),
        "verify.checked": (verdict.checked, "count"),
        "verify.mismatches": (verdict.mismatches, "count"),
    })
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "lines": lines,
        "session": session,
        "idle_s": every.idle_s,
        "waiting": waiting,
    }
