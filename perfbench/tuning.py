"""The ``tune`` workload: configuration sweeps and the analytic predictor.

For each app x {bigkernel, gpu_double, gpu_uvm} one tuning request is a
``sweep(mode="des")`` over a seeded chunk_bytes x num_blocks x ring_depth
grid: timing-only runs (``functional=False``), no run cache, one job,
the fast path wherever it is exact. The DES runs the mapped-write kmeans
points and every UVM point. Each cycle sends the nine requests back to
back, each on a fresh engine, followed by a large ``predict_grid`` over
the same apps for bigkernel and gpu_double, and cycles repeat for most of
the run. Every cycle does the same work, and each sweep and
``predict_grid`` pass is timed next to a reading of the host gauge
(``stats.Gauge``); the figures come from the quietest quarter of them,
scaled to the nominal host. Datasets are generated in set-up only, and
neither the serving layer nor the run cache is used.
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.base import get_app
from repro.bench.jobs import engine_from_spec
from repro.bench.sweep import sweep
from repro.engines.base import EngineConfig
from repro.serve import engine_spec_by_name
from repro.units import KiB, MiB

from stats import ERR_FLOOR, Gauge, host_scale, median, quietest, tail

APPS = ("wordcount", "dna", "kmeans")
ENGINES = ("bigkernel", "gpu_double", "gpu_uvm")
#: engines ``predict_grid`` has a closed form for
MODELLED = ("bigkernel", "gpu_double")
DATA_BYTES = 2 * MiB
#: the tune grid: every seed sweeps these sizes, each moved by up to
#: +-JITTER, so the seed changes the configs but not the amount of work
CHUNK_KIB = (32, 64, 128, 256)
JITTER = 0.1
NUM_BLOCKS = (8, 16)
RING_DEPTHS = (2, 3, 4)
BASE = EngineConfig(functional=False)
#: a tuning request answered later than this misses its SLO
SLO_S = 2.0
#: sweep + predict_grid cycles per second of ``--seconds`` (about 85% of
#: the run on a two-core box; set-up and the correctness gate take the
#: rest). The count is fixed, not timed, so a run's tail percentile and
#: its amount of work do not depend on how fast the host is.
CYCLES_PER_SECOND = 2.0
#: enough for the quietest quarter to hold a median and a tail
MIN_CYCLES = 12
SETUP_REPEATS = 5


def tune_grid(seed: int) -> dict:
    """4 chunk sizes x 2 launch widths x 3 ring depths (24 points)."""
    rng = np.random.default_rng([seed, 11])
    jitter = rng.uniform(1.0 - JITTER, 1.0 + JITTER, len(CHUNK_KIB))
    chunks = [int(round(c * j)) * KiB for c, j in zip(CHUNK_KIB, jitter)]
    return {
        "chunk_bytes": chunks,
        "num_blocks": list(NUM_BLOCKS),
        "ring_depth": list(RING_DEPTHS),
    }


def analytic_grid(seed: int) -> dict:
    """96 chunk sizes x 32 launch widths x 6 ring depths (18432 points).

    The chunk sizes step evenly from 8 KiB to 2 MiB, each moved by the
    seed by less than half a step, so the work is the same for every seed.
    """
    rng = np.random.default_rng([seed, 12])
    step = (2048 - 8) / 95
    chunks = [8 + step * i + rng.uniform(-0.4, 0.4) * step for i in range(96)]
    return {
        "chunk_bytes": [max(8, int(round(c))) * KiB for c in chunks],
        "num_blocks": list(range(1, 33)),
        "ring_depth": list(range(2, 8)),
    }


def dataset_seeds(seed: int) -> dict:
    rng = np.random.default_rng([seed, 13])
    return {app: int(s) for app, s in zip(APPS, rng.integers(0, 2**31, len(APPS)))}


def prepare(seed: int) -> dict:
    """Generate the datasets and warm every cell on a one-point sweep
    outside the grid, so imports and lazy process-wide state are paid
    here rather than in the first measured cycle."""
    seeds = dataset_seeds(seed)
    data = {}
    for app in APPS:
        application = get_app(app)
        data[app] = (
            application,
            application.generate(n_bytes=DATA_BYTES, seed=seeds[app]),
        )
    warm = {"chunk_bytes": [40 * KiB], "num_blocks": [2], "ring_depth": [5]}
    for app, (application, dataset) in data.items():
        for name in ENGINES:
            engine = engine_from_spec(engine_spec_by_name(name))
            sweep(engine, application, dataset, BASE, warm,
                  jobs=1, cache=False, backend="thread")
    return {"data": data, "grid": tune_grid(seed), "big_grid": analytic_grid(seed)}


def _params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def sweep_cycle(prep: dict, session, clock=time.perf_counter) -> dict:
    """One tuning request per app x engine, back to back, fresh engines."""
    cells, results = [], []
    start = clock()
    for app, (application, dataset) in prep["data"].items():
        for name in ENGINES:
            session.request(f"{app}/{name}")
            engine = engine_from_spec(engine_spec_by_name(name))
            t0 = clock()
            res = sweep(engine, application, dataset, BASE, prep["grid"],
                        jobs=1, cache=False, backend="thread", mode="des")
            cells.append(clock() - t0)
            sims = {_params_key(p.params): p.sim_time for p in res.points}
            results.append(((app, name), sims))
    session.request(None)
    end = clock()
    session.window(start, end)
    points = sum(len(r) for _, r in results)
    return {"cells": cells, "results": results, "points": points, "wall": end - start}


def predict_cycle(prep: dict, session, clock=time.perf_counter) -> dict:
    """``predict_grid`` over the big grid for each app x modelled engine."""
    from repro.analytic import predict_grid

    start = clock()
    points = 0
    for application, dataset in prep["data"].values():
        for name in MODELLED:
            grid = predict_grid(
                application, dataset, prep["big_grid"], BASE, engine=name
            )
            points += grid.n_points
    end = clock()
    session.window(start, end)
    return {"points": points, "wall": end - start}


def verify(prep: dict, sweeps: list, clock=time.perf_counter) -> dict:
    """Every point's sim_time against a fresh engine's run of it, and the
    predictor's largest relative error against those sim_times."""
    from repro.analytic import predict_grid

    reference: dict = {}
    attempted = failed = 0
    oracle_s = 0.0
    for (app, name), points in (r for cycle in sweeps for r in cycle["results"]):
        application, dataset = prep["data"][app]
        for key, sim_time in points.items():
            if (app, name, key) not in reference:
                t0 = clock()
                engine = engine_from_spec(engine_spec_by_name(name))
                config = BASE.with_(**dict(key))
                result = engine.run(application, dataset, config)
                reference[(app, name, key)] = result.sim_time
                oracle_s += clock() - t0
            attempted += 1
            failed += sim_time != reference[(app, name, key)]
    err_max = 0.0
    for app, (application, dataset) in prep["data"].items():
        for name in MODELLED:
            gp = predict_grid(application, dataset, prep["grid"], BASE, engine=name)
            for i, predicted in enumerate(gp.sim_time):
                des = reference[(app, name, _params_key(gp.params_at(i)))]
                err_max = max(err_max, abs(float(predicted) - des) / des)
    return {"attempted": attempted, "failed": failed, "oracle_s": oracle_s,
            "checked": len(reference), "err_max": err_max}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of the tune workload; see ``run.py`` for the result shape.

    Sweep and ``predict_grid`` cycles alternate for the whole run, and the
    set-up is repeated at even intervals between them. Timings come from
    the quietest quarter of the sweep cycles and of the ``predict_grid``
    passes; ``setup_s`` is the median set-up."""
    from layers import Session
    from stats import peak_rss_mb

    gauge = Gauge()
    setup_times: list = []

    def setup() -> dict:
        before = gauge.read()
        start = time.perf_counter()
        prepared = prepare(seed)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * host_scale([before, gauge.read()]))
        return prepared

    prep = setup()
    cycles = max(MIN_CYCLES, round(seconds * CYCLES_PER_SECOND))
    setup_every = max(1, cycles // SETUP_REPEATS)
    sweeps, predicts = [], []
    with Session(trace) as session:
        for cycle in range(1, cycles + 1):
            before = gauge.read()
            sweeps.append(sweep_cycle(prep, session))
            between = gauge.read()
            predicts.append(predict_cycle(prep, session))
            after = gauge.read()
            sweeps[-1]["gauge"] = (before + between) / 2
            predicts[-1]["gauge"] = (between + after) / 2
            if cycle % setup_every == 0 and len(setup_times) < SETUP_REPEATS:
                with session.paused():
                    setup()
    rss_mb = peak_rss_mb()
    if trace:
        walls = []
        for _ in range(3):
            before = gauge.read()
            wall = sweep_cycle(prep, Session(False))["wall"]
            walls.append(wall * host_scale([before, gauge.read()]))
        reference = median(walls)
    verdict = verify(prep, sweeps)

    # the quietest cycles, scaled to the nominal host by the gauge
    # readings next to them
    quiet = quietest(sweeps, lambda c: c["wall"])
    scale = host_scale([c["gauge"] for c in quiet])
    cells = [c * scale for cycle in quiet for c in cycle["cells"]]
    q, tail_value, beyond = tail(cells)
    sweep_wall = scale * sum(cycle["wall"] for cycle in quiet)
    quiet_predicts = quietest(predicts, lambda c: c["wall"])
    predict_wall = host_scale([c["gauge"] for c in quiet_predicts]) * sum(
        c["wall"] for c in quiet_predicts
    )
    every_cell = [c for cycle in sweeps for c in cycle["cells"]]
    end_to_end = {
        "capacity_rps": (len(cells) / sweep_wall, "1/s"),
        "latency_p50_ms": (median(cells) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "slo_attainment": (
            sum(1 for c in every_cell if c <= SLO_S) / len(every_cell), "share"
        ),
        "sweep_points_per_s": (sum(c["points"] for c in quiet) / sweep_wall, "1/s"),
        "analytic_points_per_s": (
            sum(c["points"] for c in quiet_predicts) / predict_wall, "1/s"
        ),
        "predictor_err_max": (max(verdict["err_max"], ERR_FLOOR), "ratio"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    lines = [
        f"latency_tail_ms is p{q:g} of {len(cells)} tuning requests "
        f"(one sweep of one app x engine each; {beyond} beyond it)",
        f"{len(sweeps)} cycles of {sweeps[0]['points']} sweep points and "
        f"{predicts[0]['points']} predict_grid points; figures from the "
        f"{len(quiet)} sweeps and {len(quiet_predicts)} predict_grid passes "
        f"that took least wall time, times scaled by {scale:.3f} to the "
        "nominal host",
        f"correctness: {verdict['attempted']} sweep points compared with a "
        f"fresh engine's run, {verdict['failed']} mismatches",
    ]
    per_layer = {
        "verify.oracle.s": (verdict["oracle_s"], "s"),
        "verify.checked": (verdict["checked"], "count"),
        "verify.mismatches": (verdict["failed"], "count"),
    }
    if trace:
        per_layer.update(session.per_layer())
        traced = median([c["wall"] * host_scale([c["gauge"]]) for c in sweeps])
        per_layer["trace.overhead_share"] = (traced / reference - 1.0, "share")
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "lines": lines,
        "session": session,
        "idle_s": 0.0,
        "waiting": {},
    }
