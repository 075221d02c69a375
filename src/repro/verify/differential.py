"""Differential oracles: each pillar runs one subsystem against a trusted
reference and returns a :class:`~repro.verify.report.PillarReport`.

The base pillar is every engine against the serial CPU run. All execution
schemes share one functional semantics (the chunked kernel path); they
differ only in *when* data moves and *what* the timeline charges. The
single-threaded :class:`~repro.engines.cpu_serial.CpuSerialEngine` is
therefore a trusted oracle: it has no pipeline, no buffers, no overlap —
nothing that a scheduling bug could corrupt. :func:`run_differential`
runs the full app × engine matrix against that oracle, compares outputs
(each app's ``outputs_equal``: exact for integer outputs, tight tolerance
for accumulated floats), and invariant-checks every BigKernel timeline on
the side. The other runners hold the fast path, the compiled backend, the
predictor, the sharded engine and the serving layer to their own oracles.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.apps import ALL_APPS
from repro.engines import ALL_ENGINES, CpuSerialEngine, EngineConfig
from repro.errors import VerificationError
from repro.units import MiB
from repro.verify.invariants import verify_run
from repro.verify.report import Cell, PillarReport

ORACLE = CpuSerialEngine.name


def describe_output(value) -> str:
    """Short structural description of an engine output, for mismatch
    reports."""
    if isinstance(value, np.ndarray):
        return f"ndarray{value.shape} dtype={value.dtype}"
    if isinstance(value, dict):
        keys = ", ".join(sorted(map(str, value))[:6])
        return f"dict({len(value)}: {keys}{'...' if len(value) > 6 else ''})"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}(len={len(value)})"
    return f"{type(value).__name__}={value!r:.60}"


def compare_outputs(app, reference, candidate) -> tuple[bool, str]:
    """(equal?, detail) for one engine output against the oracle's."""
    if app.outputs_equal(reference, candidate):
        return True, ""
    return False, (
        f"oracle={describe_output(reference)} vs "
        f"engine={describe_output(candidate)}"
    )


def run_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    engines: Optional[Iterable] = None,
    check_invariants: bool = True,
    traced_engines: tuple = ("bigkernel",),
    title: str = f"differential vs {ORACLE}",
) -> PillarReport:
    """Run every engine on every app and diff against the serial oracle.

    ``apps``/``engines`` accept instances (defaults: all apps, all
    schemes). Timelines of engines named in ``traced_engines`` additionally
    pass through the invariant checkers when ``check_invariants`` is set
    (default: BigKernel only; the UVM pillar passes the uvm family) and
    the cell keeps the :class:`~repro.verify.invariants.InvariantReport`
    under ``values["invariants"]``; a violated timeline marks the cell as
    a mismatch even if the output agreed.
    """
    config = config or EngineConfig(chunk_bytes=512 * 1024)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    engines = (
        list(engines) if engines is not None else [cls() for cls in ALL_ENGINES]
    )
    oracle = next((e for e in engines if e.name == ORACLE), None)
    if oracle is None:
        oracle = CpuSerialEngine()
        engines = [oracle] + engines

    # invariant checking reads full timelines; the analytic fast path
    # records none, so those cells run against the DES explicitly
    traced_config = config.with_(fastpath=False) if config.fastpath else config

    report = PillarReport(title)
    for app in apps:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        ref = oracle.run(app, data, config)
        report.cells.append(
            Cell(app.name, oracle.name, values={"sim_time": ref.sim_time})
        )
        for engine in engines:
            if engine is oracle:
                continue
            wants_trace = check_invariants and engine.name in traced_engines
            res = engine.run(app, data, traced_config if wants_trace else config)
            cell = Cell(app.name, engine.name, values={"sim_time": res.sim_time})
            ok, detail = compare_outputs(app, ref.output, res.output)
            if not ok:
                cell.fail(detail)
            if wants_trace:
                inv = cell.values["invariants"] = verify_run(res, traced_config)
                if not inv.ok:
                    cell.fail(inv.summary())
            report.cells.append(cell)
    return report


# --------------------------------------------------------------------------
# fastpath-vs-des mode: the analytic pipeline against the simulator
# --------------------------------------------------------------------------

#: relative tolerance for timeline comparisons — the fast path is designed
#: to be bit-identical, so this is purely a guard against future drift
FASTPATH_TOL = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _diff_runs(app, fast, des, tol: float) -> list[str]:
    """Compare two runs of the same (app, engine) cell; returns problems."""
    problems = []
    if not _close(fast.sim_time, des.sim_time, tol):
        problems.append(
            f"sim_time {fast.sim_time!r} != {des.sim_time!r}"
        )
    for key in set(fast.metrics.stage_totals) | set(des.metrics.stage_totals):
        a = fast.metrics.stage_totals.get(key, 0.0)
        b = des.metrics.stage_totals.get(key, 0.0)
        if not _close(a, b, tol):
            problems.append(f"stage_totals[{key}] {a!r} != {b!r}")
    for attr in ("bytes_h2d", "bytes_d2h", "n_chunks"):
        a, b = getattr(fast.metrics, attr), getattr(des.metrics, attr)
        if a != b:
            problems.append(f"{attr} {a} != {b}")
    if not app.outputs_equal(fast.output, des.output):
        problems.append(
            f"output {describe_output(fast.output)} != "
            f"{describe_output(des.output)}"
        )
    return problems


def run_fastpath_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    engines: Optional[Iterable] = None,
    tol: float = FASTPATH_TOL,
) -> PillarReport:
    """Run every (app, engine) cell twice — fast path allowed vs DES forced —
    and assert ``sim_time``/``stage_totals``/byte counters/outputs agree.

    This is the oracle that lets the analytic pipeline ship: the DES is
    the trusted model, and every cell must agree within ``tol`` (the fast
    path targets bit-identical, so 1e-9 has huge margin). Cells where the
    fast path declines (mapped writes, short runs) compare DES vs DES and
    pass trivially — ``used_fastpath`` records which cells actually
    exercised the analytic engine. Engine instances are reused between the
    two runs of a cell, so schedule memoization is shared and only the
    simulation layer differs.
    """
    config = config or EngineConfig(chunk_bytes=512 * 1024)
    fast_config = config.with_(fastpath=True)
    des_config = config.with_(fastpath=False)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    engines = (
        list(engines) if engines is not None else [cls() for cls in ALL_ENGINES]
    )

    report = PillarReport(f"fastpath vs des (tol {tol:g})")
    for app in apps:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        for engine in engines:
            fast = engine.run(app, data, fast_config)
            des = engine.run(app, data, des_config)
            cell = Cell(
                app.name,
                engine.name,
                values={
                    "used_fastpath": fast.trace is None and des.trace is not None,
                    "sim_time_fast": fast.sim_time,
                    "sim_time_des": des.sim_time,
                },
            )
            for problem in _diff_runs(app, fast, des, tol):
                cell.fail(problem)
            report.cells.append(cell)
    report.counts["took the fast path"] = sum(
        c.values["used_fastpath"] for c in report.cells
    )
    return report


# --------------------------------------------------------------------------
# compiled-vs-interpreter mode: the vectorized backend against the oracle
# --------------------------------------------------------------------------

#: absolute tolerance for compiled-vs-interpreter outputs (rtol is 0: the
#: backend targets bit-identical results, this guards against drift only)
COMPILED_TOL = 1e-9

_STAT_FIELDS = (
    "n_ops",
    "n_calls",
    "n_mapped_reads",
    "n_mapped_writes",
    "n_resident_accesses",
    "mapped_read_bytes",
    "mapped_write_bytes",
)


def _clone_app_data(data):
    """Independent copy of an AppData's mutable arrays (the kernels write
    mapped fields and resident tables in place)."""
    import copy as _copy

    clone = _copy.copy(data)
    clone.mapped = {k: v.copy() for k, v in data.mapped.items()}
    clone.resident = {
        k: (v.copy() if isinstance(v, np.ndarray) else _copy.deepcopy(v))
        for k, v in data.resident.items()
    }
    clone.params = dict(data.params)
    return clone


def _outputs_close(app, a, b, tol: float) -> tuple[bool, str]:
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return False, f"output keys {sorted(a)} != {sorted(b)}"
        bad = [
            k for k in a if not np.allclose(a[k], b[k], rtol=0, atol=tol)
        ]
        if bad:
            return False, f"output arrays diverge: {bad}"
        return True, ""
    if isinstance(a, np.ndarray):
        if np.allclose(a, b, rtol=0, atol=tol):
            return True, ""
        return False, (
            f"output {describe_output(a)} != {describe_output(b)}"
        )
    return (a == b), "" if a == b else f"output {a!r} != {b!r}"


def run_compiled_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    apps: Optional[Iterable] = None,
    tol: float = COMPILED_TOL,
) -> PillarReport:
    """Run every app's kernel through the interpreter and (where the
    vectorizability analysis admits it) the compiled NumPy backend, over
    the same data, and compare outputs, InterpStats counters, and
    addr-gen address streams.

    The tree-walking interpreter is the trusted oracle; the compiled
    backend must agree exactly — stats and streams are integer-compared,
    outputs at ``rtol=0, atol=tol``. Apps the analysis rejects
    (``compiled_expected = False``: wordcount's and mastercard's
    loop-carried scanner state) record their fallback reasons and pass if
    the verdict matches the declaration, so an analysis regression that
    silently starts rejecting (or admitting) a kernel fails the pillar.
    """
    from repro.errors import SlicingError
    from repro.kernelc.codegen import InterpStats, KernelInterpreter
    from repro.kernelc.compile import (
        compile_kernel,
        resident_kinds_of,
        vector_fn_names,
    )
    from repro.kernelc.analysis import analyze_vectorizable
    from repro.kernelc.slicing import make_addrgen_kernel

    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    report = PillarReport(f"compiled vs interpreter (atol {tol:g})")
    for app in apps:
        base = app.generate(n_bytes=data_bytes, seed=seed)
        data_i = _clone_app_data(base)
        data_c = _clone_app_data(base)
        kernel = app.kernel()
        n = app.n_units(base)
        ctx_i = app.make_ir_context(data_i)
        ctx_c = app.make_ir_context(data_c)
        vfns = vector_fn_names(ctx_c.device_fns)
        rkinds = resident_kinds_of(ctx_c.resident)
        verdict = analyze_vectorizable(
            kernel, vector_fns=vfns, resident_kinds=rkinds
        )
        cell = Cell(
            app.name,
            values={"compiled": verdict.ok, "fallback_reasons": verdict.reasons},
        )
        report.cells.append(cell)
        if not verdict.ok:
            if app.compiled_expected:
                cell.fail(
                    "analysis rejected a kernel declared compilable: "
                    + "; ".join(verdict.reasons)
                )
            continue
        if not app.compiled_expected:
            cell.fail("analysis admitted a kernel declared fallback")

        interp = KernelInterpreter(kernel, ctx_i)
        compiled = compile_kernel(
            kernel, vector_fns=vfns, resident_kinds=rkinds
        )
        cstats = InterpStats()
        for p in range(app.n_passes):
            if "pass_idx" in kernel.params:
                ctx_i.params["pass_idx"] = p
                ctx_c.params["pass_idx"] = p
            interp.run_thread(0, 0, n)
            run = compiled.run_range(ctx_c, 0, n)
            for f in _STAT_FIELDS:
                setattr(cstats, f, getattr(cstats, f) + getattr(run.stats, f))

        ok_out, detail = _outputs_close(
            app, app.ir_output(data_i, ctx_i), app.ir_output(data_c, ctx_c),
            tol,
        )
        if not ok_out:
            cell.fail(detail)
        for f in _STAT_FIELDS:
            a, b = getattr(interp.stats, f), getattr(cstats, f)
            if a != b:
                cell.fail(f"stats.{f} {a} != {b}")

        try:
            ag_kernel = make_addrgen_kernel(kernel)
        except SlicingError:
            continue
        ag_verdict = analyze_vectorizable(
            ag_kernel, vector_fns=vfns, resident_kinds=rkinds
        )
        if not ag_verdict.ok:
            continue
        ctx_ai = app.make_ir_context(_clone_app_data(base))
        ctx_ac = app.make_ir_context(_clone_app_data(base))
        if "pass_idx" in ag_kernel.params:
            ctx_ai.params["pass_idx"] = 0
            ctx_ac.params["pass_idx"] = 0
        ag_i = KernelInterpreter(ag_kernel, ctx_ai)
        ag_i.run_thread(0, 0, n)
        ag_c = compile_kernel(ag_kernel, vector_fns=vfns, resident_kinds=rkinds)
        run = ag_c.run_range(ctx_ac, 0, n)
        r_i = np.asarray([r.offset for r in ag_i.read_addresses], dtype=np.int64)
        w_i = np.asarray([r.offset for r in ag_i.write_addresses], dtype=np.int64)
        if not np.array_equal(run.read_offsets(), r_i):
            cell.fail("read address stream diverged")
        if not np.array_equal(run.write_offsets(), w_i):
            cell.fail("write address stream diverged")

    n_compiled = sum(c.values["compiled"] for c in report.cells)
    report.counts["compiled"] = n_compiled
    report.counts["interpreter-fallback"] = len(report.cells) - n_compiled
    return report


# --------------------------------------------------------------------------
# analytic-vs-des mode: the closed-form predictor against the simulator
# --------------------------------------------------------------------------

#: relative tolerance for predictor-vs-DES totals. The predictor's bound
#: family is exact (machine epsilon) on almost every cell; the tolerance
#: absorbs the few cells where a bound is a certified *lower* envelope of
#: a DES artifact (e.g. kmeans gpu_double drain interleaving, ~1.3e-2).
ANALYTIC_TOL = 5e-2


def _rel_err(predicted: float, actual: float) -> float:
    return abs(predicted - actual) / max(abs(actual), 1e-300)


def run_analytic_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    tol: float = ANALYTIC_TOL,
    fuzz_iterations: int = 8,
) -> PillarReport:
    """Validate the closed-form predictor against the DES.

    Two phases. The *clean matrix* prices every app on every predictable
    engine at the base geometry and runs the same configuration through
    the engine with the fast path disabled (a true event-by-event
    simulation); each cell's relative error must stay within ``tol``.
    The *fuzz loop* then draws ``fuzz_iterations`` random geometries
    (chunk bytes, block count, ring depth) for the pipelined engines
    (``bigkernel``/``gpu_double`` — the ones whose totals actually move
    with geometry) from ``random.Random(f"analytic-{seed}")`` and holds
    them to the same tolerance.

    Runs are non-functional (``functional=False``): the predictor prices
    the timeline only, so the kernels need not execute.
    """
    import random

    from repro.analytic import PREDICTABLE_ENGINES, predict_run, resolve_engine

    config = config or EngineConfig(chunk_bytes=512 * 1024)
    config = config.with_(functional=False, fastpath=False)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    datasets = {
        app.name: app.generate(n_bytes=data_bytes, seed=seed) for app in apps
    }

    report = PillarReport(f"analytic vs des (tol {tol:g})")

    def check(app, engine_name, cfg, geometry=""):
        data = datasets[app.name]
        predicted = predict_run(app, data, cfg, engine=engine_name).sim_time
        simulated = resolve_engine(engine_name).run(app, data, cfg).sim_time
        rel_err = _rel_err(predicted, simulated)
        cell = Cell(
            app.name,
            engine_name,
            values={
                "predicted": predicted,
                "simulated": simulated,
                "rel_err": rel_err,
                "fuzzed": bool(geometry),
            },
        )
        if not rel_err <= tol:
            cell.fail(f"rel err {rel_err:.2e} > {tol:g} {geometry}".rstrip())
        report.cells.append(cell)

    for app in apps:
        for engine_name in PREDICTABLE_ENGINES:
            check(app, engine_name, config)

    rng = random.Random(f"analytic-{seed}")
    for _ in range(fuzz_iterations):
        app = rng.choice(apps)
        engine_name = rng.choice(["bigkernel", "gpu_double"])
        cfg = config.with_(
            chunk_bytes=rng.choice([64, 128, 256, 512, 1024, 2048]) * 1024,
            num_blocks=rng.choice([4, 8, 16, 32]),
            ring_depth=rng.randint(2, 6),
            compute_threads=32 * rng.randint(1, 16),
        )
        check(
            app,
            engine_name,
            cfg,
            geometry=(
                f"at cb={cfg.chunk_bytes // 1024}K nb={cfg.num_blocks} "
                f"rd={cfg.ring_depth} ct={cfg.compute_threads}"
            ),
        )
    report.counts["fuzzed geometries"] = fuzz_iterations
    report.counts["worst rel err"] = max(
        (c.values["rel_err"] for c in report.cells), default=0.0
    )
    return report


# --------------------------------------------------------------------------
# multi-gpu mode: the sharded scale-out engine vs the oracle, per shard
# --------------------------------------------------------------------------

#: tolerance for dedicated-link cells at the clean matrix's standard
#: geometry: those share the exact per-shard bound family of the
#: fastpath, so anything past noise is model drift.
MULTIGPU_DEDICATED_TOL = 5e-3

#: tolerance for shared-root-complex cells and for fuzzed corner
#: fabrics of either link type. The shard model is a steady-state bound
#: family: with only 2-3 chunks per shard, pipeline fill/drain and
#: write-back interleaving on the shared port move the DES up to ~9%
#: off the bounds (worst observed 8.9e-2, kmeans at 512 KiB / 4 shared
#: GPUs / 64 KiB chunks — deterministic across data seeds and ring
#: depths). Typical cells sit well under 2%.
MULTIGPU_SHARED_TOL = 1e-1


def run_multigpu_differential(
    data_bytes: int = 2 * MiB,
    seed: int = 7,
    config: Optional[EngineConfig] = None,
    apps: Optional[Iterable] = None,
    gpu_counts: Iterable[int] = (1, 2, 4),
    tol: float = MULTIGPU_SHARED_TOL,
    fuzz_iterations: int = 4,
) -> PillarReport:
    """Validate the sharded scale-out engine against the serial oracle.

    Two phases, mirroring the analytic suite. The *clean matrix* runs
    every app across ``gpu_counts`` with dedicated links and (for K>1)
    a shared root complex, always through the true DES. Each cell must
    satisfy three laws at once:

    * the merged output matches ``cpu_serial`` bit-for-bit — sharding
      plus the cross-GPU merge is invisible to the result;
    * every shard's trace passes the full pipeline invariant battery and
      the per-shard byte ledgers sum to the run's counters
      (:func:`repro.verify.invariants.audit_sharded_run`);
    * the closed-form shard predictor prices the cell — dedicated links
      within :data:`MULTIGPU_DEDICATED_TOL` (exact bound family), shared
      links within ``tol`` (default :data:`MULTIGPU_SHARED_TOL`, sized
      for the fill/drain corner geometries the steady-state bounds
      cannot capture).

    The *fuzz loop* then draws ``fuzz_iterations`` random fabrics (GPU
    count, link topology, NUMA placement, chunk geometry) through
    :func:`repro.verify.fuzz.check_multigpu_differential`, each seeded
    ``random.Random(f"multigpu-{seed}-{case}")`` so any failure is
    reproducible from (seed, case) alone.
    """
    import random

    from repro.analytic import predict_run
    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.verify.fuzz import check_multigpu_differential
    from repro.verify.invariants import audit_sharded_run

    config = config or EngineConfig(chunk_bytes=512 * 1024)
    # shard traces only exist on the true DES; totals are fastpath-identical
    config = config.with_(fastpath=False)
    apps = list(apps) if apps is not None else [cls() for cls in ALL_APPS]
    oracle = CpuSerialEngine()
    report = PillarReport(f"multigpu vs {ORACLE}")

    for app in apps:
        data = app.generate(n_bytes=data_bytes, seed=seed)
        ref = oracle.run(app, data, config)
        for n in gpu_counts:
            for shared in (False,) if n == 1 else (False, True):
                eng = MultiGpuBigKernelEngine(n, shared_link=shared)
                res = eng.run(app, data, config)
                predicted = predict_run(app, data, config, eng).sim_time
                rel_err = _rel_err(predicted, res.sim_time)
                cell = Cell(
                    app.name,
                    eng.name,
                    values={
                        "sim_time": res.sim_time,
                        "shards": len(res.shard_details or ()),
                        "rel_err": rel_err,
                        "fuzzed": False,
                    },
                )
                ok, detail = compare_outputs(app, ref.output, res.output)
                if not ok:
                    cell.fail(detail)
                for problem in audit_sharded_run(res):
                    cell.fail(problem)
                cell_tol = tol if shared else MULTIGPU_DEDICATED_TOL
                if not rel_err <= cell_tol:
                    cell.fail(f"analytic rel err {rel_err:.2e} > {cell_tol:g}")
                report.cells.append(cell)

    for case in range(fuzz_iterations):
        rng = random.Random(f"multigpu-{seed}-{case}")
        try:
            report.cells.append(check_multigpu_differential(rng))
        except VerificationError as exc:
            report.cells.append(
                Cell(
                    "(fuzz)",
                    f"seed {seed} case {case}",
                    ok=False,
                    detail=str(exc),
                    values={"shards": 0, "fuzzed": True},
                )
            )
    report.counts["fuzzed fabrics"] = fuzz_iterations
    report.counts["shard traces audited"] = sum(
        c.values["shards"] for c in report.cells
    )
    return report


# --------------------------------------------------------------------------
# serve mode: the multi-tenant serving layer vs one-shot oracle runs
# --------------------------------------------------------------------------


def _bit_equal(a, b) -> bool:
    """Exact structural equality (rtol 0): the serving layer's contract is
    that batching and caching are *invisible*, so no tolerance applies."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and bool(np.array_equal(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_bit_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_bit_equal(x, y) for x, y in zip(a, b))
    return bool(a == b)


def served_result_problems(job, result, oracles: dict) -> list[str]:
    """What separates a served ``result`` of ``job`` from its fresh one-shot
    oracle: ``sim_time`` must be exactly equal and, for functional jobs,
    the output bit-equal (:func:`_bit_equal`, rtol 0). ``oracles`` memoizes
    the oracle runs per (dataset, engine, config). Empty when they agree.

    The one check behind both ``repro serve --verify`` and the serve pillar.
    """
    from repro.serve.scheduler import oneshot_oracle

    key = (job.dataset, job.engine, job.config)
    oracle = oracles.get(key)
    if oracle is None:
        oracle = oracles[key] = oneshot_oracle(job)
    problems = []
    if result.sim_time != oracle.sim_time:
        problems.append(f"sim_time {result.sim_time!r} != {oracle.sim_time!r}")
    if job.config.functional and not _bit_equal(result.output, oracle.output):
        problems.append(
            f"output {describe_output(result.output)} != "
            f"{describe_output(oracle.output)}"
        )
    return problems


def run_serve_differential(
    data_bytes: int = 512 * 1024,
    seed: int = 7,
    duration: float = 2.0,
    rate: float = 25.0,
) -> PillarReport:
    """Serve a short seeded trace and bit-compare every response.

    A repeat-heavy multi-tenant trace goes through a live
    :class:`~repro.serve.Server` with the full amortization stack engaged
    (run cache, batch coalescing, shared datasets, engine memos); then
    *every* completed response — served, coalesced, or cached alike — is
    compared against a fresh one-shot oracle (new app, newly generated
    dataset, new engine, no caches) for that exact job
    (:func:`served_result_problems`). The queue is sized above the trace
    so nothing is rejected: in this pillar a rejection or a failure is
    itself a mismatch, and so is a clean phase in which the run cache
    never answered (a serving layer that never amortizes is a bug too).

    A second, *overloaded* phase then replays the same trace compressed
    into a burst with every tenant carrying a tight SLO (derived from the
    first phase's measured mean service time) through the EDF + admission
    + adaptive-batching stack: completed responses must still bit-equal
    the same oracles, while shed and predictively rejected responses must
    be properly *typed* terminals (a
    :class:`~repro.errors.SloViolationError` on the response) and the
    accounting identities must close exactly — the SLO machinery may drop
    work, but never silently and never incorrectly.
    """
    from repro.bench.sweep import RunCache
    from repro.errors import SloViolationError
    from repro.serve import (
        ServeConfig,
        Server,
        TraceSpec,
        generate_trace,
        scale_trace,
        serve_trace,
        with_slo,
    )

    spec = TraceSpec(
        seed=seed, duration=duration, rate=rate, data_bytes=data_bytes
    )
    trace = generate_trace(spec)
    config = ServeConfig(max_queue=len(trace) + 1)
    # memory-only cache: the pillar must be hermetic, not a disk-state test
    with Server(config, cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, trace)

    jobs = {req.req_id: (req.tenant, req.job) for req in trace}
    oracles: dict = {}
    report = PillarReport("serve vs one-shot")

    def grade(resp, phase: str) -> None:
        tenant, job = jobs[resp.req_id]
        cell = Cell(
            f"req {resp.req_id} [{tenant}] {job.dataset.app} x "
            f"{job.engine.name} ({phase}:{resp.status})"
        )
        if resp.status == "failed" or (
            # the open phase is sized so nothing is rejected or dropped
            phase == "open" and resp.status in ("rejected", "shed")
        ):
            cell.fail(resp.error or f"request {resp.status}")
        elif resp.status == "shed":
            if not isinstance(resp.exception, SloViolationError):
                cell.fail("shed response lacks a typed SloViolationError")
        elif resp.status == "rejected":
            queue_full = resp.error == "queue full"
            if not (queue_full or isinstance(resp.exception, SloViolationError)):
                cell.fail(
                    "rejection is neither queue-full nor a typed "
                    "SloViolationError"
                )
        else:
            for problem in served_result_problems(job, resp.result, oracles):
                cell.fail(problem)
        report.cells.append(cell)

    for resp in outcome.responses:
        grade(resp, "open")
    if not outcome.metrics.cached:
        report.cells.append(
            Cell(
                "open:run-cache",
                ok=False,
                detail="no response of the clean phase came from the run cache",
            )
        )

    # --- phase 2: burst overload with tight SLOs through EDF + admission ---
    mean_service = outcome.makespan / max(outcome.metrics.completed, 1)
    slo_ms = 1000.0 * 5.0 * mean_service
    slo_config = ServeConfig(
        max_queue=max(8, len(trace) // 4),
        scheduling="edf",
        adaptive_batch=True,
    )
    with Server(
        slo_config,
        tenants=with_slo(spec.tenants, slo_ms),
        cache=RunCache(disk=None),
    ) as server:
        slo_outcome = serve_trace(server, scale_trace(trace, 1e-3))
    for resp in slo_outcome.responses:
        grade(resp, "slo")

    m = slo_outcome.metrics
    if m.submitted != m.admitted + m.rejected or m.admitted != (
        m.completed + m.failed + m.shed
    ):
        report.cells.append(
            Cell(
                "slo:accounting",
                ok=False,
                detail=(
                    f"identity violated: submitted={m.submitted} "
                    f"admitted={m.admitted} rejected={m.rejected} "
                    f"completed={m.completed} failed={m.failed} "
                    f"shed={m.shed}"
                ),
            )
        )
    slo_status = [r.status for r in slo_outcome.responses]
    report.counts.update(
        {
            "served": outcome.metrics.served,
            "coalesced": outcome.metrics.coalesced,
            "cached": outcome.metrics.cached,
            "engine runs": outcome.metrics.engine_runs + m.engine_runs,
            "shed in slo phase": slo_status.count("shed"),
            "rejected in slo phase": slo_status.count("rejected"),
        }
    )
    return report
