"""Deterministic fuzz/property harness for the compiler and the pipeline.

Two generators, both driven by a seeded ``random.Random`` so every failure
is reproducible from (seed, case index) alone — Hypothesis is *not*
required (the Hypothesis-based suite in ``tests/test_kernelc_random.py``
explores the same space more aggressively when it is installed):

* :func:`random_kernel` draws a random kernelc IR program (nested loops,
  branches, address arithmetic over the loop variables, mapped loads
  feeding resident accumulators, mapped stores) and
  :func:`check_kernel_roundtrip` asserts the BigKernel compiler path —
  address-generation slice + gather + databuf execution + write-back —
  reproduces the original kernel's effects byte-for-byte. Kernels the
  slicer rejects exercise the full-transfer fallback window instead.
* :func:`random_chunk_schedule` / :func:`random_pipeline_config` draw a
  random chunk plan and scheduling knobs, run the 4/6-stage pipeline
  simulation, and feed the resulting timeline through every trace
  invariant checker.
* :func:`check_uvm_differential` draws a random unified-memory paging
  configuration (page size, fault-batch size, device-memory capacity,
  prefetch mode) and asserts the UVM engine's output matches the serial
  oracle, its timeline passes the invariant checkers, and its page-byte
  ledger conserves (migrated == evicted + resident, written-back == d2h).
* :func:`check_multigpu_differential` draws a random sharded fabric
  (GPU count, shared vs dedicated links, NUMA placement, chunk geometry)
  and asserts the scale-out engine's merged output matches the serial
  oracle, every shard's DES trace passes the invariant battery, the
  per-shard byte ledgers reconcile, and the analytic shard model prices
  the run within tolerance.

:func:`run_fuzz` bundles the IR, pipeline and UVM loops into one
:class:`~repro.verify.report.PillarReport` (the multi-GPU fabrics run in
:func:`~repro.verify.differential.run_multigpu_differential`).
"""

from __future__ import annotations

import random
from dataclasses import fields
from typing import Optional

import numpy as np

from repro.errors import SlicingError, VerificationError
from repro.hw.spec import DEFAULT_HARDWARE
from repro.kernelc.codegen import ExecutionContext, InterpStats, KernelInterpreter
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Const,
    For,
    If,
    Kernel,
    Load,
    MappedRef,
    RecordSchema,
    Store,
    Var,
)
from repro.kernelc.printer import render_kernel
from repro.kernelc.slicing import make_addrgen_kernel
from repro.kernelc.transform import make_databuf_kernel
from repro.kernelc.validate import validate_kernel
from repro.runtime.pipeline import ChunkWork, PipelineConfig, run_pipeline
from repro.verify.invariants import verify_pipeline_trace
from repro.verify.report import Cell, PillarReport

SCHEMA = RecordSchema.packed(
    [("a", "f8"), ("b", "i4"), ("c", "i4"), ("d", "f8")], record_size=32
)
#: fields the kernel reads; stores only target field "c" of the thread's
#: own record (the streaming contract: no mapped read-after-write)
READ_FIELDS = ("a", "b", "d")
N_RECORDS = 12
ACC_SIZE = 8
TMP_NAMES = ("t0", "t1", "t2")


# ---------------------------------------------------------------------------
# random IR programs
# ---------------------------------------------------------------------------

def _index_expr(rng: random.Random):
    """Address arithmetic from the loop variable only (sliceable)."""
    return rng.choice(
        [
            Var("i"),
            BinOp("%", BinOp("+", Var("i"), Const(1)), Const(N_RECORDS)),
            BinOp("%", BinOp("*", Var("i"), Const(3)), Const(N_RECORDS)),
            BinOp("-", BinOp("-", Var("end"), Const(1)), Var("i")),
        ]
    )


def _load_stmt(rng: random.Random):
    return Assign(
        rng.choice(TMP_NAMES),
        Load(MappedRef("arr", _index_expr(rng), rng.choice(READ_FIELDS))),
    )


def _compute_stmt(rng: random.Random):
    val = rng.choice([Var(n) for n in TMP_NAMES] + [Const(1), Const(2.5)])
    if rng.random() < 0.5:
        idx = rng.choice([Var("i"), Const(3)])
        return AtomicAdd("acc", BinOp("%", idx, Const(ACC_SIZE)), val)
    name = rng.choice(TMP_NAMES)
    return Assign(name, BinOp("+", Var(name), val))


def _store_stmt(rng: random.Random):
    return Store(
        MappedRef("arr", Var("i"), "c"),
        BinOp("%", Var(rng.choice(TMP_NAMES)), Const(1000)),
    )


def _atom(rng: random.Random):
    return rng.choice([_load_stmt, _compute_stmt, _store_stmt])(rng)


def _guarded(rng: random.Random):
    then = tuple(_atom(rng) for _ in range(rng.randint(1, 3)))
    els = tuple(_atom(rng) for _ in range(rng.randint(0, 2)))
    return If(BinOp(">", Var(rng.choice(("t0", "t1"))), Const(0)), then, els)


def _inner_loop(rng: random.Random):
    def inner_stmt():
        if rng.random() < 0.5:
            return Assign(
                rng.choice(TMP_NAMES),
                Load(
                    MappedRef(
                        "arr",
                        BinOp(
                            "%",
                            BinOp("+", Var("i"), Var("j")),
                            Const(N_RECORDS),
                        ),
                        rng.choice(READ_FIELDS),
                    )
                ),
            )
        return _compute_stmt(rng)

    body = tuple(inner_stmt() for _ in range(rng.randint(1, 3)))
    return For("j", Const(0), Const(rng.randint(1, 3)), body)


def random_kernel(rng: random.Random) -> Kernel:
    """One random (sliceable-by-construction) per-thread kernel."""
    inits = tuple(Assign(n, Const(0)) for n in TMP_NAMES)
    body = [_load_stmt(rng)]
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.6:
            body.append(_atom(rng))
        elif roll < 0.8:
            body.append(_guarded(rng))
        else:
            body.append(_inner_loop(rng))
    loop = For("i", Var("start"), Var("end"), tuple(body))
    return Kernel(
        "fuzz_kernel",
        inits + (loop,),
        mapped={"arr": SCHEMA},
        resident=("acc",),
    )


def _make_ctx(seed: int) -> ExecutionContext:
    rng = np.random.default_rng(seed)
    arr = np.zeros(N_RECORDS, dtype=SCHEMA.numpy_dtype())
    arr["a"] = rng.uniform(-5, 5, N_RECORDS)
    arr["b"] = rng.integers(-100, 100, N_RECORDS)
    arr["c"] = rng.integers(-100, 100, N_RECORDS)
    arr["d"] = rng.uniform(-5, 5, N_RECORDS)
    return ExecutionContext(
        mapped={"arr": arr}, resident={"acc": np.zeros(ACC_SIZE, dtype=np.float64)}
    )


def check_kernel_roundtrip(kernel: Kernel, data_seed: int) -> bool:
    """Original execution == slice + gather + databuf (+ write-back).

    Returns True when the kernel took the sliced path, False for the
    full-transfer fallback; raises :class:`VerificationError` on any
    divergence.
    """
    validate_kernel(kernel)
    ctx_orig = _make_ctx(data_seed)
    orig = KernelInterpreter(kernel, ctx_orig)
    orig.run_thread(0, 0, N_RECORDS)

    ctx_bk = _make_ctx(data_seed)
    view = ctx_bk.mapped["arr"].view(np.uint8).reshape(-1)
    db = KernelInterpreter(make_databuf_kernel(kernel), ctx_bk)
    try:
        addrgen = make_addrgen_kernel(kernel)
    except SlicingError:
        # unsliceable: whole-range fallback window instead of a gather
        db.fallback_windows["arr"] = (0, view.copy())
        db.run_thread(0, 0, N_RECORDS)
        sliced = False
    else:
        ag = KernelInterpreter(addrgen, ctx_bk)
        ag.run_thread(0, 0, N_RECORDS)
        if len(ag.read_addresses) != orig.stats.n_mapped_reads:
            raise VerificationError(
                f"slice emitted {len(ag.read_addresses)} read addresses, "
                f"original performed {orig.stats.n_mapped_reads} reads"
            )
        # gather from the pre-run state, exactly like the assembly stage
        values = [
            view[r.offset : r.offset + r.nbytes].view(r.dtype)[0]
            for r in ag.read_addresses
        ]
        db.load_data(values)
        db.run_thread(0, 0, N_RECORDS)
        if len(ag.write_addresses) != len(db.write_queue):
            raise VerificationError(
                f"slice emitted {len(ag.write_addresses)} write addresses, "
                f"databuf queued {len(db.write_queue)} writes"
            )
        sliced = True

    if len(db.write_queue) != orig.stats.n_mapped_writes:
        raise VerificationError(
            f"databuf queued {len(db.write_queue)} writes, original "
            f"performed {orig.stats.n_mapped_writes}"
        )
    for rec, value in (
        [(r, v) for r, (_, v) in zip(ag.write_addresses, db.write_queue)]
        if sliced
        else db.write_queue
    ):
        view[rec.offset : rec.offset + rec.nbytes] = np.asarray(
            [value], dtype=rec.dtype
        ).view(np.uint8)

    if not np.array_equal(ctx_orig.resident["acc"], ctx_bk.resident["acc"]):
        raise VerificationError(
            f"resident state diverged: {ctx_orig.resident['acc']} vs "
            f"{ctx_bk.resident['acc']}"
        )
    if not np.array_equal(
        ctx_orig.mapped["arr"].view(np.uint8), ctx_bk.mapped["arr"].view(np.uint8)
    ):
        raise VerificationError("mapped array bytes diverged after write-back")
    return sliced


def compiled_problems(
    interp_stats: InterpStats, compiled_stats: InterpStats, addrgen=None
) -> list[str]:
    """Where the vectorized backend diverged from the interpreter.

    Compares every :class:`~repro.kernelc.codegen.InterpStats` counter
    and, when ``addrgen`` is ``(interpreter, compiled run)`` of the
    address-generation kernel, its read and write offset streams. The
    fuzz harness and the ``compiled`` pillar both grade with it.
    """
    problems = []
    for f in fields(InterpStats):
        a, b = getattr(interp_stats, f.name), getattr(compiled_stats, f.name)
        if a != b:
            problems.append(f"stats.{f.name} interpreter {a} != compiled {b}")
    if addrgen is not None:
        interp, run = addrgen
        for kind, records, offsets in (
            ("read", interp.read_addresses, run.read_offsets()),
            ("write", interp.write_addresses, run.write_offsets()),
        ):
            expected = np.asarray([r.offset for r in records], dtype=np.int64)
            if not np.array_equal(offsets, expected):
                problems.append(f"{kind} address stream diverged")
    return problems


def check_kernel_compiled(kernel: Kernel, data_seed: int) -> bool:
    """Interpreter == vectorized backend (when the analysis admits it).

    Returns True when the kernel compiled, False for the documented
    interpreter fallback; raises :class:`VerificationError` on any
    divergence in outputs, InterpStats counters, or addr-gen streams.
    """
    from repro.kernelc.compile import try_compile_kernel

    ctx_i = _make_ctx(data_seed)
    ctx_c = _make_ctx(data_seed)
    compiled = try_compile_kernel(
        kernel, resident_kinds={"acc": "f"}
    )
    if compiled is None:
        return False

    interp = KernelInterpreter(kernel, ctx_i)
    interp.run_thread(0, 0, N_RECORDS)
    run = compiled.run_range(ctx_c, 0, N_RECORDS)

    if not np.allclose(
        ctx_i.resident["acc"], ctx_c.resident["acc"], rtol=0, atol=1e-9
    ):
        raise VerificationError(
            f"compiled resident state diverged: {ctx_c.resident['acc']} vs "
            f"{ctx_i.resident['acc']}"
        )
    if not np.array_equal(
        ctx_i.mapped["arr"].view(np.uint8), ctx_c.mapped["arr"].view(np.uint8)
    ):
        raise VerificationError("compiled mapped array bytes diverged")

    try:
        ag_kernel = make_addrgen_kernel(kernel)
    except SlicingError:
        ag_kernel = None
    ag_compiled = (
        None
        if ag_kernel is None
        else try_compile_kernel(ag_kernel, resident_kinds={"acc": "f"})
    )
    addrgen = None
    if ag_compiled is not None:
        ag = KernelInterpreter(ag_kernel, _make_ctx(data_seed))
        ag.run_thread(0, 0, N_RECORDS)
        addrgen = (ag, ag_compiled.run_range(_make_ctx(data_seed), 0, N_RECORDS))
    problems = compiled_problems(interp.stats, run.stats, addrgen)
    if problems:
        raise VerificationError("compiled backend diverged: " + "; ".join(problems))
    return True


# ---------------------------------------------------------------------------
# random pipeline schedules
# ---------------------------------------------------------------------------

def random_chunk_schedule(rng: random.Random) -> list[ChunkWork]:
    """A random chunk plan, including zero-cost and write-back corners."""
    n = rng.randint(1, 8)
    writes = rng.random() < 0.4
    chunks = []
    for i in range(n):
        wb = rng.randint(1, 64 * 1024) if writes and rng.random() < 0.8 else 0
        chunks.append(
            ChunkWork(
                index=i,
                t_addr_gen=rng.choice([0.0, rng.uniform(1e-6, 1e-3)]),
                addr_bytes_d2h=rng.choice([0, rng.randint(1, 256 * 1024)]),
                t_assembly=rng.uniform(0.0, 1e-3),
                xfer_bytes=rng.randint(1, 4 * 1024 * 1024),
                t_compute=rng.uniform(0.0, 1e-3),
                write_bytes=wb,
                t_scatter=rng.uniform(0.0, 1e-4) if wb else 0.0,
                xfer_segments=rng.randint(1, 4),
            )
        )
    return chunks


def random_pipeline_config(rng: random.Random) -> PipelineConfig:
    return PipelineConfig(
        ring_depth=rng.randint(2, 5),
        cpu_workers=rng.randint(1, 4),
        sync_overhead=rng.choice([0.0, rng.uniform(0.0, 1e-5)]),
    )


def check_pipeline_case(rng: random.Random) -> None:
    """Simulate one random schedule and invariant-check its timeline."""
    chunks = random_chunk_schedule(rng)
    config = random_pipeline_config(rng)
    result = run_pipeline(DEFAULT_HARDWARE, chunks, config)
    report = verify_pipeline_trace(
        result.trace,
        gpu_capacity=2,
        cpu_workers=config.cpu_workers,
        ring_depth=config.ring_depth,
        chunks=chunks,
        bytes_h2d=result.bytes_h2d,
        bytes_d2h=result.bytes_d2h,
    )
    report.raise_if_failed()


# ---------------------------------------------------------------------------
# random UVM paging configurations
# ---------------------------------------------------------------------------

def check_uvm_differential(rng: random.Random) -> None:
    """One random paged-UVM configuration against the serial oracle.

    Draws page geometry, fault-batch size, device-memory capacity, and
    prefetch mode; the run's output must match ``cpu_serial``, its
    timeline must pass every invariant checker, and the page table's
    byte ledger must reconcile with the PCIe byte counters.
    """
    from repro.apps import get_app
    from repro.engines import CpuSerialEngine, EngineConfig, GpuUvmEngine, UvmSpec
    from repro.units import KiB, MiB
    from repro.verify.invariants import verify_run

    app = get_app(rng.choice(("netflix", "dna", "kmeans", "mastercard")))
    data = app.generate(
        n_bytes=rng.choice((256 * KiB, 512 * KiB, 1 * MiB)),
        seed=rng.randint(0, 999),
    )
    spec = UvmSpec(
        page_bytes=rng.choice((4 * KiB, 16 * KiB, 64 * KiB)),
        batch_pages=rng.choice((4, 8, 16)),
        prefetch_hit=rng.choice((0.0, 0.5, 1.0)),
        device_mem_bytes=rng.choice((None, 256 * KiB, 1 * MiB)),
        max_window=rng.choice((2, 8, 32)),
    )
    config = EngineConfig(
        chunk_bytes=256 * KiB,
        prefetch=rng.choice(("none", "readahead", "learned")),
    )
    ref = CpuSerialEngine().run(app, data, config)
    res = GpuUvmEngine(spec).run(app, data, config)
    if not app.outputs_equal(ref.output, res.output):
        raise VerificationError(
            f"uvm output diverged from {ref.engine} on {app.name} "
            f"(spec={spec}, prefetch={config.prefetch})"
        )
    verify_run(res, config).raise_if_failed()
    paging = res.metrics.notes["paging"]
    if res.metrics.bytes_h2d != paging["migrated_bytes"]:
        raise VerificationError(
            f"h2d bytes {res.metrics.bytes_h2d} != migrated ledger "
            f"{paging['migrated_bytes']}"
        )
    if paging["migrated_bytes"] != paging["evicted_bytes"] + paging["resident_bytes"]:
        raise VerificationError(
            f"page ledger leaks: migrated {paging['migrated_bytes']} != "
            f"evicted {paging['evicted_bytes']} + resident "
            f"{paging['resident_bytes']}"
        )
    if res.metrics.bytes_d2h != paging["writeback_bytes"]:
        raise VerificationError(
            f"d2h bytes {res.metrics.bytes_d2h} != writeback ledger "
            f"{paging['writeback_bytes']}"
        )


# ---------------------------------------------------------------------------
# random multi-gpu fabrics
# ---------------------------------------------------------------------------

def check_multigpu_differential(rng: random.Random) -> Cell:
    """One random sharded fabric against the serial oracle.

    Draws the GPU count, link topology (dedicated per-GPU links vs one
    shared root complex), NUMA placement mode, and chunk geometry, then
    runs the scale-out engine as a true DES. The merged output must
    match ``cpu_serial`` bit-for-bit, every shard's trace must pass the
    full pipeline invariant battery with the per-shard byte ledgers
    summing to the run's counters, and the closed-form shard predictor
    must price the run within the analytic tolerance. Returns the drawn
    cell for the multi-GPU pillar's report.
    """
    from repro.analytic import predict_run
    from repro.apps import get_app
    from repro.engines import CpuSerialEngine, EngineConfig
    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.units import KiB, MiB
    from repro.verify.invariants import audit_sharded_run

    app = get_app(rng.choice(("netflix", "wordcount", "kmeans", "mastercard")))
    data = app.generate(
        n_bytes=rng.choice((512 * KiB, 1 * MiB, 2 * MiB)),
        seed=rng.randint(0, 999),
    )
    engine = MultiGpuBigKernelEngine(
        n_gpus=rng.choice((2, 3, 4, 8)),
        shared_link=rng.random() < 0.5,
        numa_aware=rng.random() < 0.75,
    )
    # shard traces only exist on the true DES (totals are identical)
    config = EngineConfig(
        chunk_bytes=rng.choice((64, 128, 256)) * KiB,
        ring_depth=rng.randint(2, 5),
        fastpath=False,
    )
    ref = CpuSerialEngine().run(app, data, config)
    res = engine.run(app, data, config)
    if not app.outputs_equal(ref.output, res.output):
        raise VerificationError(
            f"{engine.name} merged output diverged from {ref.engine} "
            f"on {app.name} (chunk={config.chunk_bytes // KiB}K)"
        )
    problems = audit_sharded_run(res)
    if problems:
        raise VerificationError(
            f"{engine.name} on {app.name}: " + "; ".join(problems)
        )
    predicted = predict_run(app, data, config, engine).sim_time
    rel_err = abs(predicted - res.sim_time) / max(abs(res.sim_time), 1e-300)
    # fuzzed fabrics are corner geometries by design (2-3 chunks per
    # shard, numa-blind 8-GPU splits), so both link types get the
    # fill/drain-sized tolerance rather than the clean-matrix bounds
    from repro.verify.differential import MULTIGPU_SHARED_TOL

    if rel_err > MULTIGPU_SHARED_TOL:
        raise VerificationError(
            f"analytic shard model off by {rel_err:.2e} "
            f"(> {MULTIGPU_SHARED_TOL:g}) "
            f"for {engine.name} on {app.name} "
            f"(chunk={config.chunk_bytes // KiB}K rd={config.ring_depth})"
        )
    return Cell(
        app.name,
        engine.name,
        values={
            "sim_time": res.sim_time,
            "shards": len(res.shard_details),
            "rel_err": rel_err,
            "fuzzed": True,
        },
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _case_cell(kind: str, seed: int, index: int, problem: Optional[str]) -> Cell:
    """One fuzz case; a failure's detail leads with its reproducer."""
    cell = Cell(kind, f"case {index}")
    if problem is not None:
        cell.fail(f"[{kind} seed={seed} case={index}] {problem}")
    return cell


def run_fuzz(
    ir_iterations: int = 25,
    pipeline_iterations: int = 25,
    seed: int = 0,
    uvm_iterations: int = 10,
) -> PillarReport:
    """Run the fuzz loops, one cell per case. A failed cell's detail
    carries the reproducing ``[kind seed= case=]`` and, for IR cases, the
    rendered program."""
    report = PillarReport(f"fuzz seed={seed}")
    sliced = compiled = 0
    for index in range(ir_iterations):
        # string seeds hash via sha512 — stable across interpreter runs
        rng = random.Random(f"ir-{seed}-{index}")
        kernel: Optional[Kernel] = None
        problem = None
        try:
            kernel = random_kernel(rng)
            sliced += check_kernel_roundtrip(kernel, data_seed=seed + index)
            compiled += check_kernel_compiled(kernel, data_seed=seed + index)
        except VerificationError as exc:
            problem = str(exc)
            if kernel is not None:
                problem += f"\n{render_kernel(kernel)}"
        report.cells.append(_case_cell("ir", seed, index, problem))
    for kind, iterations, check in (
        ("pipeline", pipeline_iterations, check_pipeline_case),
        ("uvm", uvm_iterations, check_uvm_differential),
    ):
        for index in range(iterations):
            problem = None
            try:
                check(random.Random(f"{kind}-{seed}-{index}"))
            except VerificationError as exc:
                problem = str(exc)
            report.cells.append(_case_cell(kind, seed, index, problem))
    report.counts.update(
        {
            "ir": ir_iterations,
            "ir sliced": sliced,
            "ir compiled": compiled,
            "pipeline": pipeline_iterations,
            "uvm": uvm_iterations,
        }
    )
    return report
