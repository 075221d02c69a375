"""Orchestration for ``python -m repro verify``: the verification pillars
in one pass/fail sweep.

:data:`PILLARS` is the one list of pillars. Each entry names a pillar,
says whether it runs by default or only behind its ``--<name>`` flag,
describes it in one line, and runs it on a :class:`Sweep` (which sizes
itself for ``--quick``) into a :class:`~repro.verify.report.PillarReport`.
:func:`run_verify`, the CLI flags and the tier-1 pillar test all read
this list; ``docs/verification.md`` describes each pillar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.apps import ALL_APPS
from repro.engines import (
    UVM_ENGINES,
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
)
from repro.errors import ReproError
from repro.runtime.pipeline import run_pipeline_per_block
from repro.units import KiB, MiB
from repro.verify.differential import (
    ORACLE,
    run_analytic_differential,
    run_compiled_differential,
    run_differential,
    run_fastpath_differential,
    run_multigpu_differential,
    run_serve_differential,
)
from repro.verify.fuzz import run_fuzz
from repro.verify.invariants import (
    InvariantReport,
    verify_pipeline_trace,
    verify_run,
)
from repro.verify.report import Cell, PillarReport


@dataclass(frozen=True)
class Sweep:
    """What one ``repro verify`` run hands every pillar."""

    quick: bool
    seed: int
    data_bytes: int
    config: EngineConfig
    #: cases per IR and per pipeline fuzz loop
    fuzz_iterations: int

    @classmethod
    def sized(
        cls,
        quick: bool = False,
        seed: int = 7,
        data_bytes: Optional[int] = None,
        fuzz_iterations: Optional[int] = None,
    ) -> "Sweep":
        """The sweep at ``--quick`` or full scale; explicit sizes win."""
        data_bytes = data_bytes or (1 * MiB if quick else 4 * MiB)
        if fuzz_iterations is None:
            fuzz_iterations = 8 if quick else 30
        config = EngineConfig(chunk_bytes=max(256 * KiB, data_bytes // 8))
        return cls(quick, seed, data_bytes, config, fuzz_iterations)


@dataclass(frozen=True)
class Pillar:
    """One verify pillar: ``run`` grades a :class:`Sweep`."""

    name: str
    #: runs only when asked for by name (``--<name>`` on the CLI)
    opt_in: bool
    description: str
    run: Callable[[Sweep], PillarReport]


def _invariants(s: Sweep) -> PillarReport:
    # the invariant checkers consume full timelines, which the analytic
    # fast path deliberately skips: pin the DES
    traced_config = s.config.with_(fastpath=False)
    engine = BigKernelEngine()
    reports = {}
    for cls in ALL_APPS:
        app = cls()
        data = app.generate(n_bytes=s.data_bytes, seed=s.seed)
        res = engine.run(app, data, traced_config)
        reports[f"bigkernel/{app.name}"] = verify_run(res, traced_config)
    reports["pipeline/per-block"] = _per_block_check(
        s.config, engine, s.seed, s.data_bytes
    )
    return PillarReport(
        "invariants",
        [
            Cell(name, ok=r.ok, detail="" if r.ok else r.summary())
            for name, r in reports.items()
        ],
    )


def _per_block_check(
    config: EngineConfig, engine: BigKernelEngine, seed: int, data_bytes: int
) -> InvariantReport:
    """Invariant-check one high-fidelity per-block pipeline run."""
    app = ALL_APPS[0]()
    data = app.generate(n_bytes=data_bytes, seed=seed)
    sched = engine._schedule(app, data, config, workers_override=1)
    n_blocks = min(4, max(1, sched.active_blocks))
    block_chunks = [list(sched.chunks) for _ in range(n_blocks)]
    result = run_pipeline_per_block(
        config.hardware, block_chunks, sched.pipe_cfg, cpu_threads=4
    )
    return verify_pipeline_trace(
        result.trace,
        gpu_capacity=2 * n_blocks,
        cpu_workers=4,
        ring_depth=sched.pipe_cfg.ring_depth,
        bytes_h2d=result.bytes_h2d,
        bytes_d2h=result.bytes_d2h,
    )


def _uvm(s: Sweep) -> PillarReport:
    uvm_engines = [cls() for cls in UVM_ENGINES]
    return run_differential(
        data_bytes=s.data_bytes,
        seed=s.seed,
        config=s.config,
        engines=[CpuSerialEngine()] + uvm_engines,
        traced_engines=tuple(e.name for e in uvm_engines),
        title=f"uvm differential vs {ORACLE}",
    )


def _multigpu(s: Sweep) -> PillarReport:
    return run_multigpu_differential(
        data_bytes=s.data_bytes,
        seed=s.seed,
        config=s.config,
        gpu_counts=(1, 2) if s.quick else (1, 2, 4),
        fuzz_iterations=2 if s.quick else 5,
    )


PILLARS: tuple[Pillar, ...] = (
    Pillar(
        "invariants", False,
        "BigKernel timelines over every app plus one per-block run, "
        "through every invariant checker",
        _invariants,
    ),
    Pillar(
        "differential", False,
        f"every engine vs the {ORACLE} oracle on every app",
        lambda s: run_differential(
            data_bytes=s.data_bytes, seed=s.seed, config=s.config
        ),
    ),
    Pillar(
        "uvm", False,
        f"the paging engines vs the {ORACLE} oracle, timelines "
        "invariant-checked",
        _uvm,
    ),
    Pillar(
        "fuzz", False,
        "seeded random IR programs, pipeline schedules and UVM paging "
        "configurations",
        lambda s: run_fuzz(
            ir_iterations=s.fuzz_iterations,
            pipeline_iterations=s.fuzz_iterations,
            uvm_iterations=4 if s.quick else 12,
            seed=s.seed,
        ),
    ),
    Pillar(
        "fastpath", True,
        "the analytic steady-state pipeline vs the DES on the full "
        "app x engine matrix",
        lambda s: run_fastpath_differential(
            data_bytes=s.data_bytes, seed=s.seed, config=s.config
        ),
    ),
    Pillar(
        "compiled", True,
        "the vectorized kernel backend vs the tree-walking interpreter on "
        "every app",
        lambda s: run_compiled_differential(data_bytes=s.data_bytes, seed=s.seed),
    ),
    Pillar(
        "analytic", True,
        "the closed-form predictor vs the DES on the clean matrix plus "
        "fuzzed geometries",
        lambda s: run_analytic_differential(
            data_bytes=s.data_bytes,
            seed=s.seed,
            config=s.config,
            fuzz_iterations=6 if s.quick else 12,
        ),
    ),
    Pillar(
        "multigpu", True,
        f"the sharded scale-out engine vs the {ORACLE} oracle over GPU "
        "counts and fuzzed fabrics, shard traces invariant-checked",
        _multigpu,
    ),
    Pillar(
        "serve", True,
        "a seeded multi-tenant trace through a live server, every response "
        "bit-equal to its one-shot oracle",
        lambda s: run_serve_differential(
            data_bytes=min(s.data_bytes, 1 * MiB),
            seed=s.seed,
            duration=1.5 if s.quick else 3.0,
        ),
    ),
)


@dataclass
class VerifySummary:
    """Combined outcome of one verification sweep, by pillar name."""

    reports: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports.values())

    def summary(self) -> str:
        lines = [r.summary() for r in self.reports.values()]
        lines.append("verify: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_verify(
    quick: bool = False,
    seed: int = 7,
    data_bytes: Optional[int] = None,
    fuzz_iterations: Optional[int] = None,
    opt_in: Iterable[str] = (),
    emit: Callable[[str], None] = print,
) -> VerifySummary:
    """Run every default pillar plus the opt-in pillars named in
    ``opt_in``, in :data:`PILLARS` order; ``emit`` narrates progress."""
    opt_in = set(opt_in)
    unknown = opt_in - {p.name for p in PILLARS if p.opt_in}
    if unknown:
        raise ReproError(f"unknown opt-in pillar(s): {sorted(unknown)}")
    sweep = Sweep.sized(quick, seed, data_bytes, fuzz_iterations)
    selected = [p for p in PILLARS if not p.opt_in or p.name in opt_in]
    summary = VerifySummary()
    for i, pillar in enumerate(selected, 1):
        emit(f"[{i}/{len(selected)}] {pillar.name}: {pillar.description}")
        summary.reports[pillar.name] = pillar.run(sweep)
    return summary
