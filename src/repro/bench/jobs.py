"""Fan-out of engine-run grids, and the picklable job specs it ships.

Every grid of independent engine runs — :func:`repro.bench.sweep.sweep`,
:func:`repro.faults.chaos.run_chaos`, the UVM comparison and the
multi-GPU ladder — hands its ``(engine, app, data, config)`` runs to
:func:`run_grid`, which applies the one backend rule
(:func:`choose_backend`) and returns one outcome per run in input order:
the :class:`~repro.engines.base.RunResult`, or the typed
:class:`~repro.errors.ReproError` the run raised.

The process backend cannot ship live objects to workers: engines carry
memoization caches, ``AppData`` holds tens of megabytes of arrays, and
pickling either would cost more than the run itself. Instead the parent
sends a :class:`JobSpec` — app name, generation recipe (seed, requested
bytes, datagen version), engine identity, and the frozen
:class:`~repro.engines.base.EngineConfig` — and each worker *regenerates*
the dataset locally. Generation is deterministic
(:func:`repro.apps.base.dataset_key` names datasets by exactly this
recipe), so every worker sees byte-identical data, and per-worker caches
(:data:`_WORKER_DATASETS`, :data:`_WORKER_ENGINES`) amortize the
regeneration and the engine's schedule memoization across all the runs
a worker evaluates.

Only registry apps and stock engines are spec-able: a hand-built
``AppData`` or a custom engine instance has no recipe a worker could
replay, in which case :func:`dataset_spec` / :func:`engine_to_spec` return
``None`` and the grid runs in this process (or raises, when the process
backend was requested explicitly).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.apps.base import (
    APP_REGISTRY,
    AppData,
    Application,
    attach_functional_memo,
    get_app,
)
from repro.engines.base import Engine, EngineConfig, RunResult
from repro.errors import ReproError


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe of one dataset — enough to regenerate it."""

    app: str
    seed: int
    #: requested size as passed to ``generate`` (None = the app default)
    n_bytes: Optional[int]
    #: :data:`repro.apps.datagen.DATAGEN_VERSION` at spec time
    version: int


@dataclass(frozen=True)
class EngineSpec:
    """Engine identity: registry name plus the BigKernel feature label."""

    name: str
    variant: str = ""


@dataclass(frozen=True)
class JobSpec:
    """One engine run, fully described by value — safe to pickle."""

    dataset: DatasetSpec
    engine: EngineSpec
    config: EngineConfig


def dataset_spec(app: Application, data: AppData) -> Optional[DatasetSpec]:
    """The dataset's regeneration recipe, or None when it has none.

    Requires the generation stamp (``data.meta["datagen"]``) *and* that
    ``app`` is exactly the registered class for its name — a worker
    reconstructs the app as ``get_app(name)``, which must produce the same
    generator.
    """
    recipe = data.meta.get("datagen")
    if recipe is None or data.app != app.name:
        return None
    if APP_REGISTRY.get(app.name) is not type(app):
        return None
    return DatasetSpec(
        app=app.name,
        seed=recipe["seed"],
        n_bytes=recipe["n_bytes"],
        version=recipe["version"],
    )


def engine_to_spec(engine: Engine) -> Optional[EngineSpec]:
    """Identity of a stock engine, or None for custom engine types."""
    from repro.engines import ALL_ENGINES, UVM_ENGINES, BigKernelEngine
    from repro.engines.multigpu import MultiGpuBigKernelEngine
    from repro.engines.uvm import UvmSpec

    if type(engine) is MultiGpuBigKernelEngine:
        # the fabric rides in the variant: every constructor knob that
        # changes the timeline must survive the worker round-trip
        variant = ":".join(
            (
                engine.features.label,
                f"g{engine.n_gpus}",
                "shared" if engine.shared_link else "dedicated",
                "numa" if engine.numa_aware else "blind",
            )
        )
        return EngineSpec(name=MultiGpuBigKernelEngine.name, variant=variant)
    if type(engine) is BigKernelEngine:
        return EngineSpec(name=engine.name, variant=engine.features.label)
    if type(engine) in UVM_ENGINES:
        # only the stock paging model is replayable by name; a custom
        # UvmSpec has no registry recipe a worker could rebuild
        if engine.spec != UvmSpec():
            return None
        return EngineSpec(name=engine.name, variant=engine.prefetch or "")
    if type(engine) in ALL_ENGINES:
        return EngineSpec(name=engine.name)
    return None


def _features_from_label(label: str):
    from repro.engines import BigKernelFeatures

    factory = {
        "overlap-only": BigKernelFeatures.overlap_only,
        "volume-reduction": BigKernelFeatures.with_reduction,
        "full": BigKernelFeatures.full,
        "coalesce-only": lambda: BigKernelFeatures(
            reduce_volume=False, coalesce=True
        ),
    }.get(label or "full")
    if factory is None:
        raise ReproError(f"unknown BigKernel variant {label!r}")
    return factory()


def engine_from_spec(spec: EngineSpec) -> Engine:
    """Reconstruct the engine a spec names."""
    from repro.engines import ALL_ENGINES, BigKernelEngine
    from repro.engines.multigpu import MultiGpuBigKernelEngine

    if spec.name == MultiGpuBigKernelEngine.name:
        parts = spec.variant.split(":")
        if len(parts) != 4 or not parts[1].startswith("g"):
            raise ReproError(
                f"malformed multi-GPU engine variant {spec.variant!r}"
            )
        label, gpus, link, numa = parts
        return MultiGpuBigKernelEngine(
            n_gpus=int(gpus[1:]),
            features=_features_from_label(label),
            shared_link=link == "shared",
            numa_aware=numa == "numa",
        )
    if spec.name == BigKernelEngine.name:
        return BigKernelEngine(features=_features_from_label(spec.variant))
    from repro.engines import UVM_ENGINES

    for cls in UVM_ENGINES:
        if cls.name == spec.name:
            return cls(prefetch=spec.variant or None)
    for cls in ALL_ENGINES:
        if cls.name == spec.name:
            return cls()
    raise ReproError(f"unknown engine {spec.name!r} in job spec")


#: per-worker dataset cache: spec -> (app, data). A sweep fans one dataset
#: across many configs, so one regeneration serves a worker's whole share;
#: each instance carries a functional-output memo, so its kernel runs once
#: for all of them.
_WORKER_DATASETS: OrderedDict = OrderedDict()
_WORKER_DATASETS_MAX = 4

#: per-worker engine cache: reusing the instance keeps its schedule /
#: pattern / buffer memoization warm across the worker's grid points
_WORKER_ENGINES: dict = {}


def materialize_dataset(spec: DatasetSpec) -> tuple[Application, AppData]:
    """Regenerate (and cache) the app + dataset a spec names."""
    cached = _WORKER_DATASETS.get(spec)
    if cached is not None:
        _WORKER_DATASETS.move_to_end(spec)
        return cached
    from repro.apps.datagen import DATAGEN_VERSION

    if spec.version != DATAGEN_VERSION:
        raise ReproError(
            f"dataset spec for {spec.app!r} was made with datagen version "
            f"{spec.version}, worker has {DATAGEN_VERSION}"
        )
    app = get_app(spec.app)
    data = attach_functional_memo(
        app.generate(n_bytes=spec.n_bytes, seed=spec.seed)
    )
    _WORKER_DATASETS[spec] = (app, data)
    while len(_WORKER_DATASETS) > _WORKER_DATASETS_MAX:
        _WORKER_DATASETS.popitem(last=False)
    return app, data


def run_jobspec(spec: JobSpec) -> RunResult:
    """Execute one job in this process (the pool worker entry point)."""
    app, data = materialize_dataset(spec.dataset)
    engine = _WORKER_ENGINES.get(spec.engine)
    if engine is None:
        engine = _WORKER_ENGINES[spec.engine] = engine_from_spec(spec.engine)
    return engine.run(app, data, spec.config)


#: recognized ``backend=`` values
BACKENDS = ("thread", "process", "auto")

#: one grid run: ``(engine, app, data, config)``
Run = tuple[Engine, Application, AppData, EngineConfig]
#: what :func:`run_grid` returns per run
Outcome = Union[RunResult, ReproError]


def _worker_count(jobs: Optional[int]) -> int:
    """``jobs`` as a worker count: 0 or None means one per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _des_bound(engine: Engine, app: Application, config: EngineConfig) -> bool:
    """Will this run hold the GIL in the pure-Python DES?

    Mirrors the fast-path fallback matrix (``docs/performance.md``): an
    active fault plan forces the DES, ``fastpath=False`` asks for it,
    mapped-writes apps fall back chunk by chunk, and the UVM engines have
    no fast path at all.
    """
    from repro.engines.uvm import GpuUvmEngine

    if isinstance(engine, GpuUvmEngine):
        return True
    if config.faults is not None and config.faults.active():
        return True
    return not config.fastpath or app.writes_mapped


def _process_specs(
    runs: Sequence[Run], jobs: Optional[int], backend: str
) -> Optional[list[JobSpec]]:
    """The one backend rule: job specs for a process pool, or None to run
    in this process (serially or on threads)."""
    if backend not in BACKENDS:
        raise ReproError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == "thread" or _worker_count(jobs) <= 1:
        return None
    # auto: processes pay a fork + regeneration tax, so only buy real
    # parallelism where threads cannot provide it (the GIL-bound DES) AND
    # the machine/grid can amortize the tax — on a 1-2 core box or a tiny
    # grid the workers serialize anyway and the process backend measured
    # 0.35x (BENCH_pipeline.json, 1-core run)
    if backend == "auto" and (
        (os.cpu_count() or 1) <= 2
        or len(runs) < 4
        or not any(_des_bound(e, a, c) for e, a, _, c in runs)
    ):
        return None
    specs = []
    for engine, app, data, config in runs:
        dspec, espec = dataset_spec(app, data), engine_to_spec(engine)
        if dspec is None or espec is None:
            if backend == "auto":
                return None
            raise ReproError(
                "backend='process' needs registry apps with a generation "
                "recipe and stock engines (workers rebuild both from "
                "picklable specs); use backend='thread' for custom instances"
            )
        specs.append(JobSpec(dspec, espec, config))
    return specs if len(specs) > 1 else None  # one run gains nothing from a pool


def choose_backend(
    runs: Sequence[Run], jobs: Optional[int] = 1, backend: str = "auto"
) -> str:
    """``"process"`` or ``"thread"``: where :func:`run_grid` sends ``runs``.

    The rule: an unknown ``backend`` raises :class:`ReproError`; ``jobs``
    <= 1 or ``"thread"`` runs in this process (``jobs`` of 0 or None
    means one worker per CPU); ``"process"`` uses a process pool and
    raises when a run cannot become a :class:`JobSpec`; ``"auto"`` uses
    processes only when every run can become a spec, the box has more
    than 2 cores, there are at least 4 runs, and some run is DES-bound.
    """
    return "thread" if _process_specs(runs, jobs, backend) is None else "process"


def _run_here(run: Run) -> Outcome:
    engine, app, data, config = run
    try:
        return engine.run(app, data, config)
    except ReproError as exc:
        return exc


def _run_spec(spec: JobSpec) -> Outcome:
    try:
        return run_jobspec(spec)
    except ReproError as exc:
        return exc


def run_grid(
    runs: Sequence[Run], jobs: Optional[int] = 1, backend: str = "auto"
) -> list[Outcome]:
    """Run every ``(engine, app, data, config)``; one outcome per run.

    Outcomes come back in input order whatever the backend
    (``executor.map`` preserves submission order), so anything merged
    from them — sweep tie-breaks, chaos fingerprints, figure entries — is
    backend-invariant. Threads and the serial path use the caller's
    dataset instances; process workers regenerate them with
    :func:`materialize_dataset`. Only typed :class:`ReproError`\\ s
    become outcomes; any other exception propagates.
    """
    specs = _process_specs(runs, jobs, backend)
    if specs is not None:
        workers = min(_worker_count(jobs), len(specs))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_run_spec, specs))
    workers = min(_worker_count(jobs), len(runs))
    if workers <= 1:
        return [_run_here(run) for run in runs]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_run_here, runs))


def results_of(outcomes: Sequence[Outcome]) -> list[RunResult]:
    """The results of :func:`run_grid`, raising the first typed error."""
    for outcome in outcomes:
        if isinstance(outcome, ReproError):
            raise outcome
    return list(outcomes)
