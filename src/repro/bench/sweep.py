"""Parameter sweeps and the per-scheme autotuner.

The paper states (Section VI) that *each implementation is configured to
run with the number of GPU computation threads [and] buffer sizes that
result in the best execution time, as determined through
experimentation*. :func:`autotune` reproduces that methodology: it sweeps
a small grid per engine/app pair and returns the fastest configuration.

Three levers keep big grids fast (``docs/performance.md``):

* ``jobs=N``/``backend=`` fan the grid points out through
  :func:`repro.bench.jobs.run_grid`, which owns the thread-vs-process
  rule shared by every grid of engine runs. Points are independent engine
  runs; results come back in grid order, so the outcome — including
  every tie-break — is identical to the serial sweep.
* ``cache=True`` consults the two-tier :class:`RunCache`: an in-process
  LRU keyed on dataset *identity* in front of a persistent on-disk store
  (:class:`DiskCache`, SHA-256 content key under ``.repro-cache/``) keyed
  on dataset *content* — so repeated autotunes in one process, across
  processes, and across CI runs all evaluate each point once.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.apps.base import AppData, Application, data_fingerprint, dataset_key
from repro.bench.jobs import results_of, run_grid
from repro.engines.base import Engine, EngineConfig, RunResult
from repro.errors import ReproError
from repro.units import MiB

#: Schema version of the persistent cache. Part of every disk key: bump it
#: whenever RunResult's shape or the simulation's timing semantics change,
#: so stale entries from older builds are keyed away rather than reused.
CACHE_SCHEMA_VERSION = 1

#: environment switch that disables the persistent tier entirely
_DISK_CACHE_OFF_ENV = "REPRO_NO_DISK_CACHE"
#: environment override for the persistent tier's location
_DISK_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration."""

    params: dict
    sim_time: float
    result: RunResult = field(compare=False, repr=False)


@dataclass
class SweepResult:
    """All points of one sweep, with the winner."""

    points: list[SweepPoint]

    @property
    def best(self) -> SweepPoint:
        """The fastest point, with deterministic tie-breaking.

        Ties on ``sim_time`` are resolved toward the *smallest* resource
        footprint: lowest ``chunk_bytes`` first, then lowest
        ``num_blocks``, then grid order (``min`` is stable). Configuration-
        insensitive plateaus — common for CPU-bound apps — therefore
        always tune to the same config, whatever the grid order.
        """
        if not self.points:
            raise ReproError("sweep produced no points")
        inf = float("inf")
        return min(
            self.points,
            key=lambda p: (
                p.sim_time,
                p.params.get("chunk_bytes", inf),
                p.params.get("num_blocks", inf),
            ),
        )

    def series(self, key: str) -> dict:
        """``param value -> sim time`` for rendering."""
        return {p.params[key]: p.sim_time for p in self.points}


class DiskCache:
    """Persistent run-result store: one pickle per SHA-256 content key.

    Layout is ``<root>/<digest[:2]>/<digest[2:]>.pkl`` (git-object style
    fan-out). The root is resolved *per operation* — ``REPRO_CACHE_DIR``
    when set, else ``.repro-cache`` under the current directory — so tests
    and CI can redirect it without rebuilding caches. Writes go through a
    temp file + ``os.replace`` (atomic on POSIX), so concurrent writers
    (parallel sweeps, figure harnesses racing in CI) can only ever produce
    a complete entry; unreadable entries are treated as misses and
    deleted. Eviction is approximate LRU: reads bump mtime, and every
    :data:`_EVICT_EVERY` puts the oldest entries beyond ``max_entries``
    are removed. Setting ``REPRO_NO_DISK_CACHE`` makes every operation a
    no-op.
    """

    _EVICT_EVERY = 50
    #: orphaned temp files (a writer killed mid-``put``) older than this
    #: are swept during eviction; generous enough that no live writer —
    #: entries are small pickles — can still be mid-write
    _TMP_MAX_AGE = 300.0
    #: per-process counter making every temp filename unique: two threads
    #: of one process racing on the same digest must not share a temp file
    _tmp_seq = itertools.count()

    def __init__(self, root: Optional[os.PathLike] = None, max_entries: int = 4096):
        self._root = root
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._puts = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return not os.environ.get(_DISK_CACHE_OFF_ENV)

    @property
    def root(self) -> Path:
        return Path(
            self._root
            or os.environ.get(_DISK_CACHE_DIR_ENV)
            or ".repro-cache"
        )

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest[2:]}.pkl"

    def get(self, digest: str) -> Optional[RunResult]:
        if not self.enabled:
            return None
        path = self._path(digest)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            # truncated/stale/unreadable entry: a miss, and not worth keeping
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.misses += 1
            return None
        try:
            os.utime(path)  # approximate-LRU recency bump
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return result

    def put(self, digest: str, result: RunResult) -> None:
        if not self.enabled:
            return
        path = self._path(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / (
                f".{path.name}.{os.getpid()}.{next(self._tmp_seq)}.tmp"
            )
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            return  # cache writes are best-effort, never fatal
        with self._lock:
            self._puts += 1
            evict = self._puts % self._EVICT_EVERY == 0
        if evict:
            self._evict()

    def _evict(self) -> None:
        # Concurrent writers race this scan: an entry listed by glob may be
        # unlinked (another evictor, a clear(), a corrupt-entry reaper)
        # before it is stat'ed — treat every stat/unlink as best-effort.
        def mtime(path: Path) -> Optional[float]:
            try:
                return path.stat().st_mtime
            except OSError:
                return None

        entries = sorted(
            (m, p)
            for p in self.root.glob("??/*.pkl")
            if (m := mtime(p)) is not None
        )
        for _, path in entries[: max(0, len(entries) - self.max_entries)]:
            try:
                path.unlink()
            except OSError:
                pass
        # sweep temp files orphaned by a writer that died mid-put
        now = time.time()
        for tmp in self.root.glob("??/.*.tmp"):
            age = mtime(tmp)
            if age is not None and now - age > self._TMP_MAX_AGE:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        if not self.enabled or not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def clear(self) -> None:
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            self.hits = self.misses = self._puts = 0


#: memoized ``content_run_key`` digests, keyed on dataset *identity* (plus
#: engine/config): the serve admission loop probes the cache once per
#: request, and re-deriving the SHA-256 — whose ``dataset_key`` component
#: may itself hash megabytes for hand-built datasets — on every probe of
#: the same run would put hashing on the hot path. Identity keying makes a
#: stale hit impossible: a regenerated dataset gets a fresh fingerprint.
_CONTENT_KEY_MEMO: OrderedDict = OrderedDict()
_CONTENT_KEY_MEMO_MAX = 4096
_CONTENT_KEY_LOCK = threading.Lock()

#: process-wide accounting: ``requests`` counts every ``content_run_key``
#: call, ``computed`` only the digests actually derived (memo misses)
CONTENT_KEY_STATS = {"requests": 0, "computed": 0}


def content_run_key(
    engine: Engine, app: Application, data: AppData, config: EngineConfig
) -> str:
    """SHA-256 disk key of one run, built from content identities only.

    Every component is stable across processes: the engine's
    ``cache_key`` string, the app name, the dataset's *content* key
    (:func:`repro.apps.base.dataset_key` — recipe or byte hash, never the
    per-instance fingerprint), and the frozen config's repr (dataclass
    reprs are deterministic, and include the hardware spec and any fault
    plan). :data:`CACHE_SCHEMA_VERSION` folds the build generation in.

    Digests are memoized per process on the dataset's *identity*
    fingerprint (plus engine and config), so repeated probes for the same
    run — the ``repro serve`` hot loop — hash exactly once
    (:data:`CONTENT_KEY_STATS` carries the proof).
    """
    memo_key = (engine.cache_key, app.name, data_fingerprint(data), config)
    with _CONTENT_KEY_LOCK:
        CONTENT_KEY_STATS["requests"] += 1
        digest = _CONTENT_KEY_MEMO.get(memo_key)
        if digest is not None:
            _CONTENT_KEY_MEMO.move_to_end(memo_key)
            return digest
    payload = repr(
        (
            CACHE_SCHEMA_VERSION,
            engine.cache_key,
            app.name,
            dataset_key(data),
            config,
        )
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with _CONTENT_KEY_LOCK:
        CONTENT_KEY_STATS["computed"] += 1
        _CONTENT_KEY_MEMO[memo_key] = digest
        _CONTENT_KEY_MEMO.move_to_end(memo_key)
        while len(_CONTENT_KEY_MEMO) > _CONTENT_KEY_MEMO_MAX:
            _CONTENT_KEY_MEMO.popitem(last=False)
    return digest


class RunCache:
    """Two-tier cache of engine runs, keyed on everything a run reads.

    The front tier is a thread-safe in-process LRU keyed on ``(engine
    cache_key, app name, dataset *identity* fingerprint, config)``: the
    fingerprint (:func:`repro.apps.base.data_fingerprint`) is minted per
    dataset *instance*, so within one process a stale hit is impossible
    even if data is regenerated or mutated.

    Behind it sits an optional persistent :class:`DiskCache` keyed by
    :func:`content_run_key` — dataset *content*, not identity — which is
    what lets a fresh process (a figure harness, a CI job, a pool worker's
    parent) reuse points evaluated by an earlier one. A disk hit is
    promoted into the memory tier under the caller's identity key.
    """

    def __init__(self, maxsize: int = 512, disk: Optional[DiskCache] = None):
        self.maxsize = maxsize
        self.disk = disk
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    @staticmethod
    def key(engine: Engine, app: Application, data: AppData, config: EngineConfig):
        return (engine.cache_key, app.name, data_fingerprint(data), config)

    def keys(
        self, engine: Engine, app: Application, data: AppData, config: EngineConfig
    ) -> tuple:
        """``(memory key, disk key)`` of one run; the disk key is None
        while the persistent tier is off."""
        disk_key = None
        if self.disk is not None and self.disk.enabled:
            disk_key = content_run_key(engine, app, data, config)
        return self.key(engine, app, data, config), disk_key

    def get(self, key, disk_key: Optional[str] = None) -> Optional[RunResult]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
        if self.disk is not None and disk_key is not None:
            result = self.disk.get(disk_key)
            if result is not None:
                with self._lock:
                    self._store(key, result)
                    self.hits += 1
                    self.disk_hits += 1
                return result
        with self._lock:
            self.misses += 1
        return None

    def contains(self, key) -> bool:
        """Silent membership probe of the memory tier.

        No stats update, no LRU touch, no disk promotion — the serving
        layer's admission pricer uses this to cost repeat jobs at zero
        without perturbing the hit/miss accounting of real lookups.
        """
        with self._lock:
            return key in self._entries

    def put(self, key, result: RunResult, disk_key: Optional[str] = None) -> None:
        with self._lock:
            self._store(key, result)
        if self.disk is not None and disk_key is not None:
            self.disk.put(disk_key, result)

    def _store(self, key, result: RunResult) -> None:
        # caller holds self._lock
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.disk_hits = 0
        if disk and self.disk is not None:
            self.disk.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: process-wide two-tier run cache used by ``sweep(..., cache=True)``
RUN_CACHE = RunCache(disk=DiskCache())

def _sweep_analytic(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    grid: dict,
) -> SweepResult:
    """Price every grid point with the closed-form predictor."""
    from repro.analytic import predict_grid

    gp = predict_grid(app, data, grid, base_config, engine=engine)
    points = []
    for i, sim in enumerate(gp.sim_time):
        points.append(SweepPoint(gp.params_at(i), float(sim), None))
    return SweepResult(points)


def _hybrid_candidates(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    grid: dict,
    combos: list,
    top_k: int,
) -> list:
    """Keep the analytically-best ``top_k`` combos (ties expanded).

    ``predict_grid`` enumerates sorted keys x listed values — the same
    order ``combos`` was built in — so selected flat indices map straight
    back. Returning them sorted preserves grid order, which keeps every
    downstream tie-break (and the process backend's merge) identical to a
    pure-DES sweep over the same candidate set.
    """
    if top_k >= len(combos):
        return combos
    from repro.analytic import predict_grid

    gp = predict_grid(app, data, grid, base_config, engine=engine)
    selected = sorted(gp.top(top_k, expand_ties=True))
    return [combos[i] for i in selected]


def sweep(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: EngineConfig,
    grid: dict,
    jobs: int = 1,
    cache: bool = False,
    backend: str = "auto",
    mode: str = "des",
    top_k: int = 8,
) -> SweepResult:
    """Run ``engine`` over the cartesian product of ``grid`` overrides.

    ``grid`` maps EngineConfig field names to candidate value lists; the
    product is enumerated in deterministic order (sorted keys, listed
    values). ``jobs``/``backend`` fan the points out through
    :func:`repro.bench.jobs.run_grid` (see :func:`~repro.bench.jobs.
    choose_backend` for the rule). Whatever the backend, results merge in
    grid order, so the points list and the tie-broken winner are
    identical to the serial sweep's. ``cache=True`` resolves hits in the
    process-wide two-tier :data:`RUN_CACHE` (in-memory LRU + on-disk
    content-keyed store) first and evaluates only the misses.

    ``mode`` selects how points are evaluated:

    - ``"des"`` (default): simulate every point.
    - ``"analytic"``: price every point with the closed-form predictor
      (``repro.analytic.predict_grid``) — no simulation at all, points
      carry ``result=None``. Grids limited to the predictor's sweepable
      fields; for million-point scans call ``predict_grid`` directly and
      skip the per-point ``SweepPoint`` materialization.
    - ``"hybrid"``: rank the full grid analytically, then DES-evaluate
      only the best ``top_k`` candidates (plus any points whose
      prediction exactly ties the k-th — analytic plateaus are bitwise
      ties), through the normal backend/cache machinery. The analytic
      ranking uses the same ``(sim_time, chunk_bytes, num_blocks, grid
      order)`` tie-break as :meth:`SweepResult.best`, so on plateaus the
      hybrid winner is identical to the pure-DES winner.
    """
    keys = sorted(grid)
    combos = [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[k] for k in keys))
    ]

    if mode not in ("des", "analytic", "hybrid"):
        raise ReproError(f"unknown sweep mode {mode!r}: des | analytic | hybrid")
    if mode == "analytic":
        return _sweep_analytic(engine, app, data, base_config, grid)
    if mode == "hybrid" and len(combos) > 1:
        combos = _hybrid_candidates(
            engine, app, data, base_config, grid, combos, top_k
        )

    configs = [base_config.with_(**chosen) for chosen in combos]
    results: list[Optional[RunResult]] = [None] * len(combos)
    cache_keys: list = [None] * len(combos)
    if cache:
        for i, cfg in enumerate(configs):
            cache_keys[i] = RUN_CACHE.keys(engine, app, data, cfg)
            results[i] = RUN_CACHE.get(*cache_keys[i])
    misses = [i for i, result in enumerate(results) if result is None]
    outcomes = run_grid(
        [(engine, app, data, configs[i]) for i in misses], jobs, backend
    )
    for i, result in zip(misses, results_of(outcomes)):
        results[i] = result
        if cache:
            key, disk_key = cache_keys[i]
            RUN_CACHE.put(key, result, disk_key)
    return SweepResult(
        [
            SweepPoint(dict(chosen), result.sim_time, result)
            for chosen, result in zip(combos, results)
        ]
    )


#: the default tuning grid: buffer size and launch width, the two knobs
#: the paper tunes per implementation
DEFAULT_GRID = {
    "chunk_bytes": [512 * 1024, 1 * MiB, 2 * MiB, 4 * MiB],
    "num_blocks": [8, 16],
}


def autotune(
    engine: Engine,
    app: Application,
    data: AppData,
    base_config: Optional[EngineConfig] = None,
    grid: Optional[dict] = None,
    jobs: int = 1,
    cache: bool = False,
    backend: str = "auto",
    mode: str = "des",
    top_k: int = 8,
) -> tuple[EngineConfig, SweepResult]:
    """Find the engine's best configuration for this app/dataset.

    Returns ``(best_config, full_sweep)`` where ``best_config`` is
    ``base_config`` with the winning grid overrides applied (all other
    base fields preserved). Ties follow :meth:`SweepResult.best`'s
    deterministic ordering. CPU engines are configuration-insensitive and
    short-circuit to the base config. ``jobs``/``cache``/``backend``/
    ``mode``/``top_k`` pass through to :func:`sweep`.
    """
    base_config = base_config or EngineConfig()
    if engine.name.startswith("cpu"):
        result = engine.run(app, data, base_config)
        return base_config, SweepResult(
            [SweepPoint({}, result.sim_time, result)]
        )
    res = sweep(
        engine,
        app,
        data,
        base_config,
        grid or DEFAULT_GRID,
        jobs=jobs,
        cache=cache,
        backend=backend,
        mode=mode,
        top_k=top_k,
    )
    return base_config.with_(**res.best.params), res
