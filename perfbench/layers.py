"""Which entry point of which layer the traced run wraps, and the counts
taken at those boundaries.

Layers are the repository's modules: ``apps`` (datagen and the functional
kernel), ``engines``, ``runtime``, ``sim``, ``analytic``, ``cache``
(``repro.bench.sweep.RunCache``) and ``serve``. ``hw``, ``kernelc`` and
``faults`` run only inside ``engines`` on these workloads and are not
timed on their own. ``verify`` (``oneshot_oracle``) runs after the
measured windows and is timed by the benchmark directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Counts:
    """Work counted at the wrapped boundaries while the tracer records."""

    #: functional evaluations (one ``make_state`` ... ``finalize`` each)
    kernel_evals: int = 0
    #: distinct (dataset content, chunk bounds) pairs those evaluations ran
    kernel_keys: set = field(default_factory=set)
    #: ``run_pipeline`` calls that ran the DES (the rest took the fast path)
    pipeline_des: int = 0
    #: intervals the simulator recorded in the runs ``Engine.run`` returned
    sim_intervals: int = 0
    _open_evals: dict = field(default_factory=dict)


def _content_key(data) -> tuple:
    """Content name of a dataset, read without touching the hash counters."""
    from repro.apps.base import data_fingerprint

    recipe = data.meta.get("datagen")
    if recipe is not None:
        return (data.app, recipe["seed"], recipe["n_bytes"], recipe["version"])
    return ("instance",) + data_fingerprint(data)


def install(tracer) -> Counts:
    """Wrap every layer entry point on ``tracer``; returns the live counts."""
    import repro.engines.uvm  # noqa: F401  (registers the UVM engines)
    from repro.analytic import grid, predict
    from repro.apps.base import APP_REGISTRY
    from repro.bench.sweep import RunCache
    from repro.engines.base import Engine
    from repro.runtime import pipeline
    from repro.serve.pricing import JobPricer
    from repro.serve.scheduler import Server
    from repro.sim.core import Environment

    counts = Counts()
    apps = list(APP_REGISTRY.values())

    def on_make_state(args, state):
        counts.kernel_evals += 1
        counts._open_evals[id(state)] = (_content_key(args[1]), [])

    def on_chunk(args, _result):
        entry = counts._open_evals.get(id(args[2]))
        if entry is not None:
            entry[1].append((args[3], args[4]))

    def on_finalize(args, _result):
        entry = counts._open_evals.pop(id(args[2]), None)
        if entry is not None:
            counts.kernel_keys.add((entry[0], tuple(entry[1])))

    def on_engine_run(_args, result):
        if result.trace is not None:
            counts.sim_intervals += len(result.trace)

    def on_pipeline(_args, result):
        if result.trace is not None:
            counts.pipeline_des += 1

    engines = []
    pending = [Engine]
    while pending:
        cls = pending.pop()
        engines.append(cls)
        pending.extend(cls.__subclasses__())
    engines = engines[1:]  # the abstract base has no run of its own

    tracer.patch_method(apps, "generate", "apps.generate")
    tracer.patch_method(apps, "make_state", "apps.kernel", after=on_make_state)
    tracer.patch_method(apps, "start_pass", "apps.kernel")
    tracer.patch_method(apps, "process_chunk", "apps.kernel", after=on_chunk)
    tracer.patch_method(apps, "finalize", "apps.kernel", after=on_finalize)
    tracer.patch_method(engines, "run", "engines.run", after=on_engine_run)
    tracer.patch_method(engines, "run_batch", "engines.run_batch")
    tracer.patch_function(pipeline.run_pipeline, "runtime.pipeline", after=on_pipeline)
    tracer.patch_method([Environment], "run", "sim.run")
    tracer.patch_function(grid.predict_grid, "analytic.predict_grid")
    tracer.patch_function(predict.predict_run, "analytic.predict_run")
    for method in ("get", "put", "contains"):
        tracer.patch_method([RunCache], method, "cache")
    tracer.patch_method(
        [Server], "submit", "serve.submit", req_of=lambda args: args[1].req_id
    )
    tracer.patch_method([Server], "dispatch_round", "serve.dispatch")
    tracer.patch_method([JobPricer], "price", "serve.pricing")
    tracer.patch_method([JobPricer], "observe_batch", "serve.pricing")
    return counts


def stats_snapshot() -> dict:
    """The program's own process-wide counters, flattened."""
    from repro.analytic import ANALYTIC_MODEL_STATS, PREDICT_RUN_STATS
    from repro.apps.base import DATASET_HASH_STATS
    from repro.bench.sweep import CONTENT_KEY_STATS
    from repro.runtime.fastpath import FASTPATH_MEMO_STATS

    out = {}
    for prefix, stats in (
        ("dataset_hash", DATASET_HASH_STATS),
        ("content_key", CONTENT_KEY_STATS),
        ("fastpath_memo", FASTPATH_MEMO_STATS),
        ("analytic_model", ANALYTIC_MODEL_STATS),
        ("predict_run", PREDICT_RUN_STATS),
    ):
        for key, value in stats.items():
            out[f"{prefix}.{key}"] = value
    return out


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was attempted."""
    return num / den if den else 0.0


def per_layer(tracer, counts: Counts, stats: dict) -> dict:
    """Per-layer metrics the spans and counters give, as ``name -> (value,
    unit)``. Seconds are self times inside the measured windows."""
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def secs(*names):
        return sum(totals.get(n, {}).get("self_s", 0.0) for n in names)

    kernel_calls = calls("apps.kernel")
    pipe_calls = calls("runtime.pipeline")
    return {
        "apps.generate.calls": (calls("apps.generate"), "count"),
        "apps.generate.s": (secs("apps.generate"), "s"),
        "apps.kernel.calls": (kernel_calls, "count"),
        "apps.kernel.s": (secs("apps.kernel"), "s"),
        "apps.kernel.evals": (counts.kernel_evals, "count"),
        "apps.kernel.evals_per_unique": (
            ratio(counts.kernel_evals, len(counts.kernel_keys)),
            "ratio",
        ),
        "engines.run.calls": (calls("engines.run"), "count"),
        "engines.plan.s": (secs("engines.run", "engines.run_batch"), "s"),
        "runtime.pipeline.calls": (pipe_calls, "count"),
        "runtime.pipeline.s": (secs("runtime.pipeline"), "s"),
        "runtime.des_share": (ratio(counts.pipeline_des, pipe_calls), "share"),
        "runtime.fastpath_memo.reused": (stats["fastpath_memo.reused"], "count"),
        "sim.run.s": (secs("sim.run"), "s"),
        "sim.intervals": (counts.sim_intervals, "count"),
        "analytic.predict_grid.s": (secs("analytic.predict_grid"), "s"),
        "analytic.predict_run.calls": (calls("analytic.predict_run"), "count"),
        "analytic.predict_run.s": (secs("analytic.predict_run"), "s"),
        "analytic.predict_run.hit_ratio": (
            ratio(stats["predict_run.hits"], stats["predict_run.requests"]),
            "share",
        ),
        "analytic.model.hit_ratio": (
            ratio(stats["analytic_model.hits"], stats["analytic_model.requests"]),
            "share",
        ),
        "cache.calls": (calls("cache"), "count"),
        "cache.s": (secs("cache"), "s"),
        "cache.content_key.computed": (stats["content_key.computed"], "count"),
        "apps.dataset_key.sha256": (stats["dataset_hash.sha256_digests"], "count"),
        "serve.submit.s": (secs("serve.submit"), "s"),
        "serve.pricing.s": (secs("serve.pricing"), "s"),
        "serve.dispatch.s": (secs("serve.dispatch"), "s"),
    }


#: layer rows of the printed table, with the span names each row sums
TABLE_LAYERS = (
    ("apps", ("apps.generate", "apps.kernel")),
    ("engines", ("engines.run", "engines.run_batch")),
    ("runtime", ("runtime.pipeline",)),
    ("sim", ("sim.run",)),
    ("analytic", ("analytic.predict_grid", "analytic.predict_run")),
    ("cache", ("cache",)),
    ("serve", ("serve.submit", "serve.dispatch", "serve.pricing")),
)


def layer_table(tracer, idle_s: float, waiting: dict) -> str:
    """Per-layer table: calls, self seconds, share of measured wall time
    and the time work waited for the layer (``waiting``, seconds)."""
    totals = tracer.layer_totals()
    wall = tracer.wall()
    lines = [
        f"{'layer':<12}{'calls':>10}{'self s':>11}{'share':>9}{'waiting s':>12}",
    ]

    def row(name, n_calls, seconds, wait=None):
        share = seconds / wall if wall > 0 else 0.0
        wait_txt = f"{wait:12.3f}" if wait is not None else f"{'-':>12}"
        lines.append(f"{name:<12}{n_calls:>10}{seconds:11.3f}{share:9.1%}{wait_txt}")

    for layer, names in TABLE_LAYERS:
        n_calls = sum(totals.get(n, {}).get("calls", 0) for n in names)
        seconds = sum(totals.get(n, {}).get("self_s", 0.0) for n in names)
        row(layer, n_calls, seconds, waiting.get(layer))
    row("idle", 0, idle_s)
    row("unattributed", 0, tracer.unattributed() - idle_s)
    lines.append(f"{'wall':<12}{'':>10}{wall:11.3f}{1.0:9.1%}")
    return "\n".join(lines)


class Session:
    """The measured windows of one run. A traced run wraps the layers on
    entry and restores them on exit; every run reads the program's own
    counters as deltas over the windows."""

    def __init__(self, trace: bool):
        from spans import Tracer

        self.tracer = Tracer() if trace else None
        self.counts = None
        self.stats: dict = {}
        self._paused: dict = {}

    def __enter__(self) -> "Session":
        self._before = stats_snapshot()
        if self.tracer is not None:
            self.counts = install(self.tracer)
            self.tracer.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
            self.tracer.uninstall()
        self.stats = delta(delta(stats_snapshot(), self._before), self._paused)

    @contextmanager
    def paused(self):
        """Work between measured windows (set-up): not traced, not counted."""
        if self.tracer is not None:
            self.tracer.enabled = False
        before = stats_snapshot()
        try:
            yield
        finally:
            for key, value in delta(stats_snapshot(), before).items():
                self._paused[key] = self._paused.get(key, 0) + value
            if self.tracer is not None:
                self.tracer.enabled = True

    def window(self, start: float, end: float) -> None:
        if self.tracer is not None:
            self.tracer.window(start, end)

    def request(self, req) -> None:
        if self.tracer is not None:
            self.tracer.request = req

    def per_layer(self) -> dict:
        return per_layer(self.tracer, self.counts, self.stats)
