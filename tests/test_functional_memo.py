"""The cross-engine functional-output memo of pooled datasets.

Pins every ``output_chunk_invariant`` declaration against the app's
``reference``, the memo's keys and its in-place interplay with kmeans,
the independence of the oracles, and the deterministic count of
functional evaluations a served trace pays.
"""

import numpy as np
import pytest

from repro.apps.base import APP_REGISTRY, attach_functional_memo, get_app
from repro.bench.jobs import materialize_dataset
from repro.bench.sweep import RunCache
from repro.engines import (
    BigKernelEngine,
    CpuSerialEngine,
    EngineConfig,
    GpuDoubleBufferEngine,
)
from repro.engines.base import Engine
from repro.serve import (
    ServeConfig,
    Server,
    TraceSpec,
    generate_trace,
    oneshot_oracle,
    serve_trace,
)
from repro.units import KiB

INVARIANT_APPS = sorted(
    name for name, cls in APP_REGISTRY.items() if cls.output_chunk_invariant
)
SEEDS = (0, 1)
DATA_BYTES = 16 * KiB


def _canonical(out):
    """Bit-level form of an output: dtype, shape and bytes of every array."""
    if isinstance(out, np.ndarray):
        return ("ndarray", out.dtype.str, out.shape, out.tobytes())
    if isinstance(out, dict):
        return ("dict", tuple((k, _canonical(out[k])) for k in sorted(out)))
    return (type(out).__name__, out)


def _chunk_sizes(n_units: int) -> list:
    """At least six chunk sizes: 1-unit chunks through the whole range."""
    sizes = {1, 2, 7, max(1, n_units // 5), max(1, n_units // 2), n_units}
    return sorted(sizes)


def test_declared_apps_are_the_integer_and_elementwise_ones():
    assert INVARIANT_APPS == [
        "dna",
        "kmeans",
        "mastercard",
        "mastercard_indexed",
        "opinion",
        "wordcount",
    ]
    assert not get_app("netflix").output_chunk_invariant


@pytest.mark.parametrize("name", INVARIANT_APPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_invariant_output_is_bit_identical_to_reference(name, seed):
    app = get_app(name)
    want = _canonical(app.reference(app.generate(n_bytes=DATA_BYTES, seed=seed)))
    data = app.generate(n_bytes=DATA_BYTES, seed=seed)
    sizes = _chunk_sizes(app.n_units(data))
    assert len(sizes) >= 6
    for size in sizes:
        data = app.generate(n_bytes=DATA_BYTES, seed=seed)
        got = Engine._functional_output(app, data, app.chunk_bounds(data, size))
        assert _canonical(got) == want, f"{name} seed={seed} chunk={size}"


@pytest.mark.parametrize(
    "name", [n for n in INVARIANT_APPS if get_app(n).n_passes > 1]
)
def test_every_pass_covers_the_whole_range(name, monkeypatch):
    app = get_app(name)
    cls = type(app)
    seen: dict = {}
    start_pass, process_chunk = cls.start_pass, cls.process_chunk

    def record_pass(self, data, state, pass_idx):
        seen[pass_idx] = []
        start_pass(self, data, state, pass_idx)

    def record_chunk(self, data, state, lo, hi):
        seen[max(seen)].append((lo, hi))
        process_chunk(self, data, state, lo, hi)

    monkeypatch.setattr(cls, "start_pass", record_pass)
    monkeypatch.setattr(cls, "process_chunk", record_chunk)
    for size in (1, 7, 10**9):
        seen.clear()
        data = attach_functional_memo(app.generate(n_bytes=DATA_BYTES, seed=2))
        bounds = app.chunk_bounds(data, size)
        Engine._functional_output(app, data, bounds)
        assert sorted(seen) == list(range(app.n_passes))
        for chunks in seen.values():
            assert chunks == bounds
            assert chunks[0][0] == 0 and chunks[-1][1] == app.n_units(data)
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


def test_kmeans_instance_matches_memo_after_hits_and_misses():
    app = get_app("kmeans")
    data = attach_functional_memo(app.generate(n_bytes=64 * KiB, seed=4))
    memo = data.meta["_functional_memo"]
    runs = [
        (BigKernelEngine(), EngineConfig(chunk_bytes=8 * KiB)),  # miss
        (GpuDoubleBufferEngine(), EngineConfig(chunk_bytes=4 * KiB)),  # hit
        (BigKernelEngine(), EngineConfig(chunk_bytes=16 * KiB)),  # hit
        None,  # drop the memo: the next run misses again
        (GpuDoubleBufferEngine(), EngineConfig(chunk_bytes=2 * KiB)),  # miss
        (CpuSerialEngine(), EngineConfig()),  # reference path, writes cid
        (BigKernelEngine(), EngineConfig(chunk_bytes=32 * KiB)),  # hit
    ]
    want = app.reference(app.generate(n_bytes=64 * KiB, seed=4))
    for run in runs:
        if run is None:
            memo.clear()
            continue
        engine, cfg = run
        out = engine.run(app, data, cfg).output
        assert list(memo) == [None]
        assert np.array_equal(data.mapped["particles"]["cid"], memo[None])
        assert np.array_equal(out, want)


def test_netflix_memo_keys_by_chunk_bounds():
    app = get_app("netflix")
    data = attach_functional_memo(app.generate(n_bytes=DATA_BYTES, seed=0))
    memo = data.meta["_functional_memo"]
    small = app.chunk_bounds(data, 7)
    whole = app.chunk_bounds(data, app.n_units(data))
    first = Engine._functional_output(app, data, small)
    Engine._functional_output(app, data, whole)
    assert set(memo) == {tuple(small), tuple(whole)}
    assert Engine._functional_output(app, data, small) is first


def test_only_the_pools_attach_a_memo():
    for name in APP_REGISTRY:
        assert "_functional_memo" not in get_app(name).generate(
            n_bytes=DATA_BYTES
        ).meta
    with Server(ServeConfig(), cache=RunCache(disk=None)) as server:
        job = generate_trace(TraceSpec(duration=0.5))[0].job
        _app, data = server._dataset(job.dataset)
        assert data.meta["_functional_memo"] == {}
    _app, data = materialize_dataset(job.dataset)
    assert "_functional_memo" in data.meta


def test_oracle_recomputes_after_the_server_served_the_job(monkeypatch):
    trace = generate_trace(TraceSpec(duration=0.5, data_bytes=256 * KiB))
    with Server(ServeConfig(), cache=RunCache(disk=None)) as server:
        served = serve_trace(server, trace)
    resp = next(r for r in served.responses if r.status == "served")
    job = next(r.job for r in trace if r.req_id == resp.req_id)
    cls = type(get_app(job.dataset.app))
    calls = []
    process_chunk = cls.process_chunk

    def counting(self, data, state, lo, hi):
        calls.append((lo, hi))
        process_chunk(self, data, state, lo, hi)

    monkeypatch.setattr(cls, "process_chunk", counting)
    oracle = oneshot_oracle(job)
    assert len(calls) > 0
    app = get_app(job.dataset.app)
    assert app.outputs_equal(oracle.output, resp.result.output)


class _StepTimer:
    """Deterministic clock: every call advances by a fixed step."""

    def __init__(self, step=0.002):
        self.step, self.now = step, 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def test_default_trace_evaluates_each_dataset_once(monkeypatch):
    trace = generate_trace(TraceSpec())
    evals = []
    for name in {r.job.dataset.app for r in trace}:
        cls = type(get_app(name))
        make_state = cls.make_state

        def counting(self, data, _orig=make_state):
            evals.append(data.meta["datagen"]["seed"])
            return _orig(self, data)

        monkeypatch.setattr(cls, "make_state", counting)
    with Server(ServeConfig(), cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, trace, timer=_StepTimer())
    datasets = {r.job.dataset for r in trace}
    assert outcome.metrics.engine_runs > len(datasets)
    assert len(evals) == len(datasets) == 4
