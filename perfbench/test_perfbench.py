"""Fast tests of the benchmark's own arithmetic and input generators."""

from types import SimpleNamespace

import numpy as np
import pytest

import layers
import serving
import tuning
from spans import Tracer, self_times
from stats import bit_equal, host_scale, quietest, tail


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# ------------------------------------------------------------------- tail
def test_tail_takes_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 101))) == (90.0, 90, 10)
    assert tail(list(range(1, 1001))) == (99.0, 990, 10)


def test_tail_steps_down_when_fewer_than_ten_beyond():
    q, value, beyond = tail(list(range(1, 100)))  # p90 would leave 9
    assert (q, value, beyond) == (75.0, 75, 24)
    assert beyond >= 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(list(range(19)))


# ------------------------------------------------------------ quiet units
def test_quietest_keeps_the_cheapest_quarter_and_at_least_two():
    assert quietest([8.0, 3.0, 5.0, 1.0, 9.0, 2.0, 7.0, 4.0], float) == [1.0, 2.0]
    assert quietest(list(range(12, 0, -1)), float) == [1, 2, 3]
    assert quietest([5.0], float) == [5.0]


def test_host_scale_maps_a_slow_host_to_the_nominal_one():
    from stats import GAUGE_NOMINAL_S

    assert host_scale([GAUGE_NOMINAL_S] * 3) == 1.0
    # a host running the gauge twice as slowly halves every timed second
    assert host_scale([GAUGE_NOMINAL_S * 2, GAUGE_NOMINAL_S * 2, 1.0]) == 0.5


# -------------------------------------------------------------- self time
def test_self_time_subtracts_children_once():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 3.0, 6.0, 0, None],  # overlaps b: the union is [1, 6]
        ["d", 2.0, 3.0, 1, None],
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_wrapped_calls_nest_and_inherit_request():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    inner = tracer.wrap("inner", leaf)

    def outer_fn(req):
        clock.now += 2.0
        inner()
        inner()

    outer = tracer.wrap("outer", outer_fn, req_of=lambda args: args[0])
    tracer.enabled = True
    outer(7)
    tracer.enabled = False
    outer(8)  # not recorded
    tracer.window(0.0, 6.0)
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[4] for s in tracer.spans] == [7, 7, 7]
    totals = tracer.layer_totals()
    assert totals["outer"] == {"calls": 1, "self_s": 2.0}
    assert totals["inner"] == {"calls": 2, "self_s": 2.0}
    assert tracer.unattributed() == 2.0  # [4, 6] is covered by no span


def test_install_wraps_by_name_and_uninstall_restores():
    import repro.engines.bigkernel as bigkernel
    from repro.apps.base import get_app
    from repro.engines import BigKernelEngine, EngineConfig
    from repro.runtime import pipeline

    original = pipeline.run_pipeline
    tracer = Tracer()
    counts = layers.install(tracer)
    try:
        assert bigkernel.run_pipeline is not original
        app = get_app("dna")
        data = app.generate(n_bytes=64 * 1024, seed=1)
        tracer.enabled = True
        BigKernelEngine().run(app, data, EngineConfig(chunk_bytes=16 * 1024))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert bigkernel.run_pipeline is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "engines.run"
    assert "runtime.pipeline" in names and "apps.kernel" in names
    assert all(s[3] == 0 for s in tracer.spans[1:] if s[0] == "runtime.pipeline")
    assert counts.kernel_evals == 1 and len(counts.kernel_keys) == 1


# ------------------------------------------------------------- open loop
class FakeServer:
    """Admits everything; each round serves the whole queue in 0.5 s."""

    def __init__(self, clock):
        self.clock = clock
        self.queue = []

    def pending(self):
        return len(self.queue)

    def submit(self, req, now):
        self.queue.append(req)

    def dispatch_round(self, now):
        self.clock.now += 0.5
        out = [SimpleNamespace(req_id=r.req_id, arrival=r.arrival, dispatch=now)
               for r in self.queue]
        self.queue = []
        return out

    def finish(self, responses, completion):
        for resp in responses:
            resp.completion = completion


def test_latency_is_measured_from_due_time():
    clock = FakeClock()
    trace = [
        SimpleNamespace(req_id=0, arrival=0.0),
        SimpleNamespace(req_id=1, arrival=0.1),
    ]
    result = serving.run_open_loop(
        FakeServer(clock), trace, clock=clock, sleep=clock.sleep
    )
    by_id = {r.req_id: r for r in result.responses}
    # request 1 fell due while request 0 was being served: it was
    # submitted 0.4 s late and its latency counts that wait
    assert result.late == [0.0, pytest.approx(0.4)]
    assert by_id[1].completion - by_id[1].arrival == pytest.approx(0.9)
    assert by_id[0].completion - by_id[0].arrival == pytest.approx(0.5)


def test_open_loop_sleeps_until_next_arrival():
    clock = FakeClock()
    trace = [SimpleNamespace(req_id=0, arrival=2.0)]
    result = serving.run_open_loop(
        FakeServer(clock), trace, clock=clock, sleep=clock.sleep
    )
    assert result.idle_s == pytest.approx(2.0)
    assert result.responses[0].completion == pytest.approx(2.5)


# ---------------------------------------------------------------- inputs
@pytest.mark.parametrize("workload", sorted(serving.SHAPES))
def test_traces_are_determined_by_seed(workload):
    a = serving.make_trace(workload, 5, 90)
    assert a == serving.make_trace(workload, 5, 90)
    assert a != serving.make_trace(workload, 6, 90)
    arrivals = [r.arrival for r in a]
    assert arrivals == sorted(arrivals)
    shape = serving.SHAPES[workload]
    block = sorted((app, e) for app in shape.mix for e in serving.ENGINES)
    new = [(r.job.dataset.app, r.job.engine.name) for r in a[::shape.new_every]]
    for i in range(0, len(new) - len(block) + 1, len(block)):
        assert sorted(new[i:i + len(block)]) == block


def _work(trace, every):
    return sorted(
        (r.job.dataset.app, r.job.engine.name, r.job.config.chunk_bytes,
         r.job.config.num_blocks)
        for r in trace[::every]
    )


@pytest.mark.parametrize("workload", sorted(serving.SHAPES))
def test_seed_moves_the_order_but_not_the_mix_of_work(workload):
    shape = serving.SHAPES[workload]
    a = serving.make_trace(workload, 5, shape.replay)
    b = serving.make_trace(workload, 6, shape.replay)
    assert [r.job for r in a] != [r.job for r in b]
    assert _work(a, shape.new_every) == _work(b, shape.new_every)


def test_versions_replay_the_jobs_at_arrivals_of_their_own():
    a = serving.make_trace("serve_shared", 5, 72, 0)
    b = serving.make_trace("serve_shared", 5, 72, 1)
    assert [r.job for r in a] == [r.job for r in b]
    assert [r.arrival for r in a] != [r.arrival for r in b]
    c = serving.make_trace("serve_cold", 5, 45, 0)
    d = serving.make_trace("serve_cold", 5, 45, 1)
    assert _work(c, 1) == _work(d, 1)
    assert not {r.job.dataset for r in c} & {r.job.dataset for r in d}


def test_cold_trace_never_repeats_and_shared_fits_the_pool():
    cold = serving.make_trace("serve_cold", 3, 60)
    assert len({r.job.dataset for r in cold}) == 60
    shared = serving.make_trace("serve_shared", 3, 400)
    n_datasets = len(serving.APPS) * serving.SHARED_SEEDS
    assert len({r.job.dataset for r in shared}) == n_datasets
    every = serving.SHAPES["serve_shared"].new_every
    assert len({r.job for r in shared}) == 400 // every  # the rest repeat


def test_grids_are_determined_by_seed():
    assert tuning.tune_grid(4) == tuning.tune_grid(4)
    assert tuning.analytic_grid(4) == tuning.analytic_grid(4)
    assert any(tuning.tune_grid(4) != tuning.tune_grid(s) for s in range(5, 9))
    assert tuning.analytic_grid(4) != tuning.analytic_grid(5)
    assert tuning.dataset_seeds(4) == tuning.dataset_seeds(4)


# -------------------------------------------------------------- equality
def test_bit_equal_is_exact():
    assert bit_equal({"a": np.arange(3), "b": 1.5}, {"a": np.arange(3), "b": 1.5})
    assert not bit_equal(0.0, -0.0)
    assert not bit_equal(np.arange(3), np.arange(3, dtype=np.int32))
    assert not bit_equal(1, 1.0)
