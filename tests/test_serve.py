"""Serving layer: trace generation, batching, cache short-circuit, chaos
serve mode, the amortization counters, and the CLI."""

import json

import pytest

from repro.apps.base import (
    DATASET_HASH_STATS,
    attach_functional_memo,
    dataset_key,
    get_app,
)
from repro.bench.jobs import DatasetSpec, JobSpec
from repro.bench.sweep import CONTENT_KEY_STATS, RunCache, content_run_key
from repro.cli import main
from repro.engines import BigKernelEngine, EngineConfig
from repro.errors import ReproError
from repro.runtime.fastpath import FASTPATH_MEMO_STATS
from repro.serve import (
    ServeConfig,
    ServeRequest,
    Server,
    TenantSpec,
    TraceSpec,
    batch_key,
    coalesce,
    generate_trace,
    oneshot_oracle,
    scale_trace,
    serve_trace,
)
from repro.units import KiB

SMALL = TraceSpec(
    seed=11, duration=1.0, rate=25.0, data_bytes=256 * KiB, repeat_p=0.5
)


def _dataset_spec(app="wordcount", seed=0, n_bytes=256 * KiB):
    from repro.apps.datagen import DATAGEN_VERSION

    return DatasetSpec(app=app, seed=seed, n_bytes=n_bytes, version=DATAGEN_VERSION)


def _request(req_id, job, tenant="t", arrival=0.0):
    return ServeRequest(req_id=req_id, tenant=tenant, arrival=arrival, job=job)


def _job(dataset=None, chunk_kib=256, **cfg):
    from repro.serve.workload import engine_spec_by_name

    return JobSpec(
        dataset=dataset or _dataset_spec(),
        engine=engine_spec_by_name("bigkernel"),
        config=EngineConfig(chunk_bytes=chunk_kib * 1024, **cfg),
    )


# ----------------------------------------------------------------- workload
def test_trace_is_deterministic_and_weighted():
    a = generate_trace(SMALL)
    b = generate_trace(SMALL)
    assert [r.job for r in a] == [r.job for r in b]
    assert [r.arrival for r in a] == [r.arrival for r in b]
    assert [r.tenant for r in a] == [r.tenant for r in b]
    assert len(a) > 10
    # arrivals are strictly ordered and inside the window
    assert all(0 < r.arrival <= SMALL.duration for r in a)
    # repeats exist (they are what the cache feeds on)
    jobs = [r.job for r in a]
    assert len(set(jobs)) < len(jobs)


def test_scale_trace_rescales_arrivals_only():
    trace = generate_trace(SMALL)
    fast = scale_trace(trace, 0.25)
    assert [r.job for r in fast] == [r.job for r in trace]
    assert fast[3].arrival == trace[3].arrival * 0.25
    with pytest.raises(ReproError):
        scale_trace(trace, 0.0)


def test_trace_spec_validation():
    with pytest.raises(ReproError):
        TraceSpec(duration=0.0)
    with pytest.raises(ReproError):
        TraceSpec(repeat_p=1.0)
    with pytest.raises(ReproError):
        TenantSpec("x", weight=0.0)
    with pytest.raises(ReproError):
        generate_trace(TraceSpec(apps=("no-such-app",)))


# ------------------------------------------------------------------ batcher
def test_coalesce_groups_by_compatibility():
    j1, j2 = _job(chunk_kib=256), _job(chunk_kib=512)
    j_other_app = _job(dataset=_dataset_spec(app="dna"))
    window = [_request(0, j1), _request(1, j_other_app), _request(2, j2),
              _request(3, j1)]
    batches = coalesce(window)
    # same engine+hardware: wordcount jobs batch together, dna separately
    assert len(batches) == 2
    assert batch_key(j1) == batch_key(j2)
    assert batch_key(j1) != batch_key(j_other_app)
    wc = batches[0]
    assert [r.req_id for r in wc.requests] == [0, 2, 3]
    groups = wc.unique_jobs()
    # j1 twice (exact dup), j2 once
    assert [len(reqs) for reqs in groups.values()] == [2, 1]


# ---------------------------------------------------------------- scheduler
def test_duplicate_requests_coalesce_onto_one_engine_run():
    job = _job()
    with Server(ServeConfig(cache=False, max_batch=4)) as server:
        for i in range(3):
            assert server.submit(_request(i, job)) is None
        responses = server.drain()
    statuses = [r.status for r in sorted(responses, key=lambda r: r.req_id)]
    assert statuses == ["served", "coalesced", "coalesced"]
    assert server.metrics.engine_runs == 1
    # followers share the leader's result object — zero recompute
    assert responses[1].result is responses[0].result
    assert responses[2].result is responses[0].result


def test_exact_repeat_is_cached_with_zero_engine_runs():
    job = _job()
    with Server(ServeConfig(max_batch=4), cache=RunCache(disk=None)) as server:
        assert server.submit(_request(0, job)) is None
        first = server.drain()
        runs_after_first = server.metrics.engine_runs
        assert server.submit(_request(1, job)) is None
        second = server.drain()
    assert first[0].status == "served"
    assert second[0].status == "cached"
    assert server.metrics.engine_runs == runs_after_first  # zero new runs
    assert second[0].result is first[0].result


def test_admission_control_rejects_when_full():
    job = _job()
    with Server(ServeConfig(max_queue=2, cache=False)) as server:
        assert server.submit(_request(0, job)) is None
        assert server.submit(_request(1, job)) is None
        rejection = server.submit(_request(2, job), now=5.0)
    assert rejection is not None
    assert rejection.status == "rejected"
    assert rejection.completion == 5.0
    assert server.metrics.rejected == 1
    assert server.pending() == 2


def test_failed_job_is_typed_and_isolated():
    bad = JobSpec(
        dataset=DatasetSpec(app="wordcount", seed=0, n_bytes=256 * KiB,
                            version=-1),  # version mismatch -> ReproError
        engine=_job().engine,
        config=EngineConfig(),
    )
    good = _job()
    with Server(ServeConfig(cache=False)) as server:
        server.submit(_request(0, bad))
        server.submit(_request(1, good))
        responses = sorted(server.drain(), key=lambda r: r.req_id)
    assert responses[0].status == "failed"
    assert isinstance(responses[0].exception, ReproError)
    assert responses[1].status == "served"  # the batch survived


def test_served_results_bit_equal_one_shot(tmp_path):
    trace = generate_trace(SMALL)
    with Server(ServeConfig(max_queue=len(trace) + 1),
                cache=RunCache(disk=None)) as server:
        outcome = serve_trace(server, trace)
    jobs = {r.req_id: r.job for r in trace}
    oracles = {}
    for resp in outcome.responses:
        assert resp.status in ("served", "coalesced", "cached")
        job = jobs[resp.req_id]
        key = (job.dataset, job.engine, job.config)
        if key not in oracles:
            oracles[key] = oneshot_oracle(job)
        oracle = oracles[key]
        assert resp.result.sim_time == oracle.sim_time
        app = get_app(job.dataset.app)
        assert app.outputs_equal(resp.result.output, oracle.output)
    assert outcome.metrics.cached > 0
    assert outcome.metrics.engine_runs < len(trace)


# -------------------------------------------------------- batch engine hook
def test_run_batch_shares_functional_output_bit_exactly():
    app = get_app("wordcount")
    data = attach_functional_memo(app.generate(n_bytes=256 * KiB, seed=3))
    engine = BigKernelEngine()
    # different chunk geometry and ring depth: wordcount's output is
    # chunk-invariant, so every run after the first is a memo hit, while
    # the timelines must still differ per config
    cfgs = [
        EngineConfig(chunk_bytes=64 * KiB, ring_depth=2),
        EngineConfig(chunk_bytes=64 * KiB, ring_depth=3),
        EngineConfig(chunk_bytes=32 * KiB, ring_depth=2),
    ]
    batch = engine.run_batch(app, data, cfgs)
    assert all(r.output is batch[0].output for r in batch[1:])
    for got, cfg in zip(batch, cfgs):
        fresh = app.generate(n_bytes=256 * KiB, seed=3)
        want = BigKernelEngine().run(app, fresh, cfg)
        assert got.sim_time == want.sim_time
        assert app.outputs_equal(got.output, want.output)


# ------------------------------------------------- amortization accounting
def test_dataset_hash_amortized_one_digest_per_handbuilt_dataset():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=5)
    # strip the recipe stamp: force the hand-built SHA-256 fallback
    del data.meta["datagen"]
    data.meta.pop("_dataset_key", None)
    before = dict(DATASET_HASH_STATS)
    keys = [dataset_key(data) for _ in range(10)]
    assert len(set(keys)) == 1 and keys[0][0] == "sha256"
    assert DATASET_HASH_STATS["requests"] == before["requests"] + 10
    # ten probes, ONE digest: the hash is paid once per distinct dataset
    assert DATASET_HASH_STATS["sha256_digests"] == before["sha256_digests"] + 1


def test_dataset_hash_recipe_datasets_never_digest():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=6)
    before = DATASET_HASH_STATS["sha256_digests"]
    for _ in range(5):
        key = dataset_key(data)
    assert key[0] == "datagen"
    assert DATASET_HASH_STATS["sha256_digests"] == before


def test_content_run_key_memoized_per_identity():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=7)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB)
    before = dict(CONTENT_KEY_STATS)
    digests = {content_run_key(engine, app, data, cfg) for _ in range(8)}
    assert len(digests) == 1
    assert CONTENT_KEY_STATS["requests"] == before["requests"] + 8
    assert CONTENT_KEY_STATS["computed"] <= before["computed"] + 1


def test_fastpath_memo_reused_across_identical_pipeline_runs():
    app = get_app("wordcount")
    data = app.generate(n_bytes=512 * KiB, seed=8)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
    first = engine.run(app, data, cfg)
    before = dict(FASTPATH_MEMO_STATS)
    again = engine.run(app, data, cfg)
    assert again.sim_time == first.sim_time
    assert again.metrics.stage_totals == first.metrics.stage_totals
    assert FASTPATH_MEMO_STATS["reused"] == before["reused"] + 1
    assert FASTPATH_MEMO_STATS["computed"] == before["computed"]
    # the memo hands out fresh result shells: mutating one run's totals
    # must not leak into the next
    again.metrics.stage_totals["poison"] = 1.0
    third = engine.run(app, data, cfg)
    assert "poison" not in third.metrics.stage_totals


def test_bigkernel_schedule_memo_counters():
    app = get_app("wordcount")
    data = app.generate(n_bytes=256 * KiB, seed=9)
    engine = BigKernelEngine()
    cfg = EngineConfig(chunk_bytes=64 * KiB, functional=False)
    engine.run(app, data, cfg)
    misses = engine.schedule_misses
    engine.run(app, data, cfg)
    engine.run(app, data, cfg)
    assert engine.schedule_misses == misses
    assert engine.schedule_hits >= 2


# ------------------------------------------------------------- chaos serve
def test_chaos_serve_fingerprint_matches_direct():
    from repro.apps import WordCountApp
    from repro.faults import run_chaos

    kwargs = dict(
        quick=True,
        seed=7,
        data_bytes=512 * KiB,
        apps=[WordCountApp()],
        engines=[BigKernelEngine()],
    )
    direct = run_chaos(**kwargs)
    served = run_chaos(serve=True, **kwargs)
    assert direct.fingerprint() == served.fingerprint()
    assert direct.ok and served.ok


# ---------------------------------------------------------------- verify
def test_serve_differential_pillar():
    from repro.verify import run_serve_differential

    report = run_serve_differential(
        data_bytes=256 * KiB, seed=5, duration=1.0, rate=20.0
    )
    assert report.ok, report.summary()
    assert report.counts["cached"] > 0
    assert report.counts["engine runs"] < len(report.cells)
    assert "serve vs one-shot" in report.summary()


def test_serve_pillar_fails_without_cache_hits():
    """A trace too short to repeat any job never reaches the run cache, so
    the clean phase amortized nothing: the pillar fails."""
    from repro.verify import run_serve_differential

    report = run_serve_differential(
        data_bytes=64 * KiB, seed=5, duration=0.1, rate=20.0
    )
    assert report.counts["cached"] == 0
    assert not report.ok
    assert [c.name for c in report.mismatches] == ["open:run-cache"]


def test_serve_pillar_fails_on_an_empty_clean_phase():
    """A trace with no requests completes nothing, so the SLO phase has no
    service time to size its SLO from: the pillar reports one failed cell
    instead of raising, and skips that phase."""
    from repro.serve import TraceSpec, generate_trace
    from repro.verify import run_serve_differential

    assert generate_trace(TraceSpec(seed=5, duration=0.05, rate=20.0)) == []
    report = run_serve_differential(
        data_bytes=64 * KiB, seed=5, duration=0.05, rate=20.0
    )
    assert not report.ok
    assert [c.name for c in report.cells] == ["open:completed"]
    assert "completed nothing" in report.cells[0].detail


def test_served_result_check_is_bit_exact():
    """``repro serve --verify`` and the serve pillar share one check with
    no tolerance: a netflix output 1e-12 off fails it, although netflix's
    own ``outputs_equal`` (atol 1e-9) accepts it."""
    from dataclasses import replace

    from repro.serve import ServeResponse
    from repro.verify import served_result_problems

    job = _job(_dataset_spec("netflix", n_bytes=64 * KiB), chunk_kib=16)
    exact = oneshot_oracle(job)
    nudged = replace(exact, output=exact.output + 1e-12)
    assert get_app("netflix").outputs_equal(exact.output, nudged.output)
    assert served_result_problems(job, exact, {}) == []
    assert served_result_problems(job, nudged, {})

    with Server(ServeConfig(verify=True)) as server:
        for result in (exact, nudged):
            resp = ServeResponse(0, "t", "served", 0.0, result=result)
            server._verify_one(job, resp)
    assert server.metrics.verified == 2
    assert server.metrics.verify_failures == 1


# -------------------------------------------------------------------- CLI
def test_cli_serve_smoke(tmp_path, capsys):
    out = tmp_path / "responses.json"
    rc = main([
        "serve", "--duration", "1", "--rate", "20", "--data-mib", "1",
        "--seed", "3", "--verify", "--expect-cache-hits",
        "--trace", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "cached=" in printed
    log = json.loads(out.read_text())
    assert log and all(r["status"] != "failed" for r in log)


def test_cli_serve_bad_tenants():
    assert main(["serve", "--tenants", "alpha=zero"]) == 2


def test_cli_chaos_serve_quick(capsys):
    rc = main(["chaos", "--serve", "--quick"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
