"""Seeded fuzz harness end-to-end: random IR programs through the compiler
round trip, random pipeline schedules through the invariant checkers.

Iteration counts are bounded for CI; the harness itself is
Hypothesis-free (plain ``random.Random``), so these run even where
Hypothesis is unavailable.
"""

import random

import pytest

from repro.errors import VerificationError
from repro.kernelc.validate import validate_kernel
from repro.runtime.pipeline import PipelineConfig
from repro.verify.report import Cell
from repro.verify import fuzz
from repro.verify.fuzz import (
    check_kernel_roundtrip,
    check_pipeline_case,
    random_chunk_schedule,
    random_kernel,
    random_pipeline_config,
    run_fuzz,
)

CI_ITERATIONS = 12


def test_fuzz_loop_end_to_end():
    report = run_fuzz(
        ir_iterations=CI_ITERATIONS,
        pipeline_iterations=CI_ITERATIONS,
        seed=42,
    )
    assert report.ok, report.summary()
    assert report.counts["ir"] == report.counts["pipeline"] == CI_ITERATIONS
    # the grammar is sliceable-by-construction most of the time; make sure
    # the sliced path (not just the fallback) is actually exercised
    assert report.counts["ir sliced"] > 0
    assert f"seed=42" in report.summary()


def test_fuzz_is_deterministic():
    a = run_fuzz(ir_iterations=5, pipeline_iterations=5, seed=7)
    b = run_fuzz(ir_iterations=5, pipeline_iterations=5, seed=7)
    assert a.summary() == b.summary()
    assert a.counts == b.counts


def test_random_kernels_are_valid():
    for case in range(10):
        rng = random.Random(f"valid-{case}")
        validate_kernel(random_kernel(rng))


def test_roundtrip_single_case():
    rng = random.Random("single")
    kernel = random_kernel(rng)
    check_kernel_roundtrip(kernel, data_seed=5)  # raises on divergence


def test_random_pipeline_configs_are_legal():
    for case in range(10):
        rng = random.Random(f"cfg-{case}")
        cfg = random_pipeline_config(rng)
        assert isinstance(cfg, PipelineConfig) and cfg.ring_depth >= 2
        chunks = random_chunk_schedule(rng)
        assert chunks and all(c.xfer_bytes > 0 for c in chunks)


def test_pipeline_single_case():
    check_pipeline_case(random.Random("pipe"))  # raises on violation


def test_failure_record_carries_reproducer(monkeypatch):
    """A failed case's cell names (kind, seed, case) and the IR program."""

    def boom(kernel, data_seed):
        raise VerificationError("boom")

    monkeypatch.setattr(fuzz, "check_kernel_roundtrip", boom)
    report = run_fuzz(ir_iterations=4, pipeline_iterations=0, seed=9,
                      uvm_iterations=0)
    cell = report.mismatches[3]
    assert cell.name == "(ir, case 3)"
    s = cell.detail
    assert "seed=9" in s and "case=3" in s and "boom" in s
    assert "fuzz_kernel" in s  # the rendered program follows the message


def test_report_raise_if_failed():
    report = run_fuzz(ir_iterations=1, pipeline_iterations=0, seed=1)
    report.cells.append(Cell("ir", "case 0", ok=False, detail="synthetic"))
    with pytest.raises(VerificationError, match="synthetic"):
        report.raise_if_failed()
