"""Invariant-checking & differential verification (the safety net).

* :mod:`repro.verify.invariants` — physical-law checkers over pipeline
  timelines (capacity, causality, backpressure, byte conservation). Their
  per-trace :class:`InvariantReport` backs ``run_pipeline(..., verify=True)``,
  ``bigkernel_launch(..., verify=True)``, the chaos sweep and
  ``BenchSettings(check_invariants=True)``.
* :mod:`repro.verify.differential` — each subsystem against a trusted
  oracle: every engine vs the serial CPU run, the fast path vs the DES,
  the compiled backend vs the interpreter, the predictor vs the DES, the
  sharded engine vs the serial run, and served responses vs one-shot runs.
* :mod:`repro.verify.fuzz` — seeded random IR programs, pipeline
  schedules and UVM paging configurations.
* :mod:`repro.verify.report` — the one result shape: every pillar returns
  a :class:`PillarReport` of :class:`Cell` s.
* :mod:`repro.verify.runner` — :data:`PILLARS`, the registry that
  ``python -m repro verify`` runs (opt-in pillars behind ``--<name>``);
  it exits nonzero on any failed cell.
"""

from repro.verify.differential import (
    run_analytic_differential,
    run_compiled_differential,
    run_differential,
    run_fastpath_differential,
    run_multigpu_differential,
    run_serve_differential,
    served_result_problems,
)
from repro.verify.fuzz import run_fuzz
from repro.verify.invariants import (
    InvariantReport,
    Violation,
    check_backpressure,
    check_byte_conservation,
    check_compute_after_transfer,
    check_flag_after_data,
    check_pcie_serialization,
    check_stage_order,
    check_track_capacity,
    audit_sharded_run,
    verify_pipeline_trace,
    verify_run,
)
from repro.verify.report import Cell, PillarReport
from repro.verify.runner import PILLARS, Pillar, Sweep, VerifySummary, run_verify

__all__ = [
    "Violation",
    "InvariantReport",
    "check_track_capacity",
    "check_pcie_serialization",
    "check_flag_after_data",
    "check_compute_after_transfer",
    "check_stage_order",
    "check_backpressure",
    "check_byte_conservation",
    "audit_sharded_run",
    "verify_pipeline_trace",
    "verify_run",
    "Cell",
    "PillarReport",
    "run_analytic_differential",
    "run_compiled_differential",
    "run_differential",
    "run_fastpath_differential",
    "run_multigpu_differential",
    "run_serve_differential",
    "served_result_problems",
    "run_fuzz",
    "PILLARS",
    "Pillar",
    "Sweep",
    "VerifySummary",
    "run_verify",
]
