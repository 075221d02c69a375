"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload serve_shared --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workloads and metrics are declared
in ``BENCHMARK.json`` there (see ``perfbench/README.md``). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``). Lines before it name every
metric with its unit; a traced run also prints the per-layer table and
writes its spans as Chrome-trace JSON under ``perfbench/out/``. The exit
code is 1 when any output disagrees with its oracle and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("serve_shared", "serve_cold", "tune")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(trace: bool) -> list:
    """``(name, unit)`` of every metric ``BENCHMARK.json`` declares for
    this kind of run."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "tune":
        from tuning import measure
    else:
        from serving import measure
    trace = bool(args.trace)
    out = measure(args.workload, args.seed, args.seconds, trace)

    measured = out["per_layer"] if trace else out["end_to_end"]
    declared = declared_metrics(trace)
    undeclared = set(measured) - {name for name, _ in declared}
    if undeclared:
        raise SystemExit(
            f"perfbench: metrics missing from BENCHMARK.json: {sorted(undeclared)}"
        )
    metrics = {}
    kind = "per-layer" if trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} ({kind})")
    for name, unit in declared:
        # a layer the workload never reaches did no work: zero calls, zero s
        value, got_unit = measured.get(name, (0, unit))
        if got_unit != unit:
            raise SystemExit(
                f"perfbench: {name} measured in {got_unit}, declared {unit}"
            )
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34}{value:>16.6g} {unit}")
    for line in out["lines"]:
        print(f"  {line}")
    if trace:
        from layers import layer_table

        tracer = out["session"].tracer
        print(layer_table(tracer, out["idle_s"], out["waiting"]))
        path = HERE / "out" / f"{args.workload}.trace.json"
        tracer.write_chrome(path)
        print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
