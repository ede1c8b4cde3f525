"""Benchmark entry point for evacsim.

One workload, one process:

    python3 perfbench/run.py --workload hall_ca --seed 0 --seconds 35 --trace 0

prints per-run detail lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of a traced run.  ``--all`` runs every workload, each in a fresh
process, and prints every end-to-end metric with its unit.  Run it from
the root of a source checkout; see perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _log(message: str) -> None:
    print(message, flush=True)


def _units() -> dict[str, str]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(harness, workload, args) -> int:
    if args.trace:
        ledger, metrics = harness.measure_traced(workload, args.seed, _log)
    else:
        ledger, metrics = harness.measure(workload, args.seed, args.seconds, _log)
    units = _units()
    correct = ledger.failed == 0 and bool(metrics)
    report = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(report))
    return 0 if correct else 1


def run_all(names, args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: FAILED (exit {proc.returncode})")
            status = 1
            continue
        report = json.loads(lines[-1])
        print(f"{name}: runs_failed {report['failed']} / runs_attempted {report['attempted']}"
              f"  correct {report['correct']}")
        for metric, entry in report["metrics"].items():
            print(f"  {metric:28} {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="workload name (see perfbench/README.md)")
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, help="benchmark seed n: population seeds 4n to 4n+3 (default: the scenario's own as n)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "evacsim", "__init__.py")):
        return _fail("no evacsim sources under src/; run from a full source checkout")
    if not os.path.isfile(BENCHMARK_JSON):
        return _fail("BENCHMARK.json not found at the checkout root")
    # single-threaded BLAS (one closed-loop client), set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import harness

    if args.all:
        return run_all(list(harness.WORKLOADS), args)
    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, workload.scenario)):
        return _fail(f"missing scenario file {workload.scenario}")
    return run_one(harness, workload, args)


if __name__ == "__main__":
    sys.exit(main())
