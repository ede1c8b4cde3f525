"""Self-test of the benchmark harness on a tiny scenario.

    python3 perfbench/selftest.py

Runs scenarios/minimal_room.json (about 0.1 s a run) through the
untraced and the traced path, then shows that a tampered digest, a
broken conservation count and a run that does not reproduce its first
repetition are each counted as failed.  Exits 0 when every case holds.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from tracing import WRAPPED  # noqa: E402

ROOT_SPANS = ("scenario.parse_s", "metrics.export_s", "metrics.summary_s")


def _quiet(message: str) -> None:
    pass


def _measure():
    return harness.measure(harness.SELFTEST, None, 0.0, _quiet)


def _patched(name: str, replacement):
    """Swap harness.<name> for replacement(original) while measuring."""
    original = getattr(harness, name)
    setattr(harness, name, replacement(original))
    try:
        return _measure()
    finally:
        setattr(harness, name, original)


def check_clean_run() -> str | None:
    ledger, metrics = _measure()
    # each run is one full run after at least one set-up probe, plus the warm-up probe
    if ledger.failed or ledger.attempted < 1 + 2 * harness.MIN_RUNS:
        return f"clean run: {ledger.failed} of {ledger.attempted} failed"
    if set(metrics) != {"run_s", "setup_s", "agent_ticks_per_s", "peak_rss_mb"}:
        return f"clean run: metrics {sorted(metrics)}"
    if not all(value > 0 for value in metrics.values()):
        return f"clean run: non-positive metric in {metrics}"
    return None


def check_traced_run() -> str | None:
    originals = [owner.__dict__[attr] for owner, attr, _, _ in WRAPPED]
    ledger, metrics = harness.measure_traced(harness.SELFTEST, None, _quiet)
    if ledger.failed:
        return f"traced run: {ledger.failed} of {ledger.attempted} failed"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    if set(metrics) != names:
        return f"traced run: metrics differ from BENCHMARK.json by {sorted(set(metrics) ^ names)}"
    inside_run = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith("trace.") and name not in ROOT_SPANS
    )
    if abs(inside_run - metrics["trace.run_s"]) > 1e-6:
        return f"traced run: self times sum to {inside_run}, run() took {metrics['trace.run_s']}"
    if metrics["ca.movers"] <= 0 or metrics["agents.decide_calls"] <= 0:
        return "traced run: CA and decision counters stayed at zero"
    restored = [owner.__dict__[attr] for owner, attr, _, _ in WRAPPED]
    if restored != originals:
        return "traced run: wrappers were not removed"
    return None


def check_tampered_digest() -> str | None:
    def tamper(summarise):
        def summary(result):
            out = summarise(result)
            out["digest"] = "0" * 16
            return out
        return summary

    ledger, _ = _patched("metrics_summary", tamper)
    if ledger.failed != 1:
        return f"tampered digest: {ledger.failed} failed, expected the first full run"
    return None


def check_broken_conservation() -> str | None:
    def tamper(simulate):
        def broken(scenario, config=None):
            result = simulate(scenario, config)
            result.exited += 1
            return result
        return broken

    ledger, _ = _patched("run", tamper)
    if ledger.failed != ledger.attempted or ledger.attempted < 3:
        return f"broken conservation: {ledger.failed} of {ledger.attempted} failed, expected every probe and run"
    return None


def check_irreproducible() -> str | None:
    calls = {"n": 0}

    def tamper(simulate):
        def drifting(scenario, config=None):
            result = simulate(scenario, config)
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                result.digest = "f" * 16
            return result
        return drifting

    ledger, _ = _patched("run", tamper)
    if ledger.failed == 0:
        return "irreproducible digest: no run counted as failed"
    return None


def main() -> int:
    problems = []
    for check in (check_clean_run, check_traced_run, check_tampered_digest,
                  check_broken_conservation, check_irreproducible):
        problem = check()
        print(f"{check.__name__}: {'ok' if problem is None else 'FAIL: ' + problem}")
        if problem is not None:
            problems.append(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
