"""Workload definitions, timed runs and correctness checks.

Every run goes through the public API the ``evacsim run`` command uses:
``parse_scenario``, ``run``, ``export_trajectories`` and
``metrics_summary``, with the two result files written to a scratch
directory inside the checkout.  One process runs one workload, one run
after another (a closed loop with a single client).
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from evacsim import export_trajectories, metrics_summary, parse_scenario, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SUB_SEEDS = 4             # population seeds per benchmark seed, taken in turn
MIN_RUNS = 2 * SUB_SEEDS  # full runs in a measurement, however short the window
REFERENCE_KERNEL_S = 0.14  # reference_kernel() on the reference machine, unloaded
KERNEL_CALLS = 3          # reference_kernel() calls after each full run
PROBE_S = 0.15            # set-up probes before each full run until they took this long
TRACE_PAIRS = 2           # untraced/traced pairs in a traced measurement
OUTCOME_KEYS = ("digest", "t_end", "timeout", "exited", "fatalities", "t_total", "t_95", "event_counts")


def _smoke_beside_west_exit(doc: dict) -> None:
    doc["population"]["count"] = 800
    doc["population"]["spawn"]["rect"] = [1, 1, 40, 40]
    doc["hazard"]["builtin"]["source"] = [4, 21]
    doc["hazard"]["builtin"]["rate"] = 3.0


@dataclass(frozen=True)
class Workload:
    """A bundled scenario, optionally edited, simulated for ``horizon_s``
    seconds of simulated time (the ``--max-time`` of ``evacsim run``)."""

    name: str
    scenario: str                 # path relative to the checkout root
    horizon_s: float
    edit: object = None           # callable(doc) applied to the parsed JSON, or None

    def load(self) -> tuple[str, str]:
        """(scenario text, base directory for relative hazard paths)."""
        path = os.path.join(ROOT, self.scenario)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if self.edit is not None:
            self.edit(doc)
        doc.setdefault("config", {})["max_sim_time"] = self.horizon_s
        return json.dumps(doc), os.path.dirname(path)


# Horizons keep one run to a few seconds, so a measurement window holds
# several repetitions; see README.md for what each slice covers.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hall_ca", "scenarios/big_hall_ca.json", 30.0),
        Workload("room_sf", "scenarios/benchmark_room_sf.json", 40.0),
        Workload("smoke_exit_ca", "scenarios/herding_two_exit.json", 10.0, _smoke_beside_west_exit),
    )
}
SELFTEST = Workload("selftest", "scenarios/minimal_room.json", 120.0)


class CheckFailed(Exception):
    """A run finished but its outputs are wrong."""


@dataclass
class Rep:
    """Timings and outcome of one full run."""

    parse_s: float
    run_s: float           # run() alone
    export_s: float        # trajectory.csv
    summary_s: float       # metrics.json
    total_s: float         # what `evacsim run` costs: all of the above
    agent_ticks: int
    csv_bytes: int
    outcome: dict
    result: object = field(repr=False, default=None)


def agent_ticks(result) -> int:
    """Sum over agents of the ticks each spent inside: exit or death
    time (or the end of the run for those still inside) over dt."""
    ticks = 0
    for rec in result.per_agent:
        end = rec.end_t if rec.end_t is not None else result.t_end
        ticks += round((end - rec.spawn_t) / result.dt)
    return ticks


def outcome_of(summary: dict, result) -> dict:
    out = {key: summary[key] for key in OUTCOME_KEYS}
    out["inside"] = sum(1 for rec in result.per_agent if rec.outcome == "inside")
    return out


def _count_lines(path: str) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                return lines
            lines += chunk.count(b"\n")


def check_conserved(result) -> None:
    """Raise CheckFailed unless exited + dead + inside is the population."""
    inside = sum(1 for rec in result.per_agent if rec.outcome == "inside")
    if len(result.per_agent) != result.population:
        raise CheckFailed(f"{len(result.per_agent)} per-agent records for {result.population} agents")
    if result.exited + result.fatalities + inside != result.population:
        raise CheckFailed(
            f"exited {result.exited} + dead {result.fatalities} + inside {inside}"
            f" != population {result.population}"
        )


def check_outputs(result, traj_path: str, metrics_path: str) -> None:
    """Raise CheckFailed unless people are conserved, the trajectory has
    one row per agent per sample and metrics.json carries the digest."""
    check_conserved(result)
    expected = 1 + result.population * len(result.trajectory)
    lines = _count_lines(traj_path)
    if lines != expected:
        raise CheckFailed(f"trajectory.csv has {lines} lines, expected {expected}")
    with open(metrics_path, encoding="utf-8") as fh:
        written = json.load(fh)
    if written.get("digest") != result.digest:
        raise CheckFailed(f"metrics.json digest {written.get('digest')} != run digest {result.digest}")


def full_run(text: str, base_dir: str, seed: int, out_dir: str, tracer=None) -> Rep:
    """Parse, run, export and summarise once, as `evacsim run` does.
    With a tracer, parse, run, export and summary are root spans."""
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, "trajectory.csv")
    metrics_path = os.path.join(out_dir, "metrics.json")
    parse, simulate, export, summarise = parse_scenario, run, export_trajectories, metrics_summary
    if tracer is not None:
        parse = tracer.wrap("scenario.parse", parse)
        simulate = tracer.wrap("engine.run", simulate)
        export = tracer.wrap("metrics.export", export)
        summarise = tracer.wrap("metrics.summary", summarise)

    t0 = time.perf_counter()
    scenario = parse(text, base_dir)
    config = replace(scenario.config, seed=seed)
    t1 = time.perf_counter()
    result = simulate(scenario, config)
    t2 = time.perf_counter()
    with open(traj_path, "w", encoding="utf-8", newline="") as fh:
        export(result, fh)
    t3 = time.perf_counter()
    summary = summarise(result)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    t4 = time.perf_counter()

    check_outputs(result, traj_path, metrics_path)
    csv_bytes = os.path.getsize(traj_path)
    os.remove(traj_path)
    os.remove(metrics_path)
    return Rep(
        parse_s=t1 - t0,
        run_s=t2 - t1,
        export_s=t3 - t2,
        summary_s=t4 - t3,
        total_s=t4 - t0,
        agent_ticks=agent_ticks(result),
        csv_bytes=csv_bytes,
        outcome=outcome_of(summary, result),
        result=result,
    )


def setup_probe(text: str, base_dir: str, seed: int) -> tuple[float, str]:
    """Seconds for parse plus a run() cut to a single tick: everything
    run() does before its first tick, plus that tick and the result
    assembly.  Returns (seconds, digest)."""
    t0 = time.perf_counter()
    scenario = parse_scenario(text, base_dir)
    dt = scenario.config.resolved_dt(scenario.geometry.cell_size)
    result = run(scenario, replace(scenario.config, seed=seed, max_sim_time=dt))
    elapsed = time.perf_counter() - t0
    check_conserved(result)
    return elapsed, result.digest


class Ledger:
    """Counts attempted and failed runs and keeps the first outcome of
    each kind, so later repetitions must reproduce it exactly."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, object] = {}
        self.log = log

    def attempt(self, kind: str, fn):
        """Run fn(); return its value, or None when it failed."""
        self.attempted += 1
        try:
            value = fn()
        except Exception as exc:  # any exception in a run is a counted failure
            self.failed += 1
            self.log(f"FAILED {kind} run: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            return None
        outcome = value.outcome if isinstance(value, Rep) else value[1]
        first = self.reference.setdefault(kind, outcome)
        if outcome != first:
            self.failed += 1
            self.log(f"FAILED {kind} run: outcome {outcome} differs from first repetition {first}")
            return None
        return value


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def inputs(workload: Workload, seed: int | None) -> tuple[str, str, list[int]]:
    """(scenario text, base directory, population seeds).  One benchmark
    seed stands for SUB_SEEDS population seeds; benchmark seed 0 starts
    with population seed 0.  Without a seed, the scenario's own is used."""
    text, base_dir = workload.load()
    if seed is None:
        seed = parse_scenario(text, base_dir).config.seed
    return text, base_dir, [(seed * SUB_SEEDS + j) % 2**64 for j in range(SUB_SEEDS)]


def _scratch_dir(workload: Workload) -> str:
    return os.path.join(OUT_DIR, f"{workload.name}-{os.getpid()}")


def _log_rep(log, seed: int, rep: Rep) -> None:
    log(
        f"seed {seed}: run_s {rep.total_s:.4f} (parse {rep.parse_s:.4f}, run() {rep.run_s:.4f},"
        f" export {rep.export_s:.4f}, summary {rep.summary_s:.4f})"
        f" agent_ticks {rep.agent_ticks} outcome {json.dumps(rep.outcome, sort_keys=True)}"
    )


def reference_kernel() -> float:
    """Fixed work that stands for the machine's speed, in the five kinds
    the simulation does: gathers over a long neighbour-pair list,
    numpy broadcasts over thousands of agents, many small numpy calls
    over a few hundred bodies, per-agent scalar reads into small
    objects, and formatted text output.  It is part of the benchmark, so
    no change to evacsim moves it."""
    rng = np.random.default_rng(0)
    pos = rng.random((2000, 2)) * 100.0
    targets = rng.random((24, 2)) * 100.0
    vel = rng.random((200, 2))
    pi = rng.integers(0, len(pos), 300_000)
    pj = rng.integers(0, len(pos), 300_000)
    total = 0.0
    for _ in range(2):
        d = np.linalg.norm(pos[pi] - pos[pj], axis=1)
        keep = d < 30.0
        total += float(np.bincount(pi[keep], weights=d[keep], minlength=len(pos)).sum())
    for _ in range(8):
        d2 = ((pos[:, None, :] - targets[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        total += float(np.sqrt(d2[np.arange(len(pos)), nearest]).sum())
    body = pos[:200].copy()
    for _ in range(300):
        diff = body[:, None, :] - body[None, :20, :]
        dist = np.sqrt((diff * diff).sum(axis=2)) + 1.0
        body += 0.001 * (vel - (diff / dist[:, :, None]).sum(axis=1) * 0.01)
    total += float(body.sum())
    rows = [(i, float(pos[i, 0]), float(pos[i, 1]), int(nearest[i])) for i in range(len(pos))]
    text = "".join(f"{i},{x:.4f},{y:.4f},{z}\n" for i, x, y, z in rows * 4)
    return total + len(text)


def kernel_s() -> float:
    """Mean wall seconds of KERNEL_CALLS reference_kernel() calls."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_CALLS):
        reference_kernel()
    return (time.perf_counter() - t0) / KERNEL_CALLS


def _per_seed(values: dict[int, list[float]]) -> float:
    """Mean over sub-seeds of each one's median, so every sub-seed
    weighs the same however many runs it got."""
    return statistics.mean(statistics.median(v) for v in values.values())


def measure(workload: Workload, seed: int | None, seconds: float, log) -> tuple[Ledger, dict]:
    """Untraced measurement.  After a warm-up probe, runs cycle through
    the sub-seeds, each set-up probes for PROBE_S, a full run and
    KERNEL_CALLS reference kernels, until the next run would overrun
    ``seconds`` (at least MIN_RUNS).  Every run's times are scaled to the
    reference machine's speed by the kernel timed just before (but for
    the first run) and just after it.  Peak memory is read before the
    kernel first runs.  ``setup_s`` is the median of the probes; the other
    times are the mean over sub-seeds of each one's median run.  Returns
    the ledger and the end-to-end metrics."""
    text, base_dir, seeds = inputs(workload, seed)
    ledger = Ledger(log)
    out_dir = _scratch_dir(workload)
    start = time.perf_counter()
    ledger.attempt("setup", lambda: setup_probe(text, base_dir, seeds[0]))  # warm-up, not timed

    peak = before = None
    setups: list[float] = []
    totals: dict[int, list[float]] = {s: [] for s in seeds}
    rates: dict[int, list[float]] = {s: [] for s in seeds}
    spans: list[float] = []
    while len(spans) < MIN_RUNS or time.perf_counter() - start + statistics.mean(spans) <= seconds:
        span_start = time.perf_counter()
        s = seeds[len(spans) % len(seeds)]
        probes: list[float] = []
        while not probes or sum(probes) < PROBE_S:
            probe = ledger.attempt("setup", lambda: setup_probe(text, base_dir, seeds[0]))
            if probe is None:
                break
            probes.append(probe[0])
        rep = ledger.attempt(f"seed {s}", lambda: full_run(text, base_dir, s, out_dir))
        if probe is None or rep is None:
            shutil.rmtree(out_dir, ignore_errors=True)
            return ledger, {}
        rep.result = None  # drop the trajectory before the next run
        if peak is None:
            # the program's own peak, before the kernel's arrays exist
            peak = peak_rss_mb()
            reference_kernel()  # warm-up, not timed
        after = kernel_s()
        scale = REFERENCE_KERNEL_S / (after if before is None else (before + after) / 2)
        before = after
        setups.extend(p * scale for p in probes)
        totals[s].append(rep.total_s * scale)
        rates[s].append(rep.agent_ticks / (rep.run_s * scale))
        _log_rep(log, s, rep)
        log(f"  kernel {after:.4f} s, scale {scale:.4f}")
        spans.append(time.perf_counter() - span_start)
    shutil.rmtree(out_dir, ignore_errors=True)

    log(f"{len(spans)} runs over seeds {seeds}")
    return ledger, {
        "run_s": _per_seed(totals),
        "setup_s": statistics.median(setups),
        "agent_ticks_per_s": _per_seed(rates),
        "peak_rss_mb": peak,
    }


def measure_traced(workload: Workload, seed: int | None, log) -> tuple[Ledger, dict]:
    """After a warm-up run, untraced and traced full runs of the first
    sub-seed, alternating, TRACE_PAIRS of each.  Per-layer metrics come
    from the faster traced run; the tracing overhead is the difference
    between the fastest run() of each kind."""
    from tracing import Tracer, layer_metrics

    text, base_dir, seeds = inputs(workload, seed)
    seed = seeds[0]
    ledger = Ledger(log)
    out_dir = _scratch_dir(workload)
    # warm-up: a process runs its first full run markedly slower
    ledger.attempt(f"seed {seed}", lambda: full_run(text, base_dir, seed, out_dir))
    plain: list[Rep] = []
    traced: list[tuple[Rep, Tracer]] = []
    for _ in range(TRACE_PAIRS):
        rep = ledger.attempt(f"seed {seed}", lambda: full_run(text, base_dir, seed, out_dir))
        tracer = Tracer()
        tracer.install()
        try:
            traced_rep = ledger.attempt(f"seed {seed}", lambda: full_run(text, base_dir, seed, out_dir, tracer))
        finally:
            tracer.uninstall()
        if rep is None or traced_rep is None:
            shutil.rmtree(out_dir, ignore_errors=True)
            return ledger, {}
        rep.result = None
        _log_rep(log, seed, rep)
        _log_rep(log, seed, traced_rep)
        plain.append(rep)
        traced.append((traced_rep, tracer))
    shutil.rmtree(out_dir, ignore_errors=True)

    rep, tracer = min(traced, key=lambda pair: pair[0].run_s)
    metrics = layer_metrics(tracer, rep.result, rep.csv_bytes, min(r.run_s for r in plain))
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.csv")
    tracer.write_spans(spans_path)
    log(f"wrote {len(tracer.names)} spans to {os.path.relpath(spans_path, ROOT)}")
    return ledger, metrics
