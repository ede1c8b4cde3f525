"""Parameter sweeps and backend comparisons over one scenario.

A sweep is the full factorial of one swept parameter against a seed
list; every cell is an independent run, so cells can execute in any
order and on any number of worker processes without changing a single
output bit.  Workers receive the scenario as serialized text and
re-parse it themselves, which keeps jobs picklable and re-validates
every derived scenario.
"""
from __future__ import annotations

import json
import math
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .config import BACKENDS
from .engine import run
from .errors import SchemaViolation, SemanticViolation, SimulationError
from .metrics import clog_fraction, egress_stats, metrics_summary
from .scenario import parse_scenario

SWEEP_HEADER = "param,value,seed,t_total,fatalities,clog_fraction"


@dataclass
class SweepRow:
    param: str
    value: float
    seed: int
    t_total: float | None       # None when the run never emptied the building
    fatalities: int
    clog_fraction: float
    timeout: bool
    digest: str


def worker_count(requested: int) -> int:
    """The worker-process count for a request; 0 means one per CPU."""
    if requested < 0:
        raise SemanticViolation("sweep.workers", "must be >= 0")
    return requested or os.cpu_count() or 1


def set_swept_value(doc: dict, path: str, value: float) -> None:
    """Apply one swept value to a scenario document, in place.

    Understood paths:
      params.<name>                  model parameter override
      config.dt|alarm_time|max_sim_time
      population.count
      population.attributes.<attr>   pins the attribute to a constant
    """
    parts = path.split(".")
    if len(parts) == 2 and parts[0] == "params":
        doc.setdefault("config", {}).setdefault("overrides", {})[parts[1]] = value
        return
    if len(parts) == 2 and parts[0] == "config":
        if parts[1] not in ("dt", "alarm_time", "max_sim_time"):
            raise SchemaViolation("sweep.param", f"config field {parts[1]!r} cannot be swept")
        doc.setdefault("config", {})[parts[1]] = value
        return
    if parts == ["population", "count"]:
        if value != int(value) or value < 0:
            raise SemanticViolation("sweep.param", "population.count needs a non-negative integer")
        doc.setdefault("population", {})["count"] = int(value)
        return
    if len(parts) == 3 and parts[:2] == ["population", "attributes"]:
        attr = parts[2]
        pop = doc.setdefault("population", {})
        entries = pop.setdefault("attributes", [])
        entry = {"attr": attr, "dist": "constant", "value": value}
        for i, existing in enumerate(entries):
            if isinstance(existing, dict) and existing.get("attr") == attr:
                entries[i] = entry
                return
        entries.append(entry)
        return
    raise SchemaViolation("sweep.param", f"unknown parameter path {path!r}")


def _cell_scenario_text(text: str, param: str, value: float, seed: int) -> str:
    doc = json.loads(text)
    set_swept_value(doc, param, value)
    doc.setdefault("config", {})["seed"] = seed
    return json.dumps(doc)


def _run_cell(job: tuple) -> SweepRow:
    text, base_dir, param, value, seed = job
    scenario = parse_scenario(_cell_scenario_text(text, param, value, seed), base_dir)
    result = run(scenario)
    t_total, _t50, _t95, fatalities = egress_stats(result)
    return SweepRow(
        param=param,
        value=value,
        seed=seed,
        t_total=None if math.isinf(t_total) else t_total,
        fatalities=fatalities,
        clog_fraction=clog_fraction(result),
        timeout=result.timeout,
        digest=result.digest,
    )


def run_sweep(
    text: str,
    param: str,
    values: list[float],
    seeds: list[int],
    base_dir: str = ".",
    workers: int = 0,
) -> list[SweepRow]:
    """Full factorial of ``values`` x ``seeds``; rows come back in that
    order regardless of how many workers executed them."""
    if not values:
        raise SchemaViolation("sweep.values", "need at least one value")
    if not seeds:
        raise SchemaViolation("sweep.seeds", "need at least one seed")
    # validate every derived scenario up front, before burning CPU time
    for value in values:
        parse_scenario(_cell_scenario_text(text, param, float(value), int(seeds[0])), base_dir)

    jobs = [
        (text, base_dir, param, float(value), int(seed))
        for value in values
        for seed in seeds
    ]
    n_workers = min(worker_count(workers), len(jobs))
    if n_workers <= 1:
        return [_run_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_run_cell, jobs))


def write_sweep_csv(rows: list[SweepRow], sink) -> None:
    """The sweep table; t_total is left blank for runs that never
    finished (no sentinel values)."""
    sink.write(SWEEP_HEADER + "\n")
    for row in rows:
        t_total = "" if row.t_total is None else f"{row.t_total:.4f}"
        sink.write(
            f"{row.param},{row.value:g},{row.seed},{t_total},"
            f"{row.fatalities},{row.clog_fraction:.6f}\n"
        )


def sweep_summary(rows: list[SweepRow]) -> list[dict]:
    """Per-value medians over seeds (finished runs only for t_total)."""
    by_value: dict[float, list[SweepRow]] = {}
    for row in rows:
        by_value.setdefault(row.value, []).append(row)
    out = []
    for value in sorted(by_value):
        group = by_value[value]
        finished = [r.t_total for r in group if r.t_total is not None]
        out.append(
            {
                "value": value,
                "runs": len(group),
                "finished": len(finished),
                "timeouts": sum(1 for r in group if r.timeout),
                "median_t_total": _median(finished),
                "median_fatalities": _median([r.fatalities for r in group]),
                "median_clog_fraction": _median([r.clog_fraction for r in group]),
            }
        )
    return out


def _median(values: list) -> float | None:
    return float(statistics.median(values)) if values else None


COMPARE_FIELDS = ("backend", "error", "dt", "seed", "population", "exited", "fatalities", "timeout",
                  "t_total", "t_50", "t_95", "clog_fraction", "digest")


def compare_backends(text: str, base_dir: str = ".", seed: int | None = None) -> list[dict]:
    """Run the same scenario under each backend with one shared seed, so
    the populations (attributes, placement order) match draw for draw.
    A backend whose run fails gets its ``error`` and None in every field.
    """
    out = []
    for backend in BACKENDS:
        doc = json.loads(text)
        cfg = doc.setdefault("config", {})
        cfg["backend"] = backend
        if seed is not None:
            cfg["seed"] = seed
        scenario = parse_scenario(json.dumps(doc), base_dir)
        try:
            result = run(scenario)
        except SimulationError as exc:
            out.append({**dict.fromkeys(COMPARE_FIELDS), "backend": backend, "error": str(exc)})
            continue
        summary = metrics_summary(result)
        # a summary has no ``error`` field, so a run that finished reads None there
        out.append({key: summary.get(key) for key in COMPARE_FIELDS})
    return out
