"""Run results and everything derived from them: egress statistics,
clog fraction, trajectory export and the metrics summary.

All functions here are pure over a completed :class:`RunResult`, so
they can be applied after the fact, in parallel, or to results loaded
from another process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

from .agents import STATUS_TOKENS


@dataclass
class EventRecord:
    """One timestamped simulation event.

    ``subject`` is an agent id for agent events and a door id string
    for clog events.
    """

    t: float
    kind: str           # exited | died | replanned | informed | clog_start | clog_end
    subject: object
    payload: dict = field(default_factory=dict)


@dataclass
class PerAgentRecord:
    id: int
    spawn_t: float
    end_t: float | None      # exit or death time; None if still inside at the end
    outcome: str             # exited | dead | inside
    path_length: float       # m actually walked
    replan_count: int


@dataclass
class RunResult:
    """Everything a finished run leaves behind."""

    backend: str
    dt: float
    seed: int
    population: int
    t_end: float
    timeout: bool
    exited: int
    fatalities: int
    per_agent: list[PerAgentRecord]
    events: list[EventRecord]
    crossings: list[tuple[float, str, int]]       # (t, door id, persons)
    config_echo: dict
    digest: str
    trajectory: list[tuple]                        # (t, ids, x, y, health, status) arrays
    warnings: list[str] = field(default_factory=list)


def egress_stats(result: RunResult) -> tuple[float, float, float, int]:
    """(t_total, t_50, t_95, fatalities).

    t_total is the last exit time, +inf when the run timed out with
    people still inside, and 0 for an empty population.  The quantile
    times cover eventual evacuees only.
    """
    if result.population == 0:
        return (0.0, 0.0, 0.0, 0)
    exit_times = sorted(e.t for e in result.events if e.kind == "exited")
    fatalities = result.fatalities
    if result.timeout:
        t_total = math.inf
    elif exit_times:
        t_total = exit_times[-1]
    else:
        t_total = math.inf  # nobody made it out
    if not exit_times:
        return (t_total, math.inf, math.inf, fatalities)
    n = len(exit_times)
    t_50 = exit_times[max(0, math.ceil(0.5 * n) - 1)]
    t_95 = exit_times[max(0, math.ceil(0.95 * n) - 1)]
    return (t_total, t_50, t_95, fatalities)


def clog_fraction(result: RunResult) -> float:
    """Fraction of the run during which at least one door was clogged."""
    if result.t_end <= 0:
        return 0.0
    intervals: list[tuple[float, float]] = []
    open_at: dict[object, float] = {}
    for event in result.events:
        if event.kind == "clog_start":
            open_at[event.subject] = event.t
        elif event.kind == "clog_end":
            start = open_at.pop(event.subject, None)
            if start is not None:
                intervals.append((start, event.t))
    for subject, start in open_at.items():
        intervals.append((start, result.t_end))
    if not intervals:
        return 0.0
    intervals.sort()
    merged = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            merged += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    merged += cur_hi - cur_lo
    return min(1.0, merged / result.t_end)


TRAJECTORY_HEADER = "t,id,x,y,health,status"
_ROW = "%s,%d,%.4f,%.4f,%.4f,%s\n"


def export_trajectories(result: RunResult, sink) -> None:
    """Write the trajectory log: one line per agent per sample, ordered
    by (t, id), fixed decimal places, '\\n' terminators.  A sample is one
    %-format per row over its ``tolist()`` columns and one ``sink.write``,
    so the file is never held whole; the text is that of the numpy scalars."""
    tokens = {int(status): token for status, token in STATUS_TOKENS.items()}
    sink.write(TRAJECTORY_HEADER + "\n")
    for (t, *columns, statuses) in result.trajectory:
        rows = zip(repeat("%.6f" % t), *(c.tolist() for c in columns), map(tokens.__getitem__, statuses.tolist()))
        sink.write("".join(map(_ROW.__mod__, rows)))


def metrics_summary(result: RunResult) -> dict:
    """Scalar metrics plus the full config echo, ready for JSON export."""
    t_total, t_50, t_95, fatalities = egress_stats(result)
    event_counts: dict[str, int] = {}
    for event in result.events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    return {
        "backend": result.backend,
        "dt": result.dt,
        "seed": result.seed,
        "population": result.population,
        "exited": result.exited,
        "fatalities": fatalities,
        "timeout": result.timeout,
        "t_end": result.t_end,
        "t_total": None if math.isinf(t_total) else t_total,
        "t_50": None if math.isinf(t_50) else t_50,
        "t_95": None if math.isinf(t_95) else t_95,
        "clog_fraction": clog_fraction(result),
        "event_counts": dict(sorted(event_counts.items())),
        "digest": result.digest,
        "config": result.config_echo,
    }
