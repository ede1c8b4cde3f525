"""Run results and everything derived from them: egress statistics,
clog fraction, trajectory export and the metrics summary.

All functions here are pure over a completed :class:`RunResult`, so
they can be applied after the fact, in parallel, or to results loaded
from another process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agents import STATUS_TOKENS


@dataclass
class EventRecord:
    """One timestamped simulation event.

    ``subject`` is an agent id for agent events and a door id string
    for clog events.  Payload keys by kind: ``exited`` has ``exit`` (the
    zone id) and, out through an instrumented door, ``door``; ``died``
    none; ``replanned`` ``to`` (the new target zone); ``informed``
    ``receivers``, how many people the sender told of a blocked exit (who
    they are is in their beliefs); ``clog_start`` and ``clog_end`` ``band``
    (bodies upstream of the door) and ``flow`` (persons/s over the clog
    window), or only ``end_of_run`` for an episode the run's end closes.
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
#: Rows formatted and written together.  A batch's texts are held until
#: its write: about 0.6 MB at 2048 rows where few values repeat (the
#: social-force positions of room_sf), twice that at 4096 rows, which
#: made a 2000-agent lattice export only about 15% faster.
EXPORT_BATCH_ROWS = 2048


def _batches(trajectory, size: int):
    """The trajectory's rows in runs of at most ``size``: lists of
    (t, ids, x, y, health, status) slices of consecutive samples.  A
    sample longer than ``size`` is split over several batches."""
    pieces, room = [], size
    for (t, *columns) in trajectory:
        n, start = len(columns[0]), 0
        while start < n:
            take = min(room, n - start)
            pieces.append((t, *(c[start:start + take] for c in columns)))
            start, room = start + take, room - take
            if room == 0:
                yield pieces
                pieces, room = [], size
    if pieces:
        yield pieces


def _texts(column: np.ndarray, fmt: str, memo: dict | None = None) -> np.ndarray:
    """``fmt % value`` for every value of ``column`` as an object array,
    formatted once per distinct bit pattern, so -0.0 and 0.0 (and NaN
    payloads) are told apart.  ``memo`` keeps the texts across calls."""
    distinct, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    if memo is None:
        table = [fmt % v for v in values]
    else:
        table = [memo[v] if v in memo else memo.setdefault(v, fmt % v) for v in values]
    return np.array(table, dtype=object)[inverse]


def export_trajectories(result: RunResult, sink) -> None:
    """Write the trajectory log: one line per agent per sample, ordered
    by (t, id), fixed decimal places, '\\n' terminators; the text is that
    of the numpy scalars.

    Rows go out in batches of ``EXPORT_BATCH_ROWS``, one ``sink.write``
    each, so the memory held is bounded by the batch size, not the run.
    Within a batch each distinct value of a column is formatted once and
    its text gathered to every row that holds it: on the lattice x and y
    take one value per grid column or row, and health stays 1.0 in clean
    air.  Id texts are kept for the whole export (one per agent)."""
    tokens = np.array([f",{token}\n" for _, token in sorted(STATUS_TOKENS.items())], dtype=object)
    id_texts: dict[int, str] = {}
    sink.write(TRAJECTORY_HEADER + "\n")
    for pieces in _batches(result.trajectory, EXPORT_BATCH_ROWS):
        t, ids, xs, ys, health, statuses = zip(*pieces)
        lengths = list(map(len, ids))
        rows = np.empty((sum(lengths), 6), dtype=object)
        rows[:, 0] = np.repeat(np.array(["%.6f" % v for v in t], dtype=object), lengths)
        rows[:, 1] = _texts(np.concatenate(ids), ",%d,", id_texts)
        rows[:, 2] = _texts(np.concatenate(xs), "%.4f,")
        rows[:, 3] = _texts(np.concatenate(ys), "%.4f,")
        rows[:, 4] = _texts(np.concatenate(health), "%.4f")
        rows[:, 5] = tokens[np.concatenate(statuses)]
        sink.write("".join(rows.ravel().tolist()))


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
