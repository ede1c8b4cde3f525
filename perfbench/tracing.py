"""In-process span tracer for the benchmark's traced run.

The tracer wraps the public functions that ``evacsim.engine`` (and the
modules it calls into) look up by name, so nothing under ``src/`` has to
change: each wrapped call opens a span, remembers which span was open
when it started (its parent) and closes it when the call returns.
Spans stay in memory until the run ends; ``write_spans`` then dumps
them, and ``layer_metrics`` folds them into per-layer self times and
counts.  A layer's self time is its spans' total duration minus the
duration of their child spans.
"""
from __future__ import annotations

import functools
import re
import time
from collections import defaultdict

import evacsim.agents as agents_mod
import evacsim.engine as engine_mod
import evacsim.socialforce as sf_mod
from evacsim.hazard import HazardField

PROJECTION_RE = re.compile(r"projected (\d+) bodies out of walls")


def _len_arg(position: int):
    return lambda args, out: len(args[position])


def _len_out(args, out):
    return len(out)


def _contacts(args, out):
    return len(out[1][0])


# (namespace, attribute, span name, {counter: f(args, result) -> int})
WRAPPED = (
    (engine_mod, "distance_field", "scenario.distance_field", {}),
    (engine_mod, "derive_network", "scenario.derive_network", {}),
    (engine_mod, "spawn_population", "agents.spawn", {}),
    (engine_mod, "load_hazard_field", "hazard.load", {}),
    (engine_mod, "build_percepts", "agents.percepts", {"agents.percepts_rows": _len_arg(1)}),
    (engine_mod, "decide", "agents.decide", {}),
    (agents_mod, "choose_exit", "agents.choose_exit", {}),
    (engine_mod, "inform_neighbors", "agents.inform", {"agents.receivers": _len_out}),
    (HazardField, "frame_at", "hazard.frame", {}),
    (engine_mod, "health_decrement", "hazard.health", {}),
    (engine_mod, "ca_step", "ca.step", {"ca.movers": _len_arg(4), "ca.moved": _len_out}),
    (engine_mod, "sf_step", "sf.step", {}),
    (sf_mod, "driving_force", "sf.driving", {}),
    (sf_mod, "pair_forces", "sf.pair_forces", {"sf.pair_contacts": _contacts}),
    (sf_mod, "wall_forces", "sf.wall_forces", {"sf.wall_contacts": _contacts}),
    (sf_mod, "apply_contact_friction", "sf.friction", {}),
    (engine_mod, "detect_arch", "sf.clog", {}),
)


class Tracer:
    """Flat span store: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counters: dict | None = None):
        """``fn`` timed as span ``name``; each counter adds f(args, result)."""
        tracer = self
        counters = counters or {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            for key, count in counters.items():
                tracer.counts[key] += count(args, out)
            return out

        return traced

    def install(self) -> None:
        """Swap every name in WRAPPED (and the social-force neighbour
        hash) for a traced wrapper; ``uninstall`` puts them back."""
        for owner, attr, name, counters in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counters))
        self._saved.append((sf_mod, "SpatialHash", sf_mod.SpatialHash))
        sf_mod.SpatialHash = self._traced_hash(sf_mod.SpatialHash)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_hash(self, base):
        """SpatialHash whose construction counts as a neighbour-list
        rebuild and whose build and pair query are timed."""
        tracer = self

        class TracedHash(base):
            def __init__(self, *args, **kwargs):
                tracer.counts["sf.nbr_rebuilds"] += 1
                span = tracer.open("sf.nbr_list")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(span)

            def query_pairs(self, radius):
                span = tracer.open("sf.nbr_list")
                try:
                    return super().query_pairs(radius)
                finally:
                    tracer.close(span)

        return TracedHash

    # -- folding -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(total seconds, self seconds, span count) per span name."""
        n = len(self.names)
        child = [0.0] * n
        for span in range(n):
            parent = self.parents[span]
            if parent >= 0:
                child[parent] += self.ends[span] - self.starts[span]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in range(n):
            name = self.names[span]
            duration = self.ends[span] - self.starts[span]
            total[name] += duration
            self_time[name] += duration - child[span]
            calls[name] += 1
        return total, self_time, calls

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            origin = self.starts[0] if self.starts else 0.0
            for span in range(len(self.names)):
                fh.write(
                    f"{span},{self.parents[span]},{self.names[span]},"
                    f"{self.starts[span] - origin:.9f},{self.ends[span] - origin:.9f}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, result, csv_bytes: int, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by the names in
    BENCHMARK.json.  ``engine.run`` is the root span around ``run()``;
    its self time is tick-loop and assembly work no wrapped call covers."""
    total, self_s, calls = tracer.totals()
    counts = tracer.counts
    projections = sum(
        int(m.group(1)) for w in result.warnings for m in [PROJECTION_RE.search(w)] if m
    )
    replans = sum(rec.replan_count for rec in result.per_agent)
    metrics = {
        "scenario.parse_s": self_s["scenario.parse"],
        "scenario.distance_field_s": self_s["scenario.distance_field"],
        "scenario.distance_field_calls": calls["scenario.distance_field"],
        "scenario.derive_network_s": self_s["scenario.derive_network"],
        "agents.spawn_s": self_s["agents.spawn"],
        "hazard.load_s": self_s["hazard.load"],
        "agents.percepts_s": self_s["agents.percepts"],
        "agents.percepts_rows": counts["agents.percepts_rows"],
        "agents.decide_s": self_s["agents.decide"],
        "agents.decide_calls": calls["agents.decide"],
        "agents.choose_exit_s": self_s["agents.choose_exit"],
        "agents.choose_exit_calls": calls["agents.choose_exit"],
        "agents.rechoose_ratio": _ratio(calls["agents.choose_exit"], calls["agents.decide"]),
        "agents.inform_s": self_s["agents.inform"],
        "agents.inform_calls": calls["agents.inform"],
        "agents.receivers": counts["agents.receivers"],
        "agents.replans": replans,
        "hazard.frame_s": self_s["hazard.frame"],
        "hazard.health_s": self_s["hazard.health"],
        "ca.step_s": self_s["ca.step"],
        "ca.movers": counts["ca.movers"],
        "ca.moved": counts["ca.moved"],
        "ca.moved_ratio": _ratio(counts["ca.moved"], counts["ca.movers"]),
        "sf.step_s": self_s["sf.step"],
        "sf.wall_forces_s": self_s["sf.wall_forces"],
        "sf.pair_forces_s": self_s["sf.pair_forces"],
        "sf.friction_s": self_s["sf.friction"],
        "sf.driving_s": self_s["sf.driving"],
        "sf.nbr_list_s": self_s["sf.nbr_list"],
        "sf.clog_s": self_s["sf.clog"],
        "sf.step_calls": calls["sf.step"],
        "sf.nbr_rebuilds": counts["sf.nbr_rebuilds"],
        "sf.nbr_rebuild_ratio": _ratio(counts["sf.nbr_rebuilds"], calls["sf.step"]),
        "sf.pair_contacts": counts["sf.pair_contacts"],
        "sf.wall_contacts": counts["sf.wall_contacts"],
        "sf.projections": projections,
        "metrics.export_s": self_s["metrics.export"],
        "metrics.summary_s": self_s["metrics.summary"],
        "metrics.csv_mb": csv_bytes / 1e6,
        "engine.other_s": self_s["engine.run"],
        "trace.run_s": total["engine.run"],
        "trace.overhead_s": total["engine.run"] - untraced_run_s,
    }
    return metrics
