"""Coarse network-flow backend.

People are held in per-node FIFO queues and move along arcs in whole
cohorts, at most ``capacity`` persons per tick per arc, arriving after
the arc's traversal time.  Routing is static: every node forwards
toward its nearest destination (by total traversal time), read off the
network's one shortest-path table ``EgressNetwork.routes``, so the model
stays transparent enough to check against closed-form queueing results.

Individual ids are carried through the queues so per-person exit times
and positions remain well defined, even though the dynamics only ever
act on counts.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import SemanticViolation, SimulationError
from .scenario import EgressNetwork


def flow_route(network: EgressNetwork) -> dict[int, int | None]:
    """Static next-arc table read off ``network.routes``: every node
    forwards toward its nearest destination, ties broken by smallest
    destination id, then smallest arc index.  Destinations map to None
    (absorbing).  Raises when some node cannot reach any destination.
    """
    _, ticks, first = network.routes
    table: dict[int, int | None] = {}
    for node in network.nodes:
        if node.kind == "destination":
            table[node.id] = None
            continue
        column = ticks[:, node.id]
        if not np.isfinite(column).any():
            raise SemanticViolation("network.connectivity", f"node {node.id} cannot reach any destination")
        table[node.id] = int(first[np.argmin(column), node.id])
    return table


@dataclass
class Cohort:
    arc_index: int
    ids: list[int]
    depart_tick: int
    arrival_tick: int


@dataclass
class FlowState:
    """Mutable queue state of the flow backend.

    ``queues`` holds waiting ids per node in FIFO order; ``in_transit``
    holds departed cohorts until their arrival tick; ``arrived`` maps
    each id to (arrival tick, destination node id).  Who may depart and
    which tick it is are not recorded here: ``flow_step`` takes both.
    """

    network: EgressNetwork
    routes: dict[int, int | None]
    queues: dict[int, deque] = field(default_factory=dict)
    in_transit: list[Cohort] = field(default_factory=list)
    arrived: dict[int, tuple[int, int]] = field(default_factory=dict)
    total: int = 0

    @classmethod
    def from_assignment(cls, network: EgressNetwork, assignment: dict[int, int]) -> "FlowState":
        """Build the initial state from an id -> node placement."""
        state = cls(network=network, routes=flow_route(network))
        state.queues = {n.id: deque() for n in network.nodes}
        for agent_id in sorted(assignment):
            node_id = assignment[agent_id]
            if node_id not in state.queues:
                raise SimulationError(f"agent {agent_id} assigned to unknown node {node_id}")
            state.queues[node_id].append(agent_id)
        state.total = len(assignment)
        return state

    def check_conservation(self, tick: int) -> None:
        waiting = sum(len(q) for q in self.queues.values())
        have = waiting + sum(len(c.ids) for c in self.in_transit) + len(self.arrived)
        if have != self.total:
            raise SimulationError(f"tick {tick}: person conservation broken: {have} != {self.total}")

    def remove(self, agent_id: int) -> bool:
        """Take one person out of the system (death); ignores arrived ids."""
        for q in self.queues.values():
            if agent_id in q:
                q.remove(agent_id)
                self.total -= 1
                return True
        for cohort in self.in_transit:
            if agent_id in cohort.ids:
                cohort.ids.remove(agent_id)
                self.total -= 1
                return True
        return False


def flow_step(state: FlowState, eligible: np.ndarray, tick: int) -> list[Cohort]:
    """Advance through tick ``tick``; returns the cohorts that landed in
    it, in deterministic (depart tick, arc index) order.

    Departure phase: every node sends up to its routed arc's capacity
    of eligible waiting persons (``eligible[i]``: id i may depart; FIFO,
    ineligible ones are skipped in place).  Arrival phase: cohorts whose
    time has come either join the destination record or the next node's
    queue.  A zero-traversal arc delivers within the same tick.  The caller classifies each landed
    cohort by the kind of its arc's destination node.
    """
    network = state.network

    for node_id in sorted(state.queues):
        arc_index = state.routes.get(node_id)
        if arc_index is None:
            continue
        queue = state.queues[node_id]
        if not queue:
            continue
        arc = network.arcs[arc_index]
        taken: list[int] = []
        kept: list[int] = []
        while queue and len(taken) < arc.capacity:
            agent_id = queue.popleft()
            if eligible[agent_id]:
                taken.append(agent_id)
            else:
                kept.append(agent_id)
        for agent_id in reversed(kept):
            queue.appendleft(agent_id)
        if not taken:
            continue
        if len(taken) > arc.capacity:
            raise SimulationError(f"tick {tick}: {len(taken)} people on arc {arc_index} of capacity {arc.capacity}")
        state.in_transit.append(
            Cohort(arc_index=arc_index, ids=taken, depart_tick=tick, arrival_tick=tick + arc.traversal_time)
        )

    still: list[Cohort] = []
    due = []
    for cohort in state.in_transit:
        if cohort.arrival_tick <= tick:
            due.append(cohort)
        else:
            still.append(cohort)
    due.sort(key=lambda c: (c.depart_tick, c.arc_index))
    for cohort in due:
        arc = network.arcs[cohort.arc_index]
        dst = network.node_by_id(arc.dst)
        if dst.kind == "destination":
            for agent_id in cohort.ids:
                state.arrived[agent_id] = (tick, dst.id)
        else:
            state.queues[dst.id].extend(cohort.ids)
    state.in_transit = still

    state.check_conservation(tick)
    return due
