"""Coarse network-flow backend.

People are held in per-node FIFO queues and move along arcs in whole
cohorts, at most ``capacity`` persons per tick per arc, arriving after
the arc's traversal time.  Routing is static: every node forwards
toward its nearest destination (by total traversal time), read off the
network's one shortest-path table ``EgressNetwork.routes``, so the model
stays transparent enough to check against closed-form queueing results.

Individual ids are carried through the queues so per-person exit times
and positions remain well defined, even though the dynamics only ever
act on counts.  The state holds only the people still on the network:
a cohort that lands at a destination leaves it, and its exit time is
recorded in ``Population`` by the engine, not here.
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
    """Mutable queue state of the flow backend: who is where on the network.

    ``queues`` holds waiting ids in FIFO order, one queue per node that
    routes onward; ``in_transit`` holds departed cohorts until their
    arrival tick.  A cohort that lands at a destination leaves the state:
    exit times live in ``Population``.  Who may depart and which tick it
    is are not recorded here: ``flow_step`` takes both.
    """

    network: EgressNetwork
    routes: dict[int, int | None]
    queues: dict[int, deque] = field(default_factory=dict)
    in_transit: list[Cohort] = field(default_factory=list)

    @classmethod
    def from_assignment(cls, network: EgressNetwork, assignment: dict[int, int]) -> "FlowState":
        """Build the initial state from an id -> node placement."""
        state = cls(network=network, routes=flow_route(network))
        state.queues = {node: deque() for node, arc in state.routes.items() if arc is not None}
        for agent_id in sorted(assignment):
            node_id = assignment[agent_id]
            if node_id not in state.queues:
                raise SimulationError(f"agent {agent_id} assigned to unknown node {node_id}")
            state.queues[node_id].append(agent_id)
        return state

    def check_conservation(self, tick: int, inside: np.ndarray) -> None:
        """Raise unless the ids held in queues and in transit are exactly
        ``inside``, the ascending ids of the people in the building."""
        held = [i for q in self.queues.values() for i in q] + [i for c in self.in_transit for i in c.ids]
        held = np.sort(np.array(held, dtype=np.int64))
        if not np.array_equal(held, inside):
            lost = np.setdiff1d(inside, held).tolist()
            extra = np.union1d(np.setdiff1d(held, inside), held[1:][np.diff(held) == 0]).tolist()
            raise SimulationError(f"tick {tick}: person conservation broken: lost {lost}, extra {extra}")

    def remove(self, agent_id: int) -> None:
        """Take one person out of the system (death); ignores ids no longer held."""
        for ids in [*self.queues.values(), *(c.ids for c in self.in_transit)]:
            if agent_id in ids:
                ids.remove(agent_id)
                return


def flow_step(state: FlowState, eligible: np.ndarray, tick: int) -> list[Cohort]:
    """Advance through tick ``tick``; returns the cohorts that landed in
    it, in deterministic (depart tick, arc index) order.

    Departure phase: every queue sends up to its routed arc's capacity
    of eligible waiting persons (``eligible[i]``: id i may depart; FIFO,
    ineligible ones are skipped in place).  Arrival phase: a cohort whose
    time has come joins the queue of its arc's destination node if that
    node routes onward; otherwise it leaves the state.  A zero-traversal
    arc delivers within the same tick.  The caller decides which landed
    cohorts exit the building.
    """
    network = state.network

    for node_id in sorted(state.queues):
        queue = state.queues[node_id]
        if not queue:
            continue
        arc_index = state.routes[node_id]
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
        queue = state.queues.get(network.arcs[cohort.arc_index].dst)
        if queue is not None:
            queue.extend(cohort.ids)
    state.in_transit = still
    return due
