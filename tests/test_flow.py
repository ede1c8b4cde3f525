"""Network flow backend: queueing oracle, routing, and conservation."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim import SemanticViolation, SimulationError, run
from evacsim.config import BACKENDS
from evacsim.flow import Cohort, FlowState, flow_route, flow_step
from evacsim.metrics import egress_stats
from evacsim.scenario import Arc, EgressNetwork, Node, derive_network

from conftest import SCENARIOS, distances_to, grid_rows, make_scenario, route_to_destination


def _path_network(n_hops=1, traversal=1, capacity=1):
    """room 0 -> room 1 -> ... -> destination, uniform arcs."""
    nodes = [Node(id=i, kind="room", cell=(i, 0)) for i in range(n_hops)]
    nodes.append(Node(id=n_hops, kind="destination", cell=(n_hops, 0)))
    arcs = [
        Arc(src=i, dst=i + 1, traversal_time=traversal, capacity=capacity, door_id=f"a{i}")
        for i in range(n_hops)
    ]
    return EgressNetwork(nodes=nodes, arcs=arcs, warnings=[])


def _held(state):
    """Ascending ids still on the network, waiting or in transit."""
    ids = [i for q in state.queues.values() for i in q] + [i for c in state.in_transit for i in c.ids]
    return np.array(sorted(ids), dtype=np.int64)


def _step(state, eligible, tick, landed):
    """One ``flow_step``; records in ``landed`` the tick each id reached a
    destination (a node without a queue) and returns the landed cohorts."""
    cohorts = flow_step(state, eligible, tick)
    for cohort in cohorts:
        if state.network.arcs[cohort.arc_index].dst not in state.queues:
            landed.update(dict.fromkeys(cohort.ids, tick))
    return cohorts


def _drain(state, eligible, tick=0, max_ticks=100_000, landed=None):
    """Advance from tick ``tick`` until the network is empty; return the
    last arrival tick.  ``landed``, if given, gathers each id's landing tick."""
    landed = {} if landed is None else landed
    last = 0
    while len(_held(state)):
        for cohort in _step(state, eligible, tick, landed):
            last = max(last, cohort.arrival_tick)
        tick += 1
        assert tick <= max_ticks, "did not drain"
    return last


def test_single_door_queue_matches_analytic_formula():
    """Last arrival = (ceil(N / cap) - 1) + traversal on a one-arc network."""
    for n_agents in range(1, 21):
        for capacity in range(1, 5):
            for traversal in range(0, 6):
                net = _path_network(1, traversal, capacity)
                state = FlowState.from_assignment(net, {i: 0 for i in range(n_agents)})
                last = _drain(state, np.ones(n_agents, dtype=bool))
                want = (math.ceil(n_agents / capacity) - 1) + traversal
                assert last == want, (n_agents, capacity, traversal)


def test_two_hop_pipeline_adds_traversals():
    # one agent: traversal + handoff + traversal, since an arrival joins
    # the intermediate queue after that tick's departure scan
    net = _path_network(2, traversal=3, capacity=2)
    state = FlowState.from_assignment(net, {0: 0})
    assert _drain(state, np.ones(1, dtype=bool)) == 7
    # saturated pipeline: last wave leaves the origin at tick 4
    state = FlowState.from_assignment(net, {i: 0 for i in range(10)})
    assert _drain(state, np.ones(10, dtype=bool)) == 4 + 3 + 1 + 3


def test_ineligible_agents_hold_their_queue_slot():
    net = _path_network(1, traversal=0, capacity=1)
    state = FlowState.from_assignment(net, {0: 0, 1: 0, 2: 0})
    eligible = np.array([False, True, True])
    landed = {}
    _step(state, eligible, 0, landed)
    # id 0 is still premovement, so 1 departed first
    assert 1 in landed
    assert 0 not in landed
    eligible[0] = True
    _step(state, eligible, 1, landed)
    _step(state, eligible, 2, landed)
    assert set(landed) == {0, 1, 2}
    # id 0 kept its place at the head of the queue while ineligible,
    # so it departs as soon as it wakes: 1, then 0, then 2
    order = sorted(landed, key=landed.get)
    assert order == [1, 0, 2]


def test_fifo_departure_order_within_a_node():
    net = _path_network(1, traversal=0, capacity=1)
    ids = list(range(7))
    state = FlowState.from_assignment(net, {i: 0 for i in ids})
    ticks = {}
    _drain(state, np.ones(len(ids), dtype=bool), landed=ticks)
    assert sorted(ticks) == ids
    assert [ticks[i] for i in ids] == sorted(ticks[i] for i in ids)


def test_conservation_every_tick():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n_agents = int(rng.integers(1, 30))
        net = _path_network(int(rng.integers(1, 4)), int(rng.integers(0, 4)), int(rng.integers(1, 4)))
        state = FlowState.from_assignment(net, {i: 0 for i in range(n_agents)})
        inside = np.arange(n_agents)
        landed = {}
        for tick in range(200):
            state.check_conservation(tick, inside)
            _step(state, np.ones(n_agents, dtype=bool), tick, landed)
            inside = np.setdiff1d(inside, list(landed))
            if len(inside) == 0:
                break
        state.check_conservation(tick + 1, inside)
        assert sorted(landed) == list(range(n_agents))


def test_a_person_missing_from_the_network_is_named_with_the_tick():
    net = _path_network(2, traversal=2, capacity=1)
    state = FlowState.from_assignment(net, {i: 0 for i in range(4)})
    flow_step(state, np.ones(4, dtype=bool), 0)  # id 0 departs
    state.check_conservation(0, np.arange(4))
    state.remove(2)  # gone from the queue while still inside
    with pytest.raises(SimulationError, match=r"^tick 0: person conservation broken: lost \[2\], extra \[\]$"):
        state.check_conservation(0, np.arange(4))
    # and one the building no longer holds, or one held twice, is extra
    with pytest.raises(SimulationError, match=r"^tick 1: person conservation broken: lost \[\], extra \[1\]$"):
        state.check_conservation(1, np.array([0, 3]))
    state.queues[0].append(3)
    with pytest.raises(SimulationError, match=r"^tick 2: person conservation broken: lost \[\], extra \[3\]$"):
        state.check_conservation(2, np.array([0, 1, 3]))


def test_flow_route_picks_nearest_destination():
    # two destinations; rooms route to whichever is closer in time
    nodes = [
        Node(id=0, kind="room", cell=(0, 0)),
        Node(id=1, kind="room", cell=(1, 0)),
        Node(id=2, kind="destination", cell=(2, 0)),
        Node(id=3, kind="destination", cell=(3, 0)),
    ]
    arcs = [
        Arc(src=0, dst=2, traversal_time=5, capacity=1, door_id="far"),
        Arc(src=0, dst=3, traversal_time=1, capacity=1, door_id="near"),
        Arc(src=1, dst=2, traversal_time=1, capacity=1, door_id="n2"),
    ]
    net = EgressNetwork(nodes=nodes, arcs=arcs, warnings=[])
    routes = flow_route(net)
    assert routes[0] == 1  # arc index of "near"
    assert routes[1] == 2
    dests, ticks, first = net.routes
    assert dests.tolist() == [2, 3]
    assert ticks[:, 0].tolist() == [5, 1]
    assert first[0, 0] == 0  # toward the far destination, arc "far"
    assert first[:, 1].tolist() == [2, -1]  # room 1 cannot reach destination 3


def test_unreachable_room_is_a_connectivity_error():
    nodes = [
        Node(id=0, kind="room", cell=(0, 0)),
        Node(id=1, kind="room", cell=(1, 0)),
        Node(id=2, kind="destination", cell=(2, 0)),
    ]
    arcs = [Arc(src=0, dst=2, traversal_time=1, capacity=1, door_id="only")]
    net = EgressNetwork(nodes=nodes, arcs=arcs, warnings=[])
    with pytest.raises(SemanticViolation):
        flow_route(net)


@st.composite
def networks(draw):
    """Up to 7 nodes on ids drawn from 0-9 (so some ids are unused, as
    after pruning), each a room or a destination, joined by up to 14 arcs
    of 0-3 ticks between any two nodes, loops and destinations' own arcs
    included; some rooms reach no destination, and some networks have
    none at all."""
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=7, unique=True))
    nodes = [Node(id=i, kind=draw(st.sampled_from(["room", "destination"])), cell=(i, 0)) for i in ids]
    arc = st.builds(
        lambda src, dst, ticks: Arc(src=src, dst=dst, traversal_time=ticks, capacity=1),
        st.sampled_from(ids),
        st.sampled_from(ids),
        st.integers(0, 3),
    )
    return EgressNetwork(nodes=nodes, arcs=draw(st.lists(arc, max_size=14)), warnings=[])


def _reference_flow_route(network):
    """Every room toward its nearest destination by the reference router,
    ties broken by smallest destination id; None at destinations."""
    dests = sorted(n.id for n in network.nodes if n.kind == "destination")
    dist = {d: distances_to(network, d) for d in dests}
    table = {}
    for node in network.nodes:
        if node.kind == "destination":
            table[node.id] = None
            continue
        reach = [(dist[d][node.id], d) for d in dests if node.id in dist[d]]
        if not reach:
            raise SemanticViolation("network.connectivity", f"node {node.id} cannot reach any destination")
        table[node.id] = route_to_destination(network, min(reach)[1])[node.id]
    return table


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(networks())
def test_the_route_table_and_flow_route_match_the_reference_router(network):
    dests, ticks, first = network.routes
    assert dests.tolist() == sorted(n.id for n in network.nodes if n.kind == "destination")
    for row, dest in enumerate(dests.tolist()):
        dist = distances_to(network, dest)
        route = route_to_destination(network, dest)
        for node in network.nodes:
            assert ticks[row, node.id] == dist.get(node.id, math.inf), (dest, node.id)
            assert first[row, node.id] == (-1 if route[node.id] is None else route[node.id]), (dest, node.id)
    try:
        want = _reference_flow_route(network)
    except SemanticViolation:
        with pytest.raises(SemanticViolation):
            flow_route(network)
        return
    assert flow_route(network) == want


def test_the_route_table_is_found_once_per_network_and_kept_read_only():
    net = _path_network(3)
    assert net.routes is net.routes
    assert not any(table.flags.writeable for table in net.routes)
    assert net.routes[1].tolist() == [[3, 2, 1, 0]]
    assert net.routes[2].tolist() == [[0, 1, 2, -1]]


def test_zero_traversal_arrives_same_tick():
    net = _path_network(1, traversal=0, capacity=4)
    state = FlowState.from_assignment(net, {i: 0 for i in range(3)})
    arrivals = flow_step(state, np.ones(3, dtype=bool), 0)
    assert len(arrivals) == 1
    assert arrivals[0].arrival_tick == 0
    assert sorted(arrivals[0].ids) == [0, 1, 2]


def test_remove_supports_mid_run_deaths():
    net = _path_network(1, traversal=2, capacity=1)
    state = FlowState.from_assignment(net, {i: 0 for i in range(4)})
    eligible = np.ones(4, dtype=bool)
    landed = {}
    _step(state, eligible, 0, landed)  # id 0 departs
    state.remove(1)  # dies while waiting
    assert _held(state).tolist() == [0, 2, 3]
    last = _drain(state, eligible, tick=1, landed=landed)
    state.check_conservation(last, np.zeros(0, dtype=np.int64))
    assert sorted(landed) == [0, 2, 3]


@pytest.mark.parametrize("count", [1, 7, 40])
@pytest.mark.parametrize("c_door, capacity", [(1.25, 1), (2.5, 3), (4.0, 4)])
def test_corridor_run_drains_in_closed_form(count, c_door, capacity):
    """A whole ``flow`` run of the shipped corridor, everyone reacting at
    once: its 1 m exit passes ``capacity`` persons a tick and its one arc
    takes T = 1 tick, so the last exit is stamped at (ceil(N / cap) - 1 + T)
    ticks of 1 s and the run ends on the tick after it."""
    with open(os.path.join(SCENARIOS, "corridor.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"]["count"] = count
    doc["population"]["attributes"] = [{"attr": "reaction_time", "dist": "constant", "value": 0.0}]
    doc["config"]["overrides"] = {"c_door": c_door}
    scenario = make_scenario(doc)
    assert [arc.capacity for arc in derive_network(scenario.geometry, scenario.config.params()).arcs] == [capacity]
    result = run(scenario)
    t_total, _, _, fatalities = egress_stats(result)
    assert (result.exited, fatalities, result.timeout) == (count, 0, False)
    assert t_total == math.ceil(count / capacity)
    assert result.t_end == t_total + 1


def _two_doors_in_series(count, c1, c2):
    """Room A (x 1-7), door d1 over (8, 2)-(8, 5), room B (x 9-15), door
    d2 over the two exit cells (16, 3)-(16, 4); ``count`` people in room
    A react at once.  At c_door 1 a door's capacity is its width in
    metres, and its arc takes ceil(span / v_ref) ticks: T1 = 2, T2 = 1."""
    rows = grid_rows(17, 9, exits=[(16, 3), (16, 4)], walls=[(8, y) for y in (1, 6, 7)])
    doors = [
        {"id": "d1", "cells": [[8, y] for y in range(2, 6)], "width": float(c1)},
        {"id": "d2", "cells": [[16, 3], [16, 4]], "width": float(c2)},
    ]
    return {
        "geometry": {"cell_size": 0.5, "cells": rows, "doors": doors},
        "population": {
            "count": count,
            "spawn": {"node": 0},
            "attributes": [{"attr": "reaction_time", "dist": "constant", "value": 0.0}],
        },
        "config": {"backend": "flow", "overrides": {"c_door": 1.0}},
    }


@pytest.mark.parametrize("c1, c2", [(1, 1), (3, 1), (1, 3), (3, 6), (6, 3)])
def test_two_doors_in_series_drain_in_closed_form(c1, c2):
    """The last exit is stamped at ceil(N / min(c1, c2)) + T1 + T2 ticks
    of 1 s, and the run ends on the tick after it.

    ``flow_step`` departs before it delivers, so a cohort that reaches
    room B at tick k joins B's queue after B's departures of tick k and
    leaves B from tick k + 1 on.  Room A sends c1 a tick from tick 0, its
    last cohort at ceil(N / c1) - 1, which reaches B at ceil(N / c1) - 1
    + T1.  If c2 >= c1, B passes each cohort on the tick after it
    arrives, the last at ceil(N / c1) + T1.  If c2 < c1, B's queue never
    runs dry from tick T1 + 1 on and sends c2 a tick, the last at
    ceil(N / c2) + T1.  Either way the last person leaves B at
    ceil(N / min(c1, c2)) + T1 and reaches the exit T2 ticks later."""
    for count in range(1, 31):
        scenario = make_scenario(_two_doors_in_series(count, c1, c2))
        arcs = derive_network(scenario.geometry, scenario.config.params()).arcs
        assert [(a.src, a.dst, a.traversal_time, a.capacity) for a in arcs] == [
            (0, 1, 2, c1), (1, 0, 2, c1), (1, 2, 1, c2)
        ]
        result = run(scenario)
        t_total, _, _, fatalities = egress_stats(result)
        assert (result.exited, fatalities, result.timeout) == (count, 0, False)
        assert t_total == math.ceil(count / min(c1, c2)) + 2 + 1, count
        assert result.t_end == t_total + 1

@pytest.mark.parametrize("backend", BACKENDS)
def test_people_who_cannot_walk_stay_inside_under_every_backend(backend):
    """Mobility 0 holds a person where they stand: nobody of the shipped
    two_rooms leaves in 60 s, however soon they react."""
    with open(os.path.join(SCENARIOS, "two_rooms.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"]["attributes"] = [
        {"attr": "mobility", "dist": "constant", "value": 0},
        {"attr": "reaction_time", "dist": "constant", "value": 0.0},
    ]
    doc["config"].update(backend=backend, max_sim_time=60.0)
    result = run(make_scenario(doc))
    assert (result.exited, result.fatalities, result.timeout) == (0, 0, True)
