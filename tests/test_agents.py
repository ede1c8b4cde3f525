"""Population sampling, speed contracts, and the decision loop."""

from __future__ import annotations

import math
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from unittest import mock
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim import SchemaViolation, SemanticViolation, SimulationError
from evacsim import agents as agents_module
from evacsim.agents import (
    NO_TARGET,
    AgentStatus,
    Percepts,
    Population,
    WorldView,
    _continuous_positions,
    _neighbour_stats,
    build_percepts,
    choose_exit,
    decide,
    effective_speed,
    inform_neighbors,
    init_beliefs,
    sight_line_hazard,
    spawn_population,
    update_insistence,
)
from evacsim.config import PARAM_DEFAULTS
from evacsim.hazard import OD, TEMP, TOX
from evacsim.rng import RngStreams
from evacsim.scenario import DistSpec, PopulationSpec, los_pairs

from conftest import grid_rows, make_scenario, one_agent, room_doc
from test_properties import drills

EXITS = 3                # exit zones in the hand-built percepts and beliefs
ROW = np.array([0])      # the one row of a one_agent() population


class Sight(NamedTuple):
    """One exit as a hand-built percept sees it."""

    exit_id: int
    distance: float       # m, walking distance
    congestion: float     # persons seen heading there
    hazard: float         # score along the sight line
    od_at_exit: float = 0.0


def _speed(agent):
    """The one agent's walking speed, as a decision round is handed it."""
    return float(effective_speed(agent.health, agent.mobility, agent.speed_pref, PARAM_DEFAULTS)[0])


def _percept(visible=(), votes=None, total=0.0, congestion=None, follow=None, od=0.0, speed=1.34):
    """One-row percepts, handed the default one_agent's walking speed unless
    told otherwise; ``decide`` senses the herd through its view instead."""
    row = {name: np.zeros((1, EXITS)) for name in ("hazard", "exit_od", "congestion", "votes")}
    distance = np.full((1, EXITS), np.inf)
    seen = np.zeros((1, EXITS), dtype=bool)
    for sight in visible:
        z = sight.exit_id
        seen[0, z] = True
        distance[0, z] = sight.distance
        row["congestion"][0, z] = sight.congestion
        row["hazard"][0, z] = sight.hazard
        row["exit_od"][0, z] = sight.od_at_exit
    for z, count in (congestion or {}).items():
        row["congestion"][0, z] = count
    for z, weight in (votes or {}).items():
        row["votes"][0, z] = weight
    follow_d = np.full((1, EXITS), np.inf)
    for z, d in (follow or {}).items():
        follow_d[0, z] = d
    return Percepts(
        speed=np.array([speed]),
        local_od=np.array([od]),
        visible=seen,
        distance=distance,
        totals=np.array([total]),
        follow=follow_d,
        **row,
    )


def _beliefs(rows=1):
    """Beliefs with no exit known, seen or blocked yet."""
    return init_beliefs(np.zeros(rows), EXITS, np.random.default_rng(0), PARAM_DEFAULTS["progress_window"], 1.0)


def _geometry(width=10, height=8):
    rows = grid_rows(width, height, exits=[(width - 1, height // 2)])
    return make_scenario(room_doc(rows, count=1, spawn=[1, 1, 1, 1])).geometry


def _view(pop, geometry=None, has_interior_blockers=False, t=0.0):
    """The view of ``pop`` at time ``t`` in clear air, in ``geometry`` (by
    default an open 10 x 8 room), with EXITS exit zones that nobody can reach."""
    geometry = geometry or _geometry()
    return WorldView(
        geometry=geometry,
        params=PARAM_DEFAULTS,
        t=t,
        pop=pop,
        air=np.zeros((3, geometry.height, geometry.width)),
        exit_fields=np.full((EXITS + 1, geometry.height, geometry.width), np.inf),
        zone_cells=[np.zeros((1, 2), dtype=np.int64)] * EXITS,
        has_interior_blockers=has_interior_blockers,
    )


# -- population sampling ---------------------------------------------------------


def test_spawn_positions_fall_inside_the_rect():
    geo = _geometry(14, 10)
    spec = PopulationSpec(count=20, spawn_rect=(2, 2, 6, 5), spawn_node=None, attributes={})
    pop = spawn_population(spec, geo, RngStreams(1), PARAM_DEFAULTS, False)
    assert len(pop) == 20
    x, y = pop.pos[:, 0], pop.pos[:, 1]
    assert ((2 * 0.5 <= x) & (x <= 7 * 0.5)).all()
    assert ((2 * 0.5 <= y) & (y <= 6 * 0.5)).all()


def test_spawn_is_deterministic_per_seed():
    geo = _geometry()
    spec = PopulationSpec(count=8, spawn_rect=(1, 1, 8, 6), spawn_node=None, attributes={})
    a = spawn_population(spec, geo, RngStreams(7), PARAM_DEFAULTS, False)
    b = spawn_population(spec, geo, RngStreams(7), PARAM_DEFAULTS, False)
    c = spawn_population(spec, geo, RngStreams(8), PARAM_DEFAULTS, False)
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.reaction_time, b.reaction_time)
    assert not np.array_equal(a.pos, c.pos)


def _one_draw_at_a_time(cells, radii, geometry, rng):
    """The scalar sampler the bucket-grid one replaced: one draw at a
    time, checked against every blocked cell it may touch and every body
    placed so far."""
    count = len(radii)
    cs = geometry.cell_size
    cell_set = set(cells)
    x_lo, x_hi = min(c[0] for c in cells) * cs, (max(c[0] for c in cells) + 1) * cs
    y_lo, y_hi = min(c[1] for c in cells) * cs, (max(c[1] for c in cells) + 1) * cs
    blocked = geometry.blocked_mask
    h, w = blocked.shape
    placed, placed_r = [], []
    attempts = 0
    for i in range(count):
        r = float(radii[i])
        while True:
            attempts += 1
            if attempts > 2000 * count + 2000:
                raise SimulationError(f"could not place {count} bodies in the spawn region ({i} placed)")
            px = rng.uniform(x_lo, x_hi)
            py = rng.uniform(y_lo, y_hi)
            if (int(px / cs), int(py / cs)) not in cell_set:
                continue
            touches = any(
                blocked[cy, cx]
                and (px - min(max(px, cx * cs), (cx + 1) * cs)) ** 2
                + (py - min(max(py, cy * cs), (cy + 1) * cs)) ** 2 < r * r
                for cy in range(max(0, int((py - r) / cs)), min(h - 1, int((py + r) / cs)) + 1)
                for cx in range(max(0, int((px - r) / cs)), min(w - 1, int((px + r) / cs)) + 1)
            )
            if touches or any((px - qx) ** 2 + (py - qy) ** 2 < (r + qr) ** 2 for (qx, qy), qr in zip(placed, placed_r)):
                continue
            placed.append((px, py))
            placed_r.append(r)
            break
    return placed


@pytest.mark.parametrize("cell_size", [0.4, 0.5, 1.0])
@pytest.mark.parametrize("radii", [(0.25, 0.35), (0.3, 0.9)], ids=["bodies", "wide-bodies"])
def test_continuous_spawn_matches_one_draw_at_a_time(cell_size, radii):
    rng = np.random.default_rng(round(10 * cell_size + 100 * radii[1]))
    outcomes = []
    for trial in range(5):
        width, height = (int(v) for v in rng.integers(10, 18, size=2))
        pillars = [(x, y) for y in range(3, height - 1) for x in range(3, width - 1) if rng.random() < 0.1]
        doc = room_doc(grid_rows(width, height, exits=[(width - 1, 1)], walls=pillars), count=1, spawn=[1, 1, 1, 1])
        doc["geometry"]["cell_size"] = cell_size
        geo = make_scenario(doc).geometry
        # the last trial asks for more bodies than its 1 x 2 cells hold
        x1, y1 = (1, 2) if trial == 4 else (width - 2, height - 2)
        cells = [(x, y) for y in range(1, y1 + 1) for x in range(1, x1 + 1) if geo.open_mask[y, x]]
        body_radii = rng.uniform(*radii, size=6 if trial == 4 else int(rng.integers(2, 12)))
        seed = int(rng.integers(1 << 30))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = np.array(_one_draw_at_a_time(cells, body_radii, geo, want_rng))
        except SimulationError as exc:
            with pytest.raises(SimulationError, match=re.escape(str(exc))):
                _continuous_positions(cells, body_radii, geo, got_rng)
            outcomes.append("full")
        else:
            assert np.array_equal(_continuous_positions(cells, body_radii, geo, got_rng), want)
            assert got_rng.random() == want_rng.random()  # the stream is left where one-by-one draws leave it
            outcomes.append("placed")
    assert outcomes[-1] == "full" and "placed" in outcomes


def test_ca_spawn_gives_every_agent_its_own_cell():
    geo = _geometry(14, 10)
    spec = PopulationSpec(count=30, spawn_rect=(1, 1, 12, 8), spawn_node=None, attributes={})
    pop = spawn_population(spec, geo, RngStreams(3), PARAM_DEFAULTS, False)
    cells = {(int(x / 0.5), int(y / 0.5)) for x, y in pop.pos}
    assert len(cells) == 30


def test_reaction_times_are_clamped_to_the_valid_band():
    geo = _geometry(42, 22)
    spec = PopulationSpec(count=400, spawn_rect=(1, 1, 40, 20), spawn_node=None, attributes={})
    times = spawn_population(spec, geo, RngStreams(11), PARAM_DEFAULTS, False).reaction_time
    assert (times >= PARAM_DEFAULTS["rt_min"]).all()
    assert (times <= PARAM_DEFAULTS["rt_max"]).all()
    # lognormal around the configured median, within a loose factor
    assert PARAM_DEFAULTS["rt_median"] / 2 < np.median(times) < PARAM_DEFAULTS["rt_median"] * 2


def test_constant_attribute_pins_every_agent():
    geo = _geometry()
    spec = PopulationSpec(
        count=12,
        spawn_rect=(1, 1, 8, 6),
        spawn_node=None,
        attributes={"nervousness": DistSpec(kind="constant", value=0.5, lo=None, hi=None, values=None, weights=None)},
    )
    assert (spawn_population(spec, geo, RngStreams(0), PARAM_DEFAULTS, False).nervousness == 0.5).all()


def test_uniform_attribute_respects_bounds():
    geo = _geometry(42, 22)
    spec = PopulationSpec(
        count=200,
        spawn_rect=(1, 1, 40, 20),
        spawn_node=None,
        attributes={"age": DistSpec(kind="uniform", value=None, lo=20, hi=60, values=None, weights=None)},
    )
    ages = spawn_population(spec, geo, RngStreams(5), PARAM_DEFAULTS, False).age
    assert (ages >= 20).all() and (ages <= 60).all()
    assert ages.std() > 5  # actually varies


def test_categorical_attribute_uses_the_given_values():
    geo = _geometry(42, 22)
    spec = PopulationSpec(
        count=100,
        spawn_rect=(1, 1, 40, 20),
        spawn_node=None,
        attributes={"mobility": DistSpec(kind="categorical", value=None, lo=None, hi=None, values=[0, 1, 2], weights=[0.2, 0.5, 0.3])},
    )
    mob = set(spawn_population(spec, geo, RngStreams(2), PARAM_DEFAULTS, False).mobility.tolist())
    assert mob <= {0, 1, 2}
    assert len(mob) >= 2


def test_unknown_attribute_is_rejected():
    geo = _geometry()
    spec = PopulationSpec(
        count=3,
        spawn_rect=(1, 1, 8, 6),
        spawn_node=None,
        attributes={"charisma": DistSpec(kind="constant", value=1.0, lo=None, hi=None, values=None, weights=None)},
    )
    with pytest.raises(SchemaViolation):
        spawn_population(spec, geo, RngStreams(0), PARAM_DEFAULTS, False)


def test_fractional_attributes_are_clamped_to_unit_range():
    geo = _geometry()
    spec = PopulationSpec(
        count=10,
        spawn_rect=(1, 1, 8, 6),
        spawn_node=None,
        attributes={"health": DistSpec(kind="constant", value=2.5, lo=None, hi=None, values=None, weights=None)},
    )
    assert (spawn_population(spec, geo, RngStreams(0), PARAM_DEFAULTS, False).health == 1.0).all()


def test_sampled_fractional_attributes_are_clamped_too():
    geo = _geometry(42, 22)
    spec = PopulationSpec(
        count=200,
        spawn_rect=(1, 1, 40, 20),
        spawn_node=None,
        attributes={"nervousness": DistSpec(kind="uniform", value=None, lo=-0.5, hi=1.5, values=None, weights=None)},
    )
    nervousness = spawn_population(spec, geo, RngStreams(4), PARAM_DEFAULTS, False).nervousness
    assert nervousness.min() == 0.0 and nervousness.max() == 1.0
    assert ((nervousness > 0.0) & (nervousness < 1.0)).any()


@pytest.mark.parametrize(
    "attr, bad",
    [
        # fractional attributes are clamped, but only numbers can be
        ("health", float("nan")),
        ("health", float("inf")),
        ("health", True),
        ("health", "high"),
        ("mobility", 3),
        ("speed_pref", 0.0),
        ("speed_pref", PARAM_DEFAULTS["speed_cap"] + 1.0),
        ("speed_pref", float("nan")),
        ("reaction_time", -1.0),
        ("reaction_time", PARAM_DEFAULTS["rt_max"] + 1.0),
        ("reaction_time", float("nan")),
    ],
)
def test_unusable_attribute_values_are_rejected(attr, bad):
    geo = _geometry()
    spec = PopulationSpec(
        count=3,
        spawn_rect=(1, 1, 8, 6),
        spawn_node=None,
        attributes={attr: DistSpec(kind="constant", value=bad, lo=None, hi=None, values=None, weights=None)},
    )
    with pytest.raises(SemanticViolation):
        spawn_population(spec, geo, RngStreams(0), PARAM_DEFAULTS, False)
    # parsing applies the same check, so a scenario that would fail at spawn never validates
    doc = room_doc(grid_rows(10, 8, exits=[(9, 4)]), count=3, attributes=[{"attr": attr, "dist": "constant", "value": bad}])
    with pytest.raises(SemanticViolation):
        make_scenario(doc)


# -- walking speed ---------------------------------------------------------------


def test_speed_is_zero_at_zero_health():
    assert _speed(one_agent(health=0.0)) == 0.0


def test_speed_is_zero_for_immobile_agents():
    assert _speed(one_agent(mobility=0)) == 0.0


def test_speed_caps_at_the_global_limit():
    assert _speed(one_agent(speed_pref=50.0)) == PARAM_DEFAULTS["speed_cap"]


def test_speed_scales_linearly_with_health():
    full = _speed(one_agent(health=1.0))
    half = _speed(one_agent(health=0.5))
    assert math.isclose(half, full / 2)


def test_panic_mobility_uses_the_panic_speed():
    assert _speed(one_agent(mobility=2)) == PARAM_DEFAULTS["v_panic"]
    assert _speed(one_agent(mobility=2, speed_pref=0.1)) == PARAM_DEFAULTS["v_panic"]


# -- exit choice -----------------------------------------------------------------


def test_calm_agent_takes_the_nearest_exit():
    agent = one_agent()
    beliefs = _beliefs()
    percept = _percept(visible=[Sight(0, 20.0, 0.0, 0.0), Sight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1


def test_congestion_pushes_agents_to_the_farther_door():
    agent = one_agent()
    beliefs = _beliefs()
    heavy = 2 * PARAM_DEFAULTS["w_distance"] * 10.0 / 1.34 / PARAM_DEFAULTS["w_congestion"]
    percept = _percept(
        visible=[Sight(0, 5.0, heavy, 0.0), Sight(1, 15.0, 0.0, 0.0)]
    )
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1


def test_blocked_exits_are_never_chosen():
    agent = one_agent()
    beliefs = _beliefs()
    beliefs.blocked[0, 1] = True
    percept = _percept(visible=[Sight(0, 20.0, 0.0, 0.0), Sight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 0
    beliefs.blocked[0, 0] = True
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == NO_TARGET


def test_ties_break_on_the_smallest_exit_id():
    agent = one_agent()
    beliefs = _beliefs()
    percept = _percept(visible=[Sight(2, 5.0, 0.0, 0.0), Sight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1


def test_fully_nervous_agent_follows_the_crowd():
    agent = one_agent(nervousness=1.0)
    beliefs = _beliefs()
    percept = _percept(
        visible=[Sight(0, 5.0, 0.0, 0.0), Sight(1, 40.0, 0.0, 0.0)],
        votes={1: 9.0, 0: 1.0},
        total=10.0,
    )
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1
    # the same crowd has no pull on a calm agent
    assert choose_exit(one_agent(nervousness=0.0), ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 0


def test_fully_nervous_agent_without_a_crowd_signal_uses_its_own_judgement():
    agent = one_agent(nervousness=1.0)
    beliefs = _beliefs()
    # nobody to follow: every herd term is 0, so utility decides
    percept = _percept(visible=[Sight(0, 5.0, 0.0, 0.0), Sight(1, 4.0, 0.0, 0.0)])
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1
    # the crowd splits evenly between the two exits: utility decides again
    percept = _percept(
        visible=[Sight(0, 5.0, 0.0, 0.0), Sight(1, 4.0, 0.0, 0.0)],
        votes={0: 3.0, 1: 3.0},
        total=6.0,
    )
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1


def test_followed_neighbours_add_a_catch_up_penalty():
    agent = one_agent()
    beliefs = _beliefs()
    pen = PARAM_DEFAULTS["follow_penalty"]
    # the follow channel's only candidate loses to a visible exit that is
    # nearer than follow distance + penalty, and wins otherwise
    percept = _percept(
        visible=[Sight(0, 8.0 + pen + 1.0, 0.0, 0.0)], follow={1: 8.0}
    )
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1
    percept = _percept(
        visible=[Sight(0, 8.0 + pen - 1.0, 0.0, 0.0)], follow={1: 8.0}
    )
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 0


def test_familiar_exits_get_a_bonus_over_equal_strangers():
    agent = one_agent()
    beliefs = _beliefs()
    beliefs.familiar[0, 1] = beliefs.known[0, 1] = True  # familiar from the start
    percept = _percept(visible=[Sight(0, 5.0, 0.0, 0.0), Sight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1


def test_hazardous_route_is_penalised():
    agent = one_agent()
    beliefs = _beliefs()
    bad = 2 * PARAM_DEFAULTS["w_distance"] * 10.0 / 1.34 / PARAM_DEFAULTS["w_hazard"]
    percept = _percept(visible=[Sight(0, 5.0, 0.0, bad), Sight(1, 15.0, 0.0, 0.0)])
    assert choose_exit(agent, ROW, percept, beliefs, PARAM_DEFAULTS)[0] == 1


# -- the decision round -----------------------------------------------------------


def test_agent_with_nothing_to_go_on_is_lost():
    agent = one_agent(target=NO_TARGET)
    beliefs = _beliefs()
    rng = np.random.default_rng(0)
    decide(_view(agent), ROW, _percept(), beliefs, rng)
    assert agent.target[0] == NO_TARGET


def test_lost_agent_recovers_when_an_exit_appears():
    agent = one_agent(target=NO_TARGET)
    beliefs = _beliefs()
    rng = np.random.default_rng(0)
    world = _view(agent)
    decide(world, ROW, _percept(), beliefs, rng)
    assert agent.target[0] == NO_TARGET
    decide(world, ROW, _percept(visible=[Sight(0, 5.0, 0.0, 0.0)]), beliefs, rng)
    assert agent.target[0] == 0


def test_smoke_at_an_exit_marks_it_blocked_and_announces():
    agent = one_agent(target=1)
    beliefs = _beliefs()
    beliefs.known[0, 1] = True
    rng = np.random.default_rng(0)
    thick = PARAM_DEFAULTS["od_blocked"] + 0.5
    percept = _percept(
        visible=[
            Sight(1, 5.0, 0.0, 0.0, od_at_exit=thick),
            Sight(0, 9.0, 0.0, 0.0),
        ],
    )
    replanned, announce = decide(_view(agent), ROW, percept, beliefs, rng)
    assert beliefs.blocked[0, 1]
    assert announce[0].tolist() == [False, True, False]
    assert agent.target[0] == 0
    assert replanned[0]


def test_replanning_and_smoke_raise_nervousness():
    agent = one_agent(target=1, insistence=1.0)
    beliefs = _beliefs()
    rng = np.random.default_rng(0)
    thick = PARAM_DEFAULTS["od_blocked"] + 0.5
    percept = _percept(
        visible=[
            Sight(1, 5.0, 0.0, 0.0, od_at_exit=thick),
            Sight(0, 9.0, 0.0, 0.0),
        ],
        od=PARAM_DEFAULTS["od_nervous"] + 0.1,
    )
    decide(_view(agent), ROW, percept, beliefs, rng)
    want = PARAM_DEFAULTS["dn_replan"] + PARAM_DEFAULTS["dn_smoke"]
    assert math.isclose(agent.nervousness[0], want)


def test_experience_damps_nervousness_growth():
    veteran = one_agent(target=0, insistence=1.0, experience=1.0)
    rookie = one_agent(target=0, insistence=1.0, experience=0.0)
    rng = np.random.default_rng(0)
    percept = _percept(
        visible=[Sight(0, 5.0, 0.0, 0.0)], od=PARAM_DEFAULTS["od_nervous"] + 0.1
    )
    decide(_view(rookie), ROW, percept, _beliefs(), rng)
    decide(_view(veteran), ROW, percept, _beliefs(), rng)
    assert math.isclose(veteran.nervousness[0], rookie.nervousness[0] / 2)


def test_desired_speed_rises_with_nervousness_up_to_the_cap():
    rng = np.random.default_rng(0)
    calm, nervous = one_agent(insistence=1.0), one_agent(insistence=1.0, nervousness=1.0)
    percept = _percept(visible=[Sight(0, 5.0, 0.0, 0.0)])
    decide(_view(calm), ROW, percept, _beliefs(), rng)
    decide(_view(nervous), ROW, percept, _beliefs(), rng)
    assert math.isclose(calm.desired[0], 1.34)
    assert math.isclose(nervous.desired[0], 2.68)
    runner = one_agent(insistence=1.0, nervousness=1.0, speed_pref=6.0)
    percept = _percept(visible=[Sight(0, 5.0, 0.0, 0.0)], speed=_speed(runner))
    decide(_view(runner), ROW, percept, _beliefs(), rng)
    assert runner.desired[0] == PARAM_DEFAULTS["speed_cap"]


def test_full_insistence_never_replans_without_cause():
    agent = one_agent(target=0, insistence=1.0)
    beliefs = _beliefs()
    beliefs.known[0, 0] = True
    rng = np.random.default_rng(42)
    percept = _percept(visible=[Sight(0, 5.0, 0.0, 0.0), Sight(1, 4.0, 0.0, 0.0)])
    world = _view(agent)
    for _ in range(500):
        replanned, _ = decide(world, ROW, percept, beliefs, rng)
        assert agent.target[0] == 0
        assert not replanned[0]


def test_low_insistence_triggers_the_replan_lottery():
    agent = one_agent(target=0, insistence=0.1)
    beliefs = _beliefs()
    rng = np.random.default_rng(42)
    percept = _percept(visible=[Sight(0, 5.0, 0.0, 0.0), Sight(1, 4.0, 0.0, 0.0)])
    world = _view(agent)
    switched = 0
    for _ in range(100):
        agent.target[0] = 0
        decide(world, ROW, percept, beliefs, rng)
        if agent.target[0] == 1:
            switched += 1
    assert switched > 50  # the lottery fires ~90% of rounds here


def _crowd(k, rng):
    """k agents with random targets (some none), insistence, nervousness,
    experience and positions."""
    agents = [
        one_agent(
            target=int(rng.integers(-1, EXITS)),
            insistence=float(rng.uniform(0.0, 1.0)),
            nervousness=float(rng.uniform(0.0, 1.0)),
            experience=float(rng.uniform(0.0, 1.0)),
            pos=(float(rng.uniform(1.0, 9.0)), 1.0),
        )
        for _ in range(k)
    ]
    return Population(**{name: np.concatenate([getattr(a, name) for a in agents]) for name in vars(agents[0])})


def test_one_bulk_round_matches_one_row_rounds_in_id_order():
    k = 24
    setup = np.random.default_rng(3)
    pop = _crowd(k, setup)
    thick = PARAM_DEFAULTS["od_blocked"] + 0.5
    rows_percepts = []
    for r in range(k):
        distances = setup.uniform(2.0, 30.0, EXITS)
        if pop.target[r] >= 0:
            distances[pop.target[r]] = 60.0  # so a lottery that fires moves the agent
        smoky = setup.random(EXITS) < 0.2
        rows_percepts.append(
            _percept(
                visible=[Sight(z, distances[z], 0.0, 0.0, thick if smoky[z] else 0.0) for z in range(EXITS)],
                od=float(setup.uniform(0.0, 2.0 * PARAM_DEFAULTS["od_nervous"])),
                speed=float(setup.uniform(0.5, 1.5)),
            )
        )
    sensed = ("speed", "local_od", "visible", "distance", "hazard", "exit_od")
    percepts = Percepts(**{name: np.concatenate([vars(p)[name] for p in rows_percepts]) for name in sensed})
    rows = np.arange(k)
    geometry = _geometry()

    def copy(crowd):
        return Population(**{n: v.copy() for n, v in vars(crowd).items()})

    def start():
        """A copy of the crowd, and beliefs with a progress check due for every other row."""
        beliefs = _beliefs(k)
        beliefs.record_position(rows, 6.0, pop.pos)
        beliefs.next_check[::2] = 9.0
        return copy(pop), beliefs

    bulk_pop, bulk_beliefs = start()
    bulk_rng = np.random.default_rng(11)
    replanned, _ = decide(_view(bulk_pop, geometry, t=10.0), rows, percepts, bulk_beliefs, bulk_rng)

    one_pop, one_beliefs = start()
    one_rng = np.random.default_rng(11)
    one_replanned = []
    for r in range(k):
        # bulk and one-row rounds alike sense the herd of the crowd as it
        # stood before the round: each row decides in a copy of it and
        # keeps its own row
        before = copy(pop)
        rep, _ = decide(_view(before, geometry, t=10.0), rows[r : r + 1], percepts.take([r]), one_beliefs, one_rng)
        for name, column in vars(one_pop).items():
            column[r] = getattr(before, name)[r]
        one_replanned.append(rep[0])

    assert 0 < replanned.sum() < k  # the round mixes kept and changed plans
    assert (bulk_pop.insistence != pop.insistence).any()  # and stalled progress checks
    assert np.array_equal(bulk_pop.target, one_pop.target)
    assert np.array_equal(bulk_pop.insistence, one_pop.insistence)
    assert np.array_equal(bulk_pop.nervousness, one_pop.nervousness)
    assert np.array_equal(bulk_pop.desired, one_pop.desired)
    assert np.array_equal(replanned, np.array(one_replanned))
    assert bulk_rng.bit_generator.state == one_rng.bit_generator.state
    # one draw per row that had no reason to choose: a target, not seen blocked
    thick_target = np.array([r >= 0 and percepts.exit_od[row, r] > 0 for row, r in enumerate(pop.target)])
    lottery = np.random.default_rng(11)
    lottery.random(int(((pop.target != NO_TARGET) & ~thick_target).sum()))
    assert bulk_rng.bit_generator.state == lottery.bit_generator.state


# -- neighbours ------------------------------------------------------------------------


def _world(rows, pos, rng):
    """The people at ``pos`` in the room ``rows``: leaders of both ranks
    with spread-out collaboration, sight ranges on both sides of the
    congestion radius, and a mix of moving, waiting and exited people with
    assorted targets."""
    geometry = make_scenario(room_doc(rows, count=1, spawn=[1, 1, 1, 1])).geometry
    k = len(pos)
    pop = Population(**{name: np.repeat(value, k) for name, value in vars(one_agent()).items()})
    pop.pos = pos
    pop.vision = rng.uniform(2.0, 30.0, k)
    pop.role = rng.choice([0, 1, 2], size=k, p=[0.8, 0.1, 0.1])
    pop.collaboration = rng.uniform(0.0, 1.0, k)
    pop.status = rng.choice(
        [int(AgentStatus.MOVING), int(AgentStatus.PREMOVEMENT), int(AgentStatus.EXITED)], size=k, p=[0.7, 0.2, 0.1]
    ).astype(np.uint8)
    pop.target = rng.integers(-1, EXITS, size=k).astype(np.int32)
    return _view(pop, geometry, has_interior_blockers=True)


def _split_room_world(k, rng):
    """k people in a 20 m x 12 m room cut in two by a wall across its
    whole height, on both sides of it (see ``_world``)."""
    rows = grid_rows(40, 24, exits=[(0, 6), (39, 6)], walls=[(20, y) for y in range(1, 23)])
    west = rng.random(k) < 0.5
    pos = np.column_stack(
        [np.where(west, rng.uniform(0.6, 9.9, k), rng.uniform(10.6, 19.4, k)), rng.uniform(0.6, 11.4, k)]
    )
    return _world(rows, pos, rng)


def _pillared_room_world(k, rng):
    """k people on the open cells of a 20 m x 12 m room with a lattice of
    one-cell pillars, so sight lines of every slope graze or hit one."""
    pillars = [(x, y) for x in range(3, 38, 4) for y in range(3, 22, 4)]
    return _scattered_world(grid_rows(40, 24, exits=[(0, 6), (39, 6)], obstacles=pillars), k, rng)


def _scattered_world(rows, k, rng):
    """k people on the open cells of the room ``rows`` (see ``_world``)."""
    geometry = make_scenario(room_doc(rows, count=1, spawn=[1, 1, 1, 1])).geometry
    free = np.argwhere(geometry.open_mask & (geometry.zone_grid < 0))[:, ::-1]
    cells = free[rng.integers(0, len(free), k)]
    return _world(rows, (cells + rng.uniform(0.05, 0.95, (k, 2))) * geometry.cell_size, rng)


def _in_sight(world, i, j, radius):
    """Whether agent i sees agent j within ``radius``, one pair at a time."""
    pos, cs = world.pop.pos, world.geometry.cell_size
    dx = float(pos[j, 0]) - float(pos[i, 0])
    dy = float(pos[j, 1]) - float(pos[i, 1])
    if dx * dx + dy * dy > radius * radius:
        return False
    a = [math.floor(pos[i, 0] / cs), math.floor(pos[i, 1] / cs)]
    b = [math.floor(pos[j, 0] / cs), math.floor(pos[j, 1] / cs)]
    return bool(los_pairs(world.geometry.blocked_mask, np.array([a]), np.array([b]))[0])


def _present(pop):
    return [j for j in range(len(pop)) if pop.status[j] in (AgentStatus.PREMOVEMENT, AgentStatus.MOVING)]


def _neighbour_stats_one_pair_at_a_time(world, deciders):
    """Reference: each decider against every person in the building, in
    (decider, ascending seen id) order, in plain float arithmetic."""
    pop = world.pop
    r_cap = float(world.params["congestion_radius"])
    n = len(deciders)
    votes, totals = np.zeros((n, EXITS)), np.zeros(n)
    congestion, follow = np.zeros((n, EXITS), dtype=np.int64), np.full((n, EXITS), np.inf)
    for r, i in enumerate(deciders.tolist()):
        rank = pop.role[i] if pop.role[i] > 0 else math.inf
        for j in _present(pop):
            if j == i or not _in_sight(world, i, j, min(float(pop.vision[i]), r_cap)):
                continue
            weight = 1.0 + float(pop.collaboration[i]) if 0 < pop.role[j] < rank else 1.0
            totals[r] += weight
            z = int(pop.target[j])
            if pop.status[j] == AgentStatus.MOVING and z >= 0:
                votes[r, z] += weight
                congestion[r, z] += 1
                d = pop.pos[j] - pop.pos[i]
                follow[r, z] = min(follow[r, z], math.sqrt(float(d[0]) * float(d[0]) + float(d[1]) * float(d[1])))
    return votes, totals, congestion, follow


def _assert_same_stats(world, rows):
    """``_neighbour_stats`` of ``rows`` equals the one-pair reference with
    ``PAIR_BLOCK`` holding one observer, three, or as shipped; returns the
    stats."""
    want = _neighbour_stats_one_pair_at_a_time(world, rows)
    for block in (1, 3 * len(world.pop.inside()), agents_module.PAIR_BLOCK):
        with mock.patch.object(agents_module, "PAIR_BLOCK", block):
            got = _neighbour_stats(world, rows, np.ones(len(rows), dtype=bool))
        for name, g, w in zip(("votes", "totals", "congestion", "follow"), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (name, block)
    return got


@pytest.mark.parametrize(
    "deciders, room",
    [
        pytest.param("everyone", _split_room_world, id="everyone"),
        pytest.param("two", _split_room_world, id="two"),
        pytest.param("everyone", _pillared_room_world, id="everyone-pillars"),
        pytest.param("two", _pillared_room_world, id="two-pillars"),
    ],
)
def test_neighbour_stats_match_one_pair_at_a_time_exactly(deciders, room):
    world = room(120, np.random.default_rng(5))
    everyone = np.array(_present(world.pop))
    rows = everyone if deciders == "everyone" else everyone[[3, 40]]
    got = _assert_same_stats(world, rows)
    # the rows reach every filter: leader weights, sight short of the
    # congestion radius, and a blocked cell between people close enough to count
    pop = world.pop
    assert (got[1] != np.floor(got[1])).any()
    d = np.linalg.norm(pop.pos[rows][:, None] - pop.pos[everyone][None], axis=2)
    near = d <= PARAM_DEFAULTS["congestion_radius"]
    assert (near & (d > pop.vision[rows][:, None])).any()
    assert any(not _in_sight(world, int(rows[r]), int(everyone[c]), math.inf) for r, c in zip(*np.nonzero(near)))


def test_neighbour_stats_with_few_leaders_match_one_pair_at_a_time_exactly():
    # a round where only some rows see a leader, so pairs of rows that do
    # and rows that do not are summed in one pass, and one row sees nobody
    world = _pillared_room_world(120, np.random.default_rng(12))
    pop = world.pop
    everyone = np.array(_present(pop))
    pop.role[:] = 0
    pop.role[everyone[[5, 50, 90]]] = [1, 2, 1]
    pop.vision[everyone[7]] = 0.0
    got = _assert_same_stats(world, everyone)
    totals = got[1]
    whole = totals == np.floor(totals)
    assert (~whole).any() and (whole & (totals > 0)).any()
    assert totals[7] == 0 and np.isinf(got[3][7]).all()
    d = np.linalg.norm(pop.pos[everyone][:, None] - pop.pos[everyone][None], axis=2)
    near = (d <= PARAM_DEFAULTS["congestion_radius"]) & (d > 0)
    assert any(not _in_sight(world, int(everyone[r]), int(everyone[c]), math.inf) for r, c in zip(*np.nonzero(near)))


def test_neighbour_stats_of_observers_outside_the_building_match_one_pair_at_a_time_exactly():
    # an observer who has left leaves out only itself: each stands on the
    # spot of the person in the building whose id follows its own, and the
    # one with the highest id sorts past everyone in the building
    world = _split_room_world(120, np.random.default_rng(13))
    pop = world.pop
    outside = np.array([40, len(pop) - 1])
    pop.status[outside] = int(AgentStatus.EXITED)
    everyone = np.array(_present(pop))
    follower = everyone[np.minimum(np.searchsorted(everyone, outside), len(everyone) - 1)]
    pop.pos[outside] = pop.pos[follower]
    pop.vision[outside] = 5.0
    got = _assert_same_stats(world, np.concatenate([everyone[:20], outside]))
    assert (got[1][-2:] >= 1).all()


def test_inform_neighbors_reaches_the_people_in_sight():
    world = _split_room_world(120, np.random.default_rng(6))
    pop = world.pop
    everyone = _present(pop)
    rng, reference = np.random.default_rng(9), np.random.default_rng(9)
    beliefs = init_beliefs(np.zeros(len(pop)), EXITS, np.random.default_rng(0), 10.0, 1.0)
    heard = 0
    for i in everyone[::7]:
        delivered = inform_neighbors(np.array([i]), np.array([[False, True, False]]), world, beliefs, rng)
        assert (delivered[:, 0] == i).all()
        got = delivered[:, 1].tolist()
        seen = [j for j in everyone if j != i and _in_sight(world, i, j, float(pop.vision[i]))]
        want = np.array(seen, dtype=np.int64)[reference.random(len(seen)) < float(pop.collaboration[i])].tolist()
        assert got == want
        assert beliefs.blocked[got, 1].all() and beliefs.known[got, 1].all()
        heard += len(got)
    assert heard > 0
    assert rng.bit_generator.state == reference.bit_generator.state


def _inform_one_sender_at_a_time(senders, exits, world, beliefs, rng):
    """Reference: each sender in turn tells the people in the building it
    sees (distance in plain float arithmetic, then the sender's own sight
    lines), one draw per neighbour in ascending id order.  Returns the
    (sender, receiver) rows."""
    pop = world.pop
    cells = world.geometry.cells_of(pop.pos)
    xs, ys, present = pop.pos[:, 0].tolist(), pop.pos[:, 1].tolist(), _present(pop)
    delivered = []
    for i, flags in zip(senders.tolist(), exits):
        r2 = float(pop.vision[i]) * float(pop.vision[i])
        seen = [
            j for j in present if j != i and (xs[j] - xs[i]) * (xs[j] - xs[i]) + (ys[j] - ys[i]) * (ys[j] - ys[i]) <= r2
        ]
        if seen and world.has_interior_blockers:
            clear = los_pairs(world.geometry.blocked_mask, cells[[i] * len(seen)], cells[seen])
            seen = [j for j, c in zip(seen, clear.tolist()) if c]
        receivers = np.array(seen, dtype=np.int64)[rng.random(len(seen)) < float(pop.collaboration[i])]
        heard = np.ix_(receivers, np.flatnonzero(flags))
        beliefs.blocked[heard] = True
        beliefs.known[heard] = True
        delivered += [[i, j] for j in receivers.tolist()]
    return delivered


def _assert_same_delivery(world, senders, exits, seed):
    """The batched call and the one-sender reference, from the same beliefs
    and stream, deliver the same rows, set the same bits and leave the
    stream in the same place; returns the rows."""
    sides = []
    for call in (inform_neighbors, _inform_one_sender_at_a_time):
        rng = np.random.default_rng(seed)
        beliefs = init_beliefs(np.full(len(world.pop), 0.3), EXITS, np.random.default_rng(seed), 10.0, 1.0)
        beliefs.blocked[::5] = beliefs.known[::5]
        sides.append((np.asarray(call(senders, exits, world, beliefs, rng)).tolist(), beliefs, rng))
    (got, beliefs, rng), (want, ref_beliefs, reference) = sides
    assert got == want
    assert np.array_equal(beliefs.blocked, ref_beliefs.blocked)
    assert np.array_equal(beliefs.known, ref_beliefs.known)
    assert rng.bit_generator.state == reference.bit_generator.state
    return got


@settings(max_examples=25, derandomize=True, deadline=None)
@given(doc=drills(), data=st.data())
def test_batched_messages_match_one_sender_at_a_time_exactly(doc, data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    world = _scattered_world(doc["geometry"]["cells"], data.draw(st.integers(2, 40), label="people"), rng)
    everyone = np.array(_present(world.pop), dtype=np.int64)
    speaks = data.draw(st.lists(st.booleans(), min_size=len(everyone), max_size=len(everyone)), label="senders")
    senders = everyone[np.array(speaks, dtype=bool)]
    exits = rng.random((len(senders), EXITS)) < 0.5
    exits[np.arange(len(senders)), rng.integers(0, EXITS, len(senders))] = True
    block = data.draw(st.sampled_from([1, 3 * len(everyone), agents_module.PAIR_BLOCK]), label="block")
    with mock.patch.object(agents_module, "PAIR_BLOCK", block):
        _assert_same_delivery(world, senders, exits, seed)


def test_a_round_of_many_senders_matches_one_sender_at_a_time_exactly():
    # more senders than one block holds, and a receiver told of the same
    # exit by more than 255 of them
    rows = grid_rows(40, 24, exits=[(0, 6), (39, 6)], obstacles=[(x, y) for x in (34, 36) for y in (18, 20)])
    world = _scattered_world(rows, 320, np.random.default_rng(14))
    pop = world.pop
    pop.status[:] = int(AgentStatus.MOVING)
    pop.vision[:] = 30.0
    pop.collaboration = np.random.default_rng(15).uniform(0.9, 1.0, len(pop))
    senders = np.arange(len(pop))
    exits = np.zeros((len(senders), EXITS), dtype=bool)
    exits[:, 1] = True
    exits[::4, 2] = True
    assert len(senders) > agents_module.PAIR_BLOCK // len(pop.inside())
    rows = np.array(_assert_same_delivery(world, senders, exits, 16))
    assert np.bincount(rows[:, 1]).max() > 255


@settings(max_examples=25, derandomize=True, deadline=None)
@given(doc=drills(), data=st.data())
def test_neighbour_stats_of_any_rows_are_those_rows_of_everyones(doc, data):
    # what decide relies on to sense the herd only for the rows that
    # re-choose, and follow distances only for the rows that read them
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    world = _scattered_world(doc["geometry"]["cells"], data.draw(st.integers(2, 40), label="people"), np.random.default_rng(seed))
    everyone = np.array(_present(world.pop), dtype=np.int64)
    mask = data.draw(st.lists(st.booleans(), min_size=len(everyone), max_size=len(everyone)), label="rows")
    follows = np.array(data.draw(st.lists(st.booleans(), min_size=len(everyone), max_size=len(everyone)), label="follow"), dtype=bool)
    full = _neighbour_stats(world, everyone, np.ones(len(everyone), dtype=bool))
    for pick in (np.flatnonzero(mask), np.zeros(0, dtype=np.int64)):
        got = _neighbour_stats(world, everyone[pick], follows[pick])
        want = _neighbour_stats_one_pair_at_a_time(world, everyone[pick])
        for name, g, f, w in zip(("votes", "totals", "congestion"), got, full, want):
            assert g.dtype == f.dtype and np.array_equal(g, f[pick]), name
            assert np.array_equal(g, w), name
        follow = got[3]
        assert follow.dtype == full[3].dtype
        assert np.array_equal(follow[follows[pick]], full[3][pick][follows[pick]])
        assert np.array_equal(follow[follows[pick]], want[3][follows[pick]])
        assert np.isinf(follow[~follows[pick]]).all()


def test_a_round_where_nobody_rechooses_senses_no_neighbour():
    world = _split_room_world(120, np.random.default_rng(7))
    pop = world.pop
    rows = np.flatnonzero(pop.status == AgentStatus.MOVING)
    pop.target[rows] = rows % EXITS
    pop.insistence[:] = 1.0
    beliefs = init_beliefs(np.zeros(len(pop)), EXITS, np.random.default_rng(0), 10.0, 1.0)
    percepts = build_percepts(world, rows)
    asked = []
    sight = world.in_sight
    world.in_sight = lambda observers, radius: asked.append(observers.copy()) or sight(observers, radius)
    replanned, _ = decide(world, rows, percepts, beliefs, np.random.default_rng(1))
    assert not asked
    assert not replanned.any() and np.array_equal(pop.target[rows], rows % EXITS)


def test_decide_senses_the_herd_of_exactly_the_rows_that_rechoose():
    world = _split_room_world(120, np.random.default_rng(8))
    pop = world.pop
    rows = np.flatnonzero(pop.status == AgentStatus.MOVING)
    # keeps its plan, has none, believes its target blocked, loses the lottery
    kind = np.arange(len(rows)) % 4
    pop.target[rows] = np.where(kind == 1, NO_TARGET, rows % EXITS)
    pop.insistence[rows] = np.where(kind == 3, 0.0, 1.0)
    beliefs = init_beliefs(np.zeros(len(pop)), EXITS, np.random.default_rng(0), 10.0, 1.0)
    beliefs.blocked[rows[kind == 2], pop.target[rows[kind == 2]]] = True
    percepts = build_percepts(world, rows)
    chosen = np.flatnonzero(kind > 0)
    # with no exit in sight or known, each choice follows the herd: from one
    # query of every row
    votes, totals, congestion, follow = (s[chosen] for s in _neighbour_stats(world, rows, np.ones(len(rows), dtype=bool)))
    herd = replace(percepts.take(chosen), votes=votes, totals=totals, congestion=congestion, follow=follow)
    want = choose_exit(pop, rows[chosen], herd, beliefs, PARAM_DEFAULTS)
    assert (want != NO_TARGET).any() and (want != pop.target[rows[chosen]]).any()

    asked = []
    sight = world.in_sight
    world.in_sight = lambda observers, radius: asked.append(observers.copy()) or sight(observers, radius)
    decide(world, rows, percepts, beliefs, np.random.default_rng(1))
    assert len(asked) == 1 and np.array_equal(asked[0], rows[chosen])
    assert np.array_equal(pop.target[rows[chosen]], want)


def test_decide_reads_follow_distances_only_where_choose_exit_does():
    world = _split_room_world(120, np.random.default_rng(17))
    pop = world.pop
    rows = np.flatnonzero(pop.status == AgentStatus.MOVING)
    # every row re-chooses, with no exit in sight and every exit walkable;
    # a row knows all of them, only exit 0, or none
    kind = np.arange(len(rows)) % 3
    pop.insistence[rows] = 0.0  # a row with a target loses the replan lottery
    beliefs = init_beliefs(np.zeros(len(pop)), EXITS, np.random.default_rng(0), 10.0, 1.0)
    beliefs.known[rows[kind == 0]] = True
    beliefs.known[rows[kind == 1], 0] = True
    distance = np.random.default_rng(18).uniform(5.0, 30.0, (len(rows), EXITS))
    percepts = replace(build_percepts(world, rows), visible=np.zeros((len(rows), EXITS), dtype=bool), distance=distance)
    stats = _neighbour_stats(world, rows, np.ones(len(rows), dtype=bool))
    herd = replace(percepts, **dict(zip(("votes", "totals", "congestion", "follow"), stats)))
    want = choose_exit(pop, rows, herd, beliefs, PARAM_DEFAULTS)
    # the follow distances sway rows that know only exit 0 and rows that
    # know none; rows that know every exit have some too, but never read them
    blind = choose_exit(pop, rows, replace(herd, follow=np.full_like(herd.follow, np.inf)), beliefs, PARAM_DEFAULTS)
    assert (blind != want)[kind == 1].any() and (blind != want)[kind == 2].any()
    assert np.isfinite(stats[3][kind == 0]).any()

    decide(world, rows, percepts, beliefs, np.random.default_rng(1))
    assert np.array_equal(pop.target[rows], want)


# -- sight-line hazard ---------------------------------------------------------------


def _hazard_along_one_line(od, temp, tox, start, stop, max_cells, params):
    """Reference: one sight line at a time, through math.hypot and np.linspace."""
    fx, fy = start
    tx, ty = stop
    dx, dy = tx - fx, ty - fy
    length = math.hypot(dx, dy)
    if length > max_cells > 0:
        scale = max_cells / length
        tx, ty = fx + dx * scale, fy + dy * scale
    height, width = od.shape
    xs = np.clip(np.linspace(fx, tx, 8).astype(np.int64), 0, width - 1)
    ys = np.clip(np.linspace(fy, ty, 8).astype(np.int64), 0, height - 1)
    heat = np.maximum(0.0, temp[ys, xs] - float(params["temp_crit"])) / float(params["temp_scale"])
    return float(np.mean(od[ys, xs] + heat + tox[ys, xs]))


def test_sight_line_hazard_matches_one_line_at_a_time_exactly():
    rng = np.random.default_rng(8)
    height, width = 40, 60
    od = rng.uniform(0.0, 3.0, (height, width))
    temp = rng.uniform(20.0, 120.0, (height, width))
    tox = rng.uniform(0.0, 0.01, (height, width))
    lines = 3000
    start = rng.integers(0, [width, height], size=(lines, 2))
    stop = rng.integers(0, [width, height], size=(lines, 2))
    stop[:300, 0] = start[:300, 0]        # vertical
    stop[300:600, 1] = start[300:600, 1]  # horizontal
    stop[600:650] = start[600:650]        # zero length
    max_cells = rng.uniform(0.0, 40.0, lines)  # many lines clipped at the sight range
    max_cells[650:700] = 0.0
    air = np.empty((3, height, width))
    air[OD], air[TEMP], air[TOX] = od, temp, tox
    got = sight_line_hazard(air, start, stop, max_cells, PARAM_DEFAULTS)
    want = [
        _hazard_along_one_line(od, temp, tox, start[i], stop[i], max_cells[i], PARAM_DEFAULTS) for i in range(lines)
    ]
    length = np.hypot(*(stop - start).T)
    assert (length > max_cells).sum() > 1000
    assert got.tolist() == want


# -- insistence decay --------------------------------------------------------------


def test_insistence_decays_only_when_progress_stalls():
    window = PARAM_DEFAULTS["progress_window"]
    stuck = one_agent()
    beliefs = _beliefs()
    beliefs.record_position(ROW, 0.0, np.array([[1.0, 1.0]]))
    beliefs.record_position(ROW, window, np.array([[1.05, 1.0]]))
    update_insistence(stuck, ROW, np.array([1.34]), beliefs, window, PARAM_DEFAULTS)
    assert math.isclose(stuck.insistence[0], 0.8 * PARAM_DEFAULTS["insistence_decay"])

    walker = one_agent()
    beliefs = _beliefs()
    beliefs.record_position(ROW, 0.0, np.array([[1.0, 1.0]]))
    beliefs.record_position(ROW, window, np.array([[1.0 + 1.34 * window, 1.0]]))
    update_insistence(walker, ROW, np.array([1.34]), beliefs, window, PARAM_DEFAULTS)
    assert walker.insistence[0] == 0.8


def test_insistence_never_falls_below_the_floor():
    agent = one_agent(insistence=PARAM_DEFAULTS["insistence_floor"] * 1.01)
    beliefs = _beliefs()
    window = PARAM_DEFAULTS["progress_window"]
    for k in range(20):
        beliefs.record_position(ROW, k * window, np.array([[1.0, 1.0]]))
        update_insistence(agent, ROW, np.array([1.34]), beliefs, window, PARAM_DEFAULTS)
    assert agent.insistence[0] == PARAM_DEFAULTS["insistence_floor"]
