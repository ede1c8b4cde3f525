"""Population sampling, speed contracts, and the decision loop."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evacsim import SchemaViolation, SemanticViolation
from evacsim.agents import (
    NO_TARGET,
    BeliefStore,
    ExitSight,
    Percept,
    choose_exit,
    decide,
    effective_speed,
    spawn_population,
    update_insistence,
)
from evacsim.config import PARAM_DEFAULTS
from evacsim.hazard import HazardSample
from evacsim.rng import RngStreams
from evacsim.scenario import DistSpec, PopulationSpec

from conftest import grid_rows, make_scenario, one_agent, room_doc


def _speed(agent):
    """The one agent's walking speed, as a decision round is handed it."""
    return float(effective_speed(agent.health, agent.mobility, agent.speed_pref, PARAM_DEFAULTS)[0])


def _percept(visible=(), votes=None, total=0.0, congestion=None, follow=None, od=0.0, t=0.0, speed=1.34):
    """A percept handed the default one_agent's walking speed unless told otherwise."""
    return Percept(
        t=t,
        local_hazard=HazardSample(20.0, od, 0.0),
        speed=speed,
        visible_exits=list(visible),
        herd_votes=votes or {},
        herd_total=total,
        congestion_by_exit=congestion or {},
        follow_distance=follow or {},
    )


def _geometry(width=10, height=8):
    rows = grid_rows(width, height, exits=[(width - 1, height // 2)])
    return make_scenario(room_doc(rows, count=1, spawn=[1, 1, 1, 1])).geometry


# -- population sampling ---------------------------------------------------------


def test_spawn_positions_fall_inside_the_rect():
    geo = _geometry(14, 10)
    spec = PopulationSpec(count=20, spawn_rect=(2, 2, 6, 5), spawn_node=None, attributes={})
    pop = spawn_population(spec, geo, RngStreams(1))
    assert len(pop) == 20
    x, y = pop.pos[:, 0], pop.pos[:, 1]
    assert ((2 * 0.5 <= x) & (x <= 7 * 0.5)).all()
    assert ((2 * 0.5 <= y) & (y <= 6 * 0.5)).all()


def test_spawn_is_deterministic_per_seed():
    geo = _geometry()
    spec = PopulationSpec(count=8, spawn_rect=(1, 1, 8, 6), spawn_node=None, attributes={})
    a = spawn_population(spec, geo, RngStreams(7))
    b = spawn_population(spec, geo, RngStreams(7))
    c = spawn_population(spec, geo, RngStreams(8))
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.reaction_time, b.reaction_time)
    assert not np.array_equal(a.pos, c.pos)


def test_ca_spawn_gives_every_agent_its_own_cell():
    geo = _geometry(14, 10)
    spec = PopulationSpec(count=30, spawn_rect=(1, 1, 12, 8), spawn_node=None, attributes={})
    pop = spawn_population(spec, geo, RngStreams(3), backend="ca")
    cells = {(int(x / 0.5), int(y / 0.5)) for x, y in pop.pos}
    assert len(cells) == 30


def test_reaction_times_are_clamped_to_the_valid_band():
    geo = _geometry(42, 22)
    spec = PopulationSpec(count=400, spawn_rect=(1, 1, 40, 20), spawn_node=None, attributes={})
    times = spawn_population(spec, geo, RngStreams(11)).reaction_time
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
    assert (spawn_population(spec, geo, RngStreams(0)).nervousness == 0.5).all()


def test_uniform_attribute_respects_bounds():
    geo = _geometry(42, 22)
    spec = PopulationSpec(
        count=200,
        spawn_rect=(1, 1, 40, 20),
        spawn_node=None,
        attributes={"age": DistSpec(kind="uniform", value=None, lo=20, hi=60, values=None, weights=None)},
    )
    ages = spawn_population(spec, geo, RngStreams(5)).age
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
    mob = set(spawn_population(spec, geo, RngStreams(2)).mobility.tolist())
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
        spawn_population(spec, geo, RngStreams(0))


def test_fractional_attributes_are_clamped_to_unit_range():
    geo = _geometry()
    spec = PopulationSpec(
        count=10,
        spawn_rect=(1, 1, 8, 6),
        spawn_node=None,
        attributes={"health": DistSpec(kind="constant", value=2.5, lo=None, hi=None, values=None, weights=None)},
    )
    assert (spawn_population(spec, geo, RngStreams(0)).health == 1.0).all()


def test_sampled_fractional_attributes_are_clamped_too():
    geo = _geometry(42, 22)
    spec = PopulationSpec(
        count=200,
        spawn_rect=(1, 1, 40, 20),
        spawn_node=None,
        attributes={"nervousness": DistSpec(kind="uniform", value=None, lo=-0.5, hi=1.5, values=None, weights=None)},
    )
    nervousness = spawn_population(spec, geo, RngStreams(4)).nervousness
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
        spawn_population(spec, geo, RngStreams(0))
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
    beliefs = BeliefStore()
    percept = _percept(visible=[ExitSight(0, 20.0, 0.0, 0.0), ExitSight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, 0, percept, beliefs) == 1


def test_congestion_pushes_agents_to_the_farther_door():
    agent = one_agent()
    beliefs = BeliefStore()
    heavy = 2 * PARAM_DEFAULTS["w_distance"] * 10.0 / 1.34 / PARAM_DEFAULTS["w_congestion"]
    percept = _percept(
        visible=[ExitSight(0, 5.0, heavy, 0.0), ExitSight(1, 15.0, 0.0, 0.0)]
    )
    assert choose_exit(agent, 0, percept, beliefs) == 1


def test_blocked_exits_are_never_chosen():
    agent = one_agent()
    beliefs = BeliefStore()
    beliefs.block_exit(1, 0.0)
    percept = _percept(visible=[ExitSight(0, 20.0, 0.0, 0.0), ExitSight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, 0, percept, beliefs) == 0
    beliefs.block_exit(0, 0.0)
    assert choose_exit(agent, 0, percept, beliefs) is None


def test_ties_break_on_the_smallest_exit_id():
    agent = one_agent()
    beliefs = BeliefStore()
    percept = _percept(visible=[ExitSight(2, 5.0, 0.0, 0.0), ExitSight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, 0, percept, beliefs) == 1


def test_fully_nervous_agent_follows_the_crowd():
    agent = one_agent(nervousness=1.0)
    beliefs = BeliefStore()
    percept = _percept(
        visible=[ExitSight(0, 5.0, 0.0, 0.0), ExitSight(1, 40.0, 0.0, 0.0)],
        votes={1: 9.0, 0: 1.0},
        total=10.0,
    )
    assert choose_exit(agent, 0, percept, beliefs) == 1
    # the same crowd has no pull on a calm agent
    assert choose_exit(one_agent(nervousness=0.0), 0, percept, beliefs) == 0


def test_fully_nervous_agent_without_a_crowd_signal_uses_its_own_judgement():
    agent = one_agent(nervousness=1.0)
    beliefs = BeliefStore()
    # nobody to follow: every herd term is 0, so utility decides
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0), ExitSight(1, 4.0, 0.0, 0.0)])
    assert choose_exit(agent, 0, percept, beliefs) == 1
    # the crowd splits evenly between the two exits: utility decides again
    percept = _percept(
        visible=[ExitSight(0, 5.0, 0.0, 0.0), ExitSight(1, 4.0, 0.0, 0.0)],
        votes={0: 3.0, 1: 3.0},
        total=6.0,
    )
    assert choose_exit(agent, 0, percept, beliefs) == 1


def test_followed_neighbours_add_a_catch_up_penalty():
    agent = one_agent()
    beliefs = BeliefStore()
    pen = PARAM_DEFAULTS["follow_penalty"]
    # the follow channel's only candidate loses to a visible exit that is
    # nearer than follow distance + penalty, and wins otherwise
    percept = _percept(
        visible=[ExitSight(0, 8.0 + pen + 1.0, 0.0, 0.0)], follow={1: 8.0}
    )
    assert choose_exit(agent, 0, percept, beliefs) == 1
    percept = _percept(
        visible=[ExitSight(0, 8.0 + pen - 1.0, 0.0, 0.0)], follow={1: 8.0}
    )
    assert choose_exit(agent, 0, percept, beliefs) == 0


def test_familiar_exits_get_a_bonus_over_equal_strangers():
    agent = one_agent()
    beliefs = BeliefStore()
    beliefs.known[1] = True  # familiar from the start
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0), ExitSight(1, 5.0, 0.0, 0.0)])
    assert choose_exit(agent, 0, percept, beliefs) == 1


def test_hazardous_route_is_penalised():
    agent = one_agent()
    beliefs = BeliefStore()
    bad = 2 * PARAM_DEFAULTS["w_distance"] * 10.0 / 1.34 / PARAM_DEFAULTS["w_hazard"]
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, bad), ExitSight(1, 15.0, 0.0, 0.0)])
    assert choose_exit(agent, 0, percept, beliefs) == 1


# -- the decision round -----------------------------------------------------------


def test_agent_with_nothing_to_go_on_is_lost():
    agent = one_agent(target=NO_TARGET)
    beliefs = BeliefStore()
    rng = np.random.default_rng(0)
    intention = decide(agent, 0, _percept(), beliefs, rng)
    assert intention.target_exit == NO_TARGET
    assert beliefs.lost


def test_lost_agent_recovers_when_an_exit_appears():
    agent = one_agent(target=NO_TARGET)
    beliefs = BeliefStore()
    rng = np.random.default_rng(0)
    decide(agent, 0, _percept(), beliefs, rng)
    intention = decide(agent, 0, _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0)]), beliefs, rng)
    assert intention.target_exit == 0
    assert agent.target[0] == 0


def test_smoke_at_an_exit_marks_it_blocked_and_announces():
    agent = one_agent(target=1)
    beliefs = BeliefStore()
    beliefs.learn_exit(1)
    rng = np.random.default_rng(0)
    thick = PARAM_DEFAULTS["od_blocked"] + 0.5
    percept = _percept(
        visible=[
            ExitSight(1, 5.0, 0.0, 0.0, od_at_exit=thick),
            ExitSight(0, 9.0, 0.0, 0.0),
        ]
    )
    intention = decide(agent, 0, percept, beliefs, rng)
    assert 1 in beliefs.blocked
    assert ("exit_blocked", 1, 0.0) in intention.announce
    assert intention.target_exit == 0
    assert intention.replanned


def test_replanning_and_smoke_raise_nervousness():
    agent = one_agent(target=1, insistence=1.0)
    beliefs = BeliefStore()
    rng = np.random.default_rng(0)
    thick = PARAM_DEFAULTS["od_blocked"] + 0.5
    percept = _percept(
        visible=[
            ExitSight(1, 5.0, 0.0, 0.0, od_at_exit=thick),
            ExitSight(0, 9.0, 0.0, 0.0),
        ],
        od=PARAM_DEFAULTS["od_nervous"] + 0.1,
    )
    decide(agent, 0, percept, beliefs, rng)
    want = PARAM_DEFAULTS["dn_replan"] + PARAM_DEFAULTS["dn_smoke"]
    assert math.isclose(agent.nervousness[0], want)


def test_experience_damps_nervousness_growth():
    veteran = one_agent(target=0, insistence=1.0, experience=1.0)
    rookie = one_agent(target=0, insistence=1.0, experience=0.0)
    rng = np.random.default_rng(0)
    percept = _percept(
        visible=[ExitSight(0, 5.0, 0.0, 0.0)], od=PARAM_DEFAULTS["od_nervous"] + 0.1
    )
    decide(rookie, 0, percept, BeliefStore(), rng)
    decide(veteran, 0, percept, BeliefStore(), rng)
    assert math.isclose(veteran.nervousness[0], rookie.nervousness[0] / 2)


def test_desired_speed_rises_with_nervousness_up_to_the_cap():
    rng = np.random.default_rng(0)
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0)])
    calm = decide(one_agent(insistence=1.0), 0, percept, BeliefStore(), rng)
    nervous = decide(one_agent(insistence=1.0, nervousness=1.0), 0, percept, BeliefStore(), rng)
    assert math.isclose(calm.desired_speed, 1.34)
    assert math.isclose(nervous.desired_speed, 2.68)
    runner = one_agent(insistence=1.0, nervousness=1.0, speed_pref=6.0)
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0)], speed=_speed(runner))
    fast = decide(runner, 0, percept, BeliefStore(), rng)
    assert fast.desired_speed == PARAM_DEFAULTS["speed_cap"]


def test_full_insistence_never_replans_without_cause():
    agent = one_agent(target=0, insistence=1.0)
    beliefs = BeliefStore()
    beliefs.learn_exit(0)
    rng = np.random.default_rng(42)
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0), ExitSight(1, 4.0, 0.0, 0.0)])
    for _ in range(500):
        intention = decide(agent, 0, percept, beliefs, rng)
        assert intention.target_exit == 0
        assert not intention.replanned


def test_low_insistence_triggers_the_replan_lottery():
    agent = one_agent(target=0, insistence=0.1)
    beliefs = BeliefStore()
    rng = np.random.default_rng(42)
    percept = _percept(visible=[ExitSight(0, 5.0, 0.0, 0.0), ExitSight(1, 4.0, 0.0, 0.0)])
    switched = 0
    for _ in range(100):
        agent.target[0] = 0
        intention = decide(agent, 0, percept, beliefs, rng)
        if intention.target_exit == 1:
            switched += 1
    assert switched > 50  # the lottery fires ~90% of rounds here


# -- insistence decay --------------------------------------------------------------


def test_insistence_decays_only_when_progress_stalls():
    window = PARAM_DEFAULTS["progress_window"]
    stuck = one_agent()
    beliefs = BeliefStore()
    beliefs.record_position(0.0, (1.0, 1.0), window)
    beliefs.record_position(window, (1.05, 1.0), window)
    update_insistence(stuck, 0, 1.34, beliefs, window)
    assert math.isclose(stuck.insistence[0], 0.8 * PARAM_DEFAULTS["insistence_decay"])

    walker = one_agent()
    beliefs = BeliefStore()
    beliefs.record_position(0.0, (1.0, 1.0), window)
    beliefs.record_position(window, (1.0 + 1.34 * window, 1.0), window)
    update_insistence(walker, 0, 1.34, beliefs, window)
    assert walker.insistence[0] == 0.8


def test_insistence_never_falls_below_the_floor():
    agent = one_agent(insistence=PARAM_DEFAULTS["insistence_floor"] * 1.01)
    beliefs = BeliefStore()
    window = PARAM_DEFAULTS["progress_window"]
    for k in range(20):
        beliefs.record_position(k * window, (1.0, 1.0), window)
        update_insistence(agent, 0, 1.34, beliefs, window)
    assert agent.insistence[0] == PARAM_DEFAULTS["insistence_floor"]
