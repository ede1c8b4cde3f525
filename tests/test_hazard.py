"""Hazard CSV ingestion, interpolation, smoke generation, and health."""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from evacsim import HazardFormatError, parse_scenario, run
from evacsim.config import PARAM_DEFAULTS
from evacsim.engine import _Simulation, load_hazard_field
from evacsim.hazard import (
    AMBIENT_TEMP,
    HazardField,
    builtin_smoke,
    health_decrement,
    load_hazard_series,
    visibility_range_bulk,
)
from evacsim.scenario import BUILTIN_SMOKE_DEFAULTS

from conftest import SCENARIOS, grid_rows, make_scenario, room_doc

CSV_TWO_FRAMES = """\
t,x,y,temp,od,tox
0,1,1,20,0.0,0.0
0,2,1,30,1.0,0.1
10,1,1,40,2.0,0.0
10,2,1,50,3.0,0.3
"""


# -- CSV parsing ---------------------------------------------------------------


def test_csv_frames_group_by_timestamp():
    field = load_hazard_series(CSV_TWO_FRAMES, height=3, width=4)
    assert list(field.timestamps) == [0.0, 10.0]
    assert field.temperature[0, 1, 2] == 30.0
    assert field.optical_density[1, 1, 2] == 3.0
    assert field.toxicity[1, 1, 2] == pytest.approx(0.3)


def test_csv_unlisted_cells_stay_ambient():
    field = load_hazard_series(CSV_TWO_FRAMES, height=3, width=4)
    assert field.temperature[0, 0, 0] == AMBIENT_TEMP
    assert field.optical_density[0, 0, 0] == 0.0
    assert field.toxicity[1, 2, 3] == 0.0


def test_csv_accepts_trailing_pressure_column_and_comments():
    text = "# a comment\n0,1,1,25,0.5,0.0,101325\n"
    field = load_hazard_series(text, height=3, width=3)
    assert field.temperature[0, 1, 1] == 25.0


def test_csv_empty_document_is_ambient():
    field = load_hazard_series("", height=2, width=2)
    assert field.timestamps.shape == (1,)
    assert (field.temperature == AMBIENT_TEMP).all()
    assert (field.optical_density == 0).all()


def test_csv_errors_carry_row_numbers():
    with pytest.raises(HazardFormatError) as err:
        load_hazard_series("0,1,1,20,0.1,0\nbogus,row\n", height=3, width=3)
    assert "row 2" in str(err.value)


def test_csv_rejects_out_of_grid_cell():
    with pytest.raises(HazardFormatError):
        load_hazard_series("0,9,0,20,0.1,0\n", height=3, width=3)


def test_csv_rejects_descending_timestamps():
    with pytest.raises(HazardFormatError):
        load_hazard_series("5,1,1,20,0.1,0\n0,1,1,20,0.1,0\n", height=3, width=3)


def test_csv_rejects_negative_density():
    with pytest.raises(HazardFormatError):
        load_hazard_series("0,1,1,20,-0.1,0\n", height=3, width=3)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("0,1,1,20,0.1,0\nbogus,row\n", "row 2: expected 6 fields 't,x,y,temp,od,tox', got 2", id="fields"),
        pytest.param("t,x,y,temp,od,tox\n0,1,1,nan,0.1,0\n", "row 2: t, temp, od and tox must be finite", id="non-finite"),
        pytest.param("0,1,1,20,0.1,-0.5\n", "row 1: toxicity must be >= 0", id="toxicity"),
        pytest.param(
            "t,x,y,temp,od,tox\n0,1,1,20,0.5,0\n0,1,1,20,3.0,0\n", "row 3: cell (1, 1) listed twice at t = 0", id="twice"
        ),
    ],
)
def test_csv_refusals_name_their_row_and_reason(text, message):
    with pytest.raises(HazardFormatError) as err:
        load_hazard_series(text, height=3, width=3)
    assert str(err.value) == message


# -- time interpolation ---------------------------------------------------------


def test_sampling_interpolates_linearly_between_frames():
    field = load_hazard_series(CSV_TWO_FRAMES, height=3, width=4)
    temp, od, _ = field.frame_at(5.0)
    assert temp[1, 1] == pytest.approx(30.0)  # halfway 20 -> 40
    assert od[1, 1] == pytest.approx(1.0)  # halfway 0 -> 2
    # a quarter of the way
    temp, _, tox = field.frame_at(2.5)
    assert temp[1, 2] == pytest.approx(35.0)
    assert tox[1, 2] == pytest.approx(0.15)


def test_sampling_holds_flat_outside_the_series():
    field = load_hazard_series(CSV_TWO_FRAMES, height=3, width=4)
    before, _, _ = field.frame_at(-3.0)
    after, after_od, _ = field.frame_at(99.0)
    assert before[1, 1] == 20.0
    assert after[1, 1] == 40.0
    assert after_od[1, 1] == 2.0


# -- generated smoke -------------------------------------------------------------


def _smoke_geometry():
    rows = grid_rows(9, 7, exits=[(8, 3)], obstacles=[(4, 2)])
    return make_scenario(room_doc(rows, count=1, spawn=[1, 1, 1, 1])).geometry


def test_builtin_smoke_injects_mass_at_fixed_rate():
    geo = _smoke_geometry()
    params = {**BUILTIN_SMOKE_DEFAULTS, "rate": 0.4, "step": 0.5, "frame_interval": 2.0, "duration": 20.0}
    field = builtin_smoke(geo, (2, 2), params)
    for k, t in enumerate(field.timestamps):
        expected = 0.4 * t / 0.5
        assert field.optical_density[k].sum() == pytest.approx(expected, rel=1e-9), t


def test_builtin_smoke_stays_nonnegative_and_off_walls():
    geo = _smoke_geometry()
    field = builtin_smoke(geo, (2, 2), {**BUILTIN_SMOKE_DEFAULTS, "duration": 30.0})
    assert (field.optical_density >= 0).all()
    blocked = geo.blocked_mask
    assert (field.optical_density[:, blocked] == 0).all()


def test_builtin_smoke_temperature_and_toxicity_track_density():
    geo = _smoke_geometry()
    field = builtin_smoke(geo, (2, 2), {**BUILTIN_SMOKE_DEFAULTS, "temp_per_od": 50.0, "tox_per_od": 0.01})
    od = field.optical_density
    assert np.allclose(field.temperature, AMBIENT_TEMP + 50.0 * od)
    assert np.allclose(field.toxicity, 0.01 * od)


def test_builtin_smoke_spreads_towards_the_far_corner():
    geo = _smoke_geometry()
    field = builtin_smoke(geo, (2, 2), {**BUILTIN_SMOKE_DEFAULTS, "duration": 60.0, "rate": 1.0})
    far = field.optical_density[:, 5, 7]
    assert far[0] == 0.0
    assert far[-1] > 0.0


def _shift(a, dy, dx):
    """``a`` shifted by (dy, dx) with zero fill outside."""
    out = np.zeros_like(a)
    h, w = a.shape
    out[max(0, dy) : min(h, h + dy), max(0, dx) : min(w, w + dx)] = a[
        max(0, -dy) : min(h, h - dy), max(0, -dx) : min(w, w - dx)
    ]
    return out


def _reference_smoke_frames(geo, source, rate, diffusion, steps):
    """The diffusion loop over four shifted copies per step, every step
    kept: the reference the generator's one-buffer neighbour sum matches."""
    open_f = geo.open_mask.astype(np.float64)
    n_open = (_shift(open_f, 0, -1) + _shift(open_f, 0, 1)) + (_shift(open_f, -1, 0) + _shift(open_f, 1, 0))
    od = np.zeros(open_f.shape)
    frames = [od.copy()]
    for _ in range(steps):
        nbr_sum = (_shift(od, 0, -1) + _shift(od, 0, 1)) + (_shift(od, -1, 0) + _shift(od, 1, 0))
        od = od + diffusion * (nbr_sum - n_open * od)
        od[source[1], source[0]] += rate
        od *= open_f
        np.maximum(od, 0.0, out=od)
        frames.append(od.copy())
    return np.stack(frames)


def test_builtin_smoke_matches_the_shifted_copy_reference_exactly():
    obstacles = [(3, 2), (4, 2), (7, 5), (7, 6), (10, 3), (2, 8), (11, 8)]
    rows = grid_rows(14, 11, exits=[(13, 5), (0, 2)], obstacles=obstacles)
    geo = make_scenario(room_doc(rows, count=1, spawn=[1, 1, 1, 1])).geometry
    params = {**BUILTIN_SMOKE_DEFAULTS, "rate": 0.7, "diffusion": 0.2, "step": 0.5, "frame_interval": 0.5,
              "duration": 60.0}
    field = builtin_smoke(geo, (3, 7), params)
    expected = _reference_smoke_frames(geo, (3, 7), 0.7, 0.2, 120)
    assert np.array_equal(field.optical_density, expected)


def test_builtin_smoke_rejects_blocked_source():
    geo = _smoke_geometry()
    with pytest.raises(HazardFormatError):
        builtin_smoke(geo, (0, 0), BUILTIN_SMOKE_DEFAULTS)


# -- generated smoke, bounded by the run's horizon ------------------------------


def _herding(rate=None):
    """herding_two_exit as shipped (smoke at (20, 20), 240 s of field),
    with the generator's ``rate`` replaced when given."""
    with open(os.path.join(SCENARIOS, "herding_two_exit.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if rate is not None:
        doc["hazard"]["builtin"]["rate"] = rate
    return parse_scenario(json.dumps(doc))


_HERDING_DT = 0.5 / 2.7  # its ca tick: cell_size / v_ref
HORIZONS = [_HERDING_DT, 10.0, 239.9, 240.0, 300.0]


@pytest.fixture(scope="module")
def herding_full():
    scenario = _herding()
    return scenario, load_hazard_field(scenario)


@pytest.mark.parametrize("horizon, last_t", zip(HORIZONS, [1.0, 10.0, 240.0, 240.0, 240.0]))
def test_a_bounded_smoke_field_is_a_prefix_of_the_whole_one(herding_full, horizon, last_t):
    """The generator stops at the first frame at or past the horizon (one
    a second here), or at the 240 s ``duration``, and every frame it
    kept is the whole field's, bit for bit."""
    scenario, full = herding_full
    bounded = load_hazard_field(scenario, horizon)
    n = len(bounded.timestamps)
    assert len(full.timestamps) == 241
    assert bounded.timestamps[-1] == last_t
    assert np.array_equal(bounded.timestamps, full.timestamps[:n])
    for name in ("temperature", "optical_density", "toxicity"):
        assert np.array_equal(getattr(bounded, name), getattr(full, name)[:n]), name


@pytest.mark.parametrize("horizon", HORIZONS)
def test_every_tick_below_the_horizon_samples_the_whole_fields_frame(herding_full, horizon):
    scenario, full = herding_full
    sim = _Simulation(scenario, replace(scenario.config, max_sim_time=horizon))
    assert sim.dt == _HERDING_DT
    bounded = sim.hazard
    ticks = max(1, math.ceil(horizon / sim.dt - 1e-9))
    for k in range(ticks):
        for got, want in zip(bounded.frame_at(k * sim.dt), full.frame_at(k * sim.dt)):
            assert np.array_equal(got, want), k


@pytest.mark.parametrize("rate", [1.0, 0.0])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_the_engine_reads_the_same_air_from_a_bounded_field(horizon, rate):
    scenario = _herding(rate)
    full = load_hazard_field(scenario)
    clear = bool(full.optical_density.max() <= 0.0 and full.toxicity.max() <= 0.0
                 and full.temperature.max() <= AMBIENT_TEMP)
    assert clear == (rate == 0.0)
    sim = _Simulation(scenario, replace(scenario.config, max_sim_time=horizon))
    assert sim.world.ambient_air == clear


# -- visibility -------------------------------------------------------------------


def _visibility(od, health):
    return float(visibility_range_bulk(np.array([od]), np.array([health]), PARAM_DEFAULTS)[0])


def test_visibility_clamps_to_max_range_in_clear_air():
    assert _visibility(0.0, 1.0) == PARAM_DEFAULTS["vis_r_max"]


def test_visibility_falls_inversely_with_smoke():
    v1 = _visibility(1.0, 1.0)
    v4 = _visibility(4.0, 1.0)
    assert v1 == pytest.approx(PARAM_DEFAULTS["vis_k"])
    assert v4 == pytest.approx(v1 / 4.0)


def test_visibility_halves_at_zero_health():
    assert _visibility(1.0, 0.0) == pytest.approx(_visibility(1.0, 1.0) / 2.0)


def test_visibility_bulk_matches_scalar():
    rng = np.random.default_rng(5)
    od = rng.uniform(0.0, 5.0, size=64)
    health = rng.uniform(0.0, 1.0, size=64)
    bulk = visibility_range_bulk(od, health, PARAM_DEFAULTS)
    p = PARAM_DEFAULTS
    for i in range(64):
        one = min(p["vis_r_max"], p["vis_k"] / max(od[i], p["vis_eps"])) * (0.5 + 0.5 * health[i])
        assert bulk[i] == pytest.approx(one)


# -- health --------------------------------------------------------------------


def test_health_unharmed_below_critical_temperature():
    d = health_decrement(PARAM_DEFAULTS["temp_crit"] - 1.0, 0.0, 1.0, PARAM_DEFAULTS)
    assert float(d) == 0.0


def test_health_decrement_scales_linearly():
    p = PARAM_DEFAULTS
    hot = p["temp_crit"] + p["temp_scale"]  # one scale unit above critical
    d1 = float(health_decrement(hot, 0.0, 1.0, p))
    d2 = float(health_decrement(hot, 0.0, 2.0, p))
    assert d1 == pytest.approx(p["c_temp"])
    assert d2 == pytest.approx(2 * d1)
    dt_tox = float(health_decrement(20.0, 0.5, 1.0, p))
    assert dt_tox == pytest.approx(0.5 * p["c_tox"])


def test_smoke_density_alone_does_not_injure():
    """``health_decrement`` takes no density, and a whole run in dense
    smoke without heat or toxicity leaves every health at 1.0."""
    assert float(health_decrement(20.0, 0.0, 60.0, PARAM_DEFAULTS)) == 0.0
    smoke = {"source": [3, 3], "rate": 2.0, "temp_per_od": 0.0, "tox_per_od": 0.0}
    stay = [{"attr": "mobility", "dist": "constant", "value": 0}]
    doc = room_doc(grid_rows(8, 8, exits=[(7, 3)]), count=6, max_sim_time=30.0, attributes=stay,
                   hazard={"builtin": smoke})
    scenario = make_scenario(doc)
    assert load_hazard_field(scenario).frame_at(30.0)[1].min(where=scenario.geometry.open_mask, initial=9.0) > 1.0
    result = run(scenario)
    assert (result.fatalities, result.timeout) == (0, True)
    assert all((sample[4] == 1.0).all() for sample in result.trajectory)
