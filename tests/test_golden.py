"""Golden state digests of the bundled scenarios.

Each case runs a shipped scenario (optionally cut at a simulated time
limit) and compares the run's 64-bit state digest with the value the
simulator has always produced for it.  Any change to spawning, the
decision layer, a movement backend or the hazard coupling moves a
digest, so a refactor that is meant to keep behaviour must keep all of
them.
"""

from __future__ import annotations

import json
import os

import pytest

from evacsim import EMPTY_STATE_DIGEST, run

from conftest import SCENARIOS, run_cli


def _scenario_text(name, max_sim_time=None, backend=None, smoke=None):
    with open(os.path.join(SCENARIOS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if max_sim_time is not None:
        doc["config"]["max_sim_time"] = max_sim_time
    if backend is not None:
        doc["config"]["backend"] = backend
    if smoke is not None:
        doc["hazard"]["builtin"].update(smoke)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, max_sim_time, digest",
    [
        ("corridor", None, "ce7b1e609c6b9641"),
        ("herding_two_exit", None, "533cf7fd54476ea3"),
        ("minimal_room", None, "d6eeecd0427097f3"),
        ("two_rooms", None, "225cb0f5cde75f80"),
        ("big_hall_ca", 10.0, "a7eb833e0113b126"),
        ("benchmark_room_sf", 5.0, "d3d223ef8496227b"),
    ],
)
def test_shipped_scenario_digest(name, max_sim_time, digest):
    assert run(_scenario_text(name, max_sim_time)).digest == digest


# thick, hot and toxic smoke from the room centre: people die on the
# backends that move slowly enough to stay exposed
LETHAL_SMOKE = {"rate": 5.0, "tox_per_od": 0.05, "temp_per_od": 40.0, "duration": 60.0}


@pytest.mark.parametrize(
    "backend, digest, dead",
    [
        ("sf", "f8db001c5883694e", 2),
        ("flow", "2b885fc0610a06d5", 13),
    ],
)
def test_lethal_smoke_digest(backend, digest, dead):
    result = run(_scenario_text("herding_two_exit", 30.0, backend, LETHAL_SMOKE))
    assert result.fatalities == dead
    assert result.digest == digest


def test_cli_run_writes_the_same_digest(tmp_path):
    proc = run_cli("run", os.path.join(SCENARIOS, "two_rooms.json"), "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "metrics.json", encoding="utf-8") as fh:
        assert json.load(fh)["digest"] == "225cb0f5cde75f80"


def test_empty_state_digest_is_pinned():
    assert EMPTY_STATE_DIGEST == "5250a507f994740e"
