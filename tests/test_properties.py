"""Whole-run properties over generated rooms, under every backend."""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim import parse_scenario, run, serialize_scenario
from evacsim.agents import AgentStatus
from evacsim.config import BACKENDS

from conftest import grid_rows, make_scenario, room_doc, run_cli


@st.composite
def drills(draw):
    """A bordered room of 6-14 x 5-10 one-metre cells with one or two exit
    cells on its border and sparse one-cell obstacles, 1-12 people who
    react within 2 s, and now and then a lethal smoke source.

    No two obstacles touch, not even at a corner, and none touches the
    ring of cells inside the border, so every open cell reaches an exit
    and the scenario parses."""
    width = draw(st.integers(6, 14))
    height = draw(st.integers(5, 10))
    border = [(x, y) for x in range(1, width - 1) for y in (0, height - 1)]
    border += [(x, y) for y in range(1, height - 1) for x in (0, width - 1)]
    exits = draw(st.lists(st.sampled_from(border), min_size=1, max_size=2, unique=True))
    inner = [(x, y) for x in range(2, width - 2) for y in range(2, height - 2)]
    obstacles: list[tuple[int, int]] = []
    for x, y in draw(st.lists(st.sampled_from(inner), max_size=len(inner) // 4)) if inner else []:
        if all(max(abs(x - ox), abs(y - oy)) > 1 for ox, oy in obstacles):
            obstacles.append((x, y))
    empty = (width - 2) * (height - 2) - len(obstacles)
    doc = room_doc(
        grid_rows(width, height, exits=exits, obstacles=obstacles),
        count=draw(st.integers(1, min(12, empty))),
        seed=draw(st.integers(0, 2**32)),
        cell_size=1.0,
        max_sim_time=10.0,
        attributes=[{"attr": "reaction_time", "dist": "uniform", "lo": 0.0, "hi": 2.0}],
    )
    if draw(st.booleans()):
        source = draw(st.sampled_from([(x, 1) for x in range(1, width - 1)]))
        doc["hazard"] = {"builtin": {"source": list(source), "rate": 5.0, "tox_per_od": 0.5}}
    return doc


@settings(max_examples=12, derandomize=True, deadline=None)
@given(drills())
def test_every_person_is_accounted_for_and_runs_repeat(doc):
    for backend in BACKENDS:
        doc["config"]["backend"] = backend
        scenario = make_scenario(doc)
        result = run(scenario)
        outcomes = Counter(record.outcome for record in result.per_agent)
        assert outcomes["exited"] + outcomes["dead"] + outcomes["inside"] == result.population, backend
        assert (outcomes["exited"], outcomes["dead"]) == (result.exited, result.fatalities), backend
        assert result.timeout == (outcomes["inside"] > 0), backend
        assert run(make_scenario(doc)).digest == result.digest, backend
        if backend != "flow":  # flow shows people at room means, not where bodies stand
            geometry = scenario.geometry
            for _t, _ids, x, y, _health, status in result.trajectory:
                cells = geometry.cells_of(np.stack([x, y], axis=1))
                assert geometry.open_mask[cells[:, 1], cells[:, 0]].all(), backend
                if backend == "ca":  # the lattice holds one person per cell
                    inside = cells[status <= int(AgentStatus.MOVING)]
                    assert len(np.unique(inside, axis=0)) == len(inside)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(drills())
def test_a_serialized_drill_parses_back_to_the_same_text_and_run(doc):
    scenario = make_scenario(doc)
    text = serialize_scenario(scenario)
    again = parse_scenario(text)
    assert serialize_scenario(again) == text
    assert again.config.backend == "ca"
    assert run(again).digest == run(scenario).digest


@st.composite
def crowded_sf_drills(draw):
    """A drill of ``drills`` in clean air under ``sf`` on 0.5 m cells, a
    body's width, whose spawn rect holds from a quarter of its free cells
    to all of them in people: some of these the seeded sampler places,
    some it cannot."""
    doc = draw(drills())
    doc.pop("hazard", None)
    rows = doc["geometry"]["cells"]
    width, height = len(rows[0]), len(rows)
    x0 = draw(st.integers(1, width - 2))
    x1 = width - 2 - draw(st.integers(0, width - 2 - x0))
    y0 = draw(st.integers(1, height - 2))
    y1 = height - 2 - draw(st.integers(0, height - 2 - y0))
    free = sum(rows[y][x] == "." for y in range(y0, y1 + 1) for x in range(x0, x1 + 1))
    doc["geometry"]["cell_size"] = 0.5
    doc["config"]["backend"] = "sf"
    doc["population"].update(count=draw(st.integers(free // 4, free)), spawn={"rect": [x0, y0, x1, y1]})
    return doc


def test_validate_passes_exactly_when_run_starts():
    # a run of one tick starts when it exits 0 or 3; a refused placement
    # is the same message, a validation error under validate
    started = set()

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(crowded_sf_drills())
    def check(doc):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            valid = run_cli("validate", path)
            ran = run_cli("run", path, "--out", os.path.join(scratch, "out"), "--max-time", "0.01")
        assert (valid.returncode == 0) == (ran.returncode in (0, 3)), (valid.stderr, ran.stderr)
        if ran.returncode == 2:
            assert valid.returncode == 1
            assert valid.stderr == ran.stderr.replace("evacsim:error: ", "evacsim:error: population.spawn: ")
        started.add(ran.returncode in (0, 3))

    check()
    assert started == {True, False}
