"""Parameter sweeps: results independent of the worker count, and every
kind of swept path applied to the scenario."""

from __future__ import annotations

import json
import os

from evacsim import parse_scenario
from evacsim.sweep import run_sweep, set_swept_value

from conftest import SCENARIOS


def _text(name):
    with open(os.path.join(SCENARIOS, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def test_sweep_rows_and_digests_do_not_depend_on_the_worker_count():
    text = _text("minimal_room")
    serial = run_sweep(text, "population.count", [6, 12], [0, 1], base_dir=SCENARIOS, workers=1)
    pooled = run_sweep(text, "population.count", [6, 12], [0, 1], base_dir=SCENARIOS, workers=2)
    assert serial == pooled
    assert [(row.value, row.seed) for row in serial] == [(6, 0), (6, 1), (12, 0), (12, 1)]
    assert len({row.digest for row in serial}) == 4


def test_a_swept_attribute_replaces_its_entry_or_is_appended():
    pinned = {"attr": "nervousness", "dist": "constant", "value": 0.9}
    # herding_two_exit pins nervousness to 0.5 between two other entries
    doc = json.loads(_text("herding_two_exit"))
    before = doc["population"]["attributes"]
    set_swept_value(doc, "population.attributes.nervousness", 0.9)
    assert doc["population"]["attributes"] == [pinned if e["attr"] == "nervousness" else e for e in before]
    assert [e["attr"] for e in doc["population"]["attributes"]] == [e["attr"] for e in before]
    # minimal_room gives no attributes at all
    doc = json.loads(_text("minimal_room"))
    set_swept_value(doc, "population.attributes.nervousness", 0.9)
    assert doc["population"]["attributes"] == [pinned]
    spec = parse_scenario(json.dumps(doc)).population.attributes["nervousness"]
    assert (spec.kind, spec.value) == ("constant", 0.9)


def test_sweeping_nervousness_runs_each_value():
    # 0.5 is herding_two_exit's own value: that cell is the shipped run,
    # whose digest tests/test_golden.py pins
    rows = run_sweep(
        _text("herding_two_exit"), "population.attributes.nervousness", [0.5, 1.0], [0], base_dir=SCENARIOS, workers=1
    )
    assert [(row.value, row.seed, row.timeout) for row in rows] == [(0.5, 0, False), (1.0, 0, False)]
    assert rows[0].digest == "533cf7fd54476ea3"
    assert rows[1].digest != rows[0].digest
    appended = run_sweep(
        _text("minimal_room"), "population.attributes.nervousness", [0.0, 1.0], [1], base_dir=SCENARIOS, workers=1
    )
    assert len({row.digest for row in appended}) == 2
