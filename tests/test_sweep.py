"""Parameter sweeps: results independent of the worker count."""

from __future__ import annotations

import os

from evacsim.sweep import run_sweep

from conftest import SCENARIOS


def test_sweep_rows_and_digests_do_not_depend_on_the_worker_count():
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        text = fh.read()
    serial = run_sweep(text, "population.count", [6, 12], [0, 1], base_dir=SCENARIOS, workers=1)
    pooled = run_sweep(text, "population.count", [6, 12], [0, 1], base_dir=SCENARIOS, workers=2)
    assert serial == pooled
    assert [(row.value, row.seed) for row in serial] == [(6, 0), (6, 1), (12, 0), (12, 1)]
    assert len({row.digest for row in serial}) == 4
