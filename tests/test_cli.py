"""Command-line behaviour: exit codes and error reporting."""

from __future__ import annotations

import json
import os

import pytest

from conftest import SCENARIOS, run_cli


@pytest.mark.parametrize("attr, bad", [("mobility", 3), ("health", float("nan"))])
def test_validate_rejects_what_run_rejects(tmp_path, attr, bad):
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"]["attributes"] = [{"attr": attr, "dist": "constant", "value": bad}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for args in (("validate", path), ("run", path, "--out", tmp_path / "out")):
        proc = run_cli(*args)
        assert proc.returncode == 1, (args[0], proc.stdout)
        assert proc.stderr.startswith("evacsim:error:"), proc.stderr
