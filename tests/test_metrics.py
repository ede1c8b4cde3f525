"""Run metrics: the batched trajectory formatter writes exactly the text
of the per-row formatter it replaced, on values chosen to break a
formatter and over batch boundaries; clog time merges the episodes of
every door."""

from __future__ import annotations

import io
from dataclasses import replace

import numpy as np
import pytest

from evacsim import export_trajectories
from evacsim.agents import STATUS_TOKENS, AgentStatus
from evacsim.metrics import EXPORT_BATCH_ROWS, TRAJECTORY_HEADER, EventRecord, RunResult, clog_fraction


def _reference_export(result, sink):
    """The per-row exporter: numpy scalars through f-string formatting
    and one enum per row."""
    sink.write(TRAJECTORY_HEADER + "\n")
    for (t, ids, xs, ys, health, statuses) in result.trajectory:
        for row in range(len(ids)):
            token = STATUS_TOKENS[AgentStatus(int(statuses[row]))]
            sink.write(f"{t:.6f},{int(ids[row])},{xs[row]:.4f},{ys[row]:.4f},{health[row]:.4f},{token}\n")


def _result(trajectory):
    return RunResult(
        backend="ca",
        dt=0.1,
        seed=0,
        population=0,
        t_end=0.0,
        timeout=False,
        exited=0,
        fatalities=0,
        per_agent=[],
        events=[],
        crossings=[],
        config_echo={},
        digest="",
        trajectory=trajectory,
    )


def _text(export, result):
    sink = io.StringIO(newline="")
    export(result, sink)
    return sink.getvalue()


def _sample(t, ids, xs, ys, health, statuses):
    return (
        t,
        np.asarray(ids, dtype=np.int64),
        np.asarray(xs, dtype=np.float32),
        np.asarray(ys, dtype=np.float32),
        np.asarray(health, dtype=np.float32),
        np.asarray(statuses, dtype=np.uint8),
    )


SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e30, -1e30, 3.4028235e38, 1e-45, -1e-45]
# float32 values nearest to the midpoints between 4-decimal outputs,
# where a formatter that rounded the float64 midpoint instead of the
# float32 value would differ
BOUNDARY = [0.00005, 0.00015, 0.00025, 0.00035, -0.00005, -0.00015, 0.99995, 1.00005, 12.34565, 123.45675, 2047.99995]


def _cycle(values, n):
    return [values[k % len(values)] for k in range(n)]


def test_special_and_boundary_values_are_written_like_the_numpy_scalars():
    values = SPECIAL + BOUNDARY
    n = len(values)
    statuses = _cycle([int(s) for s in AgentStatus], n)
    ids = [3, 7, 8, 1000, 2**40 + 1] + list(range(20, 20 + n - 5))
    trajectory = [
        _sample(0.0, ids, values, values[::-1], values, statuses),
        _sample(1.0 / 3.0, ids, values[::-1], values, _cycle([1.0, 0.5, 0.0], n), statuses[::-1]),
        _sample(1e-7, ids, values, values, values[::-1], statuses),
        _sample(12345.6789125, ids, values[1:] + values[:1], values, values, statuses),
    ]
    result = _result(trajectory)
    text = _text(export_trajectories, result)
    assert text == _text(_reference_export, result)
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == set(STATUS_TOKENS.values())
    assert ",-0.0000," in text and ",nan," in text and ",inf," in text and ",-inf," in text


def test_random_and_rounding_boundary_values_match_the_reference():
    rng = np.random.default_rng(11)
    n = 4000
    # k/100 + 0.00005: 4000 rounding boundaries of the 4-decimal output
    # between 0 and 40, and random values over a plan's scale
    boundary = (np.arange(n) * 1e-2 + 5e-5).astype(np.float32)
    spread = rng.uniform(-100.0, 100.0, n).astype(np.float32)
    health = rng.uniform(0.0, 1.0, n).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    statuses = rng.integers(0, 4, n).astype(np.uint8)
    trajectory = [(0.1 * k, ids, boundary, spread, health, statuses) for k in range(3)]
    result = _result(trajectory)
    assert _text(export_trajectories, result) == _text(_reference_export, result)


def test_strided_column_views_are_written_like_copies():
    # the engine samples copies, but a column may as well be a view of
    # a wider array: every other id and one axis of an (n, 2) array
    pos = np.arange(24, dtype=np.float32).reshape(12, 2) / 7
    ids = np.arange(0, 48, 2, dtype=np.int64)[::2]
    health = np.linspace(0.0, 1.0, 24, dtype=np.float32)[::2]
    statuses = np.tile(np.arange(4, dtype=np.uint8), 6)[::2]
    result = _result([(2.5, ids, pos[:, 0], pos[:, 1], health, statuses)])
    assert not ids.flags.c_contiguous and not pos[:, 0].flags.c_contiguous
    assert _text(export_trajectories, result) == _text(_reference_export, result)


class _Writes(list):
    """A sink that keeps each write apart."""

    write = list.append


def _lattice_sample(rng, t, n, first_id=0):
    """n rows over a few grid columns and rows, mostly full health, every
    status: the repeats that the batched formatter formats once."""
    cells = (rng.integers(0, 9, (2, n)) + 0.5) * np.float32(0.4)
    health = np.where(rng.random(n) < 0.8, 1.0, rng.random(n))
    return _sample(t, np.arange(first_id, first_id + n), cells[0], cells[1], health, rng.integers(0, 4, n))


def test_batches_over_samples_of_unequal_length_write_the_reference_text():
    rng = np.random.default_rng(5)
    lengths = [3, EXPORT_BATCH_ROWS - 3, 1, 700, 0, EXPORT_BATCH_ROWS, 1500, 2, EXPORT_BATCH_ROWS + 1, 64]
    trajectory = [_lattice_sample(rng, 0.25 * k, n, first_id=k) for k, n in enumerate(lengths)]
    result = _result(trajectory)
    writes = _Writes()
    export_trajectories(result, writes)
    # the header, then one write per batch of at most EXPORT_BATCH_ROWS rows,
    # every one full but the last
    rows = [chunk.count("\n") for chunk in writes[1:]]
    assert writes[0] == TRAJECTORY_HEADER + "\n"
    assert sum(rows) == sum(lengths) and len(rows) == -(-sum(lengths) // EXPORT_BATCH_ROWS)
    assert set(rows[:-1]) == {EXPORT_BATCH_ROWS}
    assert "".join(writes) == _text(_reference_export, result)


def test_a_sample_longer_than_a_batch_is_split_over_batches():
    rng = np.random.default_rng(6)
    n = 2 * EXPORT_BATCH_ROWS + 17
    spread = rng.uniform(-50.0, 50.0, n)
    result = _result([_sample(3.5, rng.permutation(n), spread, spread[::-1], rng.random(n), rng.integers(0, 4, n))])
    writes = _Writes()
    export_trajectories(result, writes)
    assert [chunk.count("\n") for chunk in writes] == [1, EXPORT_BATCH_ROWS, EXPORT_BATCH_ROWS, 17]
    assert "".join(writes) == _text(_reference_export, result)


def test_signed_zeros_and_nan_payloads_in_one_batch_keep_their_own_text():
    # formatting is per bit pattern: -0.0 and 0.0 compare equal and must
    # still print apart; NaNs never compare equal, and every payload,
    # the sign bit included, prints as "nan"
    nans = np.array([0x7FC00000, 0x7FC00001, 0xFFC00000, 0x7F800001], dtype=np.uint32).view(np.float32)
    assert len({bits for bits in nans.view(np.uint32).tolist()}) == 4 and np.isnan(nans).all()
    values = np.concatenate([np.float32([-0.0, 0.0, 1.0, -0.0]), nans, np.float32([0.0, -0.0])])
    n = len(values)
    trajectory = [
        _sample(0.0, range(n), values, values[::-1], values, [1] * n),
        _sample(0.5, range(n), values[::-1], values, np.roll(values, 3), [2] * n),
    ]
    result = _result(trajectory)
    text = _text(export_trajectories, result)
    assert text == _text(_reference_export, result)
    first = text.splitlines()[1:n + 1]
    assert [line.split(",")[2] for line in first[:4]] == ["-0.0000", "0.0000", "1.0000", "-0.0000"]
    assert [line.split(",")[2] for line in first[4:8]] == ["nan"] * 4


@pytest.mark.parametrize(
    "trajectory",
    [pytest.param([], id="no-samples"), pytest.param([_sample(0.0, [], [], [], [], [])] * 3, id="no-agents")],
)
def test_a_run_without_rows_writes_the_header_only(trajectory):
    result = _result(trajectory)
    assert _text(export_trajectories, result) == TRAJECTORY_HEADER + "\n"
    assert _text(_reference_export, result) == TRAJECTORY_HEADER + "\n"


def test_clog_fraction_merges_overlapping_episodes_of_two_doors():
    # a clogged 2-6 s and again from 12 s to the end of the run at 20 s,
    # b clogged 4-9 s: some door is clogged over 2-9 s and 12-20 s
    events = [
        EventRecord(2.0, "clog_start", "a", {}),
        EventRecord(4.0, "clog_start", "b", {}),
        EventRecord(6.0, "clog_end", "a", {}),
        EventRecord(9.0, "clog_end", "b", {}),
        EventRecord(12.0, "clog_start", "a", {}),
    ]
    result = replace(_result([]), t_end=20.0, events=events)
    assert clog_fraction(result) == pytest.approx(15.0 / 20.0)
    assert clog_fraction(replace(result, events=events[:1] + events[2:3])) == pytest.approx(4.0 / 20.0)
