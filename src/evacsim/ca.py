"""Grid-stepping backend: synchronous movement on the occupancy lattice.

Each mover examines the nine ``scenario.STEPS`` from its cell (stay,
then the 8-neighbourhood in reading order), keeps those that
``Geometry.moves`` allows and that lead to a free cell, scores each by
the chosen exit's distance field plus a small uniform noise, and
proposes the minimum, ties going to the earliest step.  Conflicting
proposals for one cell are settled by a single uniform lottery draw;
losers stay put.  All moves apply at a barrier, so the update is
synchronous and order-free.

Different walking speeds live on the fixed lattice by step skipping: a
slow agent simply sits out a fraction of the ticks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .scenario import Geometry

EMPTY_CELL = -1


@dataclass
class CaState:
    """Occupancy lattice plus per-agent cell coordinates.

    Who is in the building is not recorded here: the caller passes those
    ids to ``ca_step`` and calls ``vacate`` for each person who leaves.
    """

    occupancy: np.ndarray                    # (H, W) int32, agent id or EMPTY_CELL
    x: np.ndarray                            # (N,) int32 cell coords per agent id
    y: np.ndarray
    tick: int = 0

    @classmethod
    def from_cells(cls, geometry: Geometry, cells: list[tuple[int, int]]) -> "CaState":
        occupancy = np.full((geometry.height, geometry.width), EMPTY_CELL, dtype=np.int32)
        n = len(cells)
        xs = np.zeros(n, dtype=np.int32)
        ys = np.zeros(n, dtype=np.int32)
        for agent_id, (cx, cy) in enumerate(cells):
            if occupancy[cy, cx] != EMPTY_CELL:
                raise SimulationError(f"agents {int(occupancy[cy, cx])} and {agent_id} spawned into cell {(cx, cy)}")
            occupancy[cy, cx] = agent_id
            xs[agent_id] = cx
            ys[agent_id] = cy
        return cls(occupancy=occupancy, x=xs, y=ys)

    def vacate(self, agent_id: int) -> None:
        """Free the cell of an agent who left the building (exit or death).

        Call it once per agent: afterwards the cell may hold someone else."""
        self.occupancy[self.y[agent_id], self.x[agent_id]] = EMPTY_CELL

    def check_bijection(self, present: np.ndarray) -> None:
        """The lattice holds exactly the ids ``present``, each on its own cell."""
        ys, xs = np.nonzero(self.occupancy != EMPTY_CELL)
        ids = self.occupancy[ys, xs]
        if len(ids) != len(present):
            raise SimulationError(f"tick {self.tick}: occupancy cell count != present agent count")
        if (np.bincount(ids) > 1).any():
            raise SimulationError(f"tick {self.tick}: one agent occupies two cells")
        stray = present[self.occupancy[self.y[present], self.x[present]] != present]
        if len(stray):
            raise SimulationError(f"tick {self.tick}: agents {stray.tolist()} are not where the lattice holds them")


def speed_ticks(v_eff, v_grid: float) -> np.ndarray:
    """Number of lattice ticks per single-cell move for each walking speed.

    The lattice moves one cell per tick at most (v_grid = cell/dt), so a
    speed of v_grid/2 becomes one move every 2 ticks.  Speeds above the
    lattice rate saturate at one move per tick; a speed of zero or less
    gives 0, meaning the agent never moves.
    """
    v = np.asarray(v_eff, dtype=np.float64)
    k = np.maximum(1, np.floor(v_grid / np.maximum(v, 1e-9) + 0.5)).astype(np.int64)
    return np.where(v > 0, k, 0)


def conflict_winners(flat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One winner per target cell among the proposals ``flat``
    (non-negative cell keys, in ascending agent id), as indices into
    ``flat`` in cell order.

    A contested cell is settled by one uniform draw, the draws made in
    cell order and each picking among its contenders in id order.
    """
    order = np.argsort(flat, kind="stable")
    starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
    sizes = np.diff(starts, append=len(order))
    u = np.zeros(len(starts))
    u[sizes > 1] = rng.random(int((sizes > 1).sum()))
    return order[starts + np.minimum((u * sizes).astype(np.int64), sizes - 1)]


def ca_step(
    state: CaState,
    geometry: Geometry,
    fields: np.ndarray,
    field_index: np.ndarray,
    move_ids: np.ndarray,
    present: np.ndarray,
    rng: np.random.Generator,
    noise: float,
) -> np.ndarray:
    """Advance the lattice one synchronous step.

    ``fields`` is a stack of distance fields (cells); ``field_index[i]``
    picks the stack layer agent i descends.  ``move_ids`` lists, in
    ascending order, the ids attempting a move this tick (already
    filtered for status, mobility and step skipping); ``present`` lists
    the ids in the building, whom the lattice must hold afterwards.
    Returns the ids that actually changed cell.
    """
    n = len(move_ids)
    if n == 0:
        state.tick += 1
        state.check_bijection(present)
        return move_ids

    cx, cy, admissible = geometry.neighbourhood(
        state.x[move_ids].astype(np.int64), state.y[move_ids].astype(np.int64)
    )                                        # (n, 9) each
    free = state.occupancy[cy, cx] == EMPTY_CELL
    admissible[:, 1:] &= free[:, 1:]         # staying on one's own cell is always allowed

    layer = field_index[move_ids]
    cost = fields[layer[:, None], cy, cx]
    cost = cost + noise * rng.random((n, 9))
    cost = np.where(admissible, cost, np.inf)
    cost[:, 0] = np.where(np.isfinite(cost[:, 0]), cost[:, 0], 1e30)  # stay beats nothing at all

    pick = np.argmin(cost, axis=1)
    moves = pick != 0
    movers = np.nonzero(moves)[0]
    if len(movers) == 0:
        state.tick += 1
        state.check_bijection(present)
        return move_ids[:0]

    tx = cx[movers, pick[movers]]
    ty = cy[movers, pick[movers]]
    winners = conflict_winners(ty * geometry.width + tx, rng)

    win_rows = movers[winners]
    ids = move_ids[win_rows]
    old_x = state.x[ids].copy()
    old_y = state.y[ids].copy()
    new_x = cx[win_rows, pick[win_rows]].astype(np.int32)
    new_y = cy[win_rows, pick[win_rows]].astype(np.int32)

    state.occupancy[old_y, old_x] = EMPTY_CELL
    state.occupancy[new_y, new_x] = ids
    state.x[ids] = new_x
    state.y[ids] = new_y

    state.tick += 1
    state.check_bijection(present)
    return ids
