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

The lattice keeps no coordinates of its own.  Each agent stands at the
centre of its cell in the population's ``pos`` array, which is where its
cell is read and where a move writes the new centre.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .scenario import Geometry

EMPTY_CELL = -1


@dataclass
class CaState:
    """Occupancy lattice over the population's own ``pos`` array.

    Every agent on the lattice stands at its cell's centre, so its cell is
    read off ``pos``; ``ca_step`` moves ``pos`` in place.  Who is in the
    building is not recorded here: the caller passes those ids to
    ``ca_step`` and ``check_bijection`` and calls ``vacate`` for each
    person who leaves.
    """

    occupancy: np.ndarray                    # (H, W) int32, agent id or EMPTY_CELL
    pos: np.ndarray                          # (N, 2) float64 cell centres in metres, by agent id
    cell_size: float

    @classmethod
    def from_positions(cls, geometry: Geometry, pos: np.ndarray) -> "CaState":
        occupancy = np.full((geometry.height, geometry.width), EMPTY_CELL, dtype=np.int32)
        state = cls(occupancy=occupancy, pos=pos, cell_size=geometry.cell_size)
        for agent_id, (cx, cy) in enumerate(state.cells(np.arange(len(pos))).tolist()):
            if occupancy[cy, cx] != EMPTY_CELL:
                raise SimulationError(f"agents {int(occupancy[cy, cx])} and {agent_id} spawned into cell {(cx, cy)}")
            occupancy[cy, cx] = agent_id
        return state

    def cells(self, ids: np.ndarray) -> np.ndarray:
        """(n, 2) int64 cells (x, y) of the agents ``ids``."""
        return (self.pos.take(ids, axis=0) / self.cell_size).astype(np.int64)

    def vacate(self, agent_id: int) -> None:
        """Free the cell of an agent who left the building (exit or death).

        Call it once per agent: afterwards the cell may hold someone else."""
        cx, cy = self.cells(np.array([agent_id]))[0]
        self.occupancy[cy, cx] = EMPTY_CELL

    def check_bijection(self, present: np.ndarray, tick: int) -> None:
        """The lattice holds exactly the ids ``present``, each on the cell
        its position lies in; a fault is reported at ``tick``."""
        ys, xs = np.nonzero(self.occupancy != EMPTY_CELL)
        ids = self.occupancy[ys, xs]
        if len(ids) != len(present):
            raise SimulationError(f"tick {tick}: occupancy cell count != present agent count")
        if (np.bincount(ids) > 1).any():
            raise SimulationError(f"tick {tick}: one agent occupies two cells")
        cx, cy = self.cells(present).T
        stray = present[self.occupancy[cy, cx] != present]
        if len(stray):
            raise SimulationError(f"tick {tick}: agents {stray.tolist()} are not where the lattice holds them")


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
    rng: np.random.Generator,
    noise: float,
) -> np.ndarray:
    """Advance the lattice one synchronous step.

    ``fields`` is a stack of distance fields (cells); ``field_index[i]``
    picks the stack layer agent i descends.  ``move_ids`` lists, in
    ascending order, the ids attempting a move this tick (already
    filtered for status, mobility and step skipping).  A winner frees its
    old cell, takes the new one and stands at its centre in
    ``state.pos``.  Returns the ids that actually changed cell.
    """
    n = len(move_ids)
    if n == 0:
        return move_ids

    cx, cy, admissible = geometry.neighbourhood(*state.cells(move_ids).T)  # (n, 9) each
    free = state.occupancy[cy, cx] == EMPTY_CELL
    admissible[:, 1:] &= free[:, 1:]         # staying on one's own cell is always allowed

    layer = field_index[move_ids]
    cost = fields[layer[:, None], cy, cx]
    cost = cost + noise * rng.random((n, 9))
    cost = np.where(admissible, cost, np.inf)
    cost[:, 0] = np.where(np.isfinite(cost[:, 0]), cost[:, 0], 1e30)  # stay beats nothing at all

    pick = np.argmin(cost, axis=1)
    movers = np.nonzero(pick)[0]
    if len(movers) == 0:
        return move_ids[:0]

    tx = cx[movers, pick[movers]]
    ty = cy[movers, pick[movers]]
    winners = conflict_winners(ty * geometry.width + tx, rng)

    win_rows = movers[winners]
    ids = move_ids[win_rows]
    new_x = tx[winners]
    new_y = ty[winners]
    state.occupancy[cy[win_rows, 0], cx[win_rows, 0]] = EMPTY_CELL  # step 0 is one's own cell
    state.occupancy[new_y, new_x] = ids
    state.pos[ids, 0] = (new_x + 0.5) * state.cell_size
    state.pos[ids, 1] = (new_y + 0.5) * state.cell_size
    return ids
