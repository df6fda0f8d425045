"""Dense bottom-up outcome kernel: a push-based P-sieve.

Positions inside a bounded region are processed in increasing order of their
pairing with the pointedness functional phi; every legal move strictly
decreases that pairing, so all options of a cell are finished before the cell
itself is reached.  Outcome codes: 0 unvisited, 1 P, 2 N, 3 defeated.

Cells of one level are independent of each other, so the sieve resolves a
whole level at once: a cell not yet marked as having a P option is P (or
defeated), every other cell is N.  The new P cells of the level then mark
every cell that can move to them, p + move for each move, in one vectorised
scatter.  P cells are sparse, so the work is about P cells x moves rather
than cells x moves, and a level costs a handful of numpy calls.
"""

from __future__ import annotations

import numpy as np

CODE_UNSEEN = 0
CODE_P = 1
CODE_N = 2
CODE_DEFEATED = 3

# the largest allocation the sieve may make, in bytes (see sieve_bytes)
MEMORY_BUDGET = 4 * 2**30
# a scatter covers at most this many (P cell, move) pairs at once
SCATTER_PAIRS = 2**20


def _level_dtype(max_level: int):
    # small unsigned levels let the stable argsort use a radix sort
    return np.min_scalar_type(max_level)


def sieve_bytes(shape, n_moves: int, max_level: int) -> int:
    """Upper bound on the bytes solve_region allocates for a box of this shape.

    The box holds the level of each cell (twice while the sorted copy is
    made), its sort permutation (the region order is a prefix of it), a
    region mask and the outcome array, which doubles as the "has a P option"
    mark.  The level runs take two int64 entries per distinct level.  A
    scatter batch of up to SCATTER_PAIRS pairs holds target indices, the
    selected ones, and two masks; the sorted moves, their steps, offsets and
    bounds take a few int64 entries per move and axis.
    """
    cells = 1
    for s in shape:
        cells *= int(s)
    per_cell = 2 * _level_dtype(max_level).itemsize + 8 + 1 + 1
    runs = min(cells, max_level + 1) * 16
    n_moves = max(n_moves, 1)
    batch = max(SCATTER_PAIRS, n_moves) * (8 + 8 + 1 + 1)
    per_move = 8 * (4 * len(shape) + 4)
    return cells * per_cell + runs + batch + n_moves * per_move


def solve_region(moves, phi, level_cap, axis_caps, defeated_mask=None):
    """Solve every cell p with 0 <= p <= axis_caps and phi . p <= level_cap.

    moves: (n, d) int64 array in any row order, such as the read-only
    Ruleset.array (it is only read); phi: length-d positive int array with
    phi . move >= 1 for every move.  Returns the uint8 outcome array of shape
    axis_caps + 1; cells outside the level cap stay CODE_UNSEEN.
    """
    level_cap = int(level_cap)
    shape = tuple(int(c) + 1 for c in axis_caps)
    max_level = max(sum(int(f) * (s - 1) for f, s in zip(phi, shape)), level_cap)
    need = sieve_bytes(shape, len(moves), max_level)
    if need > MEMORY_BUDGET or level_cap > 2**40:
        raise ValueError(
            f"solve region of shape {shape} (level cap {level_cap}) needs about "
            f"{need / 2**30:.1f} GiB, over the {MEMORY_BUDGET / 2**30:.0f} GiB "
            "this kernel is sized for"
        )

    phi = np.asarray(phi, dtype=np.int64)
    d = phi.size
    moves = np.asarray(moves, dtype=np.int64).reshape(-1, d)
    dt = _level_dtype(max_level)
    levels = np.zeros(shape, dtype=dt)
    for k in range(d):
        axis_shape = [1] * d
        axis_shape[k] = shape[k]
        levels += (phi[k] * np.arange(shape[k], dtype=np.int64)).astype(dt).reshape(axis_shape)
    flat_levels = levels.reshape(-1)
    # (level, flat index) lexicographic; the region is a prefix of the box
    order = np.argsort(flat_levels, kind="stable")
    order = order[: np.count_nonzero(flat_levels <= level_cap)]
    lv = flat_levels[order]
    del levels, flat_levels
    starts = np.concatenate(([0], np.flatnonzero(lv[1:] != lv[:-1]) + 1, [lv.size]))
    run_levels = lv[starts[:-1]].astype(np.int64)
    del lv

    strides = np.empty(d, dtype=np.int64)
    acc = 1
    for k in range(d - 1, -1, -1):
        strides[k] = acc
        acc *= shape[k]
    # moves by increasing phi-step: those that stay under the cap form a prefix
    steps = moves @ phi
    by_step = np.argsort(steps, kind="stable")
    moves, steps = moves[by_step], steps[by_step]
    offsets = moves @ strides
    # p + move lies in the box iff lo[k] <= p[k] <= hi[k] on every axis; the
    # test is made only on axes where some move can leave the box
    lo = np.ascontiguousarray(np.maximum(-moves, 0).T)
    hi = np.ascontiguousarray(np.array(shape)[:, None] - 1 - moves.T)
    lo_axes = [k for k in range(d) if (moves[:, k] < 0).any()]
    hi_axes = [k for k in range(d) if (moves[:, k] > 0).any()]

    out = np.zeros(acc, dtype=np.uint8)  # CODE_N here before a cell's level means "has a P option"
    defeated = None
    if defeated_mask is not None:
        defeated = np.asarray(defeated_mask, dtype=bool).reshape(-1)

    for i, level in enumerate(run_levels):
        f = order[starts[i] : starts[i + 1]]
        res = out[f]
        res[res == CODE_UNSEEN] = CODE_P
        if defeated is not None:
            res[defeated[f]] = CODE_DEFEATED
        out[f] = res
        n_live = int(np.searchsorted(steps, level_cap - level, side="right"))
        if n_live == 0:
            continue
        p = f[res == CODE_P]
        rows = max(1, SCATTER_PAIRS // n_live)
        for a in range(0, p.size, rows):
            pc = p[a : a + rows]
            coords = np.unravel_index(pc, shape)
            inside = np.ones((pc.size, n_live), dtype=bool)
            for k in lo_axes:
                inside &= coords[k][:, None] >= lo[k, :n_live]
            for k in hi_axes:
                inside &= coords[k][:, None] <= hi[k, :n_live]
            targets = pc[:, None] + offsets[:n_live]
            out[targets[inside]] = CODE_N
    return out.reshape(shape)
