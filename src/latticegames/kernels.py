"""Dense bottom-up outcome kernel: a push-based P-sieve.

A solve answers a set of cells by solving, level by level in increasing
phi . p, the phi-simplex under them, which holds every option of each cell
as every move lowers phi.  Outcome codes: 0 unvisited, 1 P, 2 N, 3 defeated.

Cells of one level are independent of each other, so the sieve resolves a
whole level at once.  A cell's code before its level is 0, or 2 once a P cell
of a lower level has marked it as having a P option.  At its own level a cell
is written only if it is P or defeated: a defeated cell gets 3 whether marked
or not, then every cell still at 0 gets 1, and a marked cell keeps the 2 its
marker wrote.  The new P cells then mark every cell that can move to them,
p + move for each move, in one vectorised scatter, so the work is about
P cells x moves rather than cells x moves.

Levels are int64 sums of weights times coordinates.  A solve spans at most
2**40 levels, which keeps them far inside int64, and a weight above the level
cap is lowered to the cap + 1 before it is cast: a cell under the cap is 0 on
that axis either way.

Nothing box-sized is sorted.  One walk counts the simplex's cells axis by
axis, the longest last, and tables them over the other axes by partial
level R, counting each axis's entries before it builds them, and only those
under the cap.  Along the longest axis a, a cell's level is R + phi_a i_a;
in the table sorted by (R mod phi_a, R), level L is the slice of L's residue
class with L - phi_a (shape_a - 1) <= R <= L.  The outcome array is padded
by the move components that point out of the box, so a scatter needs no
bounds test.
"""

from __future__ import annotations

from math import prod

import numpy as np

CODE_UNSEEN = 0
CODE_P = 1
CODE_N = 2
CODE_DEFEATED = 3

# the largest allocation a solve may make, in bytes (see sieve_bytes)
MEMORY_BUDGET = 4 * 2**30
# a scatter covers at most this many (P cell, move) pairs at once
SCATTER_PAIRS = 2**20


def sieve_bytes(shape, padding, level_cap: int, mask_boxes: int = 0) -> int:
    """Upper bound on the bytes a solve of a box of this shape allocates,
    given the moves and padding check_budget returns: the padded outcome
    array; with mask_boxes > 0, its padded defeated copy and the boolean
    boxes LatticeSet.mask holds at once; the table of the other axes, which
    also bounds a coset mask's labels; the bounds of at most
    min(cells, level_cap + 1) levels; one scatter batch; the moves."""
    moves, below, above = padding
    cells = padded = 1
    for s, b, a in zip(shape, below.tolist(), above.tolist()):
        cells, padded = cells * s, padded * (s + b + a)
    n_moves = max(len(moves), 1)
    return (padded * (1 + (mask_boxes > 0)) + cells * mask_boxes + cells // max(shape) * 96
            + min(cells, level_cap + 1) * 256 + max(SCATTER_PAIRS, n_moves) * 8
            + n_moves * 8 * (3 * len(shape) + 6))


def check_memory(need: int, what: str):
    """Raise ValueError naming what if need bytes exceed MEMORY_BUDGET."""
    if need > MEMORY_BUDGET:
        raise ValueError(f"{what} needs about {need / 2**30:.1f} GiB, over the {MEMORY_BUDGET / 2**30:.0f} GiB budget")


def check_budget(shape, moves, phi, level_cap: int, mask_boxes: int = 0):
    """Raise ValueError, before anything box-sized exists, if the box's
    sieve_bytes exceed MEMORY_BUDGET; else return the moves that join two
    cells under the level cap, and the padding they need below and above
    each axis.  level_cap and phi are as _simplex gives them."""
    # a move longer than the box, or than any axis reaches under the level
    # cap, joins no two cells; the rest have |phi_k m_k| <= level_cap
    reach = np.minimum(np.array(shape) - 1, level_cap // phi)
    moves = np.asarray(moves, dtype=np.int64).reshape(-1, len(shape))
    moves = moves[((-reach <= moves) & (moves <= reach)).all(axis=1)]
    moves = moves[moves @ phi <= level_cap]
    padding = moves, -moves.min(axis=0, initial=0), moves.max(axis=0, initial=0)
    check_memory(sieve_bytes(shape, padding, level_cap, mask_boxes), f"solve region of shape {shape}")
    return padding


def _simplex(moves, phi, cells, what: str) -> tuple[int, list[int], np.ndarray]:
    """The phi-simplex under an (n, d) array of cells: its level cap
    max phi . cell; its axis caps, level_cap // phi_k on an axis that some
    move grows and the largest coordinate read on any other; and phi as
    int64 weights, each above the cap lowered to the cap + 1.  A level cap
    over 2**40 raises ValueError naming what, before any weight is cast."""
    phi, cells = [int(f) for f in phi], np.asarray(cells)
    top = cells.max(axis=0, initial=0).tolist()
    level_cap = sum(f * t for f, t in zip(phi, top))
    if level_cap < 2**63:
        # every phi . cell is exact in int64 when phi . top is, and so is
        # every weight on an axis where top is not 0
        weights = np.array([f if t else 0 for f, t in zip(phi, top)], dtype=np.int64)
        level_cap = int((cells @ weights).max(initial=0))
    if level_cap > 2**40:
        raise ValueError(f"{what} (level cap {level_cap}) has more than the 2**40 levels this kernel is sized for")
    grows = (np.asarray(moves).reshape(-1, len(phi)) < 0).any(axis=0).tolist()
    caps = [level_cap // f if g else t for f, g, t in zip(phi, grows, top)]
    return level_cap, caps, np.array([min(f, level_cap + 1) for f in phi], dtype=np.int64)


def _walk(phi, level_cap: int, caps, strides, limit: int = 2**62):
    """The number of cells i of a simplex, 0 <= i <= caps with
    phi . i <= level_cap, and the table of its cells over every axis but the
    last, walked axis by axis: their partial levels phi . i and flat indices
    strides . i.  A count over limit ends the walk: a lower bound."""
    part, index = np.zeros((2, 1), dtype=np.int64)
    for k, (f, c) in enumerate(zip(phi.tolist(), caps)):
        n = np.minimum(min(c, limit), (level_cap - part) // f) + 1
        count = int(n.sum())
        if count > limit or k == len(caps) - 1:
            return count, part, index
        # entry e takes the values 0 .. n_e - 1 on this axis
        value = np.arange(count) - np.repeat(np.cumsum(n) - n, n)
        part, index = np.repeat(part, n) + f * value, np.repeat(index, n) + strides[k] * value


def simplex_size(moves, phi, cells, what: str, limit: int) -> tuple[int, list[int]]:
    """The number of cells of the phi-simplex under an (n, d) array of
    cells, or a lower bound over limit, and its axis caps.  A cell's box lies
    in the simplex, so the largest is counted before the walk."""
    level_cap, caps, phi = _simplex(moves, phi, cells, what)
    count = max(prod(c + 1 for c in cell) for cell in np.asarray(cells).tolist())
    if count <= limit:
        axes = sorted(range(len(caps)), key=caps.__getitem__)
        count = _walk(phi[axes], level_cap, [caps[k] for k in axes], [0] * len(caps), limit)[0]
    return count, caps


def solve_region(moves, phi, cells, defeated=None):
    """Solve the phi-simplex under an (n, d) array of nonnegative cells.

    moves: (m, d) int64 array in any row order, such as the read-only
    Ruleset.array (it is only read); phi: length-d sequence of positive ints,
    of any size, with phi . move >= 1 for every move; defeated: a LatticeSet
    or None.  The level cap and the box are checked against the 2**40 levels
    and the memory budget, counting the defeated set's mask boxes, before
    anything box-sized is built.  Returns the uint8 outcomes of the box, a
    view into a padded array; cells above the level cap stay CODE_UNSEEN."""
    level_cap, caps, phi = _simplex(moves, phi, cells, "solve region")
    shape = tuple(c + 1 for c in caps)
    d = len(shape)
    boxes = defeated.mask_boxes() if defeated is not None else 0
    moves, below, above = check_budget(shape, moves, phi, level_cap, boxes)

    # moves by increasing phi-step: those that stay under the cap form a
    # prefix, and moves of equal step mark the same cells in any order
    steps = moves @ phi
    by_step = np.argsort(steps)
    moves, steps = moves[by_step], steps[by_step]
    padded = np.array(shape) + below + above
    strides = np.ones(d, dtype=np.int64)
    strides[:-1] = np.cumprod(padded[:0:-1])[::-1]
    offsets = moves @ strides
    inner = tuple(slice(b, b + s) for b, s in zip(below.tolist(), shape))
    out = np.zeros(padded, dtype=np.uint8)  # CODE_N here before a cell's level means "has a P option"
    flat = out.reshape(-1)
    is_defeated = None
    if defeated is not None:
        is_defeated = np.zeros(padded, dtype=bool)
        # the unpadded mask lives only until it is copied in
        is_defeated[inner] = defeated.mask(caps)
        is_defeated = is_defeated.reshape(-1)

    # the other axes' cells: partial level R, and unpadded flat index at i_a = 0
    a = int(np.argmax(shape))
    fa, sa = int(phi[a]), shape[a]
    axes = [k for k in range(d) if k != a] + [a]
    _, part, base = _walk(phi[axes], level_cap, [caps[k] for k in axes], strides[axes].tolist())
    # with R = r + phi_a q, level r + phi_a Q holds the cells with
    # Q - sa < q <= Q, at flat index base + (Q - q) stride_a
    q, r = np.divmod(part, fa)
    span = level_cap // fa + 1
    by_key = np.argsort(r * span + q)
    key, start = (r * span + q)[by_key], base[by_key] + below @ strides - q[by_key] * strides[a]

    # a class's occupied levels are the union of its runs q .. q + sa - 1
    ur, uq = np.divmod(key[np.flatnonzero(np.diff(key, prepend=-1))], span)
    end = np.minimum(uq + sa - 1, (level_cap - ur) // fa)
    new = np.flatnonzero(np.r_[True, (ur[1:] != ur[:-1]) | (uq[1:] > end[:-1] + 1)])
    count = end[np.r_[new[1:] - 1, uq.size - 1]] - uq[new] + 1
    runs = np.repeat(uq[new] - np.cumsum(count) + count, count)
    levels = np.sort(np.repeat(ur[new], count) + fa * (np.arange(count.sum()) + runs))
    big_q, r = np.divmod(levels, fa)
    lo = np.searchsorted(key, r * span + np.maximum(big_q - sa + 1, 0))
    hi = np.searchsorted(key, r * span + big_q, side="right")
    n_live = np.searchsorted(steps, level_cap - levels, side="right")

    for b0, b1, shift, nl in zip(lo.tolist(), hi.tolist(), (big_q * strides[a]).tolist(), n_live.tolist()):
        f = start[b0:b1] + shift
        # only P and defeated cells are written: a marked cell is already N
        if is_defeated is not None:
            flat[f[is_defeated[f]]] = CODE_DEFEATED
        p = f[flat[f] == CODE_UNSEEN]
        flat[p] = CODE_P
        if nl == 0:
            continue
        rows = max(1, SCATTER_PAIRS // nl)
        for i in range(0, p.size, rows):
            flat[(p[i : i + rows, None] + offsets[:nl]).ravel()] = CODE_N
    return out[inner]
