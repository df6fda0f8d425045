"""Dense bottom-up outcome kernel: a bit-parallel level sweep.

A solve answers a set of cells by solving, level by level in increasing
phi . p, the phi-simplex under them, which holds every option of each cell
as every move lowers phi.  Outcome codes: 0 unvisited, 1 P, 2 N, 3 defeated.

Cells of one level are independent of each other, so the sweep resolves a
whole level at once, as one Python int: a row with a bit per cell of the box
of the axes other than the longest, a, padded by the moves so that a shift
by a move needs no bounds test.  With R a cell's partial level over those
axes, level L holds the cells of L's residue class mod phi_a with
L - phi_a (shape_a - 1) <= R <= L.  Each class keeps its cells as a
running row: a level adds and drops only the cells that differ from the
class's previous occupied level, and only occupied levels are visited, the
union of each class's runs of partial levels.  Nothing box-sized is sorted.

A level's P cells are its cells that are neither pending nor defeated.
They mark every cell that can move to them: the moves of one phi-step s
mark the pending row of level L + s by one OR-convolution of the P row
with the step's offsets, which shifts whichever has fewer set bits, the P
row once per distinct offset or the step's pattern once per P cell.  Where
the ring of the next levels' pending rows fits in one narrow int, a sparse
level shifts the pattern of every move into it once per P cell instead.

The box is output only: CODE_N on every cell under the level cap and
CODE_DEFEATED on the defeated ones, written by one vectorised compare per
block of axis-0 rows, then each chunk of levels' P rows, unpacked.

Levels are int64 sums of weights times coordinates.  A solve spans at most
2**40 levels, which keeps them far inside int64, and a weight above the level
cap is lowered to the cap + 1 before it is cast: a cell under the cap is 0 on
that axis either way.  The top-down guard counts the simplex by the same
partial levels: it tables the cells of every axis but the two longest, axis
by axis, counting each axis's entries before it builds them, and counts the
two longest in closed form at each entry.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod

import numpy as np

CODE_UNSEEN = 0
CODE_P = 1
CODE_N = 2
CODE_DEFEATED = 3

# the largest allocation a solve may make, in bytes (see sieve_bytes)
MEMORY_BUDGET = 4 * 2**30
# the cells or bits one vectorised step covers at most (or one row): a
# block of the N fill, a chunk of level rows
BLOCK = 2**18
# the cost of one operation on Python ints, as the bits of operand that
# cost as much to process
INT_OP_BITS = 2**12
# the widest ring of pending rows kept as one int, in bits
RING_BITS = 2**18


def _layout(shape, below, above):
    """The row layout of a solve of a box of this shape whose moves need
    this padding: the longest axis a, along which a row's cells climb the
    levels; the other axes, shortest first, the first outermost in a row;
    their padded extents; and the bits of a row, less the padding above the
    outermost axis, where a mark lands beyond every row's cells."""
    a = int(np.argmax(shape))
    others = sorted((k for k in range(len(shape)) if k != a), key=shape.__getitem__)
    dims = [shape[k] + int(below[k]) + int(above[k]) for k in others]
    row_bits = prod(dims) - (int(above[others[0]]) * prod(dims[1:]) if others else 0)
    return a, others, dims, row_bits


def sieve_bytes(shape, prepared, level_cap: int, mask_boxes: int = 0) -> int:
    """Upper bound on the bytes a solve of a box of this shape allocates,
    given the moves, weights and padding check_budget returns: the box;
    with mask_boxes > 0, the boolean boxes LatticeSet.mask holds at once;
    the fill's partial levels and block; the tables of a row's bits, padded;
    at most min(cells, level_cap + 1) levels; the moves, their groups and
    patterns; the ring of pending rows as one int, where a solve builds it;
    a row int per residue class and per pending level; one chunk of rows'
    entries and P cells.  Python ints count: tracemalloc sees them."""
    moves, phi, below, above = prepared
    a, _, dims, row_bits = _layout(shape, below, above)
    cells, padded = prod(shape), prod(dims)
    levels = min(cells, level_cap + 1)
    top = int((moves @ phi).max(initial=0))
    groups = min(len(moves), top)  # moves of one phi-step form a group
    ring = (top + 1) * ((padded + 7) // 8 * 8)
    if ring > min(RING_BITS, len(moves) * (INT_OP_BITS + row_bits)):
        ring = 0  # too wide to pay: never built
    # a level marks at most one pending row per step; the rows of levels that
    # hold no cell go when the chunk that marked them ends
    pending = min(levels * groups, min(levels, BLOCK // row_bits + 1) * groups + top, level_cap + 1)
    rows = min(int(phi[a]), levels) + pending
    return (cells * (1 + mask_boxes) + min(17 * (cells // shape[0]) + BLOCK, 18 * cells) + padded * 64
            + levels * 256 + len(moves) * (8 * (3 * len(shape) + 6) + 48) + groups * (2 * padded + 64)
            + 2 * ring + rows * (padded // 8 + 128) + min(max(BLOCK, padded), cells) * 64)


def check_memory(need: int, what: str):
    """Raise ValueError naming what if need bytes exceed MEMORY_BUDGET."""
    if need > MEMORY_BUDGET:
        raise ValueError(f"{what} needs about {need / 2**30:.1f} GiB, over the {MEMORY_BUDGET / 2**30:.0f} GiB budget")


def check_budget(shape, moves, phi, level_cap: int, mask_boxes: int = 0):
    """Raise ValueError, before anything box-sized exists, if the box's
    sieve_bytes exceed MEMORY_BUDGET; else return the moves that join two
    cells under the level cap, phi, and the padding the moves need below
    and above each axis.  level_cap and phi are as _simplex gives them."""
    # a move longer than the box, or than any axis reaches under the level
    # cap, joins no two cells; the rest have |phi_k m_k| <= level_cap
    reach = np.minimum(np.array(shape) - 1, level_cap // phi)
    moves = np.asarray(moves, dtype=np.int64).reshape(-1, len(shape))
    moves = moves[((-reach <= moves) & (moves <= reach)).all(axis=1)]
    moves = moves[moves @ phi <= level_cap]
    prepared = moves, phi, -moves.min(axis=0, initial=0), moves.max(axis=0, initial=0)
    check_memory(sieve_bytes(shape, prepared, level_cap, mask_boxes), f"solve region of shape {shape}")
    return prepared


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


def _floor_sum(n, m: int, a: int, b):
    """The sum over i < n of (a i + b) // m, elementwise over int64 arrays
    n, b >= 0, for ints m, a >= 1: Euclid's reduction, whose (a, m) pairs
    every element shares, each element leaving once its terms are spent."""
    total = np.zeros_like(n)
    live = np.arange(n.size)
    while live.size:
        total[live] += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        keep = top >= m
        live, n, b = live[keep], top[keep] // m, top[keep] % m
        m, a = a, m
    return total


def _walk(phi, level_cap: int, caps, limit: int) -> int:
    """The number of cells i of a simplex, 0 <= i <= caps with
    phi . i <= level_cap, or a lower bound over limit; each phi_k caps_k is
    at most level_cap, as _simplex gives them.  The cells of every
    axis but the last two are tabled by partial level, axis by axis, each
    axis's entries counted before they are built; the last two axes are
    counted in closed form at each entry of the table."""
    part = np.zeros(1, dtype=np.int64)
    *head, (f1, c1), (f2, c2) = [(1, 0)] * (2 - len(caps)) + list(zip(phi.tolist(), caps))
    for f, c in head:
        # in place, so that a step holds at most two arrays of the next
        # table's size beside that table
        n = level_cap - part
        n //= f
        np.minimum(n, c, out=n)
        n += 1
        count = int(n.sum())
        if count > limit:
            return count
        # entry e takes the values 0 .. n_e - 1 on this axis
        value = np.repeat(np.cumsum(n) - n, n)
        np.subtract(np.arange(count), value, out=value)
        part = np.repeat(part, n)
        value *= f
        part += value
        del value
    # the last two axes alone hold at least half their box: i / c1 + j / c2 <= 1
    # puts a cell under the cap, and of (i, j) and (c1 - i, c2 - j) one does
    if (c1 + 1) * (c2 + 1) // 2 > limit:
        return (c1 + 1) * (c2 + 1) // 2
    rest = level_cap - part
    # with B the rest of the cap, i runs over 0 .. n - 1; the first t values
    # leave room for every j, the others for (B - f1 i) // f2 + 1
    n = np.minimum(rest // f1, c1) + 1
    t = np.clip((rest - f2 * c2) // f1 + 1, 0, n)
    return int((t * (c2 + 1) + n - t + _floor_sum(n - t, f2, f1, rest - f1 * (n - 1))).sum())


def simplex_size(moves, phi, cells, what: str, limit: int) -> tuple[int, list[int]]:
    """The number of cells of the phi-simplex under an (n, d) array of
    cells, or a lower bound over limit, and its axis caps.  A cell's box lies
    in the simplex, so the largest is counted before the walk."""
    level_cap, caps, phi = _simplex(moves, phi, cells, what)
    count = max(prod(c + 1 for c in cell) for cell in np.asarray(cells).tolist())
    if count <= limit:
        axes = sorted(range(len(caps)), key=caps.__getitem__)
        count = _walk(phi[axes], level_cap, [caps[k] for k in axes], limit)
    return count, caps


def _ranges(lo, hi):
    """The entries of the ranges lo[i] .. hi[i] - 1, concatenated, and the
    index i of the range of each."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n), np.repeat(np.arange(n.size), n)


def _packbits(bits, n_bytes: int) -> bytes:
    """n_bytes little-endian bytes with the given bit positions set."""
    flags = np.zeros(n_bytes * 8, dtype=bool)
    flags[bits] = True
    return np.packbits(flags, bitorder="little").tobytes()


def _pack(n_rows: int, row_bytes: int, rows, bits) -> tuple[memoryview, list[bool]]:
    """n_rows little-endian bit rows of row_bytes bytes each, with bit bits[i]
    set in row rows[i], as one buffer; and whether each row has a bit."""
    packed = _packbits(rows * (8 * row_bytes) + bits, n_rows * row_bytes)
    return memoryview(packed), (np.bincount(rows, minlength=n_rows) > 0).tolist()


def _ones(x: int) -> list[int]:
    """The positions of the set bits of the int x >= 0, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _groups(steps, offsets):
    """The moves, given by phi-step and row offset, in one group per step,
    by increasing step: (step, pattern, lowest offset, indices of its
    offsets among the distinct ones), the pattern an int with a bit per
    offset, shifted by the lowest; the steps; and the distinct offsets,
    the negative ones negated, then the others."""
    order = np.argsort(steps, kind="stable")
    steps, offsets = steps[order], offsets[order]
    lowest = int(offsets.min(initial=0))
    present = np.zeros(int(offsets.max(initial=0)) - lowest + 1, dtype=bool)
    present[offsets - lowest] = True
    distinct = np.flatnonzero(present) + lowest
    which = (np.cumsum(present) - 1)[offsets - lowest].tolist()
    head = np.flatnonzero(np.diff(steps, prepend=0))
    tail = np.r_[head[1:], steps.size]
    low = np.minimum.reduceat(offsets, head) if head.size else head
    width = (np.maximum.reduceat(offsets, head) - low) // 8 + 1 if head.size else head
    base = 8 * (np.cumsum(width) - width)
    patterns = _packbits(offsets - np.repeat(low - base, tail - head), int(width.sum()))
    groups = [(s, int.from_bytes(patterns[b : b + w], "little"), lw, which[h:t])
              for s, h, t, lw, b, w in zip(steps[head].tolist(), head.tolist(), tail.tolist(), low.tolist(),
                                           (base // 8).tolist(), width.tolist())]
    n_left = int(np.searchsorted(distinct, 0))
    return groups, steps[head].tolist(), (-distinct[:n_left]).tolist(), distinct[n_left:].tolist()


def _fill(shape, phi, level_cap: int, is_defeated=None) -> np.ndarray:
    """The uint8 box of this shape with CODE_N on every cell c with
    phi . c <= level_cap, CODE_DEFEATED on those of them that the bool box
    is_defeated holds, and CODE_UNSEEN above the cap, one block of axis-0
    rows at a time."""
    d = len(shape)
    # every partial level compared lies in [0, (d - 1) level_cap]: the
    # narrowest type that holds them keeps the compare short
    dtype = np.min_scalar_type(max(d - 1, 1) * level_cap)
    rest = np.zeros(shape[1:], dtype=np.int64)
    for k in range(1, d):
        rest += (int(phi[k]) * np.arange(shape[k], dtype=np.int64)).reshape((-1,) + (1,) * (d - 1 - k))
    rest = rest.astype(dtype)
    out = np.empty(shape, dtype=np.uint8)
    rows = max(1, BLOCK // rest.size)
    for i in range(0, shape[0], rows):
        block = out[i : i + rows]
        top = level_cap - int(phi[0]) * np.arange(i, i + len(block), dtype=np.int64)
        np.less_equal(rest, top.astype(dtype).reshape((-1,) + (1,) * (d - 1)), out=block.view(bool))
        hit = None if is_defeated is None else block & is_defeated[i : i + rows]
        np.multiply(block, CODE_N, out=block)
        if hit is not None:
            block += hit  # CODE_N + 1 == CODE_DEFEATED
    return out


def solve_region(moves, phi, cells, defeated=None):
    """Solve the phi-simplex under an (n, d) array of nonnegative cells.

    moves: (m, d) int64 array in any row order, such as the read-only
    Ruleset.array (it is only read); phi: length-d sequence of positive ints,
    of any size, with phi . move >= 1 for every move; defeated: a LatticeSet
    or None.  The level cap and the box are checked against the 2**40 levels
    and the memory budget, counting the defeated set's mask boxes, before
    anything box-sized is built.  Returns the uint8 outcomes of the box;
    cells above the level cap stay CODE_UNSEEN."""
    level_cap, caps, phi = _simplex(moves, phi, cells, "solve region")
    shape = tuple(c + 1 for c in caps)
    boxes = defeated.mask_boxes() if defeated is not None else 0
    moves, _, below, above = check_budget(shape, moves, phi, level_cap, boxes)
    out = _fill(shape, phi, level_cap, None if defeated is None else defeated.mask(caps))
    flat = out.reshape(-1)

    # a row holds the cells of one level, one bit per cell of the box of the
    # other axes padded by the moves, so a shift by a move needs no bounds
    # test; with R their partial level, level L holds the cells of L's class
    # mod phi_a with L - phi_a (sa - 1) <= R <= L, at i_a = (L - R) / phi_a
    a, others, dims, row_bits = _layout(shape, below, above)
    fa, sa, stride_a = int(phi[a]), shape[a], prod(shape[a + 1 :])
    nb = (row_bits + 7) // 8
    part = np.zeros(dims, dtype=np.int64)
    start = np.zeros(dims, dtype=np.int64)
    inside = np.ones(dims, dtype=bool)
    for i, k in enumerate(others):
        c = (np.arange(dims[i], dtype=np.int64) - int(below[k])).reshape((-1,) + (1,) * (len(dims) - 1 - i))
        part += int(phi[k]) * c
        start += prod(shape[k + 1 :]) * c
        inside &= (c >= 0) & (c < shape[k])
    part, start = part.reshape(-1), start.reshape(-1)
    bits = np.flatnonzero(inside.reshape(-1) & (part <= level_cap))
    del inside
    # the flat index in out of bit b on level L is start[b] + (L // fa) stride_a
    start -= part // fa * stride_a

    # the row's cells sorted by (R mod phi_a, R): a level's cells are one slice
    q, r = np.divmod(part[bits], fa)
    span = level_cap // fa + 1
    by_key = np.argsort(r * span + q, kind="stable")
    key, bits = (r * span + q)[by_key], bits[by_key]
    del part, q, r, by_key
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
    # each class keeps a running row of its cells: against the class's
    # previous occupied level, a level drops the entries below its lo and
    # adds those from the previous hi up, starts .. ends - 1 in each pair
    by_class = np.argsort(r, kind="stable")
    same = r[by_class[1:]] == r[by_class[:-1]]
    cls = np.empty_like(by_class)  # classes numbered 0, 1, ... by residue
    cls[by_class] = np.cumsum(np.r_[0, ~same])
    now, before = by_class[1:][same], by_class[:-1][same]
    prev_lo, prev_hi = lo.copy(), lo.copy()  # a class's first level starts from no cells
    prev_lo[now], prev_hi[now] = lo[before], hi[before]
    starts = np.stack([prev_lo, np.maximum(lo, prev_hi)], axis=1)
    ends = np.stack([np.minimum(lo, prev_hi), hi], axis=1)
    shift = big_q * stride_a
    del ur, uq, end, new, count, runs, big_q, r, by_class, same, now, before, prev_lo, prev_hi

    # a move shifts a row by its offset and marks the level its phi-step up;
    # the ring of pending rows as one int, rb bits a row, row s holding
    # level + s, lets a sparse level shift one pattern of every move into it
    # once per P cell, where a dense level shifts p and ORs it about once
    # per move; the ring shifts by a row at every level, so only a narrow
    # one pays
    steps = moves @ phi
    offsets = moves[:, others] @ np.array([prod(dims[i + 1 :]) for i in range(len(dims))], dtype=np.int64)
    rb = (prod(dims) + 7) // 8 * 8
    ring_rows = int(steps.max(initial=0)) + 1
    # the P cells below which a level marks through the ring
    sparse = steps.size * (INT_OP_BITS + row_bits) // (INT_OP_BITS + ring_rows * rb)
    if ring_rows * rb > RING_BITS:
        sparse = 0
    every = int.from_bytes(_packbits(steps * rb + offsets, ring_rows * rb // 8), "little") if sparse else 0
    groups = None  # built at the first level that marks without the ring

    members = [0] * (int(cls.max()) + 1)
    pending = {}  # level -> its row of cells that some P cell below can move to
    ring, ring_level, row_mask = 0, 0, (1 << rb) - 1  # row i of the ring is level ring_level + i
    chunk = max(1, BLOCK // row_bits)
    for c0 in range(0, levels.size, chunk):
        c1 = min(c0 + chunk, levels.size)
        entries, row = _ranges(starts[c0:c1].reshape(-1), ends[c0:c1].reshape(-1))
        delta, has_delta = _pack(c1 - c0, nb, row // 2, bits[entries])
        beaten, has_beaten = delta, [False] * (c1 - c0)
        if defeated is not None:
            entries, row = _ranges(lo[c0:c1], hi[c0:c1])
            hit = flat[start[bits[entries]] + shift[c0 + row]] == CODE_DEFEATED
            beaten, has_beaten = _pack(c1 - c0, nb, row[hit], bits[entries[hit]])
        del entries, row
        found = bytearray(nb * (c1 - c0))
        for j, (level, c, dj, bj) in enumerate(zip(levels[c0:c1].tolist(), cls[c0:c1].tolist(), has_delta,
                                                    has_beaten)):
            if dj:
                members[c] ^= int.from_bytes(delta[j * nb : (j + 1) * nb], "little")
            n = pending.pop(level, 0)
            if ring:
                ring >>= (level - ring_level) * rb
                n |= ring & row_mask
            ring_level = level
            if bj:
                n |= int.from_bytes(beaten[j * nb : (j + 1) * nb], "little")
            p = members[c] & ~n
            if not p:
                continue
            found[j * nb : (j + 1) * nb] = p.to_bytes(nb, "little")
            k = p.bit_count()
            if k < sparse:
                for b in _ones(p):
                    ring |= every << b
                continue
            # each step's marks are one OR-convolution of p with the step's
            # offsets: shift whichever has fewer set bits
            if groups is None:
                groups, group_steps, rights, lefts = _groups(steps, offsets)
            ones = shifted = None
            for s, pattern, lw, idx in groups[: bisect_right(group_steps, level_cap - level)]:
                t = level + s
                mark = pending.get(t, 0)
                if k < len(idx):
                    if ones is None:
                        ones = _ones(p)
                    for b in ones:
                        mark |= pattern << (b + lw)
                else:
                    if shifted is None:
                        shifted = [p >> o for o in rights] + [p << o for o in lefts]
                    for i in idx:
                        mark |= shifted[i]
                pending[t] = mark

        # flush the chunk's P rows into the box
        found = np.frombuffer(found, dtype=np.uint8)
        nz = np.flatnonzero(found != 0)
        one = np.flatnonzero(np.unpackbits(found[nz], bitorder="little").view(bool))
        row, col = np.divmod(nz[one >> 3], nb)
        flat[start[col * 8 + (one & 7)] + shift[c0 + row]] = CODE_P
        # rows marked for levels that hold no cell are never read
        if c1 < levels.size:
            nxt = int(levels[c1])
            for t in [t for t in pending if t < nxt]:
                del pending[t]
    return out
