"""Outcome engine for lattice games.

A game lives on N^d minus a set of defeated positions; a move subtracts a
ruleset vector, and moves may neither start from nor land on defeated
positions or leave N^d.  Under normal play a position is N iff some legal
option is P.  Solving requires a pointedness witness: a strictly positive
functional phi with phi . move >= 1 for every move, which bounds play length
and orders the bottom-up sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, product
from math import lcm, prod
from operator import and_

import numpy as np

from . import kernels
from .lattice import LatticeSet, Vec, as_int, as_vec, int64_array, pareto_minimal, unique_rows

P = "P"
N = "N"

CODE_P = kernels.CODE_P
CODE_N = kernels.CODE_N
CODE_DEFEATED = kernels.CODE_DEFEATED
_SYMBOLS = {CODE_P: P, CODE_N: N}


class Ruleset:
    """A finite set of nonzero move vectors, held once as ``array``: a
    read-only int64 (M, dim) array of distinct rows in lexicographic order.
    ``moves`` is the same set as tuples of Python ints, built on first read.
    A dimension that is not an integer >= 1, or a move that is not a nonzero
    dim-vector of int64 integers, raises ValueError naming it: no entry is
    truncated or wraps."""

    def __init__(self, dim: int, moves):
        self.dim = as_int(dim, "dimension")
        if self.dim < 1:
            raise ValueError(f"dimension {dim} is below 1")
        if not isinstance(moves, np.ndarray):
            moves = list(moves)
        try:
            arr = int64_array(moves)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(_bad_move(moves, self.dim)) from None
        if arr.shape == (0,):
            arr = arr.reshape(0, self.dim)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(_bad_move(moves, self.dim))
        if not arr.any(axis=1).all():
            raise ValueError(f"the zero vector {(0,) * self.dim} cannot be a move")
        self.array = unique_rows(arr)
        self.array.flags.writeable = False

    @cached_property
    def moves(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.array.T.tolist()))

    @cached_property
    def axis_columns(self) -> tuple[list[list[int]], list[int]]:
        """The per-axis components of the moves, in move order, and the
        largest of each (0 when there are no moves).  Built on first use, so
        a ruleset that is only solved bottom-up never holds them."""
        cols = self.array.T.tolist()
        return cols, [max(c, default=0) for c in cols]

    def __eq__(self, other):
        return isinstance(other, Ruleset) and self.dim == other.dim and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.dim, self.array.tobytes()))

    def __len__(self):
        return len(self.array)

    def __repr__(self):
        return f"Ruleset(dim={self.dim}, {len(self)} moves)"


def _bad_move(moves, dim: int) -> str:
    """Names the first move that is not a dim-vector of int64 integers."""
    for m in np.atleast_1d(moves).tolist() if isinstance(moves, np.ndarray) else moves:
        try:
            if int64_array(m).shape != (dim,):
                return f"move {m!r} is not a {dim}-dimensional vector"
        except (OverflowError, TypeError, ValueError):
            return f"move {m!r} is not a vector of int64 integers"
    return f"moves must be {dim}-dimensional integer vectors"


class GameSpec:
    """Ruleset plus the defeated-position set; positions are N^d minus it."""

    def __init__(self, ruleset: Ruleset, defeated: LatticeSet | None = None):
        self.ruleset = ruleset
        if defeated is None:
            defeated = LatticeSet.empty(ruleset.dim)
        if defeated.dim != ruleset.dim:
            raise ValueError("defeated set dimension differs from the ruleset")
        self.defeated = defeated
        self.has_defeated = not (defeated.kind == "finite" and not defeated.payload)

    def __repr__(self):
        return f"GameSpec({self.ruleset!r}, defeated={self.defeated.to_expr()})"


@dataclass(frozen=True)
class PointednessWitness:
    """Rational functional positive on the board axes and on every move."""

    phi: tuple[Fraction, ...]

    def as_integer(self) -> tuple[int, ...]:
        scale = lcm(*(f.denominator for f in self.phi))
        return tuple(int(f * scale) for f in self.phi)

    def verify(self, rs: Ruleset) -> bool:
        """Exact check on the integer multiple: every phi_k and every
        phi . move is at least 1."""
        if len(self.phi) != rs.dim:
            return False
        phi = self.as_integer()
        if min(phi) < 1:
            return False
        if not len(rs):
            return True
        # dim * max|phi| * max|m_k| bounds every |phi . move|; under 2**63
        # the int64 products are exact, else the check runs on Python ints
        reach = max(int(rs.array.max()), -int(rs.array.min()))
        if rs.dim * max(phi) * reach < 2**63:
            return bool((rs.array @ np.array(phi, dtype=np.int64) >= 1).all())
        return all(sum(f * c for f, c in zip(phi, m)) >= 1 for m in rs.moves)


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: a nonnegative combination of the constraints
    whose left side vanishes while the right side stays positive."""

    multipliers: tuple[tuple[int, int], ...]
    combined_rhs: int

    def verify(self, constraints) -> bool:
        combo = [0] * len(constraints[0][0])
        rhs = 0
        for idx, lam in self.multipliers:
            if lam < 0:
                return False
            coeffs, r = constraints[idx]
            combo = [a + lam * c for a, c in zip(combo, coeffs)]
            rhs += lam * r
        return all(a == 0 for a in combo) and rhs > 0


class PointednessError(ValueError):
    def __init__(self, certificate: Infeasible):
        self.certificate = certificate
        super().__init__("ruleset admits no positive play-bounding functional")


def _constraint_row(rs: Ruleset, i: int):
    """Row i of pointedness_constraints(rs)."""
    d = rs.dim
    if i < d:
        return tuple(int(k == i) for k in range(d)), 1
    return tuple(rs.array[i - d].tolist()), 1


def pointedness_constraints(rs: Ruleset):
    """Rows (coeffs, rhs) encoding phi_k >= 1 and move . phi >= 1."""
    return [_constraint_row(rs, i) for i in range(rs.dim + len(rs))]


def pointedness_rows(rs: Ruleset) -> list[int]:
    """Indices into pointedness_constraints(rs) of rows that imply all others.

    Given the axis rows phi >= 1, the row of a move with no negative
    component holds, and so does the row of a move that componentwise
    dominates another move.  What is left are the axis rows and the
    Pareto-minimal moves with a negative component (Fourier-Motzkin
    redundancy; Schrijver, Theory of Linear and Integer Programming, 12.2).
    """
    a = rs.array
    negative = np.flatnonzero((a < 0).any(axis=1))
    # a is sorted, so the minimal rows come back in row order
    minimal = negative[pareto_minimal(a[negative])]
    return list(range(rs.dim)) + (rs.dim + minimal).tolist()


def fourier_motzkin(constraints: dict):
    """Exact feasibility of {phi : coeffs . phi >= rhs} by Fourier-Motzkin
    elimination over integer rows, constraints = {index: (coeffs, rhs)}.

    A derived row is -n[var] * p + p[var] * n for rows p and n, so every row
    and every Farkas multiplier stays an integer; only the back-substitution
    divides.  Returns the lexicographically least feasible phi as a tuple of
    Fractions, or an Infeasible certificate whose multipliers are keyed by
    the constraint indices.  Every derived row carries the multipliers of
    the rows it combines, which is what makes the certificate checkable.
    """
    d = len(next(iter(constraints.values()))[0])
    rows = [(list(coeffs), rhs, {i: 1}) for i, (coeffs, rhs) in constraints.items()]

    snapshots = {d: rows}
    for var in range(d - 1, -1, -1):
        nxt = [r for r in rows if r[0][var] == 0]
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        for pc, pr, pm in pos:
            for nc, nr, nm in neg:
                a, b = -nc[var], pc[var]
                coeffs = [a * x + b * y for x, y in zip(pc, nc)]
                mult = {k: a * pm.get(k, 0) + b * nm.get(k, 0) for k in pm.keys() | nm.keys()}
                nxt.append((coeffs, a * pr + b * nr, mult))
        rows = []
        for coeffs, rhs, mult in nxt:
            if all(c == 0 for c in coeffs):
                if rhs > 0:
                    return Infeasible(tuple(sorted(mult.items())), rhs)
                continue  # vacuous row
            rows.append((coeffs, rhs, mult))
        snapshots[var] = rows

    # the snapshots are exact projections, so the largest lower bound on each
    # variable given the earlier ones is its least feasible value
    phi = [Fraction(0)] * d
    for var in range(d):
        lo = None
        for coeffs, rhs, _ in snapshots[var + 1]:
            c = coeffs[var]
            if c > 0:
                bound = Fraction(rhs - sum(coeffs[j] * phi[j] for j in range(var)), c)
                lo = bound if lo is None or bound > lo else lo
        phi[var] = lo if lo is not None else Fraction(1)
    return tuple(phi)


def check_pointedness(rs: Ruleset):
    """Exact rational pointedness check.

    Eliminates only the rows that pointedness_rows keeps.  Returns a
    PointednessWitness, or an Infeasible certificate, checkable against the
    full pointedness_constraints(rs), when no strictly positive functional
    exists.
    """
    result = fourier_motzkin({i: _constraint_row(rs, i) for i in pointedness_rows(rs)})
    if isinstance(result, Infeasible):
        assert result.verify(pointedness_constraints(rs))
        return result
    witness = PointednessWitness(result)
    assert witness.verify(rs)
    return witness


@dataclass(frozen=True)
class TangentAxisReport:
    axis: int
    passed: bool
    witness: Vec | None


def tangent_axis_ok(move: Vec, axis: int) -> bool:
    return move[axis] > 0 and all(c <= 0 for k, c in enumerate(move) if k != axis)


def check_tangent_cone(rs: Ruleset) -> list[TangentAxisReport]:
    """Surrogate boundary-ray check, reported per axis.

    For each axis k there must be a move with positive k-th component and
    nonpositive others.  This is advisory: it is not a precondition for
    solving, and the reported witness is the lexicographically least one.
    """
    out = []
    for axis in range(rs.dim):
        witness = next((m for m in rs.moves if tangent_axis_ok(m, axis)), None)
        out.append(TangentAxisReport(axis, witness is not None, witness))
    return out


@dataclass(frozen=True)
class OutcomeGrid:
    """Dense outcomes over the box [0, window[0]] x ... x [0, window[-1]].

    data is a read-only view, possibly into a larger solved region.  The
    grid keeps the probe tables of the last (slice, cone) it was probed
    with, which its outcomes determine: as data cannot be written or
    replaced through the grid, the tables cannot go stale through it."""

    window: Vec
    data: np.ndarray
    _probe: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = self.data.view()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def code_at(self, p) -> int:
        p = as_vec(p, len(self.window))
        if not all(0 <= c <= w for c, w in zip(p, self.window)):
            raise ValueError(f"{p} lies outside the window {self.window}")
        return int(self.data[p])

    def outcome_at(self, p) -> str | None:
        """P or N, or None at a defeated point."""
        return _SYMBOLS.get(self.code_at(p))

    def plane(self, slice_index: int | None = None) -> np.ndarray:
        """The plane check_plane accepts: the grid itself in 2-D, a slice in 3-D."""
        slice_index = check_plane(self.window, slice_index)
        return self.data if len(self.window) == 2 else self.data[:, :, slice_index]

    def _probe_tables(self, slice_index, r: Vec, s: Vec) -> tuple[np.ndarray, np.ndarray]:
        """The plane of slice_index and its comparable mask: the cells (x, y)
        in the cone spanned by r and s, r before s counterclockwise, that are
        not defeated.  Built for the first probe of a (slice, cone) and kept
        until a probe of another replaces them."""
        key = check_plane(self.window, slice_index), r, s
        tables = self._probe.get(key)
        if tables is None:
            plane = self.plane(key[0])
            x, y = np.arange(plane.shape[0])[:, None], np.arange(plane.shape[1])
            comparable = (r[0] * y >= r[1] * x) & (s[1] * x >= s[0] * y) & (plane != CODE_DEFEATED)
            comparable.flags.writeable = False
            self._probe.clear()
            tables = self._probe[key] = plane, comparable
        return tables


def check_plane(window: Vec, slice_index: int | None = None) -> int | None:
    """slice_index as an int, or None; raise ValueError unless it is an
    integer and a grid on the window has the plane it names: slice 0 or None
    in 2-D, 0 to the last bound in 3-D (the solve refuses a negative bound);
    a grid of any other dimension has none."""
    d = len(window)
    if d not in (2, 3):
        raise ValueError(f"a {d}-D grid has no plane; only 2-D and 3-D grids do")
    if slice_index is not None:
        slice_index = as_int(slice_index, "slice")
    if d == 2 and slice_index not in (None, 0):
        raise ValueError(f"a 2-D grid has no slices; got slice {slice_index}")
    if d == 3 and slice_index is None:
        raise ValueError("slice index required for a 3-D grid")
    if d == 3 and not 0 <= slice_index <= max(window[-1], 0):
        raise ValueError(f"slice {slice_index} lies outside [0, {window[-1]}]")
    return slice_index


# traced peak bytes of a top-down window solve, with margin: per position of
# the capped simplex under the window (the memo and the grid; 18-146 measured
# beyond the second term on Gamma, Gamma' and 1-D and 2-D games), and per axis
# cap and move (the per-axis columns and the DFS path's candidates; 25-39 in 1-D)
TOPDOWN_CELL_BYTES = 192
TOPDOWN_OPTION_BYTES = 64


def topdown_bytes(window: Vec, rs: Ruleset, phi) -> int:
    """Estimated peak bytes of a top-down solve of the window, whose search
    stays in the phi-simplex under it; a level cap over 2**40 is refused."""
    positions, caps = kernels.simplex_size(rs.array, phi, [window], f"top-down solve of window {window}",
                                           kernels.MEMORY_BUDGET // TOPDOWN_CELL_BYTES)
    return positions * TOPDOWN_CELL_BYTES + sum(c + 1 for c in caps) * len(rs) * TOPDOWN_OPTION_BYTES


class Solver:
    """Shared-memo solver for one game; pure and deterministic."""

    def __init__(self, game: GameSpec, witness: PointednessWitness | None = None):
        self.game = game
        if witness is None:
            witness = check_pointedness(game.ruleset)
            if isinstance(witness, Infeasible):
                raise PointednessError(witness)
        elif not witness.verify(game.ruleset):
            raise ValueError("witness does not certify this ruleset")
        self.witness = witness
        self.phi = witness.as_integer()
        self.memo: dict[Vec, str] = {}
        self._columns: tuple[dict[int, list[int]], ...] = tuple({} for _ in range(game.ruleset.dim))
        self._signs: tuple[dict[int, list[bool]], ...] = tuple({} for _ in range(game.ruleset.dim))

    def _is_position(self, p: Vec) -> bool:
        """p must already be a tuple of ints of the game's dimension."""
        if any(c < 0 for c in p):
            return False
        return not (self.game.has_defeated and self.game.defeated._contains(p))

    def options(self, p) -> list[Vec]:
        """The legal options of the position p, in move order; p must be a
        position of the game."""
        p = as_vec(p, self.game.ruleset.dim)
        if not self._is_position(p):
            raise ValueError(f"{p} is not a position of this game")
        opts = self._candidates(p)
        if self.game.has_defeated:
            # the memo holds only positions: only a candidate missing from it can be defeated
            memo, contains = self.memo, self.game.defeated._contains
            return [q for q in opts if q in memo or not contains(q)]
        return list(opts)

    def _candidates(self, p: Vec):
        """The points p - m for the moves m, in move order, that lie in N^d:
        an iterable to be read once.

        They are read lazily, by zipping per-axis columns: column k at
        coordinate c is [c - m[k] for each move m], built on first use and
        cached in self._columns[k] under c, so the cache holds
        d x (distinct coordinates expanded) x moves ints, small beside the
        memo.  An axis on which p is at least the largest move component
        cannot go negative and skips the sign test.  When no axis needs one
        the zip itself is returned; else it is filtered by itertools.compress
        with the column's signs, [v >= 0 for v in column], cached in
        self._signs[k] only for the coordinates below that largest
        component, so no list of the candidates is built either way."""
        cols, top = self.game.ruleset.axis_columns
        parts, keep = [], None
        for c, col, cache, t, signs in zip(p, cols, self._columns, top, self._signs):
            part = cache.get(c)
            if part is None:
                part = cache[c] = [c - m for m in col]
            parts.append(part)
            if c < t:
                sign = signs.get(c)
                if sign is None:
                    sign = signs[c] = [v >= 0 for v in part]
                keep = sign if keep is None else map(and_, keep, sign)
        opts = zip(*parts)
        return opts if keep is None else compress(opts, keep)

    def outcome(self, p) -> str:
        """Memoized top-down evaluation that stops at the first P option.

        An expansion of q scans the candidates of _candidates in move order,
        one memo lookup each: a memoised P candidate makes q N at once.
        Otherwise the candidates missing from the memo are pending, and they
        are evaluated one at a time in move order, the memo re-read before
        each: q is N at the first that is P, and P if none is.  Only the
        pending candidate about to be evaluated is tested against the
        defeated set, so a candidate never reached is never tested.  The
        memo therefore holds the positions this search reaches, not all
        those reachable from p.

        phi strictly decreases along moves, so the option graph below p is a
        finite DAG, and the explicit stack is the DFS path from p: one frame
        (position, its pending candidates not yet evaluated) per level, so
        the depth is bounded by phi . p rather than by the recursion limit.
        """
        p = as_vec(p, self.game.ruleset.dim)
        memo = self.memo
        if p in memo:  # only positions are ever memoised
            return memo[p]
        if not self._is_position(p):
            raise ValueError(f"{p} is not a position of this game")
        get = memo.get
        defeated = self.game.defeated._contains if self.game.has_defeated else None
        path = []
        q, rest, value = p, None, None
        while True:
            if rest is None:  # expand q
                pending = []
                for o in self._candidates(q):
                    v = get(o)
                    if v is None:
                        pending.append(o)
                    elif v == P:
                        value = N
                        break
                rest = iter(pending)
            if value is None:
                for o in rest:
                    v = get(o)
                    if v is None:
                        if defeated and defeated(o):
                            continue
                        path.append((q, rest))
                        q, rest = o, None
                        break
                    if v == P:
                        value = N
                        break
                else:
                    value = P
                if value is None:  # o is expanded next
                    continue
            memo[q] = value
            if not path:
                return value
            # q is settled: a P makes its parent N, an N resumes the parent
            q, rest = path.pop()
            value = N if value == P else None

    def solve_window(self, window, mode: str = "bottom-up") -> OutcomeGrid:
        window = as_vec(window, self.game.ruleset.dim)
        if any(c < 0 for c in window):
            raise ValueError("window bounds must be nonnegative")
        if mode == "top-down":
            return self._solve_window_topdown(window)
        if mode != "bottom-up":
            raise ValueError(f"unknown solve mode {mode!r}")
        region = self._solve([window])
        return OutcomeGrid(window, region[tuple(slice(0, w + 1) for w in window)])

    def outcomes(self, cells) -> np.ndarray:
        """The outcome codes of an (..., d) int array of cells, shaped
        cells.shape[:-1], from one solve of the phi-simplex under them,
        which holds every option of each cell, as phi falls along moves."""
        d = self.game.ruleset.dim
        refusal = f"cells must be an (..., {d}) array of nonnegative ints"
        try:
            cells = int64_array(cells)
        except OverflowError:
            raise ValueError(f"{refusal}, not {cells!r} (a coordinate leaves int64)") from None
        except TypeError:
            raise ValueError(f"{refusal}, not {cells!r}") from None
        if cells.shape[-1:] != (d,) or cells.min(initial=0) < 0:
            raise ValueError(f"{refusal}, not {cells!r}")
        region = self._solve(cells.reshape(-1, d))
        return region[tuple(np.moveaxis(cells, -1, 0))]

    def _solve(self, cells) -> np.ndarray:
        """The kernel's solve of the phi-simplex under an (n, d) array of cells."""
        defeated = self.game.defeated if self.game.has_defeated else None
        return kernels.solve_region(self.game.ruleset.array, self.phi, cells, defeated)

    def _solve_window_topdown(self, window: Vec) -> OutcomeGrid:
        # refused before any weight is cast or any position is searched
        need = topdown_bytes(window, self.game.ruleset, self.phi)
        kernels.check_memory(need, f"top-down solve of window {window}")
        shape = tuple(w + 1 for w in window)
        # window cells are nonnegative, and a memoised one is a position, so
        # only a cell missing from the memo is tested against the defeated set
        memo, outcome, contains = self.memo, self.outcome, self.game.defeated._contains
        codes = (
            (CODE_P if outcome(p) == P else CODE_N) if p in memo or not contains(p) else CODE_DEFEATED
            for p in product(*map(range, shape))
        )
        return OutcomeGrid(window, np.fromiter(codes, np.uint8, count=prod(shape)).reshape(shape))


@dataclass(frozen=True)
class EquivalenceReport:
    equal: bool
    first_difference: Vec | None = None
    outcomes: tuple[str | None, str | None] | None = None


def equivalence_in_window(g1: GameSpec, g2: GameSpec, window) -> EquivalenceReport:
    """Compare P-position sets on a window; defeated counts as not-P.

    The first differing position in lexicographic order is reported.
    """
    if g1.ruleset.dim != g2.ruleset.dim:
        raise ValueError("games have different dimensions")
    a = Solver(g1).solve_window(window)
    b = Solver(g2).solve_window(window)
    diff = np.argwhere((a.data == CODE_P) != (b.data == CODE_P))
    if diff.size == 0:
        return EquivalenceReport(True)
    first = tuple(int(c) for c in diff[0])
    return EquivalenceReport(False, first, (a.outcome_at(first), b.outcome_at(first)))


@dataclass(frozen=True)
class ProbeResult:
    periodic: bool
    ell: Vec
    witness: Vec | None = None
    outcomes: tuple[str | None, str | None] | None = None
    pairs_checked: int = 0


def _cross(a: Vec, b: Vec) -> int:
    return a[0] * b[1] - a[1] * b[0]


def periodicity_probe(grid: OutcomeGrid, slice_index, cone, ell) -> ProbeResult:
    """Check whether outcomes on a slice repeat under translation by ell.

    cone is a pair of integer rays spanning a 2-D cone; only pairs p, p-ell
    with both points inside the cone, the window and the position set are
    compared.  Returns the lexicographically first violating p if any, with
    pairs_checked counting the compared pairs up to and including it.

    The plane and its comparable mask (in the cone and not defeated) are
    the grid's probe tables, built by the first probe of a (slice, cone),
    so each further candidate costs two slices of the mask and one
    mismatch test per row block.
    """
    ell = as_vec(ell, 2)
    if ell == (0, 0):
        raise ValueError("the zero vector is a degenerate period candidate")
    r, s = (as_vec(v, 2) for v in cone)
    if _cross(r, s) == 0:
        raise ValueError("cone rays must span a 2-dimensional cone")
    if max(map(abs, r + s)) >= 2**30:  # int64 cross products stay exact for sides < 2**32
        raise ValueError("cone ray components must be below 2**30 in magnitude")
    if _cross(r, s) < 0:
        r, s = s, r

    plane, comparable = grid._probe_tables(slice_index, r, s)
    # p = (x, y) runs over the cells whose q = p - ell is in the window too
    (x0, x1), (y0, y1) = ((max(0, c), min(n, n + c)) for n, c in zip(plane.shape, ell))
    if x0 >= x1 or y0 >= y1:
        return ProbeResult(True, ell)
    # witnesses lie near the overlap's first row, so scan it in growing row
    # blocks; C order within a block, and blocks in x order, keep the first
    # mismatch lexicographically first
    checked, lo, rows = 0, x0, 16
    while lo < x1:
        hi = min(x1, lo + rows)
        at_p = slice(lo, hi), slice(y0, y1)
        at_q = slice(lo - ell[0], hi - ell[0]), slice(y0 - ell[1], y1 - ell[1])
        valid = comparable[at_p] & comparable[at_q]
        bad = np.flatnonzero(valid & (plane[at_p] != plane[at_q]))
        if bad.size:
            first = int(bad[0])
            wx, wy = divmod(first, y1 - y0)
            x, y = lo + wx, y0 + wy
            outcomes = _SYMBOLS[int(plane[x, y])], _SYMBOLS[int(plane[x - ell[0], y - ell[1]])]
            checked += int(np.count_nonzero(valid.ravel()[: first + 1]))
            return ProbeResult(False, ell, (x, y), outcomes, checked)
        checked += int(np.count_nonzero(valid))
        lo, rows = hi, 4 * rows
    return ProbeResult(True, ell, pairs_checked=checked)
