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
from math import lcm

import numpy as np

from . import kernels
from .lattice import LatticeSet, Vec, as_vec, dot, pareto_minimal, unique_rows

P = "P"
N = "N"

CODE_P = kernels.CODE_P
CODE_N = kernels.CODE_N
CODE_DEFEATED = kernels.CODE_DEFEATED


class Ruleset:
    """A finite set of nonzero move vectors, held once as ``array``: a
    read-only int64 (M, dim) array of distinct rows in lexicographic order.
    ``moves`` is the same set as a tuple of tuples of Python ints.  A move
    that is not a nonzero dim-vector of int64 integers raises ValueError
    naming it.  An int64 array is read as it is; any other input goes
    through Python ints, so that no value wraps."""

    def __init__(self, dim: int, moves):
        self.dim = int(dim)
        if isinstance(moves, np.ndarray) and moves.dtype == np.int64:
            arr = moves
        else:
            moves = moves.tolist() if isinstance(moves, np.ndarray) else list(moves)
            try:
                arr = np.array(moves, dtype=np.int64)
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
        self.moves = tuple(zip(*self.array.T.tolist()))

    @cached_property
    def axis_columns(self) -> tuple[list[list[int]], list[int]]:
        """The per-axis components of the moves, in move order, and the
        largest of each (0 when there are no moves).  Built on first use, so
        a ruleset that is only solved bottom-up never holds them."""
        cols = self.array.T.tolist()
        return cols, [max(c, default=0) for c in cols]

    def __eq__(self, other):
        return isinstance(other, Ruleset) and (self.dim, self.moves) == (other.dim, other.moves)

    def __hash__(self):
        return hash((self.dim, self.moves))

    def __len__(self):
        return len(self.moves)

    def __repr__(self):
        return f"Ruleset(dim={self.dim}, {len(self.moves)} moves)"


def _bad_move(moves, dim: int) -> str:
    """Names the first move that is not a dim-vector of int64 integers."""
    for m in moves.tolist() if isinstance(moves, np.ndarray) else moves:
        try:
            if np.array(m, dtype=np.int64).shape != (dim,):
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
    return rs.moves[i - d], 1


def pointedness_constraints(rs: Ruleset):
    """Rows (coeffs, rhs) encoding phi_k >= 1 and move . phi >= 1."""
    return [_constraint_row(rs, i) for i in range(rs.dim + len(rs.moves))]


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


@dataclass
class OutcomeGrid:
    """Dense outcomes over the box [0, window[0]] x ... x [0, window[-1]];
    data may be a view into a larger solved region."""

    window: Vec
    data: np.ndarray

    def code_at(self, p) -> int:
        p = as_vec(p, len(self.window))
        if not all(0 <= c <= w for c, w in zip(p, self.window)):
            raise ValueError(f"{p} lies outside the window {self.window}")
        return int(self.data[p])

    def outcome_at(self, p) -> str | None:
        """P or N, or None at a defeated point."""
        return {CODE_P: P, CODE_N: N}.get(self.code_at(p))

    def plane(self, slice_index: int | None = None) -> np.ndarray:
        """2-D slice at a fixed last coordinate (the grid itself in 2-D)."""
        if len(self.window) == 2:
            if slice_index not in (None, 0):
                raise ValueError(f"a 2-D grid has no slices; got slice {slice_index}")
            return self.data
        if slice_index is None:
            raise ValueError("slice index required for a 3-D grid")
        if not 0 <= slice_index <= self.window[-1]:
            raise ValueError(f"slice {slice_index} lies outside [0, {self.window[-1]}]")
        return self.data[:, :, slice_index]


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
        return self._options(p)

    def _options(self, p: Vec) -> list[Vec]:
        """options(p) without its checks.  The memo holds only positions, so
        only an option missing from it is tested against the defeated set."""
        cols, top = self.game.ruleset.axis_columns
        opts = list(zip(*[[c - m for m in col] for c, col in zip(p, cols)]))
        for k, c in enumerate(p):
            if c < top[k]:  # else no move takes axis k below 0
                opts = [q for q in opts if q[k] >= 0]
        if self.game.has_defeated:
            memo, contains = self.memo, self.game.defeated._contains
            opts = [q for q in opts if q in memo or not contains(q)]
        return opts

    def outcome(self, p) -> str:
        """Memoized top-down evaluation with an explicit stack.

        phi strictly decreases along moves, so the option graph below p is a
        finite DAG; the stack depth is bounded by the number of distinct
        reachable positions rather than by the recursion limit.  Every option
        is evaluated, so the memo holds each position reachable from p.
        """
        p = as_vec(p, self.game.ruleset.dim)
        memo = self.memo
        if p in memo:  # only positions are ever memoised
            return memo[p]
        if not self._is_position(p):
            raise ValueError(f"{p} is not a position of this game")
        stack = [(p, None)]
        while stack:
            q, opts = stack.pop()
            if q in memo:
                continue
            if opts is None:
                opts = self._options(q)
                pending = [o for o in opts if o not in memo]
                if pending:
                    # everything pushed above q resolves before q is next seen
                    stack.append((q, opts))
                    stack.extend((o, None) for o in pending)
                    continue
            memo[q] = N if P in map(memo.__getitem__, opts) else P
        return memo[p]

    def solve_window(self, window, mode: str = "bottom-up") -> OutcomeGrid:
        window = as_vec(window, self.game.ruleset.dim)
        if any(c < 0 for c in window):
            raise ValueError("window bounds must be nonnegative")
        if mode == "top-down":
            return self._solve_window_topdown(window)
        if mode != "bottom-up":
            raise ValueError(f"unknown solve mode {mode!r}")
        return self._solve_window_bottomup(window)

    def _solve_window_topdown(self, window: Vec) -> OutcomeGrid:
        shape = tuple(w + 1 for w in window)
        data = np.zeros(shape, dtype=np.uint8)
        for p in np.ndindex(shape):
            if not self._is_position(p):
                data[p] = CODE_DEFEATED
            else:
                data[p] = CODE_P if self.outcome(p) == P else CODE_N
        return OutcomeGrid(window, data)

    def _solve_window_bottomup(self, window: Vec) -> OutcomeGrid:
        rs = self.game.ruleset
        level_cap = dot(self.phi, window)
        # a move with a negative component can grow that coordinate, which
        # phi . p <= level_cap then bounds
        grows = (rs.array < 0).any(axis=0).tolist()
        caps = tuple(level_cap // f if g else w for f, g, w in zip(self.phi, grows, window))
        phi = np.array(self.phi, dtype=np.int64)
        defeated = self.game.defeated if self.game.has_defeated else None
        region = kernels.solve_region(rs.array, phi, level_cap, caps, defeated)
        return OutcomeGrid(window, region[tuple(slice(0, w + 1) for w in window)])


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

    plane = grid.plane(slice_index)
    # p = (x, y) runs over the cells whose q = p - ell is in the window too
    (x0, x1), (y0, y1) = ((max(0, c), min(n, n + c)) for n, c in zip(plane.shape, ell))
    if x0 >= x1 or y0 >= y1:
        return ProbeResult(True, ell)
    # one mask of the cells inside the cone that are positions, read at p and q
    x, y = np.arange(plane.shape[0])[:, None], np.arange(plane.shape[1])
    ok = (plane != CODE_DEFEATED) & (r[0] * y >= r[1] * x) & (s[1] * x >= s[0] * y)
    at_p = slice(x0, x1), slice(y0, y1)
    at_q = slice(x0 - ell[0], x1 - ell[0]), slice(y0 - ell[1], y1 - ell[1])
    cp, cq = plane[at_p], plane[at_q]
    valid = ok[at_p] & ok[at_q]
    # C order is the x-then-y order of the lexicographically first witness
    bad = np.flatnonzero(valid & (cp != cq))
    if bad.size == 0:
        return ProbeResult(True, ell, pairs_checked=int(np.count_nonzero(valid)))
    wx, wy = np.unravel_index(bad[0], valid.shape)
    outcomes = tuple({CODE_P: P, CODE_N: N}[int(c[wx, wy])] for c in (cp, cq))
    checked = int(np.count_nonzero(valid.flat[: bad[0] + 1]))
    return ProbeResult(False, ell, (x0 + int(wx), y0 + int(wy)), outcomes, checked)
