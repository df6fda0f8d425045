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
from math import lcm

import numpy as np

from . import kernels
from .lattice import LatticeSet, Vec, as_vec, dot, vsub

P = "P"
N = "N"

CODE_P = kernels.CODE_P
CODE_N = kernels.CODE_N
CODE_DEFEATED = kernels.CODE_DEFEATED


class Ruleset:
    """A finite set of move vectors; order-insensitive, duplicates removed."""

    def __init__(self, dim: int, moves):
        self.dim = int(dim)
        canon = sorted({as_vec(m, self.dim) for m in moves})
        if any(all(c == 0 for c in m) for m in canon):
            raise ValueError("the zero vector cannot be a move")
        self.moves = tuple(canon)

    def __eq__(self, other):
        return (
            isinstance(other, Ruleset)
            and self.dim == other.dim
            and self.moves == other.moves
        )

    def __hash__(self):
        return hash((self.dim, self.moves))

    def __len__(self):
        return len(self.moves)

    def __repr__(self):
        return f"Ruleset(dim={self.dim}, {len(self.moves)} moves)"


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
        if len(self.phi) != rs.dim or any(f <= 0 for f in self.phi):
            return False
        return all(sum(f * c for f, c in zip(self.phi, m)) > 0 for m in rs.moves)


@dataclass(frozen=True)
class Infeasible:
    """Farkas certificate: a nonnegative combination of the constraints
    whose left side vanishes while the right side stays positive."""

    multipliers: tuple[tuple[int, Fraction], ...]
    combined_rhs: Fraction

    def verify(self, constraints) -> bool:
        d = len(constraints[0][0])
        combo = [Fraction(0)] * d
        rhs = Fraction(0)
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


def pointedness_constraints(rs: Ruleset):
    """Rows (coeffs, rhs) encoding phi_k >= 1 and move . phi >= 1."""
    rows = []
    for k in range(rs.dim):
        e = [Fraction(0)] * rs.dim
        e[k] = Fraction(1)
        rows.append((tuple(e), Fraction(1)))
    for m in rs.moves:
        rows.append((tuple(Fraction(c) for c in m), Fraction(1)))
    return rows


def check_pointedness(rs: Ruleset):
    """Exact rational feasibility by Fourier-Motzkin elimination.

    Returns a PointednessWitness, or an Infeasible certificate when no
    strictly positive functional exists.  Every derived row carries the
    multipliers of the original rows it combines, so infeasibility comes with
    a checkable Farkas certificate.
    """
    base = pointedness_constraints(rs)
    d = rs.dim
    rows = [
        (list(coeffs), rhs, {i: Fraction(1)})
        for i, (coeffs, rhs) in enumerate(base)
    ]

    def merge(m1, m2, f1, f2):
        out = dict()
        for k, v in m1.items():
            out[k] = out.get(k, Fraction(0)) + f1 * v
        for k, v in m2.items():
            out[k] = out.get(k, Fraction(0)) + f2 * v
        return out

    snapshots = {d: rows}
    for var in range(d - 1, -1, -1):
        nxt = []
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        zero = [r for r in rows if r[0][var] == 0]
        nxt.extend(zero)
        for pc, pr, pm in pos:
            for nc, nr, nm in neg:
                a, b = -nc[var], pc[var]
                coeffs = [a * x + b * y for x, y in zip(pc, nc)]
                rhs = a * pr + b * nr
                nxt.append((coeffs, rhs, merge(pm, nm, a, b)))
        rows = []
        for coeffs, rhs, mult in nxt:
            if all(c == 0 for c in coeffs):
                if rhs > 0:
                    cert = Infeasible(tuple(sorted(mult.items())), rhs)
                    assert cert.verify(base)
                    return cert
                continue  # vacuous row
            rows.append((coeffs, rhs, mult))
        snapshots[var] = rows

    phi = [Fraction(0)] * d
    for var in range(d):
        lo = None
        for coeffs, rhs, _ in snapshots[var + 1]:
            c = coeffs[var]
            if c > 0:
                bound = (rhs - sum(coeffs[j] * phi[j] for j in range(var))) / c
                lo = bound if lo is None or bound > lo else lo
        phi[var] = lo if lo is not None else Fraction(1)
    witness = PointednessWitness(tuple(phi))
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
    """Dense outcomes over the box [0, window[0]] x ... x [0, window[-1]]."""

    window: Vec
    data: np.ndarray

    def code_at(self, p) -> int:
        return int(self.data[as_vec(p, len(self.window))])

    def outcome_at(self, p) -> str | None:
        code = self.code_at(p)
        if code == CODE_P:
            return P
        if code == CODE_N:
            return N
        return None

    def p_positions(self) -> list[Vec]:
        return [tuple(int(c) for c in ix) for ix in np.argwhere(self.data == CODE_P)]

    def plane(self, slice_index: int | None = None) -> np.ndarray:
        """2-D slice at a fixed last coordinate (the grid itself in 2-D)."""
        if len(self.window) == 2:
            if slice_index not in (None, 0):
                raise ValueError("a 2-D grid has no slices")
            return self.data
        if slice_index is None:
            raise ValueError("slice index required for a 3-D grid")
        return self.data[:, :, slice_index]


class Solver:
    """Shared-memo solver for one game; pure and deterministic."""

    def __init__(self, game: GameSpec, witness: PointednessWitness | None = None):
        self.game = game
        if witness is None:
            witness = check_pointedness(game.ruleset)
            if isinstance(witness, Infeasible):
                raise PointednessError(witness)
        if not witness.verify(game.ruleset):
            raise ValueError("witness does not certify this ruleset")
        self.witness = witness
        self.phi = witness.as_integer()
        assert all(f >= 1 for f in self.phi)
        assert all(dot(self.phi, m) >= 1 for m in game.ruleset.moves)
        self.memo: dict[Vec, str] = {}

    def _is_position(self, p: Vec) -> bool:
        if any(c < 0 for c in p):
            return False
        return not (self.game.has_defeated and self.game.defeated.contains(p))

    def options(self, p: Vec) -> list[Vec]:
        opts = []
        for m in self.game.ruleset.moves:
            q = vsub(p, m)
            if all(c >= 0 for c in q) and self._is_position(q):
                opts.append(q)
        return opts

    def outcome(self, p) -> str:
        """Memoized top-down evaluation with an explicit stack.

        phi strictly decreases along moves, so the option graph below p is a
        finite DAG; the stack depth is bounded by the number of distinct
        reachable positions rather than by the recursion limit.
        """
        p = as_vec(p, self.game.ruleset.dim)
        if not self._is_position(p):
            raise ValueError(f"{p} is not a position of this game")
        memo = self.memo
        if p in memo:
            return memo[p]
        stack = [p]
        while stack:
            q = stack[-1]
            if q in memo:
                stack.pop()
                continue
            opts = self.options(q)
            pending = [o for o in opts if o not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[q] = N if any(memo[o] == P for o in opts) else P
            stack.pop()
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
        for ix in np.ndindex(shape):
            p = tuple(int(c) for c in ix)
            if not self._is_position(p):
                data[ix] = CODE_DEFEATED
            else:
                data[ix] = CODE_P if self.outcome(p) == P else CODE_N
        return OutcomeGrid(window, data)

    def _solve_window_bottomup(self, window: Vec) -> OutcomeGrid:
        moves = self.game.ruleset.moves
        d = self.game.ruleset.dim
        level_cap = dot(self.phi, window)
        caps = []
        for k in range(d):
            if any(m[k] < 0 for m in moves):
                # moves can grow this coordinate; phi . p <= level_cap bounds it
                caps.append(level_cap // self.phi[k])
            else:
                caps.append(window[k])
        caps = tuple(caps)
        if self.game.has_defeated:
            defeated_mask = self.game.defeated.mask(caps)
        else:
            defeated_mask = None
        region = kernels.solve_region(
            np.array(moves, dtype=np.int64),
            np.array(self.phi, dtype=np.int64),
            level_cap,
            caps,
            defeated_mask,
        )
        view = region[tuple(slice(0, w + 1) for w in window)]
        return OutcomeGrid(window, np.ascontiguousarray(view))


def outcome(game: GameSpec, p, witness: PointednessWitness | None = None) -> str:
    return Solver(game, witness).outcome(p)


def solve_window(
    game: GameSpec,
    window,
    mode: str = "bottom-up",
    witness: PointednessWitness | None = None,
) -> OutcomeGrid:
    return Solver(game, witness).solve_window(window, mode=mode)


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
    a = solve_window(g1, window)
    b = solve_window(g2, window)
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
    compared.  Returns the lexicographically first violating p if any.
    """
    ell = as_vec(ell, 2)
    if ell == (0, 0):
        raise ValueError("the zero vector is a degenerate period candidate")
    r, s = (as_vec(v, 2) for v in cone)
    if _cross(r, s) == 0:
        raise ValueError("cone rays must span a 2-dimensional cone")
    if _cross(r, s) < 0:
        r, s = s, r

    def in_cone(p):
        return _cross(r, p) >= 0 and _cross(p, s) >= 0

    plane = grid.plane(slice_index)
    nx, ny = plane.shape
    checked = 0
    for x in range(nx):
        for y in range(ny):
            p = (x, y)
            q = vsub(p, ell)
            if not (0 <= q[0] < nx and 0 <= q[1] < ny):
                continue
            if not (in_cone(p) and in_cone(q)):
                continue
            cp, cq = int(plane[p]), int(plane[q])
            if cp == CODE_DEFEATED or cq == CODE_DEFEATED:
                continue
            checked += 1
            if cp != cq:
                sym = {CODE_P: P, CODE_N: N}
                return ProbeResult(False, ell, p, (sym[cp], sym[cq]), checked)
    return ProbeResult(True, ell, pairs_checked=checked)
