"""Exact integer-lattice geometry.

Vectors are plain tuples of Python ints, so arithmetic is exact at any
magnitude.  Sublattices of Z^2 are given by a basis matrix; membership is
decided by solving the 2x2 system over the rationals.  LatticeSet is a small
closed algebra of position sets (translated orthants, lattice cosets, finite
sets, and boolean combinations) with exact pointwise membership plus a
vectorised evaluator over dense windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

Vec = tuple[int, ...]


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)

def vscale(c: int, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a, b) -> int:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def is_nonneg(a: Vec) -> bool:
    return all(x >= 0 for x in a)


def dominates(a: Vec, b: Vec) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))


def as_vec(x, dim=None) -> Vec:
    v = tuple(int(c) for c in x)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected {dim}-dimensional vector, got {v}")
    return v


class Sublattice:
    """Full-rank sublattice of Z^2 given by two basis row vectors."""

    def __init__(self, b1, b2):
        self.b1 = as_vec(b1, 2)
        self.b2 = as_vec(b2, 2)
        self.det = self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0]
        if self.det == 0:
            raise ValueError("basis is singular; a sublattice must have full rank")

    def __repr__(self):
        return f"Sublattice({self.b1}, {self.b2})"

    def __eq__(self, other):
        return isinstance(other, Sublattice) and (self.b1, self.b2) == (other.b1, other.b2)

    def __hash__(self):
        return hash((self.b1, self.b2))

    def scale(self, m: int) -> "Sublattice":
        return Sublattice(vscale(m, self.b1), vscale(m, self.b2))

    def contains(self, v) -> bool:
        """v in L iff the coordinates of v in the basis are integers.

        Solved by Cramer's rule: x = (v x b2)/det, y = (b1 x v)/det.
        """
        v = as_vec(v, 2)
        num_x = v[0] * self.b2[1] - v[1] * self.b2[0]
        num_y = self.b1[0] * v[1] - self.b1[1] * v[0]
        return num_x % self.det == 0 and num_y % self.det == 0

    def class_label(self, v) -> tuple[int, int]:
        """Injective label of the class of v in Z^2 / L.

        adj(B) . v mod |det| is constant on classes and separates them.
        """
        v = as_vec(v, 2)
        d = abs(self.det)
        a = (v[0] * self.b2[1] - v[1] * self.b2[0]) % d
        b = (self.b1[0] * v[1] - self.b1[1] * v[0]) % d
        return (a, b)

    def class_labels(self, points) -> np.ndarray:
        """class_label of each point of an (..., 2) integer array, flattened
        to one int64 code a * |det| + b per point; codes order like the
        label pairs."""
        v = np.asarray(points, dtype=np.int64).reshape(-1, 2)
        d = abs(self.det)
        a = (v[:, 0] * self.b2[1] - v[:, 1] * self.b2[0]) % d
        b = (self.b1[0] * v[:, 1] - self.b1[1] * v[:, 0]) % d
        return a * d + b

    def index(self) -> int:
        """Number of classes of Z^2 / L."""
        return abs(self.det)

    def positive_elements(self, bound: int):
        """All nonzero elements of L+ = L cap N^2 within [0, bound]^2."""
        out = []
        for x in range(bound + 1):
            for y in range(bound + 1):
                if (x or y) and self.contains((x, y)):
                    out.append((x, y))
        return out

    def axis_strides(self) -> tuple[int, int]:
        """Smallest a, b > 0 with (a,0) and (0,b) in L."""
        d = abs(self.det)
        a = next(k for k in range(1, d + 1) if self.contains((k, 0)))
        b = next(k for k in range(1, d + 1) if self.contains((0, k)))
        return a, b


Z2 = Sublattice((1, 0), (0, 1))
EVEN_SUM = Sublattice((1, 1), (1, -1))


def _solve_integer_combination(cols: list[Vec], rhs: Vec):
    """Exact solve of sum_k a_k * cols[k] = rhs over the integers.

    Returns the coefficient tuple, or None if there is no integer solution.
    Gaussian elimination over Fractions; fine at the handful-of-columns scale
    used here.
    """
    d = len(rhs)
    r = len(cols)
    mat = [[Fraction(cols[k][i]) for k in range(r)] + [Fraction(rhs[i])] for i in range(d)]
    pivots = []
    row = 0
    for col in range(r):
        piv = next((i for i in range(row, d) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        pv = mat[row][col]
        mat[row] = [x / pv for x in mat[row]]
        for i in range(d):
            if i != row and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
        if row == d:
            break
    # rows below the pivot rows must be consistent
    for i in range(row, d):
        if mat[i][r] != 0:
            return None
    coeffs = [Fraction(0)] * r
    for i, col in enumerate(pivots):
        coeffs[col] = mat[i][r]
    # free columns stay 0; verify integrality and the full equation
    if any(c.denominator != 1 for c in coeffs):
        return None
    ints = tuple(int(c) for c in coeffs)
    for i in range(d):
        if sum(ints[k] * cols[k][i] for k in range(r)) != rhs[i]:
            return None
    return ints


# LatticeSet expression nodes.  kind is one of:
#   'orthant'  payload = corner vector v, denotes v + N^d
#   'coset'    payload = (v, basis tuple, m), denotes v + m * (Z basis)
#   'finite'   payload = frozenset of points
#   'union' / 'inter': children n-ary; 'diff': exactly two children
@dataclass(frozen=True)
class LatticeSet:
    kind: str
    dim: int
    payload: tuple = ()
    children: tuple = ()

    def contains(self, p) -> bool:
        p = as_vec(p, self.dim)
        return self._contains(p)

    def _contains(self, p: Vec) -> bool:
        if self.kind == "orthant":
            return dominates(p, self.payload)
        if self.kind == "finite":
            return p in self.payload
        if self.kind == "coset":
            v, basis, m = self.payload
            cols = [vscale(m, b) for b in basis]
            return _solve_integer_combination(cols, vsub(p, v)) is not None
        if self.kind == "union":
            return any(c._contains(p) for c in self.children)
        if self.kind == "inter":
            return all(c._contains(p) for c in self.children)
        if self.kind == "diff":
            return self.children[0]._contains(p) and not self.children[1]._contains(p)
        raise ValueError(f"unknown node kind {self.kind!r}")

    def mask(self, box: Vec) -> np.ndarray:
        """Dense boolean membership over [0, box[0]] x ... x [0, box[-1]]."""
        box = as_vec(box, self.dim)
        coords = np.indices(tuple(b + 1 for b in box), dtype=np.int64)
        return self._mask(coords)

    def _mask(self, coords) -> np.ndarray:
        if self.kind == "orthant":
            out = np.ones(coords.shape[1:], dtype=bool)
            for k, c in enumerate(self.payload):
                out &= coords[k] >= c
            return out
        if self.kind == "finite":
            out = np.zeros(coords.shape[1:], dtype=bool)
            for p in self.payload:
                cell = np.ones(coords.shape[1:], dtype=bool)
                for k, c in enumerate(p):
                    cell &= coords[k] == c
                out |= cell
            return out
        if self.kind == "coset":
            return self._coset_mask(coords)
        if self.kind == "union":
            out = self.children[0]._mask(coords)
            for c in self.children[1:]:
                out |= c._mask(coords)
            return out
        if self.kind == "inter":
            out = self.children[0]._mask(coords)
            for c in self.children[1:]:
                out &= c._mask(coords)
            return out
        if self.kind == "diff":
            return self.children[0]._mask(coords) & ~self.children[1]._mask(coords)
        raise ValueError(f"unknown node kind {self.kind!r}")

    def _coset_mask(self, coords) -> np.ndarray:
        v, basis, m = self.payload
        cols = [vscale(m, b) for b in basis]
        rhs = [coords[k] - v[k] for k in range(self.dim)]
        if len(cols) == 2:
            # pick two coordinate rows with invertible 2x2 minor, solve by
            # Cramer, check integrality, then check the remaining rows
            rows = None
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    det = cols[0][i] * cols[1][j] - cols[0][j] * cols[1][i]
                    if det != 0:
                        rows = (i, j, det)
                        break
                if rows:
                    break
            if rows is None:
                # rank deficient: fall back to pointwise evaluation
                return self._pointwise_mask(coords)
            i, j, det = rows
            num_a = rhs[i] * cols[1][j] - rhs[j] * cols[1][i]
            num_b = cols[0][i] * rhs[j] - cols[0][j] * rhs[i]
            ok = (num_a % det == 0) & (num_b % det == 0)
            a = num_a // det
            b = num_b // det
            for k in range(self.dim):
                if k in (i, j):
                    continue
                ok &= a * cols[0][k] + b * cols[1][k] == rhs[k]
            return ok
        if len(cols) == 1:
            col = cols[0]
            k0 = next(k for k in range(self.dim) if col[k] != 0)
            ok = rhs[k0] % col[k0] == 0
            a = rhs[k0] // col[k0]
            for k in range(self.dim):
                if k != k0:
                    ok &= a * col[k] == rhs[k]
            return ok
        return self._pointwise_mask(coords)

    def _pointwise_mask(self, coords) -> np.ndarray:
        shape = coords.shape[1:]
        out = np.zeros(shape, dtype=bool)
        for idx in np.ndindex(shape):
            out[idx] = self._contains(tuple(int(coords[k][idx]) for k in range(self.dim)))
        return out

    # constructors -------------------------------------------------------

    @staticmethod
    def orthant(v) -> "LatticeSet":
        v = as_vec(v)
        return LatticeSet("orthant", len(v), v)

    @staticmethod
    def coset(v, basis, m: int = 1) -> "LatticeSet":
        v = as_vec(v)
        basis = tuple(as_vec(b, len(v)) for b in basis)
        if not basis:
            raise ValueError("coset needs at least one basis vector")
        if m < 1:
            raise ValueError("coset scale must be >= 1")
        return LatticeSet("coset", len(v), (v, basis, int(m)))

    @staticmethod
    def finite(points, dim=None) -> "LatticeSet":
        pts = frozenset(as_vec(p) for p in points)
        if pts:
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise ValueError("finite set mixes dimensions")
            dim = dims.pop()
        elif dim is None:
            raise ValueError("empty finite set needs an explicit dimension")
        return LatticeSet("finite", dim, pts)

    @staticmethod
    def empty(dim: int) -> "LatticeSet":
        return LatticeSet.finite((), dim=dim)

    @staticmethod
    def union(*sets) -> "LatticeSet":
        return _nary("union", sets)

    @staticmethod
    def inter(*sets) -> "LatticeSet":
        return _nary("inter", sets)

    @staticmethod
    def diff(a: "LatticeSet", b: "LatticeSet") -> "LatticeSet":
        if a.dim != b.dim:
            raise ValueError("dimension mismatch in diff")
        return LatticeSet("diff", a.dim, children=(a, b))

    def embed_slice(self, k: int, dim3: int = 3) -> "LatticeSet":
        """Lift a 2-D set S to S x {k} inside Z^3.

        Atoms are lifted so every node agrees with S on the plane z = k, then
        the plane itself is intersected in at the top.
        """
        if self.dim != 2:
            raise ValueError("embed_slice lifts 2-dimensional sets")
        plane = LatticeSet.diff(
            LatticeSet.orthant((0, 0, k)), LatticeSet.orthant((0, 0, k + 1))
        )
        return LatticeSet.inter(self._lift(k), plane)

    def _lift(self, k: int) -> "LatticeSet":
        if self.kind == "orthant":
            return LatticeSet.orthant(self.payload + (k,))
        if self.kind == "finite":
            return LatticeSet.finite([p + (k,) for p in self.payload], dim=3)
        if self.kind == "coset":
            v, basis, m = self.payload
            return LatticeSet.coset(v + (k,), [b + (0,) for b in basis], m)
        lifted = tuple(c._lift(k) for c in self.children)
        return LatticeSet(self.kind, 3, children=lifted)

    def to_expr(self) -> str:
        """Serialise to the prefix expression grammar."""
        if self.kind == "orthant":
            return f"orthant({_fmt_vec(self.payload)})"
        if self.kind == "coset":
            v, basis, m = self.payload
            parts = [_fmt_vec(v)] + [_fmt_vec(b) for b in basis] + [str(m)]
            return "coset(" + ";".join(parts) + ")"
        if self.kind == "finite":
            pts = sorted(self.payload)
            if not pts:
                return "finite%d{}" % self.dim
            return "finite{" + ",".join(_fmt_vec(p) for p in pts) + "}"
        name = self.kind
        return name + "(" + ",".join(c.to_expr() for c in self.children) + ")"


def _nary(kind, sets):
    sets = tuple(sets)
    if not sets:
        raise ValueError(f"{kind} needs at least one operand")
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch in {kind}")
    if len(sets) == 1:
        return sets[0]
    return LatticeSet(kind, dims.pop(), children=sets)


def _fmt_vec(v: Vec) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


class ExprError(ValueError):
    pass


def parse_set_expr(text: str) -> LatticeSet:
    """Parse the prefix grammar used in spec and ruleset files.

    orthant(v) | coset(v;b1;b2;m) | finite{p,...} | finite<d>{} |
    union(e,...) | inter(e,...) | diff(e,e)
    """
    parser = _ExprParser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise ExprError(f"trailing input at offset {parser.pos}: {text[parser.pos:]!r}")
    return expr


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExprError(f"expected {ch!r} at offset {self.pos}")
        self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            raise ExprError(f"expected a name at offset {start}")
        return self.text[start:self.pos]

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ExprError(f"expected an integer at offset {start}")
        return int(self.text[start:self.pos])

    def parse_vec(self) -> Vec:
        self.expect("(")
        coords = [self.parse_int()]
        while self.peek() == ",":
            self.expect(",")
            coords.append(self.parse_int())
        self.expect(")")
        return tuple(coords)

    def parse_expr(self) -> LatticeSet:
        name = self.parse_name()
        if name == "orthant":
            self.expect("(")
            v = self.parse_vec()
            self.expect(")")
            return LatticeSet.orthant(v)
        if name == "coset":
            self.expect("(")
            v = self.parse_vec()
            basis = []
            m = 1
            while self.peek() == ";":
                self.expect(";")
                if self.peek() == "(":
                    basis.append(self.parse_vec())
                else:
                    m = self.parse_int()
            self.expect(")")
            if not basis:
                raise ExprError("coset needs basis vectors")
            return LatticeSet.coset(v, basis, m)
        if name == "finite" or (name.startswith("finite") and name[6:].isdigit()):
            dim = int(name[6:]) if len(name) > 6 else None
            self.expect("{")
            pts = []
            while self.peek() == "(":
                pts.append(self.parse_vec())
                if self.peek() == ",":
                    self.expect(",")
            self.expect("}")
            return LatticeSet.finite(pts, dim=dim)
        if name in ("union", "inter", "diff"):
            self.expect("(")
            args = [self.parse_expr()]
            while self.peek() == ",":
                self.expect(",")
                args.append(self.parse_expr())
            self.expect(")")
            if name == "diff":
                if len(args) != 2:
                    raise ExprError("diff takes exactly two operands")
                return LatticeSet.diff(*args)
            return _nary(name, args)
        raise ExprError(f"unknown set constructor {name!r}")


class ModuleIdeal:
    """An L+-module inside N^2, stored by its minimal generators."""

    def __init__(self, ambient: Sublattice, generators):
        self.ambient = ambient
        gens = sorted({as_vec(g, 2) for g in generators})
        for g in gens:
            if not is_nonneg(g) or not ambient.contains(g):
                raise ValueError(f"generator {g} is not in L+")
        for g in gens:
            for h in gens:
                if g != h and self._leq(h, g):
                    raise ValueError(f"generators {h} and {g} are comparable in the L+ order")
        self.generators = tuple(gens)

    def _leq(self, a: Vec, b: Vec) -> bool:
        d = vsub(b, a)
        return is_nonneg(d) and self.ambient.contains(d)

    def contains(self, p) -> bool:
        p = as_vec(p, 2)
        return any(self._leq(g, p) for g in self.generators)

    def is_generator(self, p) -> bool:
        return as_vec(p, 2) in self.generators

    def as_set(self) -> LatticeSet:
        parts = [
            LatticeSet.inter(
                LatticeSet.orthant(g),
                LatticeSet.coset(g, (self.ambient.b1, self.ambient.b2), 1),
            )
            for g in self.generators
        ]
        if not parts:
            return LatticeSet.empty(2)
        return LatticeSet.union(*parts)

    def __repr__(self):
        return f"ModuleIdeal({self.ambient!r}, {list(self.generators)})"


class IncompleteBoxError(ValueError):
    """The bounding box could not certify the minimal-generator enumeration."""


def minimal_elements(points_or_module, order: Sublattice, box: int) -> list[Vec]:
    """Minimal elements of an upward-closed set under the L+ order.

    The set may be a LatticeSet or any object with a contains() method.  Only
    the window [0, box]^2 is examined; if a minimal element lands on the
    window boundary the enumeration cannot be certified complete and an
    IncompleteBoxError is raised rather than silently truncating.
    """
    member = points_or_module.contains

    def leq(a, b):
        d = vsub(b, a)
        return is_nonneg(d) and order.contains(d)

    # componentwise dominators of p precede p in this scan order, so a point
    # not dominated by any minimal found so far is itself minimal
    minimals: list[Vec] = []
    for x in range(box + 1):
        for y in range(box + 1):
            p = (x, y)
            if not member(p):
                continue
            if any(leq(q, p) for q in minimals if q != p):
                continue
            minimals.append(p)
    for p in minimals:
        if p[0] == box or p[1] == box:
            raise IncompleteBoxError(
                f"minimal element {p} lies on the boundary of [0,{box}]^2; enlarge the box"
            )
    return sorted(minimals)


def positive_generators(mL: Sublattice) -> list[Vec]:
    """Minimal nonzero elements of mL+ in the componentwise order.

    Any nonzero element beyond (ax, 0) or (0, ay) is dominated by one of
    them, so the minimal ones live in [0, ax] x [0, ay].
    """
    ax, ay = mL.axis_strides()
    pts = [
        (x, y)
        for x in range(ax + 1)
        for y in range(ay + 1)
        if (x or y) and mL.contains((x, y))
    ]
    return [p for p in pts if not any(q != p and dominates(p, q) for q in pts)]


@lru_cache(maxsize=16)
def _residues(L: Sublattice, m: int):
    """F and its label -> representative map for one (L, m); placement
    search checks many placements at the same scale."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    mL = L.scale(m)
    gens = positive_generators(mL)
    ax, ay = mL.axis_strides()
    # any p with p1 >= ax is dominated by (ax, 0), so F fits in this box
    pts = tuple(
        (x, y)
        for x in range(ax)
        for y in range(ay)
        if not any(dominates((x, y), g) for g in gens)
    )
    rep_of = {mL.class_label(p): p for p in pts}
    assert len(rep_of) == mL.index(), "F misses a residue class"
    return pts, MappingProxyType(rep_of)


def enumerate_F(L: Sublattice, m: int) -> list[Vec]:
    """Points of N^2 not dominated by any nonzero element of mL+.

    The result is finite because mL+ has full rank; it contains at least one
    representative of every class of Z^2 / mL, which is asserted.
    """
    return list(_residues(L, m)[0])


def class_representatives(L: Sublattice, m: int):
    """Read-only map from each class label of Z^2 / mL to a point of F in
    that class; where F holds several, the last in F order."""
    return _residues(L, m)[1]
