"""Exact integer-lattice geometry.

Vectors are plain tuples of Python ints, so arithmetic is exact at any
magnitude.  Sublattices of Z^2 are given by a basis matrix; membership is
decided by Cramer's rule modulo the determinant.  LatticeSet is a small
closed algebra of position sets (translated orthants, lattice cosets, finite
sets, and boolean combinations) with exact pointwise membership plus a
vectorised evaluator over dense windows.  One Euclidean echelon routine
serves both: it reduces coset points, and it gives a sublattice the column
form from which F, the minimal points of mL+ and the axis strides of a scale
follow in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import gcd
from numbers import Integral
from operator import add, index, sub

import numpy as np

Vec = tuple[int, ...]

# integers that input files may carry: windows, masks and moves are int64 arrays
INT64 = range(-(2**63), 2**63)


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(add, a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(map(sub, a, b))


def vscale(c: int, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a, b) -> int:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def dominates(a: Vec, b: Vec) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))


def as_vec(x, dim=None) -> Vec:
    """x as a tuple of Python ints.  An entry that is not an integer, such as
    a float or a string, raises ValueError instead of being truncated or
    parsed."""
    try:
        v = tuple(map(index, x))
    except TypeError:
        raise ValueError(f"expected a vector of integers, got {x!r}") from None
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected {dim}-dimensional vector, got {v}")
    return v


def int64_array(x) -> np.ndarray:
    """x as an int64 array, refusing what a cast would truncate or wrap: an
    entry that is not an integer raises TypeError, and one outside int64
    OverflowError."""
    a = np.asarray(x)
    if a.dtype.kind in "ib" or a.size == 0:
        return a.astype(np.int64, copy=False)
    # floats, strings, objects, and uint64 or mixed inputs that may hold
    # integers beyond int64: entry by entry
    a = np.asarray(x, dtype=object)
    for c in a.flat:
        index(c)
    return a.astype(np.int64)


def echelon(rows: list[Vec], dim: int) -> list[tuple[int, Vec]]:
    """Echelon form of the integer span of rows: (axis, pivot row) pairs in
    axis order, each pivot positive on its axis and every later row zero on
    it.  The Euclidean algorithm on integer rows absorbs zero, parallel and
    surplus vectors exactly at any magnitude."""
    pivots = []
    for k in range(dim):
        hits = [r for r in rows if r[k]]
        if not hits:
            continue
        rows = [r for r in rows if not r[k]]
        pivot = hits[0]
        for r in hits[1:]:
            while r[k]:
                pivot, r = r, vsub(pivot, vscale(pivot[k] // r[k], r))
            rows.append(r)
        pivots.append((k, pivot if pivot[k] > 0 else vscale(-1, pivot)))
    return pivots


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

    def scale(self, m: int) -> "Sublattice":
        return Sublattice(vscale(m, self.b1), vscale(m, self.b2))

    def contains(self, v) -> bool:
        """v in L iff the coordinates of v in the basis are integers, that is
        iff both Cramer numerators vanish mod det: iff v has the label of 0.
        """
        return self.class_label(v) == (0, 0)

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
        label pairs.  Where a point or a code would leave int64 the call
        raises ValueError instead of wrapping."""
        try:
            v = int64_array(points).reshape(-1, 2)
        except (OverflowError, TypeError):
            raise ValueError("class_labels takes points with int64 coordinates") from None
        d = abs(self.det)
        # each adj(B) . v term stays within 2 * reach * entry, and a code
        # below d^2; the entries themselves must fit int64 too
        reach = max(-int(v.min(initial=0)), int(v.max(initial=0)))
        entry = max(abs(c) for c in self.b1 + self.b2)
        if d * d >= 2**63 or 2 * max(reach, 1) * entry >= 2**63:
            raise ValueError(f"class labels of {self} at coordinates up to {reach} leave int64")
        a = (v[:, 0] * self.b2[1] - v[:, 1] * self.b2[0]) % d
        b = (self.b1[0] * v[:, 1] - self.b1[1] * v[:, 0]) % d
        return a * d + b

    def index(self) -> int:
        """Number of classes of Z^2 / L."""
        return abs(self.det)

    def axis_strides(self) -> tuple[int, int]:
        """Smallest a, b > 0 with (a,0) and (0,b) in L.  With echelon rows
        (g, s) and (0, ay), column x = g k holds the points at k s mod ay,
        which is first 0 at k = ay / gcd(s, ay)."""
        (_, (g, s)), (_, (_, ay)) = echelon([self.b1, self.b2], 2)
        return g * ay // gcd(s, ay), ay

    def column_heights(self) -> list[int]:
        """Height of the lowest nonzero point of L+ in each column x = 0 .. ax.
        With echelon rows (g, s) and (0, ay), column x holds points of L
        exactly when g divides x, the least at x / g * s mod ay.  A column
        with none reads ay, the height at x = 0, so it never lowers a running minimum."""
        (_, (g, s)), (_, (_, ay)) = echelon([self.b1, self.b2], 2)
        ax, _ = self.axis_strides()
        return [x // g * s % ay if x and not x % g else ay for x in range(ax + 1)]


Z2 = Sublattice((1, 0), (0, 1))
EVEN_SUM = Sublattice((1, 1), (1, -1))


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
            return self._coset_reducer(p) == self._coset_base
        if self.kind == "union":
            return any(c._contains(p) for c in self.children)
        if self.kind == "inter":
            return all(c._contains(p) for c in self.children)
        if self.kind == "diff":
            return self.children[0]._contains(p) and not self.children[1]._contains(p)
        raise ValueError(f"unknown node kind {self.kind!r}")

    def mask(self, box: Vec) -> np.ndarray:
        """Dense boolean membership over [0, box[0]] x ... x [0, box[-1]],
        built from the box's shape alone: at most mask_boxes() boolean arrays
        of that shape are alive at once, and no coordinate grid is built."""
        box = as_vec(box, self.dim)
        return self._mask(tuple(b + 1 for b in box))

    def mask_boxes(self) -> int:
        """Depth of the expression plus one, which bounds the box-shaped
        arrays mask() holds at once: each operator keeps its running result
        beside the boxes of the child it evaluates."""
        return 1 + max((c.mask_boxes() for c in self.children), default=0)

    def _mask(self, shape) -> np.ndarray:
        if self.kind == "orthant":
            out = np.zeros(shape, dtype=bool)
            out[tuple(slice(max(c, 0), None) for c in self.payload)] = True
            return out
        if self.kind == "finite":
            # the box is at the origin, so a point's coordinates are its
            # index once it lies inside the box
            out = np.zeros(shape, dtype=bool)
            inside = [p for p in self.payload if all(0 <= c < n for c, n in zip(p, shape))]
            if inside:
                out[tuple(np.array(inside, dtype=np.int64).T)] = True
            return out
        if self.kind == "coset":
            return self._coset_mask(shape)
        if self.kind not in ("union", "inter", "diff"):
            raise ValueError(f"unknown node kind {self.kind!r}")
        out = self.children[0]._mask(shape)
        for c in self.children[1:]:
            if self.kind == "union":
                out |= c._mask(shape)
            elif self.kind == "inter":
                out &= c._mask(shape)
            else:
                out[c._mask(shape)] = False
        return out

    def _coset_mask(self, shape) -> np.ndarray:
        # With the box at the origin and a its longest axis, x lies in
        # v + lattice iff x_a e_a and v - (the sum of x_k e_k, k != a) share a
        # class.  Both sides are labelled by canonical representatives, reduced
        # in exact integers, and compared by one broadcast: no product has to
        # fit in int64, and the right side, folded in axis by axis with one
        # reduction per distinct (class, step) pair, has cells / shape[a] labels.
        reduce = self._coset_reducer
        index: dict[Vec, int] = {}  # class representative -> label

        def label(p: Vec) -> int:
            return index.setdefault(reduce(p), len(index))

        def shift(p: Vec, k: int, x: int) -> Vec:
            return p[:k] + (p[k] + x,) + p[k + 1:]

        a = int(np.argmax(shape))
        rest = [k for k in range(self.dim) if k != a]
        origin = (0,) * self.dim
        left = np.array([label(shift(origin, a, x)) for x in range(shape[a])], dtype=np.int64)
        right = np.array(label(self.payload[0]), dtype=np.int64)
        for k in rest:
            n, reps = shape[k], list(index)
            pairs, inverse = np.unique(
                (right[..., None] * n + np.arange(n)).ravel(), return_inverse=True
            )
            ids = [label(shift(reps[c // n], k, -(c % n))) for c in pairs.tolist()]
            right = np.array(ids, dtype=np.int64)[inverse].reshape(right.shape + (n,))
        return np.expand_dims(right, a) == np.expand_dims(left, rest)

    # a node is frozen, so its coset tables are built once, on first use;
    # they live outside the fields, which alone decide == and hash
    @cached_property
    def _coset_reducer(self):
        """Map from a point to the canonical representative of its class
        modulo the coset's lattice m * Z<basis>: each pivot coordinate of the
        point, in echelon order, is replaced by its floor remainder modulo
        the pivot.  Later rows are zero on earlier pivot axes, so the result
        is the same for every point of a class."""
        _, basis, m = self.payload
        rows = echelon([vscale(m, b) for b in basis], self.dim)

        def reduce(p: Vec) -> Vec:
            for k, row in rows:
                p = vsub(p, vscale(p[k] // row[k], row))
            return p

        return reduce

    @cached_property
    def _coset_base(self) -> Vec:
        """The canonical representative of the coset's own class."""
        return self._coset_reducer(self.payload[0])

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
        if not isinstance(m, Integral):
            raise ValueError(f"coset scale must be an integer, got {m!r}")
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
        value = int(self.text[start:self.pos])
        if value not in INT64:
            raise ExprError(f"integer at offset {start} does not fit in int64")
        return value

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
            if min(g) < 0 or not ambient.contains(g):
                raise ValueError(f"generator {g} is not in L+")
        for g in gens:
            for h in gens:
                if g != h and dominates(g, h):
                    raise ValueError(f"generators {h} and {g} are comparable in the L+ order")
        self.generators = tuple(gens)

    def contains(self, p) -> bool:
        """p - g lies in L+ for a generator g; each g lies in L, so p lies in L."""
        p = as_vec(p, 2)
        return self.ambient.contains(p) and any(dominates(p, g) for g in self.generators)

    def is_generator(self, p) -> bool:
        return as_vec(p, 2) in self.generators

    def __repr__(self):
        return f"ModuleIdeal({self.ambient!r}, {list(self.generators)})"


def _row_keys(n: int, columns) -> np.ndarray:
    """One int64 key per row of n rows given as int64 columns, ordered like
    the rows in lexicographic order.  Each column is shifted to start at 0
    and packed below the columns before it.  Where packing a column would
    make the keys span 2**63 values or more, as a column of 2**63 values or
    more would alone, the key so far and the column are first replaced by
    their dense ranks, each below n.  So the span, each width and each key
    stay below 2**63, and no shift or product leaves int64."""
    key, span = np.zeros(n, dtype=np.int64), 1  # every key lies in [0, span)
    for col in columns if n else ():
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if span * width >= 2**63:
            (key, span), (col, width), lo = _dense_rank(key), _dense_rank(col), 0
        key = key * width + (col - lo)
        span *= width
    return key


def _dense_rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each entry of x among its distinct entries, as int64, and
    the number of distinct entries."""
    values, rank = np.unique(x, return_inverse=True)
    return rank.astype(np.int64, copy=False), len(values)


def unique_rows(points) -> np.ndarray:
    """np.unique(points, axis=0) for an (n, d) integer array, by one argsort
    of the row keys and one compare of adjacent keys: the distinct rows in
    lexicographic order, as a new int64 array."""
    a = np.asarray(points, dtype=np.int64)
    key = _row_keys(len(a), a.T)
    order = np.argsort(key)
    key = key[order]
    distinct = np.ones(len(a), dtype=bool)
    distinct[1:] = key[1:] != key[:-1]
    return a[order[distinct]]


def pareto_minimal(points) -> np.ndarray:
    """Indices of the distinct componentwise-minimal rows of an (n, d)
    integer array, one per distinct row, in lexicographic order of the rows."""
    pts = np.asarray(points, dtype=np.int64)
    n = len(pts)
    # rows in lexicographic order, the first of equal rows first: the least
    # remaining row is minimal, since a row componentwise below it would sort
    # before it; dropping every row at or above it leaves the rows above none
    # of the minimal rows found so far
    rest = np.argsort(_row_keys(n, pts.T), kind="stable")
    # the rows stay in this order, so none lies below the least on column 0
    cols = [c[rest] for c in pts.T[1:]]
    minimal = []
    while rest.size:
        minimal.append(rest[0])
        keep = np.zeros(rest.size, dtype=bool)
        for c in cols:
            keep |= c < c[0]
        rest, cols = rest[keep], [c[keep] for c in cols]
    return np.array(minimal, dtype=np.intp)


def positive_generators(mL: Sublattice) -> list[Vec]:
    """Minimal nonzero elements of mL+ in the componentwise order, from
    (0, ay) to (ax, 0): the column minima strictly below every column
    minimum to their left.  Any other point of a column dominates its
    minimum, and any point beyond (ax, 0) dominates that."""
    heights = mL.column_heights()
    lows = [heights[0] + 1, *accumulate(heights, min)]  # lows[x]: least height left of x
    return [(x, y) for x, (y, low) in enumerate(zip(heights, lows)) if y < low]


def points_under(tops) -> np.ndarray:
    """The points (x, y) of N^2 with y < tops[x], in lexicographic order, as
    an (n, 2) int64 array."""
    tops = np.asarray(tops, dtype=np.int64)
    ys = np.arange(tops.sum()) - np.repeat(np.cumsum(tops) - tops, tops)
    return np.stack([np.repeat(np.arange(len(tops)), tops), ys], axis=1)


def F_array(L: Sublattice, m: int) -> np.ndarray:
    """Points of N^2 that dominate no nonzero element of mL+, as an (n, 2)
    int64 array in lexicographic order: column x < ax holds the points under
    the lowest nonzero point of mL+ in columns 0 .. x.  They represent every
    class of Z^2 / mL, which is asserted."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    mL = L.scale(m)
    F = points_under(np.minimum.accumulate(mL.column_heights()[:-1]))
    codes = np.sort(mL.class_labels(F))
    assert np.count_nonzero(np.diff(codes)) + 1 == mL.index(), "F misses a residue class"
    return F


def enumerate_F(L: Sublattice, m: int) -> list[Vec]:
    """F_array(L, m) as a list of tuples."""
    return list(map(tuple, F_array(L, m).tolist()))
