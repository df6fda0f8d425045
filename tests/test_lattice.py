import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticegames.compiler import LabelFrame
from latticegames.lattice import (
    EVEN_SUM,
    Z2,
    INT64,
    LatticeSet,
    ModuleIdeal,
    Sublattice,
    dot,
    enumerate_F,
    parse_set_expr,
    pareto_minimal,
    positive_generators,
    unique_rows,
    vadd,
    vscale,
    vsub,
)


def test_lattice_contains_full_lattice():
    assert Z2.contains((3, -5))


def test_lattice_contains_divisibility():
    L6 = Sublattice((6, 0), (0, 6))
    assert L6.contains((6, -12))
    assert not L6.contains((6, 1))


def test_lattice_contains_even_sum():
    assert EVEN_SUM.contains((2, 0))
    assert not EVEN_SUM.contains((1, 0))
    # brute-force cross-check of the 2x2 integer solve
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert EVEN_SUM.contains((x, y)) == ((x + y) % 2 == 0)


def test_lattice_rejects_singular_basis():
    with pytest.raises(ValueError):
        Sublattice((2, 4), (1, 2))


def test_lattice_dimension_mismatch():
    with pytest.raises(ValueError):
        Z2.contains((1, 2, 3))


def brute_minimals(member, order, box):
    pts = [(x, y) for x in range(box + 1) for y in range(box + 1) if member((x, y))]

    def leq(a, b):
        d = (b[0] - a[0], b[1] - a[1])
        return d[0] >= 0 and d[1] >= 0 and order.contains(d)

    return sorted(p for p in pts if not any(q != p and leq(q, p) for q in pts))


def test_minimal_elements_beta_intersection():
    from latticegames.builtin import xor_recurrence
    from latticegames.compiler import beta_intersection_generators

    # intersection of (1,0)+N^2 and (0,1)+N^2 is generated by (1,1)
    s = LatticeSet.inter(LatticeSet.orthant((1, 0)), LatticeSet.orthant((0, 1)))
    got = beta_intersection_generators(xor_recurrence())
    assert got == brute_minimals(s.contains, Z2, 4) == [(1, 1)]


def test_minimal_elements_regenerates_module():
    # the cones over the minimal corners must recover the set on a window
    rng = random.Random(7)
    for _ in range(20):
        corners = [(rng.randrange(0, 5), rng.randrange(0, 5)) for _ in range(3)]
        s = LatticeSet.union(*[LatticeSet.orthant(c) for c in corners])
        gens = [corners[i] for i in pareto_minimal(corners)]
        assert gens == brute_minimals(s.contains, Z2, 12)
        for x in range(10):
            for y in range(10):
                regenerated = any(x >= g[0] and y >= g[1] for g in gens)
                assert regenerated == s.contains((x, y))


@st.composite
def int_rows(draw):
    """Lists of 1- to 4-dimensional integer rows in any order, with
    duplicates likely: components come from a few small values."""
    d = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=24)), d


def all_pairs_minimal(rows):
    """The contract of pareto_minimal, by all pairs: the first occurrence of
    each distinct row that no other row lies at or below, in lexicographic
    order of the rows."""
    return sorted(
        (i for i, p in enumerate(rows)
         if p not in rows[:i] and not any(q != p and all(map(int.__le__, q, p)) for q in rows)),
        key=rows.__getitem__,
    )


@settings(max_examples=300)
@given(int_rows())
def test_pareto_minimal_matches_all_pairs(case):
    rows, d = case
    got = pareto_minimal(np.array(rows, dtype=np.int64).reshape(-1, d))
    assert got.dtype == np.intp and got.tolist() == all_pairs_minimal(rows)


LOW, HIGH = -(2**63), 2**63 - 1


@st.composite
def int64_rows(draw):
    """(n, d) int64 arrays, d = 1..4 and n = 0..24, over the whole int64
    range: entries come from a few values that include both ends of int64,
    -1 and 0, so duplicate rows, columns wider than 2**62 and columns of
    exactly 2**63 values are likely."""
    d = draw(st.integers(1, 4))
    values = draw(st.lists(st.integers(LOW, HIGH), min_size=1, max_size=4)) + [LOW, -1, 0, HIGH]
    rows = draw(st.lists(st.tuples(*[st.sampled_from(values)] * d), max_size=24))
    return np.array(rows, dtype=np.int64).reshape(-1, d)


# the examples: one column holding both ends of int64, with a duplicate row;
# a first column of exactly 2**63 values, whose width is not an int64;
# two columns of 2**32 values each, whose packed key would just leave int64;
# three columns whose key would leave it far; no rows
ROW_EXAMPLES = (
    np.array([(HIGH, 0), (LOW, 0), (HIGH, 0), (0, -1)], dtype=np.int64),
    np.array([(0, 1), (HIGH, 0), (0, 1)], dtype=np.int64),
    np.array([(2**32 - 1, 2**32 - 1), (0, 0), (2**31, 1), (2**32 - 1, 2**32 - 1)], dtype=np.int64),
    np.array([(0, 2**40, 1), (2**40, 0, 0), (5, 5, 5), (0, 2**40, 1)], dtype=np.int64),
    np.zeros((0, 3), dtype=np.int64),
)


def with_examples(test):
    for rows in ROW_EXAMPLES:
        test = example(rows)(test)
    return test


@settings(max_examples=300)
@with_examples
@given(int64_rows())
def test_unique_rows_matches_numpy_over_int64(rows):
    got = unique_rows(rows)
    assert got.dtype == np.int64 and not np.shares_memory(got, rows)
    assert np.array_equal(got, np.unique(rows, axis=0)) and got.shape[1] == rows.shape[1]


@settings(max_examples=300)
@with_examples
@given(int64_rows())
def test_pareto_minimal_matches_all_pairs_over_int64(rows):
    got = pareto_minimal(rows)
    assert got.dtype == np.intp and got.tolist() == all_pairs_minimal(list(map(tuple, rows.tolist())))


def test_enumerate_F_identity_lattice():
    pts = enumerate_F(Z2, 6)
    assert sorted(pts) == [(x, y) for x in range(6) for y in range(6)]
    assert len(pts) == 36


def test_enumerate_F_trivial():
    assert enumerate_F(Z2, 1) == [(0, 0)]
    with pytest.raises(ValueError):
        enumerate_F(Z2, 0)


def test_enumerate_F_even_sum():
    assert sorted(enumerate_F(EVEN_SUM, 1)) == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_F_covers_all_classes_random():
    rng = random.Random(20240201)
    tried = 0
    while tried < 25:
        b1 = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        b2 = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        if b1[0] * b2[1] - b1[1] * b2[0] == 0:
            continue
        tried += 1
        L = Sublattice(b1, b2)
        for m in (1, 2, 3, 6):
            mL = L.scale(m)
            pts = enumerate_F(L, m)
            # exhaustive coset enumeration via class labels
            assert len({mL.class_label(p) for p in pts}) == mL.index()


# The residue tables by scans of the [0, ax] x [0, ay] box, kept as the
# references for their closed forms; membership over the box is read from
# one class_labels call, so a large box stays cheap.
def _reference_axis_strides(L):
    d = abs(L.det)
    a = next(k for k in range(1, d + 1) if L.contains((k, 0)))
    b = next(k for k in range(1, d + 1) if L.contains((0, k)))
    return a, b


def _box(nx, ny):
    """The points of [0, nx) x [0, ny) in lexicographic order."""
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


def _reference_positive_generators(mL):
    ax, ay = _reference_axis_strides(mL)
    box = _box(ax + 1, ay + 1)
    pts = box[(mL.class_labels(box) == 0) & box.any(axis=1)]
    return [tuple(p) for p in pts[pareto_minimal(pts)].tolist()]


def _reference_residues(L, m):
    """F and the map from each class label to its last point of F."""
    mL = L.scale(m)
    gens = _reference_positive_generators(mL)
    ax, ay = _reference_axis_strides(mL)
    box = _box(ax, ay)
    free = np.ones(len(box), dtype=bool)
    for g in gens:
        free &= ~(box >= g).all(axis=1)
    pts = [tuple(p) for p in box[free].tolist()]
    rep_of = {mL.class_label(p): p for p in pts}
    assert len(rep_of) == mL.index(), "F misses a residue class"
    return pts, rep_of


@settings(max_examples=150)
@given(
    st.tuples(*[st.integers(-8, 8)] * 4).filter(lambda b: b[0] * b[3] != b[1] * b[2]),
    st.integers(1, 6),
)
@example((1, 1, 1, -1), 1)
@example((0, -3, -2, 5), 2)  # a negative pivot on each axis
@example((2, 2, 0, 4), 3)  # gcd(s, ay) = 6, so ax = 12, not 72
def test_residue_tables_match_the_box_scans(basis, m):
    L = Sublattice(basis[:2], basis[2:])
    mL = L.scale(m)
    assert mL.axis_strides() == _reference_axis_strides(mL)
    assert positive_generators(mL) == _reference_positive_generators(mL)
    F, rep_of = _reference_residues(L, m)
    assert enumerate_F(L, m) == F
    # the label frame names each class by the same point
    frame = LabelFrame(L, m, ((0, 0),), (1, 1))
    assert {divmod(c, mL.index()): frame.rep(c) for c in frame.F_codes.tolist()} == rep_of


@st.composite
def sublattices(draw):
    """Full-rank sublattices of Z^2 with bases of either orientation, so the
    determinant takes both signs."""
    coord = st.integers(-12, 12)
    b1, b2 = draw(
        st.tuples(st.tuples(coord, coord), st.tuples(coord, coord)).filter(
            lambda b: b[0][0] * b[1][1] - b[0][1] * b[1][0] != 0
        )
    )
    return Sublattice(b1, b2) if draw(st.booleans()) else Sublattice(b2, b1)


big_points = st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))


@settings(max_examples=300)
@given(sublattices(), st.integers(1, 7), big_points, big_points)
def test_class_label_is_additive(L, m, a, b):
    # labels are additive: a homomorphism from Z^2 into (Z / |det|)^2
    mL = L.scale(m)
    d = mL.index()
    la, lb = mL.class_label(a), mL.class_label(b)
    assert mL.class_label((a[0] - b[0], a[1] - b[1])) == ((la[0] - lb[0]) % d, (la[1] - lb[1]) % d)


@st.composite
def wide_sublattices(draw):
    """Full-rank sublattices of Z^2 whose entries and determinants reach
    past what int64 codes can hold."""
    entry = st.one_of(st.integers(-12, 12), st.integers(-2**40, 2**40), st.integers(-2**64, 2**64))
    b1, b2 = draw(
        st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)).filter(
            lambda b: b[0][0] * b[1][1] - b[0][1] * b[1][0] != 0
        )
    )
    return Sublattice(b1, b2)


@settings(max_examples=100)
@given(
    wide_sublattices(),
    st.lists(st.tuples(*[st.one_of(st.integers(-10**6, 10**6), st.integers(-2**64, 2**64))] * 2),
             min_size=1, max_size=4),
)
@example(EVEN_SUM.scale(2**20), [(3, 5)])
@example(EVEN_SUM.scale(2**10), [(3, 5), (-(2**63), 2**63 - 1)])
@example(Sublattice((2**70, 1), (2**70 - 1, 1)), [(0, 0)])
def test_class_labels_are_exact_or_refused(L, points):
    d = L.index()
    try:
        codes = L.class_labels(points)
    except ValueError:
        # refused only where a point or a code leaves int64
        reach = max(abs(c) for p in points for c in p)
        entry = max(abs(c) for c in L.b1 + L.b2)
        assert reach >= 2**63 or d * d >= 2**63 or 2 * max(reach, 1) * entry >= 2**63
        return
    assert codes.tolist() == [a * d + b for a, b in map(L.class_label, points)]


def test_class_labels_refuse_wrapping_codes():
    # |det| = 2^41, so the codes a * |det| + b would wrap int64
    with pytest.raises(ValueError, match="leave int64"):
        EVEN_SUM.scale(2**20).class_labels([(3, 5)])
    with pytest.raises(ValueError, match="int64 coordinates"):
        Z2.class_labels([(2**63, 0)])


def test_latticeset_coset_membership():
    # I + 6Z^2 with the staircase I
    I = [(0, 0), (1, 0), (2, 0), (0, 1)]
    s = LatticeSet.union(
        *[LatticeSet.coset(v, [(1, 0), (0, 1)], 6) for v in I]
    )
    assert s.contains((7, 6))
    assert s.contains((2, 0))
    assert not s.contains((3, 0))
    assert not s.contains((7, 7))


def test_latticeset_diff_self_empty():
    a = LatticeSet.union(LatticeSet.orthant((1, 2)), LatticeSet.finite([(0, 0)]))
    d = LatticeSet.diff(a, a)
    for x in range(6):
        for y in range(6):
            assert not d.contains((x, y))


def test_latticeset_orthant():
    s = LatticeSet.orthant((2, 3))
    assert not s.contains((2, 2))
    assert s.contains((5, 3))


def random_set(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return LatticeSet.orthant((rng.randrange(0, 8), rng.randrange(0, 8)))
        if kind == 1:
            pts = [(rng.randrange(0, 10), rng.randrange(0, 10)) for _ in range(rng.randrange(1, 4))]
            return LatticeSet.finite(pts)
        v = (rng.randrange(0, 4), rng.randrange(0, 4))
        basis = [(1, 0), (0, 1)] if rng.random() < 0.5 else [(1, 1), (1, -1)]
        return LatticeSet.coset(v, basis, rng.randrange(1, 4))
    op = rng.randrange(3)
    a = random_set(rng, depth - 1)
    b = random_set(rng, depth - 1)
    if op == 0:
        return LatticeSet.union(a, b)
    if op == 1:
        return LatticeSet.inter(a, b)
    return LatticeSet.diff(a, b)


def test_latticeset_algebra_identities():
    # De Morgan-style identities hold pointwise on a 50x50 window
    rng = random.Random(99)
    full = LatticeSet.orthant((0, 0))
    for _ in range(12):
        a = random_set(rng)
        b = random_set(rng)
        lhs = LatticeSet.diff(full, LatticeSet.union(a, b))
        rhs = LatticeSet.inter(LatticeSet.diff(full, a), LatticeSet.diff(full, b))
        lhs2 = LatticeSet.diff(full, LatticeSet.inter(a, b))
        rhs2 = LatticeSet.union(LatticeSet.diff(full, a), LatticeSet.diff(full, b))
        for x in range(0, 50, 3):
            for y in range(0, 50, 3):
                assert lhs.contains((x, y)) == rhs.contains((x, y))
                assert lhs2.contains((x, y)) == rhs2.contains((x, y))


def test_latticeset_mask_matches_contains():
    rng = random.Random(4242)
    for _ in range(10):
        s = random_set(rng)
        m = s.mask((12, 12))
        for x in range(13):
            for y in range(13):
                assert bool(m[x, y]) == s.contains((x, y))


@st.composite
def finite_sets_and_boxes(draw):
    """A box at the origin and a finite set, possibly empty, whose points may
    lie outside the box on either side."""
    d = draw(st.sampled_from((2, 3)))
    box = draw(st.tuples(*[st.integers(0, 5)] * d))
    point = st.tuples(*[st.integers(-3, b + 3) for b in box])
    return LatticeSet.finite(draw(st.lists(point, max_size=12)), dim=d), box


@settings(max_examples=200)
@given(finite_sets_and_boxes())
def test_finite_mask_matches_contains(case):
    s, box = case
    m = s.mask(box)
    assert m.shape == tuple(b + 1 for b in box) and m.dtype == bool
    for p in np.ndindex(m.shape):
        assert bool(m[p]) == s.contains(p), p


@st.composite
def cosets_and_boxes(draw):
    """A box at the origin and a coset the parser accepts: basis vectors may
    be zero, parallel or more than the dimension, and entries may lie
    anywhere in int64."""
    d = draw(st.sampled_from((2, 3)))
    entry = st.one_of(st.integers(-3, 3), st.integers(INT64.start, INT64.stop - 1))
    vec = st.tuples(*[entry] * d)
    basis = draw(st.lists(vec, min_size=1, max_size=3))
    if draw(st.booleans()):
        basis.append((0,) * d)
    if draw(st.booleans()):
        basis.append(vscale(draw(st.integers(-3, 3)), draw(st.sampled_from(basis))))
    box = draw(st.tuples(*[st.integers(0, 5)] * d))
    v = draw(st.one_of(st.tuples(*[st.integers(-3, b + 3) for b in box]), vec))
    m = draw(st.sampled_from((1, 2, 3, INT64.stop - 1)))
    return parse_set_expr(LatticeSet.coset(v, basis, m).to_expr()), box


@settings(max_examples=200)
@given(cosets_and_boxes())
def test_coset_mask_matches_contains(case):
    s, box = case
    m = s.mask(box)
    assert m.shape == tuple(b + 1 for b in box) and m.dtype == bool
    for p in np.ndindex(m.shape):
        assert bool(m[p]) == s.contains(p), p


def test_coset_contains_dependent_vectors():
    # 1 = 3 - 2: parallel vectors span their gcd, not just one of them
    s = parse_set_expr("coset((0,0);(2,0);(3,0);1)")
    assert all(s.contains((x, 0)) for x in range(-4, 5))
    assert not s.contains((0, 1))
    three = parse_set_expr("coset((1,1);(2,1);(4,2);(0,3);2)")
    assert three.contains((1, 7)) and three.contains((5, 3))
    assert not three.contains((1, 4)) and not three.contains((2, 1))


def test_coset_tables_are_built_once_per_node(monkeypatch):
    from latticegames import lattice

    made = []

    def counted(rows, dim):
        made.append(dim)
        return real(rows, dim)

    real = lattice.echelon
    monkeypatch.setattr(lattice, "echelon", counted)
    s = parse_set_expr("coset((1,1);(2,1);(4,2);(0,3);2)")
    fresh = parse_set_expr(s.to_expr())
    hits = [p for p in np.ndindex(9, 9) if s.contains(p)]
    assert hits == [p for p in np.ndindex(9, 9) if fresh.contains(p)]
    assert s.mask((8, 8)).sum() == len(hits)
    assert made == [2, 2]  # one echelon per node, for every test and the mask
    # the tables stay outside the fields: == and hash read only those
    assert s == fresh and hash(s) == hash(fresh)
    assert s != LatticeSet.coset((0, 1), [(2, 1), (4, 2), (0, 3)], 2)


def test_expr_roundtrip():
    rng = random.Random(17)
    for _ in range(20):
        s = random_set(rng)
        text = s.to_expr()
        back = parse_set_expr(text)
        assert back.to_expr() == text
        for x in range(0, 12, 2):
            for y in range(0, 12, 2):
                assert back.contains((x, y)) == s.contains((x, y))


def test_expr_parse_examples():
    s = parse_set_expr("union(orthant((2,3)),finite{(0,0),(1,-1)})")
    assert s.contains((2, 3))
    assert s.contains((1, -1))
    assert not s.contains((1, 1))
    c = parse_set_expr("coset((0,0);(1,1);(1,-1);3)")
    assert c.contains((3, 3))
    assert c.contains((6, 0))
    assert not c.contains((2, 0))
    e = parse_set_expr("finite2{}")
    assert not e.contains((0, 0))
    with pytest.raises(ValueError):
        parse_set_expr("orthant((1,2)) trailing")


def test_module_ideal():
    M = ModuleIdeal(Z2, [(0, 0)])
    assert M.contains((5, 3))
    assert M.is_generator((0, 0))
    with pytest.raises(ValueError):
        ModuleIdeal(Z2, [(0, 0), (1, 0)])  # comparable generators
    ME = ModuleIdeal(EVEN_SUM, [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
    assert ME.contains((2, 2))
    assert ME.contains((3, 3))
    assert not ME.contains((1, 1))
    assert not ME.contains((0, 2))
    assert ME.contains((0, 6))
    with pytest.raises(ValueError):
        ModuleIdeal(EVEN_SUM, [(0, 2), (1, 3)])  # (1, 3) - (0, 2) lies in L+
    # the direct definition, p - g in L+ for a generator g, on points on and
    # off L, including points that dominate a generator off L
    for module in (M, ME, ModuleIdeal(Sublattice((2, 1), (0, 3)), [(0, 3), (2, 1)])):
        L = module.ambient
        for x, y in product(range(-2, 9), repeat=2):
            want = any(min(x - a, y - b) >= 0 and L.contains((x - a, y - b)) for a, b in module.generators)
            assert module.contains((x, y)) == want, (module, (x, y))


# (a call, what its refusal says)
LATTICE_REFUSALS = [
    (lambda: vadd((1, 2), (1,)), "dimension mismatch: 2 vs 1"),
    (lambda: vsub((1,), (1, 2)), "dimension mismatch: 1 vs 2"),
    (lambda: dot((1, 2, 3), (1, 2)), "dimension mismatch: 3 vs 2"),
    (lambda: LatticeSet("bogus", 2).contains((0, 0)), "unknown node kind 'bogus'"),
    (lambda: LatticeSet("bogus", 2).mask((1, 1)), "unknown node kind 'bogus'"),
    (lambda: ModuleIdeal(Z2, [(-1, 0)]), "generator (-1, 0) is not in L+"),
    (lambda: ModuleIdeal(EVEN_SUM, [(0, 1)]), "generator (0, 1) is not in L+"),
]


@pytest.mark.parametrize("call, says", LATTICE_REFUSALS)
def test_lattice_refusals(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()


def test_module_ideal_repr():
    assert repr(ModuleIdeal(EVEN_SUM, [(2, 0), (0, 2)])) == "ModuleIdeal(Sublattice((1, 1), (1, -1)), [(0, 2), (2, 0)])"
