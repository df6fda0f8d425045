from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegames.builtin import paper_gamma, paper_gamma_prime
from latticegames.engine import (
    EquivalenceReport,
    GameSpec,
    Infeasible,
    PointednessWitness,
    Ruleset,
    Solver,
    check_pointedness,
    check_tangent_cone,
    equivalence_in_window,
    fourier_motzkin,
    outcome,
    periodicity_probe,
    pointedness_constraints,
    pointedness_rows,
    solve_window,
    tangent_axis_ok,
)
from latticegames import kernels
from latticegames.lattice import LatticeSet, dominates, dot
from latticegames.recurrence import binom_parity_oracle


def test_ruleset_canonicalisation():
    a = Ruleset(3, [(1, 0, 0), (0, 1, 0), (1, 0, 0)])
    b = Ruleset(3, [(0, 1, 0), (1, 0, 0)])
    assert a == b and len(a) == 2
    with pytest.raises(ValueError):
        Ruleset(2, [(0, 0)])


def test_builtin_sizes():
    assert len(paper_gamma_prime()) == 28
    # 7 wires + 20 slice-0 + 2*28 slice-1 sums with one coincidence
    assert len(paper_gamma()) == 82
    assert (-1, -1, 1) in paper_gamma().moves


def test_pointedness_gamma_prime():
    rs = paper_gamma_prime()
    w = check_pointedness(rs)
    assert isinstance(w, PointednessWitness)
    phi = w.as_integer()
    assert all(f >= 1 for f in phi)
    # verify all 28 dot products explicitly
    for m in rs.moves:
        assert dot(phi, m) >= 1
    # the published functional works too
    assert PointednessWitness((Fraction(3), Fraction(4), Fraction(8))).verify(rs)
    assert min(dot((3, 4, 8), m) for m in rs.moves) == 1


def test_pointedness_trivial():
    w = check_pointedness(Ruleset(3, [(1, 1, 0)]))
    assert isinstance(w, PointednessWitness)
    assert w.verify(Ruleset(3, [(1, 1, 0)]))


def test_solver_checks_a_given_witness():
    game = GameSpec(Ruleset(2, [(2, -1), (0, 1)]))
    assert Solver(game, PointednessWitness((Fraction(1), Fraction(1, 2)))).phi == (2, 1)
    # (2,-1) pairs to 0; a zero weight; the wrong dimension
    for phi in ((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0)), (Fraction(1),)):
        with pytest.raises(ValueError):
            Solver(game, PointednessWitness(phi))


def test_pointedness_infeasible_with_certificate():
    rs = Ruleset(3, [(1, 0, 0), (-1, 0, 0)])
    cert = check_pointedness(rs)
    assert isinstance(cert, Infeasible)
    assert cert.verify(pointedness_constraints(rs))


@st.composite
def rulesets(draw):
    """Random 2-D or 3-D rulesets with move components in [-3, 3]; half of
    them pair positively with a drawn functional, so they are pointed, and
    most of the others are not."""
    d = draw(st.sampled_from((2, 3)))
    vec = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    if draw(st.booleans()):
        phi = draw(st.tuples(*[st.integers(1, 4)] * d))
        vec = vec.filter(lambda m: dot(phi, m) >= 1)
    return Ruleset(d, draw(st.lists(vec, min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(rulesets())
def test_pruned_pointedness_matches_full_elimination(rs):
    d = rs.dim
    # the kept rows: the axes, then every Pareto-minimal move with a
    # negative component, found here by comparing all pairs
    want = list(range(d)) + [
        d + i
        for i, m in enumerate(rs.moves)
        if min(m) < 0 and not any(q != m and dominates(m, q) for q in rs.moves)
    ]
    assert pointedness_rows(rs) == want
    constraints = pointedness_constraints(rs)
    full = fourier_motzkin(dict(enumerate(constraints)))
    pruned = check_pointedness(rs)
    assert isinstance(pruned, Infeasible) == isinstance(full, Infeasible)
    if isinstance(pruned, Infeasible):
        assert pruned.verify(constraints) and full.verify(constraints)
    else:
        assert pruned.verify(rs) and PointednessWitness(full).verify(rs)
        # both are the lexicographically least point of the same polyhedron
        assert pruned.phi == full


def test_tangent_cone_gamma_prime():
    reports = check_tangent_cone(paper_gamma_prime())
    assert all(r.passed for r in reports)
    for r in reports:
        assert tangent_axis_ok(r.witness, r.axis)


def test_tangent_cone_construction_move():
    rs = Ruleset(3, list(paper_gamma().moves) + [(0, 0, 2)])
    reports = check_tangent_cone(rs)
    assert reports[2].passed
    assert tangent_axis_ok((0, 0, 2), 2)


def test_tangent_cone_all_fail():
    reports = check_tangent_cone(Ruleset(3, [(1, 1, 0)]))
    assert not any(r.passed for r in reports)


def test_outcome_terminal(gamma_prime_solver):
    assert gamma_prime_solver.outcome((0, 0, 0)) == "P"


def test_outcome_gasket_points(gamma_prime_solver):
    assert gamma_prime_solver.outcome((6, 0, 1)) == "P"  # C(1,1) odd
    assert gamma_prime_solver.outcome((6, 6, 1)) == "N"  # C(2,1) even


def test_outcome_slice0(gamma_prime_solver):
    # (3,0,0) moves to the terminal P-position via the move (3,0,0)
    assert gamma_prime_solver.outcome((3, 0, 0)) == "N"


def test_outcome_rejects_nonpositions(gamma_prime_game):
    s = Solver(gamma_prime_game)
    with pytest.raises(ValueError):
        s.outcome((-1, 0, 0))
    defeated = LatticeSet.finite([(1, 1, 0)])
    g = GameSpec(gamma_prime_game.ruleset, defeated)
    with pytest.raises(ValueError):
        outcome(g, (1, 1, 0))


STAIRCASE = {(0, 0), (1, 0), (2, 0), (0, 1)}


def in_staircase_lattice(x, y):
    return (x % 6, y % 6) in STAIRCASE


def test_solve_window_slice0_pattern(gamma_prime_solver):
    grid = gamma_prime_solver.solve_window((11, 11, 0))
    for x in range(12):
        for y in range(12):
            want = "P" if in_staircase_lattice(x, y) else "N"
            assert grid.outcome_at((x, y, 0)) == want, (x, y)


def test_solve_window_gasket_multiples(gamma_prime_grid_48):
    for i in range(4):
        for j in range(4):
            want = binom_parity_oracle(i, j)
            assert gamma_prime_grid_48.outcome_at((6 * i, 6 * j, 1)) == want


def test_solve_window_empty(gamma_prime_solver):
    grid = gamma_prime_solver.solve_window((0, 0, 0))
    assert grid.data.shape == (1, 1, 1)
    assert grid.outcome_at((0, 0, 0)) == "P"


def test_topdown_bottomup_agree(gamma_prime_game):
    a = solve_window(gamma_prime_game, (12, 12, 1), mode="top-down")
    b = solve_window(gamma_prime_game, (12, 12, 1), mode="bottom-up")
    assert np.array_equal(a.data, b.data)


@st.composite
def pointed_games(draw):
    """A window and a random pointed game on it, in 2-D or 3-D.

    Move components range over [-2, 3]; a move is kept only if it pairs
    positively with a drawn functional, so the ruleset is pointed while
    negative components stay common.  Defeated sets are empty, finite, an
    orthant or a union of the two.
    """
    d = draw(st.sampled_from((2, 3)))
    phi = draw(st.tuples(*[st.integers(1, 3)] * d))
    vec = st.tuples(*[st.integers(-2, 3)] * d)
    moves = draw(st.lists(vec.filter(lambda m: dot(phi, m) >= 1), min_size=1, max_size=6))
    window = draw(st.tuples(*[st.integers(0, 7 if d == 2 else 4)] * d))
    point = st.tuples(*[st.integers(0, w + 1) for w in window])
    finite = st.lists(point, max_size=6).map(lambda pts: LatticeSet.finite(pts, dim=d))
    orthant = point.map(LatticeSet.orthant)
    defeated = draw(
        st.one_of(
            st.just(LatticeSet.empty(d)),
            finite,
            orthant,
            st.tuples(finite, orthant).map(lambda ab: LatticeSet.union(*ab)),
        )
    )
    return GameSpec(Ruleset(d, moves), defeated), window


@settings(max_examples=150, deadline=None)
@given(pointed_games())
def test_sieve_matches_topdown_memo(case):
    game, window = case
    sieve = solve_window(game, window)
    memo = solve_window(game, window, mode="top-down")
    assert np.array_equal(sieve.data, memo.data)
    # the whole region of the kernel, on a box that every axis cap bounds,
    # against the memo; cells above the level cap stay unvisited
    solver = Solver(game)
    cap = dot(solver.phi, window)
    caps = tuple(cap // f for f in solver.phi)
    region = kernels.solve_region(
        np.array(game.ruleset.moves), np.array(solver.phi), cap, caps, game.defeated.mask(caps)
    )
    for p in np.ndindex(region.shape):
        if dot(solver.phi, p) > cap:
            want = kernels.CODE_UNSEEN
        elif not solver._is_position(p):
            want = kernels.CODE_DEFEATED
        else:
            want = kernels.CODE_P if solver.outcome(p) == "P" else kernels.CODE_N
        assert region[p] == want, p


def test_solving_deterministic(gamma_prime_game):
    a = solve_window(gamma_prime_game, (15, 15, 1))
    b = solve_window(gamma_prime_game, (15, 15, 1))
    assert np.array_equal(a.data, b.data)
    s1, s2 = Solver(gamma_prime_game), Solver(gamma_prime_game)
    s1.outcome((10, 10, 1))
    s2.outcome((10, 10, 1))
    assert list(s1.memo.items()) == list(s2.memo.items())


def test_nor_property(gamma_prime_solver):
    # N iff some legal option is P, P iff all options (possibly none) are N
    grid = gamma_prime_solver.solve_window((10, 10, 1))
    for x in range(11):
        for y in range(11):
            for z in range(2):
                p = (x, y, z)
                opts = gamma_prime_solver.options(p)
                option_outcomes = [gamma_prime_solver.outcome(q) for q in opts]
                want = "N" if "P" in option_outcomes else "P"
                assert grid.outcome_at(p) == want


def test_move_strictly_decreases_phi(gamma_prime_solver):
    phi = gamma_prime_solver.phi
    for m in gamma_prime_solver.game.ruleset.moves:
        assert dot(phi, m) >= 1


def test_pointedness_gate():
    rs = Ruleset(2, [(1, -1), (-1, 1)])
    with pytest.raises(Exception):
        solve_window(GameSpec(rs), (4, 4))


def test_equivalence_gamma_vs_gamma_prime_small(gamma_game, gamma_prime_game):
    rep = equivalence_in_window(gamma_game, gamma_prime_game, (20, 20, 1))
    assert rep.equal, rep


def test_equivalence_reflexive(gamma_prime_game):
    rep = equivalence_in_window(gamma_prime_game, gamma_prime_game, (10, 10, 1))
    assert rep == EquivalenceReport(True)


def test_equivalence_detects_difference(gamma_prime_game):
    weakened = GameSpec(
        Ruleset(3, [m for m in gamma_prime_game.ruleset.moves if m != (1, 1, 0)])
    )
    rep = equivalence_in_window(gamma_prime_game, weakened, (12, 12, 1))
    assert not rep.equal
    assert rep.first_difference is not None
    # lexicographically first witness: re-derive it independently
    a = solve_window(gamma_prime_game, (12, 12, 1))
    b = solve_window(weakened, (12, 12, 1))
    firsts = sorted(
        p
        for p in np.ndindex(13, 13, 2)
        if (a.data[p] == 1) != (b.data[p] == 1)
    )
    assert tuple(rep.first_difference) == firsts[0]


def test_probe_slice0_periodic(gamma_prime_grid_48):
    res = periodicity_probe(gamma_prime_grid_48, 0, ((1, 0), (0, 1)), (6, 0))
    assert res.periodic
    res = periodicity_probe(gamma_prime_grid_48, 0, ((1, 0), (0, 1)), (0, 6))
    assert res.periodic


def test_probe_slice1_violation(gamma_prime_grid_48):
    res = periodicity_probe(gamma_prime_grid_48, 1, ((1, 0), (1, 1)), (0, 6))
    assert not res.periodic
    x, y = res.witness
    assert gamma_prime_grid_48.outcome_at((x, y, 1)) != gamma_prime_grid_48.outcome_at((x, y - 6, 1))
    # the published example pair is among the violations
    assert gamma_prime_grid_48.outcome_at((12, 12, 1)) == "N"
    assert gamma_prime_grid_48.outcome_at((12, 6, 1)) == "P"


def test_probe_zero_rejected(gamma_prime_grid_48):
    with pytest.raises(ValueError):
        periodicity_probe(gamma_prime_grid_48, 1, ((1, 0), (0, 1)), (0, 0))


def test_kernel_scale_guard():
    from latticegames.kernels import solve_region

    with pytest.raises(ValueError):
        solve_region(
            np.array([[1, 1, 1]]), np.array([1, 1, 1]), 10**13,
            (10**5, 10**5, 10**3),
        )


def test_kernel_memory_guard_raises_before_allocating(monkeypatch):
    import tracemalloc

    moves, phi, caps = np.array([[1, 0], [0, 1]]), np.array([1, 1]), (2999, 2999)
    need = kernels.sieve_bytes((3000, 3000), 2, 5998)
    assert need > 9 * 10**6 * 12  # levels, order, masks and outcomes per cell
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB"):
            kernels.solve_region(moves, phi, 5998, caps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # at exactly the budget the region is solved, within the estimate
    need = kernels.sieve_bytes((1000, 1000), 2, 1998)
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need)
    tracemalloc.start()
    try:
        grid = kernels.solve_region(moves, phi, 1998, (999, 999))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= need
    assert grid[0, 0] == kernels.CODE_P and grid[1, 0] == kernels.CODE_N
