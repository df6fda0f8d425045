import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticegames.builtin import paper_gamma, paper_gamma_prime
from latticegames.circuits import extend_circuit, synthesize_nor_circuit
from latticegames.compiler import Placement, compile_recurrence, emit_ruleset, search_placement
from latticegames.engine import (
    EquivalenceReport,
    GameSpec,
    Infeasible,
    OutcomeGrid,
    PointednessWitness,
    ProbeResult,
    Ruleset,
    Solver,
    check_pointedness,
    check_tangent_cone,
    equivalence_in_window,
    fourier_motzkin,
    periodicity_probe,
    pointedness_constraints,
    pointedness_rows,
    tangent_axis_ok,
    topdown_bytes,
)
from latticegames import kernels
from latticegames.lattice import EVEN_SUM, Z2, LatticeSet, ModuleIdeal, as_vec, dominates, dot, parse_set_expr
from latticegames.recurrence import (
    Encoding,
    binom_parity_oracle,
    ca_to_recurrence,
    encoded_table,
    prune_unused_arguments,
    wolfram_rule_table,
)


def test_ruleset_canonicalisation():
    a = Ruleset(3, [(1, 0, 0), (0, 1, 0), (1, 0, 0)])
    b = Ruleset(3, [(0, 1, 0), (1, 0, 0)])
    assert a == b and len(a) == 2
    assert a.moves == ((0, 1, 0), (1, 0, 0))
    assert all(type(c) is int for m in a.moves for c in m)
    # array input and tuple input give the same, equally hashed ruleset
    c = Ruleset(3, np.array([(1, 0, 0), (0, 1, 0)], dtype=np.int64))
    assert c == a and hash(c) == hash(a) and c.moves == a.moves
    assert c.array.dtype == np.int64 and c.array.tolist() == [[0, 1, 0], [1, 0, 0]]
    assert not c.array.flags.writeable
    with pytest.raises(ValueError):
        c.array[0, 0] = 5
    # a refused move is named in the message
    for dim, moves, named in (
        (2, [(0, 0)], "(0, 0)"),
        (2, [(0, 1), (0, 0)], "(0, 0)"),
        (2, [(2**70, 1), (0, 1)], str(2**70)),
        (2, [(0, 1), (-(2**63) - 1, 1)], str(-(2**63) - 1)),
        (2, np.array([(0, 1), (2**63, 1)], dtype=np.uint64), str(2**63)),
        (2, [(0, 1), (1, 2, 3)], "(1, 2, 3)"),
        (3, [(1, 0, 0), (1, 2)], "(1, 2)"),
        (3, [(1, 2), (3, 4)], "(1, 2)"),
    ):
        with pytest.raises(ValueError, match=re.escape(named)):
            Ruleset(dim, moves)
    assert Ruleset(2, [(2**63 - 1, -(2**63))]).moves == ((2**63 - 1, -(2**63)),)
    assert Ruleset(2, [(2**63 - 1, 1), (0, 1)]).moves == ((0, 1), (2**63 - 1, 1))
    # no moves: every position is P
    empty = Ruleset(3, [])
    assert empty.array.shape == (0, 3) and empty.moves == ()
    assert isinstance(check_pointedness(empty), PointednessWitness)
    grid = Solver(GameSpec(empty)).solve_window((2, 2, 1))
    assert (grid.data == kernels.CODE_P).all()


def test_ruleset_from_an_int64_array():
    moves = [(0, 1, 0), (2, -1, 1), (0, 1, 0), (-3, 4, 0)]
    given_array = np.array(moves, dtype=np.int64)
    a, b = Ruleset(3, given_array), Ruleset(3, moves)
    assert a == b and hash(a) == hash(b) and a.moves == b.moves
    assert a.array.tolist() == b.array.tolist() and not a.array.flags.writeable
    assert all(type(c) is int for m in a.moves for c in m)
    # the caller's array is left as it was
    assert given_array.flags.writeable and given_array.tolist() == [list(m) for m in moves]
    assert Ruleset(3, np.zeros((0, 3), dtype=np.int64)) == Ruleset(3, [])
    assert Ruleset(3, np.zeros(0, dtype=np.int64)) == Ruleset(3, [])
    # refused with the messages the checked path gives an array
    for dim, bad, message in (
        (3, [(0, 1, 0), (0, 0, 0)], "the zero vector (0, 0, 0) cannot be a move"),
        (3, [(1, 2), (3, 4)], "move [1, 2] is not a 3-dimensional vector"),
        (3, [1, 2, 3], "move 1 is not a 3-dimensional vector"),
        (2, [[(1, 2), (3, 4)]], "move [[1, 2], [3, 4]] is not a 2-dimensional vector"),
        (2, np.zeros((0, 3)), "moves must be 2-dimensional integer vectors"),
        (2, 5, "move 5 is not a 2-dimensional vector"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            Ruleset(dim, np.array(bad, dtype=np.int64))
    # any other dtype goes through Python ints, so nothing wraps into int64
    assert Ruleset(3, np.array(moves, dtype=object)) == b
    assert Ruleset(2, np.array([(3, 1), (0, 2)], dtype=np.uint64)) == Ruleset(2, [(0, 2), (3, 1)])
    for huge in (np.array([(0, 1), (2**63, 1)], dtype=np.uint64),
                 np.array([(0, 1), (2**63, 1)], dtype=object),
                 np.array([(0, 1), (-(2**63) - 1, 1)], dtype=object)):
        with pytest.raises(ValueError, match="not a vector of int64 integers"):
            Ruleset(2, huge)


# (a call on the gamma' solver, what its refusal says)
ENGINE_REFUSALS = [
    pytest.param(lambda s: s.solve_window((2, 2, 1)).plane(), "slice index required for a 3-D grid",
                 id="plane-without-slice"),
    pytest.param(lambda s: s.solve_window((2, 2, 1), mode="sideways"), "unknown solve mode 'sideways'",
                 id="solve-mode"),
    pytest.param(lambda s: equivalence_in_window(GameSpec(Ruleset(2, [(1, 0)])), s.game, (2, 2)),
                 "games have different dimensions", id="equivalence-dimensions"),
    pytest.param(lambda s: kernels.solve_region(np.array([[1]]), np.array([1]), [(2**41,)]),
                 "has more than the 2**40 levels this kernel is sized for", id="kernel-levels"),
    pytest.param(lambda s: Ruleset(0, []), "dimension 0 is below 1", id="ruleset-dimension-0"),
    pytest.param(lambda s: Ruleset(-1, []), "dimension -1 is below 1", id="ruleset-dimension-negative"),
    pytest.param(lambda s: Ruleset(2.5, [(1, 0)]), "dimension 2.5 is not an integer", id="ruleset-dimension-float"),
    pytest.param(lambda s: Ruleset("2", [(1, 0)]), "dimension '2' is not an integer", id="ruleset-dimension-str"),
]


@pytest.mark.parametrize("call, says", ENGINE_REFUSALS)
def test_engine_refusals(gamma_prime_solver, call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call(gamma_prime_solver)


def test_reprs_and_a_vacuous_row():
    rs = Ruleset(2, [(1, 0)])
    assert repr(rs) == "Ruleset(dim=2, 1 moves)"
    assert repr(GameSpec(rs)) == "GameSpec(Ruleset(dim=2, 1 moves), defeated=finite2{})"
    # the all-zero row 0 >= 0 is dropped, and nothing bounds phi_1
    assert fourier_motzkin({0: ((0, 0), 0), 1: ((1, 0), 1)}) == (1, 1)


def _probe_ell(solver, ell):
    return periodicity_probe(solver.solve_window((8, 8, 1)), 0, ((1, 0), (0, 1)), ell)


# (a call on the gamma' solver with a coordinate that is no integer, what
# its refusal says): none is truncated or parsed.  Entries are judged by
# type, as operator.index does, so a float array has no integer entry
NON_INTEGER_CALLS = [
    pytest.param(lambda s: Ruleset(2, [(1, 2), (1.5, 2)]),
                 "move (1.5, 2) is not a vector of int64 integers", id="ruleset-list"),
    pytest.param(lambda s: Ruleset(2, np.array([[1.5, 2], [1, 2]])),
                 "move [1.5, 2.0] is not a vector of int64 integers", id="ruleset-float-array"),
    pytest.param(lambda s: Ruleset(2, np.array([["1", "2"]])),
                 "move ['1', '2'] is not a vector of int64 integers", id="ruleset-str-array"),
    pytest.param(lambda s: Ruleset(2, np.array([[1, 2], [Fraction(1, 2), 2]], dtype=object)),
                 "move [Fraction(1, 2), 2] is not a vector of int64 integers", id="ruleset-object-array"),
    pytest.param(lambda s: s.outcome((1.9, 0, 0)), "expected a vector of integers, got (1.9, 0, 0)",
                 id="outcome"),
    pytest.param(lambda s: s.outcomes(np.array([[0, 0, 0], [1.5, 0, 0]])),
                 "cells must be an (..., 3) array of nonnegative ints", id="outcomes"),
    pytest.param(lambda s: s.solve_window((2.7, 2.2, 1)), "expected a vector of integers", id="solve-window"),
    pytest.param(lambda s: s.solve_window((2, 2, 1)).code_at((1, 0.5, 0)), "expected a vector of integers",
                 id="code-at"),
    pytest.param(lambda s: EVEN_SUM.contains((0.5, 0.5)), "expected a vector of integers",
                 id="sublattice-contains"),
    pytest.param(lambda s: EVEN_SUM.class_labels(np.array([[0, 0], [0.5, 0.5]])),
                 "class_labels takes points with int64 coordinates", id="class-labels-array"),
    pytest.param(lambda s: EVEN_SUM.class_labels([(0, 0), ("1", 1)]),
                 "class_labels takes points with int64 coordinates", id="class-labels-list"),
    pytest.param(lambda s: LatticeSet.orthant((0.5, 0)), "expected a vector of integers", id="orthant"),
    pytest.param(lambda s: LatticeSet.coset((0, 0), [(1, 0), (0.5, 1)]), "expected a vector of integers",
                 id="coset-basis"),
    pytest.param(lambda s: LatticeSet.coset((0, 0), [(1, 0)], 1.5), "coset scale must be an integer, got 1.5",
                 id="coset-scale"),
    pytest.param(lambda s: LatticeSet.finite([(1, 2), (1, "2")]), "expected a vector of integers", id="finite"),
    pytest.param(lambda s: ModuleIdeal(Z2, [(0, 2.0)]), "expected a vector of integers", id="module-ideal"),
    pytest.param(lambda s: Placement({"v": (0.5, 1)}, 6, [(0, 0)], (1, 1)), "expected a vector of integers",
                 id="placement-position"),
    pytest.param(lambda s: Placement({"v": (0, 1)}, 6.5, [(0, 0)], (1, 1)), "m must be a positive integer",
                 id="placement-m"),
    pytest.param(lambda s: Placement({"v": (0, 1)}, 6, [(0.0, 0)], (1, 1)), "expected a vector of integers",
                 id="placement-staircase"),
    pytest.param(lambda s: Placement({"v": (0, 1)}, 6, [(0, 0)], (1.5, 1)), "expected a vector of integers",
                 id="placement-normal"),
    pytest.param(lambda s: _probe_ell(s, (2.5, 0)), "expected a vector of integers", id="probe-ell"),
    pytest.param(lambda s: as_vec("12"), "expected a vector of integers, got '12'", id="as-vec-str"),
]


@pytest.mark.parametrize("call, says", NON_INTEGER_CALLS)
def test_non_integer_coordinates_are_refused(gamma_prime_solver, call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call(gamma_prime_solver)


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


def test_witness_fails_on_exactly_one_move():
    witness = PointednessWitness((Fraction(1), Fraction(3)))
    moves = [(1, 0), (0, 1), (5, -1), (4, -1), (-2, 1)]
    assert witness.verify(Ruleset(2, moves))
    # (3, -1) alone pairs to 0
    assert not witness.verify(Ruleset(2, moves + [(3, -1)]))


def test_witness_check_stays_exact_beyond_int64():
    witness = PointednessWitness((Fraction(2**62), Fraction(1)))
    # 2**62 * 4 wraps to 0 in int64, and 2**62 * -4 + 1 wraps to 1
    assert witness.verify(Ruleset(2, [(4, 0), (0, 1)]))
    assert not witness.verify(Ruleset(2, [(-4, 1), (0, 1)]))


def test_pointedness_infeasible_with_certificate():
    rs = Ruleset(3, [(1, 0, 0), (-1, 0, 0)])
    cert = check_pointedness(rs)
    assert isinstance(cert, Infeasible)
    assert cert.verify(pointedness_constraints(rs))


@st.composite
def move_lists(draw):
    """A dimension, 2 or 3, and a list of moves with components in [-3, 3];
    half of the lists pair positively with a drawn functional, so they are
    pointed, and most of the others are not."""
    d = draw(st.sampled_from((2, 3)))
    vec = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    if draw(st.booleans()):
        phi = draw(st.tuples(*[st.integers(1, 4)] * d))
        vec = vec.filter(lambda m: dot(phi, m) >= 1)
    return d, draw(st.lists(vec, min_size=1, max_size=12))


def rulesets():
    return move_lists().map(lambda case: Ruleset(*case))


@given(move_lists())
def test_lazy_moves_keep_the_contract(case):
    # length, equality and hashing read the array, and leave the tuple form
    # unbuilt; built on first read, it is that of the tuple list
    d, moves = case
    from_tuples, from_array = Ruleset(d, moves), Ruleset(d, np.array(moves, dtype=np.int64))
    want = tuple(sorted(set(moves)))
    assert len(from_tuples) == len(from_array) == len(want)
    assert from_tuples == from_array and hash(from_tuples) == hash(from_array)
    assert from_array != Ruleset(d, [m for m in moves if m != moves[0]])
    assert "moves" not in from_array.__dict__
    assert from_tuples.moves == from_array.moves == want
    assert all(type(c) is int for m in from_array.moves for c in m)


@settings(max_examples=300)
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
    # the integer elimination agrees with the Fraction reference, pruned and full
    assert pruned == _reference_pointedness(rs)
    assert full == _reference_fourier_motzkin(dict(enumerate(constraints)))
    _assert_exact_types(pruned)
    _assert_exact_types(full)
    assert isinstance(pruned, Infeasible) == isinstance(full, Infeasible)
    if isinstance(pruned, Infeasible):
        assert pruned.verify(constraints) and full.verify(constraints)
    else:
        assert pruned.verify(rs) and PointednessWitness(full).verify(rs)
        # both are the lexicographically least point of the same polyhedron
        assert pruned.phi == full


def test_wide_coordinates_prune_in_row_memory(traced_peak):
    # one minimal row under 800 moves whose last three columns each hold
    # about 800 distinct values: the prune's memory follows the rows, not
    # the product of the distinct values of the columns
    wide = 2 + np.random.default_rng(0).integers(0, 10**6, size=(800, 3))
    moves = np.vstack([[(-1, 1, 1, 1)], np.c_[np.full(800, -1), wide]])
    rs = Ruleset(4, moves)
    with traced_peak() as peak:
        rows = pointedness_rows(rs)
        solver = Solver(GameSpec(rs))
    assert rows == [0, 1, 2, 3, 4] and peak.bytes < 2**20
    # the witness is the one the full elimination finds, as without the prune
    full = fourier_motzkin(dict(enumerate(pointedness_constraints(rs))))
    assert solver.witness.verify(rs) and solver.witness.phi == full
    window = (2, 3, 3, 3)
    memo = solver.solve_window(window, mode="top-down")
    assert np.array_equal(solver.solve_window(window).data, memo.data)


def _reference_fourier_motzkin(constraints: dict):
    """fourier_motzkin as it was on Fraction rows, kept as the reference: the
    rows, the multipliers and the right sides are all Fractions."""
    d = len(next(iter(constraints.values()))[0])
    rows = [
        ([Fraction(c) for c in coeffs], Fraction(rhs), {i: Fraction(1)})
        for i, (coeffs, rhs) in constraints.items()
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
                    return Infeasible(tuple(sorted(mult.items())), rhs)
                continue
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
    return tuple(phi)


def _reference_pointedness(rs):
    constraints = pointedness_constraints(rs)
    result = _reference_fourier_motzkin({i: constraints[i] for i in pointedness_rows(rs)})
    return result if isinstance(result, Infeasible) else PointednessWitness(result)


def _assert_exact_types(result):
    # a certificate is all integers; a witness, or an elimination's phi, is
    # all Fractions
    if isinstance(result, Infeasible):
        assert all(type(i) is int and type(lam) is int for i, lam in result.multipliers)
        assert type(result.combined_rhs) is int
    else:
        phi = result.phi if isinstance(result, PointednessWitness) else result
        assert all(type(f) is Fraction for f in phi)


def _assert_same_as_reference(rs):
    # equal witnesses, or equal certificates: multipliers and right side
    got = check_pointedness(rs)
    assert got == _reference_pointedness(rs)
    _assert_exact_types(got)


def test_compiled_pointedness_matches_the_fraction_reference():
    # the benchmark's rule 110 B compiles, placement seeds 0-3, and Γ, Γ'
    emb = ca_to_recurrence(wolfram_rule_table(110), "0", "1")
    enc = Encoding({"0": ("N",), "1": ("P",)})
    games = [compile_recurrence(emb.spec, enc, variant="B", seed=s).game.ruleset for s in range(4)]
    for rs in games + [paper_gamma(), paper_gamma_prime()]:
        _assert_same_as_reference(rs)


def test_certificate_check_rejects_tampering():
    # rows 3 and 4 are (-1, 0, 0) and (1, 0, 0)
    rows = pointedness_constraints(Ruleset(3, [(1, 0, 0), (-1, 0, 0)]))
    # -1 * (1, 0, 0) + 2 * (-1, 0, 0) + 3 * (1, 0, 0) vanishes with right side
    # 4, so only the sign of the first multiplier is wrong
    assert not Infeasible(((0, -1), (3, 2), (4, 3)), 4).verify(rows)
    # (-1, 0, 0) + 2 * (1, 0, 0) does not vanish
    assert not Infeasible(((3, 1), (4, 2)), 3).verify(rows)
    # x >= 0 and -x >= 0 combine to 0 >= 0, which is no contradiction
    assert not Infeasible(((0, 1), (1, 1)), 0).verify([((1,), 0), ((-1,), 0)])


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
        Solver(g).outcome((1, 1, 0))
    # still refused once the memo holds the positions around it
    s = Solver(g)
    s.solve_window((3, 3, 1), mode="top-down")
    with pytest.raises(ValueError):
        s.outcome((1, 1, 0))


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


def test_outcome_outside_the_window_is_refused(gamma_prime_game):
    grid = Solver(gamma_prime_game).solve_window((5, 5, 1))
    assert grid.outcome_at((5, 0, 0)) == "N"
    for p in ((-1, 0, 0), (6, 0, 0), (0, 0, 2), (0, -3, 1)):
        with pytest.raises(ValueError, match="outside the window"):
            grid.outcome_at(p)
        with pytest.raises(ValueError, match="outside the window"):
            grid.code_at(p)


def test_topdown_bottomup_agree(gamma_prime_game):
    a = Solver(gamma_prime_game).solve_window((12, 12, 1), mode="top-down")
    b = Solver(gamma_prime_game).solve_window((12, 12, 1), mode="bottom-up")
    assert np.array_equal(a.data, b.data)


@st.composite
def pointed_games(draw):
    """A window and a random pointed game on it, in 1-D, 2-D or 3-D.

    Move components range over [-(w + 3), w + 3] for the largest window
    bound w, so some moves reach past every box the sieve solves; a move is
    kept only if it pairs positively with a drawn functional, so the ruleset
    is pointed while negative components stay common.  Defeated sets are
    empty, finite, an orthant, a coset, or a union, intersection or
    difference of two of those three.
    """
    d = draw(st.sampled_from((1, 2, 3)))
    phi = draw(st.tuples(*[st.integers(1, 3)] * d))
    window = draw(st.tuples(*[st.integers(0, {1: 12, 2: 7, 3: 4}[d])] * d))
    reach = max(window) + 3
    vec = st.tuples(*[st.integers(-reach, reach)] * d)
    moves = draw(st.lists(vec.filter(lambda m: dot(phi, m) >= 1), min_size=1, max_size=6))
    point = st.tuples(*[st.integers(0, w + 1) for w in window])
    finite = st.lists(point, max_size=6).map(lambda pts: LatticeSet.finite(pts, dim=d))
    orthant = point.map(LatticeSet.orthant)
    basis = st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d)
    coset = st.builds(LatticeSet.coset, point, basis, st.integers(1, 3))
    atom = st.one_of(finite, orthant, coset)
    defeated = draw(
        st.one_of(
            st.just(LatticeSet.empty(d)),
            atom,
            *(st.tuples(atom, atom).map(lambda ab, op=op: op(*ab))
              for op in (LatticeSet.union, LatticeSet.inter, LatticeSet.diff)),
        )
    )
    return GameSpec(Ruleset(d, moves), defeated), window


def _region_matches_memo(solver, cap, region):
    """Every cell of a kernel region against the memo; cells above the level
    cap stay unvisited."""
    for p in np.ndindex(region.shape):
        if dot(solver.phi, p) > cap:
            want = kernels.CODE_UNSEEN
        elif not solver._is_position(p):
            want = kernels.CODE_DEFEATED
        else:
            want = kernels.CODE_P if solver.outcome(p) == "P" else kernels.CODE_N
        assert region[p] == want, p


@settings(max_examples=150)
@given(pointed_games())
def test_sieve_matches_topdown_memo(case):
    game, window = case
    sieve = Solver(game).solve_window(window)
    memo = Solver(game).solve_window(window, mode="top-down")
    assert np.array_equal(sieve.data, memo.data)
    # the whole region of the kernel: with the corners (cap // phi_k) e_k
    # among its cells, every axis is capped at cap // phi_k
    solver = Solver(game)
    cap = dot(solver.phi, window)
    cells = np.vstack([window, np.diag([cap // f for f in solver.phi])])
    region = kernels.solve_region(np.array(game.ruleset.moves), np.array(solver.phi), cells, game.defeated)
    assert region.shape == tuple(cap // f + 1 for f in solver.phi)
    _region_matches_memo(solver, cap, region)


@settings(max_examples=60)
@given(pointed_games())
def test_kernel_matches_memo_without_unit_weights(case):
    # k * phi orders the same region, but no axis has weight 1 and the
    # level classes modulo the longest axis's weight are never trivial
    game, window = case
    solver = Solver(game)
    cap = dot(solver.phi, window)
    cells = np.vstack([window, np.diag([cap // f for f in solver.phi])])
    for k in (2, 3):
        region = kernels.solve_region(game.ruleset.array, k * np.array(solver.phi), cells, game.defeated)
        assert region.shape == tuple(cap // f + 1 for f in solver.phi)
        _region_matches_memo(solver, cap, region)


@settings(max_examples=100)
@given(pointed_games(), st.data())
def test_outcomes_match_the_box_solve(case, data):
    # outcomes solves the phi-simplex under the cells it reads, at the level
    # cap max phi . cell, and reads there what the box solve reads
    game, window = case
    point = st.tuples(*[st.integers(0, w) for w in window])
    cells = np.array(data.draw(st.lists(point, min_size=1, max_size=8)), dtype=np.int64)
    caps = []

    def spy(moves, phi, cells, defeated=None, solve_region=kernels.solve_region):
        region = solve_region(moves, phi, cells, defeated)
        # the highest level solved is the level cap
        caps.append(int((np.argwhere(region != kernels.CODE_UNSEEN) @ np.array(phi)).max()))
        return region

    solver = Solver(game)
    want = Solver(game).solve_window(window).data[tuple(cells.T)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "solve_region", spy)
        got = solver.outcomes(cells)
        assert np.array_equal(solver.outcomes(cells[:, None]), got[:, None])
    assert np.array_equal(got, want)
    assert caps == [max(dot(solver.phi, c) for c in cells.tolist())] * 2


@pytest.mark.parametrize("cells", [[(1, 2, -1)], [(1, 2)], [[(0, 0, 0, 0)]], 5, [[(0, 0, 0)], [(0, -1, 0)]],
                                   [[10**20, 0, 0]]])
def test_outcomes_refuse_bad_cells_before_solving(gamma_prime_game, cells, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(kernels, "solve_region", unreachable)
    with pytest.raises(ValueError, match=re.escape("an (..., 3) array of nonnegative ints")):
        Solver(gamma_prime_game).outcomes(cells)


@pytest.mark.parametrize("phi", [(1, 10**6), (10**6, 1)])
def test_kernel_skips_empty_levels(phi, traced_peak):
    import time

    game = GameSpec(Ruleset(2, [(1, 0), (0, 1), (1, 1), (2, 1)]))
    solver = Solver(game, PointednessWitness(tuple(Fraction(f) for f in phi)))
    # the level cap phi . (3, 3) spans about 3 * 10**6 levels, 16 of them occupied
    with traced_peak() as peak:
        t0 = time.perf_counter()
        region = kernels.solve_region(game.ruleset.array, np.array(phi), [(3, 3)])
        elapsed = time.perf_counter() - t0
    assert elapsed < 0.5 and peak.bytes < 2**20
    memo = solver.solve_window((3, 3), mode="top-down")
    assert np.array_equal(region, memo.data)
    assert np.array_equal(solver.solve_window((3, 3)).data, memo.data)


U, P, N, D = kernels.CODE_UNSEEN, kernels.CODE_P, kernels.CODE_N, kernels.CODE_DEFEATED


# (moves, defeated points, the cells solved for, the region by hand), with phi = 1
@pytest.mark.parametrize("moves, defeated, cells, want", [
    pytest.param([(1,)], [], [(4,)], [P, N, P, N, P], id="alternating"),
    # 0's scatter marks 1 N before 1's level, and 1 still reads defeated
    pytest.param([(1,)], [(1,)], [(4,)], [P, D, P, N, P], id="marked-defeated-cell"),
    # 1's only option is defeated, so 1 is P and marks 2
    pytest.param([(1,)], [(0,)], [(4,)], [D, P, N, P, N], id="only-option-defeated"),
    # the box corner (1, 1) lies above the level cap 1: no level writes it
    pytest.param([(1, 0), (0, 1)], [(1, 1)], [(1, 0), (0, 1)], [[P, N], [N, U]], id="defeated-above-cap"),
])
def test_kernel_writes_only_p_and_defeated_cells(moves, defeated, cells, want):
    game = GameSpec(Ruleset(len(moves[0]), moves), LatticeSet.finite(defeated, dim=len(moves[0])))
    region = kernels.solve_region(game.ruleset.array, (1,) * game.ruleset.dim, cells, game.defeated)
    assert region.tolist() == want


def test_weights_beyond_int64_are_never_cast():
    # the pointedness witness scales to integer weights that leave int64
    solver = Solver(GameSpec(Ruleset(2, [(1, 0), (0, 1), (-(2**63), 2**63 - 1)])))
    assert solver.phi == (2**63 - 1, 2**63 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("bottom-up", "top-down"):
            assert solver.solve_window((0, 0), mode=mode).data.tolist() == [[P]]
            with pytest.raises(ValueError, match=re.escape("has more than the 2**40 levels")):
                solver.solve_window((1, 1), mode=mode)
        # the level cap phi . (1, 0) = 2**63 - 1 is exact, not rounded through float64
        with pytest.raises(ValueError, match=re.escape(f"(level cap {2**63 - 1})")):
            solver.solve_window((1, 0))
        # the move (-2**63, 1) reaches past every cell under the cap 2 on
        # both axes, so it is dropped before its int64 |-2**63| could wrap
        region = kernels.solve_region(np.array([[1, 0], [-(2**63), 1]]), (1, 2**63 + 1), [(2, 0)])
        assert region.tolist() == [[P], [N], [P]]


def _holed_gamma_prime():
    rng = np.random.default_rng(0)
    points = rng.integers(0, [601, 601, 2], size=(500, 3)).tolist()
    return Solver(GameSpec(paper_gamma_prime(), LatticeSet.finite(points))), (600, 600, 1)


# the defeated set of the former variant-A game of rule 90 at placement
# seed 0 (m = 21): slice 0 free below the scaled non-generators of the
# module, slice 1 likewise, less the output's cone over the generator (2, 2)
RULE90_DEFEATED = (
    "union(inter(diff(orthant((0,0,0)),union(orthant((0,126,0)),orthant((21,105,0)),"
    "orthant((42,84,0)),orthant((63,63,0)),orthant((84,42,0)),orthant((105,21,0)),"
    "orthant((126,0,0)))),diff(orthant((0,0,0)),orthant((0,0,1)))),"
    "inter(diff(diff(orthant((0,0,1)),union(orthant((0,126,1)),orthant((21,105,1)),"
    "orthant((42,84,1)),orthant((63,63,1)),orthant((84,42,1)),orthant((105,21,1)),"
    "orthant((126,0,1)))),orthant((58,56,1))),diff(orthant((0,0,1)),orthant((0,0,2)))))"
)


def _rule90_variant_a():
    # the rule 90 seed-0 game in variant C, whose ruleset that former game
    # shared, with its six-box defeated set
    enc = Encoding({"0": ("N",), "1": ("P",)})
    spec, _ = prune_unused_arguments(ca_to_recurrence(wolfram_rule_table(90), "0", "1").spec)
    circuit = extend_circuit(synthesize_nor_circuit(encoded_table(spec, enc)), "C")
    cg = emit_ruleset(search_placement(circuit, spec, seed=0), circuit, spec, enc=enc)
    return Solver(GameSpec(cg.game.ruleset, parse_set_expr(RULE90_DEFEATED)), cg.witness), (256, 256, 1)


@pytest.mark.parametrize("case", [_holed_gamma_prime, _rule90_variant_a])
def test_solve_with_defeated_set_stays_within_the_guard(case, monkeypatch, traced_peak):
    # the guard counts the defeated mask's boxes before the mask is built
    solver, window = case()
    estimates = []

    def spy(*args, sieve_bytes=kernels.sieve_bytes):
        estimates.append(sieve_bytes(*args))
        return estimates[-1]

    monkeypatch.setattr(kernels, "sieve_bytes", spy)
    with traced_peak() as peak:
        solver.solve_window(window)
    need = max(estimates)
    assert peak.bytes <= need
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need - 1)
    with traced_peak() as peak, pytest.raises(ValueError, match="GiB"):
        solver.solve_window(window)
    assert peak.bytes < 2**20


def _plain_gamma_prime():
    return Solver(GameSpec(paper_gamma_prime())), (48, 48, 1)


@pytest.mark.parametrize("case", [_holed_gamma_prime, _plain_gamma_prime])
def test_solve_window_checks_the_budget_once(case, monkeypatch):
    solver, window = case()
    calls, estimated = [], []

    def spy(*args, check_budget=kernels.check_budget):
        calls.append(check_budget(*args))
        return calls[-1]

    def estimate_spy(shape, padding, *rest, sieve_bytes=kernels.sieve_bytes):
        estimated.append(padding)
        return sieve_bytes(shape, padding, *rest)

    monkeypatch.setattr(kernels, "check_budget", spy)
    monkeypatch.setattr(kernels, "sieve_bytes", estimate_spy)
    solver.solve_window(window)
    # the moves are padded once: the estimate reads the padding the check returns
    assert len(calls) == len(estimated) == 1 and estimated[0] is calls[0]


def test_solving_deterministic(gamma_prime_game):
    a = Solver(gamma_prime_game).solve_window((15, 15, 1))
    b = Solver(gamma_prime_game).solve_window((15, 15, 1))
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
        Solver(GameSpec(rs)).solve_window((4, 4))


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
    a = Solver(gamma_prime_game).solve_window((12, 12, 1))
    b = Solver(weakened).solve_window((12, 12, 1))
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


@pytest.mark.parametrize("cone", [((1, 0), (2, 0)), ((2**40, 1), (0, 1))])
def test_probe_rejects_cones_it_cannot_test(gamma_prime_grid_48, cone):
    # a degenerate cone, and rays whose cross products could leave int64
    with pytest.raises(ValueError, match="cone"):
        periodicity_probe(gamma_prime_grid_48, 1, cone, (0, 6))


def _probe_reference(grid, slice_index, cone, ell):
    """Per-cell reference for periodicity_probe: visit p in x-then-y order
    and count each compared pair up to the first mismatch."""
    ell = tuple(ell)
    r, s = cone
    cross = lambda a, b: a[0] * b[1] - a[1] * b[0]  # noqa: E731
    if cross(r, s) < 0:
        r, s = s, r

    def in_cone(p):
        return cross(r, p) >= 0 and cross(p, s) >= 0

    plane = grid.plane(slice_index)
    nx, ny = plane.shape
    checked = 0
    for x in range(nx):
        for y in range(ny):
            p = (x, y)
            q = (x - ell[0], y - ell[1])
            if not (0 <= q[0] < nx and 0 <= q[1] < ny):
                continue
            if not (in_cone(p) and in_cone(q)):
                continue
            cp, cq = int(plane[p]), int(plane[q])
            if cp == kernels.CODE_DEFEATED or cq == kernels.CODE_DEFEATED:
                continue
            checked += 1
            if cp != cq:
                sym = {kernels.CODE_P: "P", kernels.CODE_N: "N"}
                return ProbeResult(False, ell, p, (sym[cp], sym[cq]), checked)
    return ProbeResult(True, ell, pairs_checked=checked)


PROBE_CODE = st.sampled_from((kernels.CODE_P, kernels.CODE_N) * 2 + (kernels.CODE_DEFEATED,))


def _tiled_plane(draw, shape):
    """Codes of the given shape tiled by a drawn pattern of periods (px, py)
    in the first two axes; returns the codes and (px, py)."""
    tile = np.array(draw(st.lists(PROBE_CODE, min_size=6, max_size=6)), dtype=np.uint8)
    px, py = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    ix = np.indices(shape)
    return tile[(ix[0] % px) * py + ix[1] % py], (px, py)


def _redrawn_probe_case(draw, data, rows, ell, redrawn=(0, 4)):
    """Redraw some cells of data, as many as the bounds redrawn allow, with
    a row drawn from rows; then draw a slice and a cone of either
    orientation.  Returns the probe's arguments."""
    cell = st.tuples(rows, *[st.integers(0, n - 1) for n in data.shape[1:]])
    for p in draw(st.lists(cell, min_size=redrawn[0], max_size=redrawn[1])):
        data[p] = draw(PROBE_CODE)
    slice_index = draw(st.integers(0, data.shape[2] - 1)) if data.ndim == 3 else None
    # one ray in the first quadrant keeps most cones on the plane
    first = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
    other = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    assume(first[0] * other[1] != first[1] * other[0])
    cone = draw(st.permutations((first, other)))
    grid = OutcomeGrid(tuple(n - 1 for n in data.shape), data)
    return grid, slice_index, cone, ell


@st.composite
def probe_cases(draw):
    """A 2-D grid or a 3-D grid with a slice, a cone of either orientation
    and a nonzero candidate that may be longer than the plane.  Planes are a
    tiled pattern with some cells redrawn, so both periodic and violating
    candidates are common; codes are P, N and defeated."""
    d = draw(st.sampled_from((2, 3)))
    shape = draw(st.tuples(*[st.integers(1, 12)] * 2 + [st.integers(1, 3)] * (d - 2)))
    data, _ = _tiled_plane(draw, shape)
    step = st.one_of(st.integers(-3, 3), st.integers(-13, 13))
    ell = draw(st.tuples(step, step).filter(any))
    return _redrawn_probe_case(draw, data, st.integers(0, shape[0] - 1), ell)


@st.composite
def tall_probe_cases(draw):
    """Planes of 24 to 100 rows under a candidate that is a multiple of
    their tile's periods, with cells redrawn only past the rows that the
    first block, or the first two, of the probe's row scan read, so every
    mismatch and every redrawn defeated cell lies in a later block."""
    d = draw(st.sampled_from((2, 3)))
    shape = (draw(st.integers(24, 100)), draw(st.integers(1, 30)), *[draw(st.integers(1, 3))] * (d - 2))
    data, (px, py) = _tiled_plane(draw, shape)
    k = st.integers(-2, 2)
    ell = draw(st.tuples(k, k).filter(any).map(lambda m: (m[0] * px, m[1] * py)))
    # blocks start at rows 16 and 80 of the overlap; the blocks before
    # such a start read rows up to start - 1 + |ell[0]| at p and at q = p - ell
    start = draw(st.sampled_from([b for b in (16, 80) if b + abs(ell[0]) < shape[0]]))
    rows = st.integers(start + abs(ell[0]), shape[0] - 1)
    return _redrawn_probe_case(draw, data, rows, ell, redrawn=(2, 12))


@settings(max_examples=400)
@given(probe_cases())
def test_probe_matches_reference_loop(case):
    assert periodicity_probe(*case) == _probe_reference(*case)


@settings(max_examples=80)
@given(tall_probe_cases())
def test_probe_matches_reference_loop_across_row_blocks(case):
    assert periodicity_probe(*case) == _probe_reference(*case)


def test_cached_cone_mask_follows_each_probe():
    # shapes, slices, cone orientations and defeated cells change from one
    # probe to the next; the cached mask must follow every change
    x, y = np.indices((30, 20))
    tiled = (kernels.CODE_P + (x + y) % 2).astype(np.uint8)  # P and N; periods (1, 1), (2, 0), (0, 2)
    holed = tiled.copy()
    holed[3::5, 2::3] = kernels.CODE_DEFEATED
    tall = np.stack([np.full((20, 30), kernels.CODE_P, np.uint8), tiled.T], axis=2)
    # the first and the last grid share a shape, so the cone changes on it
    grids = [
        (OutcomeGrid((29, 19), tiled), None),
        (OutcomeGrid((19, 29, 1), tall), 1),
        (OutcomeGrid((19, 29, 1), tall), 0),
        (OutcomeGrid((29, 19), tiled.copy()), None),
        (OutcomeGrid((29, 19), holed), None),
    ]
    cones = [((1, 0), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (2, 1)), ((1, 0), (0, 1))]
    for cone in cones:
        for grid, slice_index in grids:
            for ell in [(1, 1), (2, 0), (0, 2), (1, 0), (3, -1)]:
                case = grid, slice_index, cone, ell
                assert periodicity_probe(*case) == _probe_reference(*case), case
    from latticegames.engine import _cone_mask

    assert _cone_mask.cache_info().maxsize == 1
    mask = _cone_mask((30, 20), (1, 0), (1, 1))
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = not mask[0, 0]


def test_topdown_memo_lies_between_the_window_and_its_reachable_set():
    # the search stops at the first P option, so it may leave reachable
    # positions unevaluated, but it evaluates every position it is asked for
    defeated = LatticeSet.finite([(2, 1, 0), (3, 3, 1), (0, 5, 1), (7, 2, 0), (1, 1, 1)])
    game = GameSpec(paper_gamma_prime(), defeated)
    solver = Solver(game)
    window = (9, 9, 1)
    solver.solve_window(window, mode="top-down")
    frontier = [p for p in np.ndindex(*(w + 1 for w in window)) if not defeated.contains(p)]
    queried = set(frontier)
    reached = set(frontier)
    while frontier:
        p = frontier.pop()
        for m in game.ruleset.moves:
            q = tuple(a - b for a, b in zip(p, m))
            if min(q) >= 0 and not defeated.contains(q) and q not in reached:
                reached.add(q)
                frontier.append(q)
    assert queried <= set(solver.memo) <= reached
    assert len(solver.memo) < len(reached)  # some reachable position is never evaluated


def _reference_options(game, p):
    """Options of p by the per-move loop: subtract each move, then test the
    orthant and the defeated set."""
    defeated = game.defeated if game.has_defeated else None
    opts = []
    for m in game.ruleset.moves:
        q = tuple(a - b for a, b in zip(p, m))
        if min(q) >= 0 and not (defeated is not None and defeated._contains(q)):
            opts.append(q)
    return opts


def _reference_outcome(game, memo, p):
    """Exhaustive top-down evaluation of the position p into memo, by the
    per-move options and an any() over the option outcomes: every position
    reachable from p is evaluated."""
    stack = [(p, None)]
    while stack:
        q, opts = stack.pop()
        if q in memo:
            continue
        if opts is None:
            opts = _reference_options(game, q)
            pending = [o for o in opts if o not in memo]
            if pending:
                stack.append((q, opts))
                stack.extend((o, None) for o in pending)
                continue
        memo[q] = "N" if any(memo[o] == "P" for o in opts) else "P"
    return memo[p]


def _reference_lazy_outcome(game, memo, p):
    """Short-circuit top-down evaluation of the position p into memo, by
    recursion: p is N if a memoised option is P; otherwise its options are
    evaluated in move order, the memo re-read before each, up to the first
    that is P."""
    if p not in memo:
        opts = _reference_options(game, p)
        if any(memo.get(o) == "P" for o in opts):
            memo[p] = "N"
        else:
            solve = lambda o: memo[o] if o in memo else _reference_lazy_outcome(game, memo, o)  # noqa: E731
            memo[p] = "N" if any(solve(o) == "P" for o in opts) else "P"
    return memo[p]


def _reference_topdown(game, window, outcome):
    """Top-down window solve, one outcome(game, memo, p) query per position
    in C order; returns the memo and the grid's data."""
    memo = {}
    shape = tuple(w + 1 for w in window)
    data = np.zeros(shape, dtype=np.uint8)
    for p in np.ndindex(shape):
        if min(p) < 0 or (game.has_defeated and game.defeated._contains(p)):
            data[p] = kernels.CODE_DEFEATED
        else:
            data[p] = kernels.CODE_P if outcome(game, memo, p) == "P" else kernels.CODE_N
    return memo, data


@settings(max_examples=100)
@given(pointed_games(), st.data())
def test_options_match_the_reference_loop(case, data):
    game, window = case
    solver = Solver(game)
    # points inside the window, on its boundary and past the largest move
    # component on every axis, where no sign test runs
    top = [max(0, *col) for col in zip(*game.ruleset.moves)]
    cell = st.tuples(*[st.integers(0, max(w, t) + 1) for w, t in zip(window, top)])
    points = data.draw(st.lists(cell, min_size=1, max_size=12))
    points += [window, tuple(top)]
    first = data.draw(cell)
    # with an empty memo, then with the memo an earlier query leaves (made
    # by the reference, so that a broken solver cannot run away here)
    for _ in range(2):
        for p in points:
            if solver._is_position(p):
                assert solver.options(p) == _reference_options(game, p), p
            else:
                with pytest.raises(ValueError, match="not a position"):
                    solver.options(p)
        if not solver._is_position(first):
            break
        _reference_outcome(game, solver.memo, first)


def test_options_refuse_a_point_of_the_wrong_dimension(gamma_prime_solver):
    with pytest.raises(ValueError, match="3-dimensional"):
        gamma_prime_solver.options((6, 6))


def test_options_refuse_a_defeated_point(gamma_prime_game):
    solver = Solver(GameSpec(gamma_prime_game.ruleset, LatticeSet.finite([(1, 1, 0)])))
    with pytest.raises(ValueError, match="not a position"):
        solver.options((1, 1, 0))


def test_options_refuse_a_negative_point(gamma_prime_solver):
    with pytest.raises(ValueError, match="not a position"):
        gamma_prime_solver.options((-1, 5, 0))


def _oracle_holed_gamma_prime(seed):
    """Gamma' minus 500 seeded points of the window (48, 48, 1), drawn as the
    oracle benchmark workload draws them."""
    rng = random.Random(seed)
    points = set()
    while len(points) < 500:
        points.add(tuple(rng.randint(0, w) for w in (48, 48, 1)))
    return GameSpec(paper_gamma_prime(), LatticeSet.finite(sorted(points))), (48, 48, 1)


def _assert_topdown_matches_reference(game, window):
    solver = Solver(game)
    grid = solver.solve_window(window, mode="top-down")
    memo, data = _reference_topdown(game, window, _reference_lazy_outcome)
    assert solver.memo == memo
    assert list(solver.memo) == list(memo)  # filled in the same order, too
    assert grid.data.dtype == data.dtype and np.array_equal(grid.data, data)
    # every value the search memoises is the exhaustive evaluation's value
    full, full_data = _reference_topdown(game, window, _reference_outcome)
    assert all(full[p] == v for p, v in solver.memo.items())
    assert np.array_equal(grid.data, full_data)
    return solver


def test_topdown_memo_matches_the_reference_on_the_holed_gamma_prime():
    solver = _assert_topdown_matches_reference(*_oracle_holed_gamma_prime(0))
    assert len(solver.memo) == 5297  # the exhaustive memo holds 7,653


@settings(max_examples=100)
@given(pointed_games())
def test_topdown_memo_matches_the_reference(case):
    _assert_topdown_matches_reference(*case)


def test_topdown_window_queries_go_through_outcome(monkeypatch):
    # a tracer that wraps Solver.outcome sees one call per position of the
    # window, so its engine.outcome spans count the top-down work
    game, window = _oracle_holed_gamma_prime(1)
    calls = []
    outcome = Solver.outcome

    def spy(self, p):
        calls.append(p)
        return outcome(self, p)

    monkeypatch.setattr(Solver, "outcome", spy)
    grid = Solver(game).solve_window(window, mode="top-down")
    assert len(calls) == np.count_nonzero(grid.data != kernels.CODE_DEFEATED)


@pytest.fixture(scope="module")
def solved_holed_gamma_prime():
    game, window = _oracle_holed_gamma_prime(0)
    solver = Solver(game)
    solver.solve_window(window, mode="top-down")
    return game, solver


def test_topdown_caches_one_column_per_coordinate(solved_holed_gamma_prime):
    # only an expansion builds a column, and every expanded position is
    # memoised, so axis k holds one column per k-th coordinate in the memo
    game, solver = solved_holed_gamma_prime
    assert len(solver._columns) == game.ruleset.dim
    for k, cache in enumerate(solver._columns):
        assert sorted(cache) == sorted({p[k] for p in solver.memo})
        for c, column in cache.items():
            assert column == [c - m[k] for m in game.ruleset.moves]


def test_options_match_the_reference_on_every_memoised_position(solved_holed_gamma_prime):
    # reads the cached columns at every coordinate the solve reached
    game, solver = solved_holed_gamma_prime
    for p in solver.memo:
        assert solver.options(p) == _reference_options(game, p), p


def test_topdown_memory_guard_raises_before_allocating(gamma_prime_game, traced_peak):
    # about 8 * 10**8 cells: the memo alone would run out of memory
    solver = Solver(gamma_prime_game)
    with traced_peak() as peak, pytest.raises(ValueError, match="top-down .* GiB"):
        solver.solve_window((20000, 20000, 1), mode="top-down")
    assert peak.bytes < 2**20 and not solver.memo


# phi = (1, 1, 2): the moves grow the first two axes, so the simplex under
# the window (0, 0, w) holds about w**2 positions on them
GROWING_GAME = GameSpec(Ruleset(3, [(-1, 0, 1), (0, -1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))


@pytest.mark.parametrize("budget, w, bound", [(2**24, 1000, 2**20), (kernels.MEMORY_BUDGET, 10**5, 16 * 2**20)])
def test_topdown_guard_counts_before_it_builds(budget, w, bound, monkeypatch, traced_peak):
    # the walk counts an axis's entries before it builds them, so the
    # refusal costs about one entry per value of the last coordinate
    solver = Solver(GROWING_GAME)
    assert solver.phi == (1, 1, 2)
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", budget)
    with traced_peak() as peak, pytest.raises(ValueError, match="top-down .* needs about .* GiB"):
        solver.solve_window((0, 0, w), mode="top-down")
    assert peak.bytes < bound and not solver.memo


@settings(max_examples=100)
@given(pointed_games())
def test_topdown_guard_counts_the_cells_the_sweep_solves(case):
    # topdown_bytes counts the positions of the simplex that the sweep solves
    game, window = case
    solver, counted = Solver(game), []

    def spy(*args, simplex_size=kernels.simplex_size):
        counted.append(simplex_size(*args))
        return counted[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "simplex_size", spy)
        topdown_bytes(window, game.ruleset, solver.phi)
    [(positions, caps)] = counted
    region = kernels.solve_region(game.ruleset.array, solver.phi, [window], game.defeated)
    assert region.shape == tuple(c + 1 for c in caps)
    assert positions == np.count_nonzero(region != kernels.CODE_UNSEEN)


def _one_dim_28_moves():
    # in 1-D the per-axis columns and the DFS path grow with the window
    return GameSpec(Ruleset(1, [(m,) for m in range(1, 29)])), (3000,)


def _two_dim_game():
    return GameSpec(Ruleset(2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])), (120, 120)


def _two_dim_far_reaching():
    # the move (-5, 1) grows x: the search reaches 138,269 positions from a
    # window of 40,401 cells, inside a capped simplex of 161,001
    return GameSpec(Ruleset(2, [(1, 0), (-5, 1), (0, 2)])), (200, 200)


@pytest.mark.parametrize(
    "case",
    [lambda: _oracle_holed_gamma_prime(0), _one_dim_28_moves, _two_dim_game, _two_dim_far_reaching],
    ids=["holed-gamma-prime", "1d-28-moves", "2d", "2d-far-reaching"],
)
def test_topdown_solve_stays_within_its_guard(case, monkeypatch, traced_peak):
    game, window = case()
    want = Solver(game).solve_window(window).data
    need = topdown_bytes(window, game.ruleset, Solver(game).phi)
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need - 1)
    solver = Solver(game)
    with traced_peak() as peak, pytest.raises(ValueError, match="GiB"):
        solver.solve_window(window, mode="top-down")
    assert peak.bytes < 2**20 and not solver.memo
    # at exactly the budget the window is solved, within the estimate
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need)
    with traced_peak() as peak:
        grid = solver.solve_window(window, mode="top-down")
    assert peak.bytes <= need
    assert np.array_equal(grid.data, want)


def test_kernel_scale_guard():
    from latticegames.kernels import solve_region

    with pytest.raises(ValueError):
        solve_region(np.array([[1, 1, 1]]), np.array([1, 1, 1]), [(10**5, 10**5, 10**3)])


def test_kernel_memory_guard_raises_before_allocating(monkeypatch, traced_peak):
    moves, phi = np.array([[1, 0], [0, 1]]), np.array([1, 1])
    need = kernels.sieve_bytes((3000, 3000), kernels.check_budget((3000, 3000), moves, phi, 5998), 5998)
    assert need >= 3001 * 3001  # at least the outcome byte of each padded cell
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need - 1)
    with traced_peak() as peak, pytest.raises(ValueError, match="GiB"):
        kernels.solve_region(moves, phi, [(2999, 2999)])
    assert peak.bytes < 2**20
    # at exactly the budget the region is solved, within the estimate
    need = kernels.sieve_bytes((1000, 1000), kernels.check_budget((1000, 1000), moves, phi, 1998), 1998)
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", need)
    with traced_peak() as peak:
        grid = kernels.solve_region(moves, phi, [(999, 999)])
    assert peak.bytes <= need
    assert grid[0, 0] == kernels.CODE_P and grid[1, 0] == kernels.CODE_N
