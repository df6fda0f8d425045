import hashlib
import os
import re
import subprocess
import sys
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticegames.builtin import (
    paper_gamma,
    paper_gamma_verbatim,
    paper_placement,
    swapped_encoding,
    xor_circuit,
    xor_recurrence,
)
from latticegames import engine
from latticegames.circuits import extend_circuit
from latticegames.compiler import (
    EmissionError,
    Placement,
    PlacementSearchError,
    beta_intersection_generators,
    check_conditions,
    compile_recurrence,
    emit_ruleset,
    search_placement,
    verify_construction,
)
from latticegames.engine import (
    GameSpec,
    Infeasible,
    PointednessWitness,
    Ruleset,
    check_pointedness,
    check_tangent_cone,
    pointedness_constraints,
)
from latticegames.lattice import Z2, LatticeSet, ModuleIdeal, Sublattice, positive_generators, vsub
from latticegames.recurrence import Encoding, RecurrenceSpec
from latticegames.search import SearchSpace


# the published game's output gate reads the xor value itself
IDENTITY_ENC = Encoding({"P": ("P",), "N": ("N",)})


@pytest.fixture(scope="module")
def xor_spec():
    return xor_recurrence()


@pytest.fixture(scope="module")
def xor_compiled(xor_spec):
    return compile_recurrence(xor_spec, swapped_encoding(), variant="C", seed=0)


def test_paper_placement_passes_conditions(xor_spec):
    rep = check_conditions(paper_placement(), xor_circuit(), xor_spec)
    for key in "abcdefi":
        assert rep[key].status == "pass", (key, rep[key])
    assert rep["g"].status == "vacuous"
    assert rep.ok()
    assert list(rep.results) == list("abcdefghi")
    assert "(g) vacuous  [no control vertices]" in rep.summary().splitlines()
    assert repr(rep) == "ConditionReport(ok=True)"


def test_condition_b_fails_on_moved_input(xor_spec):
    pl = paper_placement()
    pos = dict(pl.pos)
    pos["v0"] = (-5, 0)
    moved = Placement(pos, pl.m, pl.staircase, pl.normal)
    rep = check_conditions(moved, xor_circuit(), xor_spec)
    assert rep["b"].status == "fail"
    assert rep["b"].witness[:2] == (1, 1)
    assert f"(b) fail  witness: {rep['b'].witness}" in rep.summary().splitlines()
    # an input moved off its shift also breaks the wires and classes it fed
    assert repr(rep) == "ConditionReport(ok=False, failing=['b', 'c', 'd', 'e', 'f'])"


def test_input_on_board_witness_ignores_hash_seed():
    # with both inputs on the board, (h) must name the first input in circuit
    # order whatever the order of str hashes
    code = (
        "from latticegames.builtin import paper_placement, xor_circuit, xor_recurrence\n"
        "from latticegames.compiler import Placement, check_conditions\n"
        "pl = paper_placement()\n"
        "pos = {**pl.pos, 'v0': (0, 1), 'v1': (1, 0)}\n"
        "moved = Placement(pos, pl.m, pl.staircase, pl.normal)\n"
        "print(check_conditions(moved, xor_circuit(), xor_recurrence())['h'].witness)\n"
    )
    path = os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])
    for seed in ("0", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "('input-on-board', 'v0', (0, 1))", seed


def test_conditions_fail_at_m_one(xor_spec):
    pl = paper_placement()
    tiny = Placement(pl.pos, 1, pl.staircase, pl.normal)
    rep = check_conditions(tiny, xor_circuit(), xor_spec)
    assert not rep.ok()
    # with m = 1 every residue is covered, so the wire moves are all
    # congruent to staircase differences
    assert rep["f"].status == "fail"


def test_staircase_must_be_downward_closed():
    with pytest.raises(ValueError):
        Placement({"v": (0, 0)}, 6, [(1, 0)], (1, 1))


# (m, staircase, normal, what the refusal says)
MALFORMED_PLACEMENTS = [
    (0, [(0, 0)], (1, 1), "m must be a positive integer"),
    (6, [], (1, 1), "the staircase set I must be nonempty"),
    (6, [(-1, 0)], (1, 1), "I must lie in the first quadrant"),
    (6, [(0, 0)], (0, 1), "the halfspace normal must pair positively with both axes"),
]


@pytest.mark.parametrize("m, staircase, normal, says", MALFORMED_PLACEMENTS)
def test_malformed_placement_refused(m, staircase, normal, says):
    with pytest.raises(ValueError, match=says):
        Placement({"v": (0, 0)}, m, staircase, normal)


def test_placement_repr():
    pl = Placement({"v": (0, 0), "w": (1, 2)}, 6, [(1, 0), (0, 0)], (1, 1))
    assert repr(pl) == "Placement(m=6, I=[(0, 0), (1, 0)], normal=(1, 1), 2 gates)"


def test_golden_emission(xor_spec):
    cg = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, IDENTITY_ENC)
    assert set(cg.game.ruleset.moves) == set(paper_gamma().moves)
    assert len(cg.lines["wires"]) == 7
    assert len(cg.lines["slice0"]) == 20
    assert len(cg.lines["slice1"]) == 55
    assert cg.game.ruleset == paper_gamma()


def test_emission_rederives_the_misprints(xor_spec):
    # the verbatim transcription differs from the formula output exactly by
    # both translates of the four bad base points
    cg = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, IDENTITY_ENC)
    extras = set(paper_gamma_verbatim().moves) - set(cg.game.ruleset.moves)
    want = set()
    for b in ((0, 5), (4, 0), (5, 0), (5, 1)):
        for s in ((-6, 0), (0, -6)):
            want.add((b[0] + s[0], b[1] + s[1], 1))
    assert extras == want
    assert not set(cg.game.ruleset.moves) - set(paper_gamma_verbatim().moves)


def test_emission_deterministic(xor_spec):
    a = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, IDENTITY_ENC)
    b = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, IDENTITY_ENC)
    assert a.lines == b.lines
    assert a.game.ruleset == b.game.ruleset


# sha256 of repr(lines), repr(ruleset.moves) and repr(witness.phi) of two
# compiled games; the repr of a numpy scalar differs from that of an int, so
# these also pin the types of the emitted moves, and the placements the
# search finds at seed 0
PINNED_EMISSIONS = {
    "rule 110 B": (
        "c2c3c388cc2f2e6bb394eb5ba688bc2f00a69eedbaf16c70bd2c2a5a5a5b9149",
        "d8f727eee4e35f44b264c0d41330f245e83cc2117054311bdf4e47bf03659957",
        "be7a30a9d422271020a6e73a96350cd48f04c971287be215cbff553a5d2a90de",
    ),
    "xor C": (
        "7f81640229b634695451d923c8d319a3025f746e82197c79cd8605fb7833b3c1",
        "2be04aae7a2ab7c9448e7f3e6e561c82e4fbc9f399ec55da148f5e7558acf5d3",
        "9bd079317331dd9634bbf96fd0ee70f1a4380a86837ee388fa612a3d86871690",
    ),
}


def test_emitted_output_is_pinned(xor_compiled):
    import hashlib

    from latticegames.recurrence import ca_to_recurrence, wolfram_rule_table

    rule110 = ca_to_recurrence(wolfram_rule_table(110), "0", "1").spec
    compiled = {
        "rule 110 B": compile_recurrence(rule110, Encoding({"0": ("N",), "1": ("P",)}), "B", seed=0),
        "xor C": xor_compiled,
    }
    for name, cg in compiled.items():
        got = tuple(
            hashlib.sha256(repr(x).encode()).hexdigest()
            for x in (cg.lines, cg.game.ruleset.moves, cg.witness.phi)
        )
        assert got == PINNED_EMISSIONS[name], name


def test_emission_refuses_failing_placement(xor_spec):
    pl = paper_placement()
    tiny = Placement(pl.pos, 1, pl.staircase, pl.normal)
    with pytest.raises(EmissionError) as err:
        emit_ruleset(tiny, xor_circuit(), xor_spec, IDENTITY_ENC)
    # the refusal carries the report that decided it
    assert "f" in err.value.report.failures()
    assert f"{err.value.report.failures()}" in str(err.value)


def test_emission_refuses_a_placement_without_a_vertex(xor_spec):
    # a hand-made placement reaches emission only through emit_ruleset, whose
    # check names a vertex the placement leaves out
    pl = paper_placement()
    partial = Placement({v: p for v, p in pl.pos.items() if v != "v4"}, pl.m, pl.staircase, pl.normal)
    with pytest.raises(ValueError, match="placement gives no position for vertex v4"):
        emit_ruleset(partial, xor_circuit(), xor_spec, IDENTITY_ENC)


def test_tangent_line_always_present(xor_compiled):
    assert xor_compiled.lines["tangent"] == ((0, 0, 2),)


def test_search_placement_xor(xor_spec):
    from latticegames.circuits import synthesize_nor_circuit
    from latticegames.recurrence import encoded_table

    circuit = extend_circuit(
        synthesize_nor_circuit(encoded_table(xor_spec, swapped_encoding())), "C"
    )
    pl = search_placement(circuit, xor_spec, seed=0)
    assert check_conditions(pl, circuit, xor_spec).ok()
    # deterministic in the seed
    pl2 = search_placement(circuit, xor_spec, seed=0)
    assert pl.pos == pl2.pos and pl.m == pl2.m


def test_search_empty_circuit(xor_spec):
    from latticegames.circuits import NorCircuit

    empty = NorCircuit((), (), (), ())
    with pytest.raises(ValueError):
        search_placement(empty, xor_spec, seed=0)


def test_compiled_game_satisfies_axioms(xor_compiled):
    w = check_pointedness(xor_compiled.game.ruleset)
    assert isinstance(w, PointednessWitness)
    assert all(r.passed for r in check_tangent_cone(xor_compiled.game.ruleset))


def test_compiled_lines_avoid_staircase_lattice(xor_compiled):
    # wire and initial-condition moves never land in (I-I) + mL
    pl = xor_compiled.placement
    mL = xor_compiled.spec.lattice.scale(pl.m)
    stair = {
        mL.class_label(vsub(a, b)) for a in pl.staircase for b in pl.staircase
    }
    for line in ("wires", "initial"):
        for move in xor_compiled.lines.get(line, ()):
            assert mL.class_label(move[:2]) not in stair, (line, move)
    for move in xor_compiled.lines["slice0"]:
        assert mL.class_label(move[:2]) not in stair, move


def test_verify_xor_pipeline(xor_compiled):
    rep = verify_construction(xor_compiled, bound=xor_compiled.placement.m * 6)
    assert rep.ok, rep.summary()
    names = [c.name for c in rep.checks]
    assert "slice0-lattice-law" in names
    assert "output-encoding" in names
    assert "in-prime-characterisation" in names


def test_verify_builtin_gamma():
    # the published game against the published placement, identity encoding
    from latticegames.compiler import CompiledGame

    spec = xor_recurrence()
    cg = CompiledGame(
        game=GameSpec(paper_gamma()),
        placement=paper_placement(),
        circuit=xor_circuit(),
        spec=spec,
        enc=IDENTITY_ENC,
        line_arrays={},
    )
    rep = verify_construction(cg, bound=47)
    assert rep.ok, rep.summary()


def _corrupted_gamma():
    from latticegames.compiler import CompiledGame

    weakened = Ruleset(3, [m for m in paper_gamma().moves if m != (1, 1, 0)])
    return CompiledGame(
        game=GameSpec(weakened),
        placement=paper_placement(),
        circuit=xor_circuit(),
        spec=xor_recurrence(),
        enc=IDENTITY_ENC,
        line_arrays={},
    )


def test_verify_detects_corruption():
    rep = verify_construction(_corrupted_gamma(), bound=60)
    assert not rep.ok
    assert not rep["output-encoding"].ok
    assert rep["output-encoding"].status == "FAIL"
    line = next(line for line in rep.summary().splitlines() if line.startswith("output-encoding:"))
    assert line.startswith("output-encoding: FAIL (")
    assert f"  first failure: {rep['output-encoding'].failure}" in line


def simple_spec():
    return RecurrenceSpec(
        lattice=Z2,
        module=ModuleIdeal(Z2, [(0, 0)]),
        betas=[(1, 0), (0, 1)],
        alphabet=("P", "N"),
        table={
            ("P", "P"): "N",
            ("P", "N"): "P",
            ("N", "P"): "P",
            ("N", "N"): "N",
        },
        sigma0="P",
        f0={(0, 0): "P"},
    )


def test_variant_a_is_refused_before_synthesis(monkeypatch):
    # the defeated-position channel is gone, and its name is refused first
    from latticegames import compiler

    def unreachable(*args):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(compiler, "synthesize_nor_circuit", unreachable)
    with pytest.raises(ValueError, match="variant must be one of"):
        compile_recurrence(_ca_spec(90), CA_ENC, "A")


def test_variant_c_requires_background_initials():
    spec = RecurrenceSpec(
        lattice=Z2,
        module=ModuleIdeal(Z2, [(0, 0)]),
        betas=[(1, 0), (0, 1)],
        alphabet=("P", "N"),
        table={
            ("P", "P"): "N",
            ("P", "N"): "P",
            ("N", "P"): "P",
            ("N", "N"): "N",
        },
        sigma0="P",
        f0={(0, 0): "N"},  # not the background symbol
    )
    with pytest.raises(ValueError):
        compile_recurrence(spec, swapped_encoding(), variant="C", seed=0)


def test_emission_refuses_unpointed_ruleset(monkeypatch):
    # the xor circuit under variant B yields moves with no positive
    # play-bounding functional; compile must stop before handing them out
    emitted = []

    def spy(rs):
        emitted.append(rs)
        return check_pointedness(rs)

    monkeypatch.setattr(engine, "check_pointedness", spy)
    with pytest.raises(EmissionError) as err:
        compile_recurrence(xor_recurrence(), swapped_encoding(), variant="B", seed=0)
    cert = err.value.certificate
    assert isinstance(cert, Infeasible)
    assert cert.verify(pointedness_constraints(emitted[-1]))


def test_compiled_game_carries_its_witness(xor_compiled):
    assert xor_compiled.witness == check_pointedness(xor_compiled.game.ruleset)


def _reference_minimal_elements(member, order, box):
    """Minimal points of {p in N^2 : member(p)} under the order of the
    sublattice `order`, by a pointwise scan of [0, box]^2; the box doubles
    while a minimal point lies on its boundary."""

    def leq(a, b):
        d = vsub(b, a)
        return min(d) >= 0 and order.contains(d)

    while box <= 512:
        # componentwise dominators of p precede p in this scan order, so a
        # point not above any minimal found so far is itself minimal
        minimals = []
        for p in product(range(box + 1), repeat=2):
            if member(p) and not any(leq(q, p) for q in minimals):
                minimals.append(p)
        if all(max(p) < box for p in minimals):
            return sorted(minimals)
        box *= 2
    raise AssertionError("the reference box grew beyond 512")


@st.composite
def module_specs(draw):
    """A sublattice with basis entries in [-3, 3], two or three shifts in it
    that anchor both board axes (a single shift cannot anchor both and keep
    a positive normal), one to four module generators, and the identity
    encoding of the P/N alphabet."""
    coord = st.integers(-3, 3)
    b1, b2 = draw(
        st.tuples(st.tuples(coord, coord), st.tuples(coord, coord)).filter(
            lambda b: b[0][0] * b[1][1] - b[0][1] * b[1][0] != 0
        )
    )
    L = Sublattice(b1, b2)
    near = [p for p in product(range(-6, 7), repeat=2) if p != (0, 0) and L.contains(p)]
    # anchors (-p, q) and (r, -s) share a positive normal iff p s < q r; a
    # third shift in N^2 keeps any positive normal
    anchors = [
        (a, c)
        for a in near
        if a[0] <= 0 < a[1]
        for c in near
        if c[1] <= 0 < c[0] and a[0] * c[1] < a[1] * c[0]
    ]
    assume(anchors)
    betas = {
        *draw(st.sampled_from(anchors)),
        *draw(st.lists(st.sampled_from([p for p in near if min(p) >= 0]), max_size=1)),
    }
    plus = [p for p in product(range(7), repeat=2) if L.contains(p)]
    drawn = draw(st.lists(st.sampled_from(plus), min_size=1, max_size=4, unique=True))

    def above(g, h):
        d = vsub(g, h)
        return g != h and min(d) >= 0 and L.contains(d)

    # keep an antichain in the L+ order
    gens = [g for g in drawn if not any(above(g, h) for h in drawn)]
    spec = RecurrenceSpec(
        lattice=L,
        module=ModuleIdeal(L, gens),
        betas=sorted(betas),
        alphabet=("P", "N"),
        table={args: "P" for args in product("PN", repeat=len(betas))},
        sigma0="P",
        f0={g: draw(st.sampled_from("PN")) for g in gens},
    )
    return spec, Encoding({"P": ("P",), "N": ("N",)})


def _ca_case(rule):
    from latticegames.recurrence import ca_to_recurrence, wolfram_rule_table

    spec = ca_to_recurrence(wolfram_rule_table(rule), "0", "1").spec
    return spec, Encoding({"0": ("N",), "1": ("P",)})


@settings(max_examples=80)
@given(module_specs())
@example((xor_recurrence(), swapped_encoding()))
@example((simple_spec(), swapped_encoding()))
@example(_ca_case(90))
@example(_ca_case(110))
@example(_ca_case(30))
def test_module_generators_match_reference(case):
    spec, _enc = case
    L, M = spec.lattice, spec.module
    coords = [abs(c) for v in spec.betas + M.generators for c in v]
    box = 2 * max(coords) + sum(L.axis_strides()) + 2

    def in_betas(p):
        return all(min(vsub(p, b)) >= 0 and L.contains(vsub(p, b)) for b in spec.betas)

    b_prime = _reference_minimal_elements(in_betas, L, box)
    assert beta_intersection_generators(spec) == b_prime
    positive = _reference_minimal_elements(lambda p: p != (0, 0) and L.contains(p), Z2, box)
    assert positive_generators(L) == positive
    # the in' generators regenerate their set on a window, in the L+ order
    for p in product(range(13), repeat=2):
        regenerated = any(min(vsub(p, g)) >= 0 and L.contains(vsub(p, g)) for g in b_prime)
        assert regenerated == in_betas(p), p


def test_variant_b_emits_initial_lines():
    from latticegames.recurrence import ca_to_recurrence, wolfram_rule_table

    emb = ca_to_recurrence(wolfram_rule_table(90), "0", "1")
    enc = Encoding({"0": ("N",), "1": ("P",)})
    cg = compile_recurrence(emb.spec, enc, variant="B", seed=0)
    assert "in-double-prime" in cg.lines
    assert "initial" in cg.lines
    gens = cg.spec.module.generators
    ind = cg.placement.pos[cg.circuit.in_dprime]
    out = cg.placement.pos[cg.circuit.outputs[0]]
    m = cg.placement.m
    # the second block contributes exactly the generators with encoded bit N
    expected = set()
    feeders = {
        t
        for t, h in cg.circuit.edges
        if h in cg.circuit.outputs and t != cg.circuit.in_dprime
    }
    for g in gens:
        for t in feeders:
            p = cg.placement.pos[t]
            expected.add((p[0] - ind[0] + m * g[0], p[1] - ind[1] + m * g[1], 0))
        if enc.encode(cg.spec.f0[g])[0] == "N":
            expected.add((out[0] - ind[0] + m * g[0], out[1] - ind[1] + m * g[1], 0))
    assert set(cg.lines["initial"]) == expected


def _reference_check_conditions(placement, circuit, spec):
    """check_conditions in its direct form, kept as the reference: every
    difference is relabelled with class_label instead of being derived from
    the labels of single points."""
    from itertools import product

    from latticegames.compiler import ConditionReport, ConditionResult
    from latticegames.lattice import dominates, dot, enumerate_F, vscale

    def _staircase_diffs(I):
        return {vsub(a, b) for a in I for b in I}

    pl = placement
    for v in circuit.vertices:
        if v not in pl.pos:
            raise ValueError(f"placement gives no position for vertex {v}")
    mL = spec.lattice.scale(pl.m)
    label = mL.class_label
    nu = pl.normal
    I = pl.staircase
    pos = pl.pos
    V = list(circuit.vertices)
    E = list(circuit.edges)
    edge_delta = {e: vsub(pos[e[1]], pos[e[0]]) for e in E}
    I_diff_labels = {label(d) for d in _staircase_diffs(I)}
    I_labels = {label(p) for p in I}
    vertex_labels = {v: label(pos[v]) for v in V}
    gate_label_set = set(vertex_labels.values())
    results = {}

    witness = None
    for e in E:
        if dot(nu, edge_delta[e]) <= 0:
            witness = ("edge", e, edge_delta[e])
            break
    if witness is None:
        bound = max(dot(nu, i) for i in I)
        stairs = _staircase_diffs(I)
        for i in I:
            for qx in range(bound // nu[0] + 1):
                for qy in range(bound // nu[1] + 1):
                    p = vsub((qx, qy), i)
                    if dot(nu, p) <= 0 and p not in stairs:
                        witness = ("outward-point", p)
                        break
                if witness:
                    break
            if witness:
                break
    results["a"] = ConditionResult("fail" if witness else "pass", witness)

    witness = None
    for i, block in enumerate(circuit.inputs):
        for j, name in enumerate(block):
            want = vsub(pos[circuit.outputs[j]], vscale(pl.m, spec.betas[i]))
            if pos[name] != want:
                witness = (i + 1, j + 1, pos[name], want)
                break
        if witness:
            break
    results["b"] = ConditionResult("fail" if witness else "pass", witness)

    flat_inputs = {x for block in circuit.inputs for x in block}
    witness = None
    preds = {w: set(circuit.preds[w]) for w in V}
    for w in V:
        if w in flat_inputs:
            continue
        deltas_seen = set()
        for e in E:
            d = edge_delta[e]
            dl = label(d)
            if (dl, d) in deltas_seen:
                continue
            deltas_seen.add((dl, d))
            if not any(label(vsub(pos[w], pos[v])) == dl for v in V):
                continue
            exact = [v for v in V if vsub(pos[w], pos[v]) == d]
            if not exact:
                witness = ("no-exact-realisation", w, e, d)
                break
            bad = [v for v in exact if v not in preds[w]]
            if bad:
                witness = ("non-edge-realisation", w, e, d, bad[0])
                break
        if witness:
            break
    results["c"] = ConditionResult("fail" if witness else "pass", witness)

    d_mod = mL.index()

    def ladd(l1, l2):
        return ((l1[0] + l2[0]) % d_mod, (l1[1] + l2[1]) % d_mod)

    def lneg(l1):
        return ((-l1[0]) % d_mod, (-l1[1]) % d_mod)

    # a witness class is named by its last point of F
    rep_of = {label(p): p for p in enumerate_F(spec.lattice, pl.m)}

    pair_diff_labels = {label(vsub(pos[w], pos[v])) for v in V for w in V}
    candidates = None
    for i in I:
        shifted = {ladd(c, label(i)) for c in pair_diff_labels}
        candidates = shifted if candidates is None else candidates & shifted
    bad = candidates - I_labels
    witness = rep_of[min(bad)] if bad else None
    results["d"] = ConditionResult("fail" if witness else "pass", witness)

    witness = None
    choices = [[vsub(p, q) for q in I if q != p] for p in I]
    if all(choices):
        hits_cache = {}
        for combo in product(*choices):
            shape = frozenset(label(s) for s in combo)
            anchors = None
            for sl in shape:
                if sl not in hits_cache:
                    hits_cache[sl] = {ladd(g, lneg(sl)) for g in gate_label_set}
                anchors = hits_cache[sl] if anchors is None else anchors & hits_cache[sl]
                if not anchors:
                    break
            if anchors:
                witness = (rep_of[min(anchors)], set(combo))
                break
    results["e"] = ConditionResult("fail" if witness else "pass", witness)

    witness = None
    for e in E:
        if label(edge_delta[e]) in I_diff_labels:
            witness = (e, edge_delta[e])
            break
    results["f"] = ConditionResult("fail" if witness else "pass", witness)

    specials = [x for x in (circuit.in_prime, circuit.in_dprime) if x is not None]
    if not specials:
        results["g"] = ConditionResult("vacuous", note="no control vertices")
    else:
        witness = None
        for x in specials:
            for v in V:
                if v == x:
                    continue
                if label(vsub(pos[v], pos[x])) in I_labels:
                    witness = ("staircase-overlap", v, x)
                    break
            if witness:
                break
        if witness is None and circuit.in_dprime is not None:
            ind = circuit.in_dprime
            feed_heads = [h for t, h in E if t == ind]
            if circuit.in_prime is not None and circuit.in_prime not in feed_heads:
                feed_heads.append(circuit.in_prime)
            for h in feed_heads:
                d0 = vsub(pos[h], pos[ind])
                if label(d0) in I_diff_labels:
                    witness = ("staircase-clash", h, d0)
                    break
                for v2 in V:
                    for w2 in V:
                        if label(vsub(pos[w2], pos[v2])) != label(d0):
                            continue
                        if (
                            vertex_labels[v2] == vertex_labels[ind]
                            and vertex_labels[w2] == vertex_labels[h]
                        ):
                            continue
                        witness = ("difference-clash", h, (v2, w2))
                        break
                    if witness:
                        break
                if witness:
                    break
        results["g"] = ConditionResult("fail" if witness else "pass", witness)

    witness = None
    for x in specials:
        if pos[x][0] < 0 or pos[x][1] < 0:
            witness = ("control-off-board", x, pos[x])
            break
    if witness is None:
        for name in [x for block in circuit.inputs for x in block]:
            if pos[name][0] >= 0 and pos[name][1] >= 0:
                witness = ("input-on-board", name, pos[name])
                break
    results["h"] = ConditionResult("fail" if witness else "pass", witness)

    witness = None
    outs = circuit.outputs
    for j in range(len(outs)):
        for j2 in range(j + 1, len(outs)):
            a, b = pos[outs[j]], pos[outs[j2]]
            if not (a[0] < b[0] and a[1] > b[1]):
                witness = ("output-order", outs[j], outs[j2])
                break
        if witness:
            break
    if witness is None:
        for t, h in E:
            if h in outs:
                for o in outs:
                    if dominates(pos[t], pos[o]):
                        witness = ("feeder-dominates", t, o)
                        break
            if witness:
                break
    results["i"] = ConditionResult("fail" if witness else "pass", witness)

    return ConditionReport(results)


def _search_circuit(spec, enc, variant):
    from latticegames.circuits import synthesize_nor_circuit
    from latticegames.recurrence import encoded_table, prune_unused_arguments

    spec = prune_unused_arguments(spec)
    return extend_circuit(synthesize_nor_circuit(encoded_table(spec, enc)), variant), spec


def _ca_spec(rule):
    from latticegames.recurrence import ca_to_recurrence, wolfram_rule_table

    return ca_to_recurrence(wolfram_rule_table(rule), "0", "1").spec


def _xor_spec(betas):
    """xor over Z^2 with the given shifts, the module N^2 and the background
    symbol at the origin, so variant C applies."""
    xor = xor_recurrence()
    return RecurrenceSpec(Z2, ModuleIdeal(Z2, [(0, 0)]), betas, xor.alphabet, xor.table,
                          xor.sigma0, {(0, 0): xor.sigma0})


CA_ENC = Encoding({"0": ("N",), "1": ("P",)})

# sha256 of the repr of test_search_sequence_is_pinned's placements and tallies
PINNED_PLACEMENTS = "0895f2bf1033846ac8da061a0263b30425922bf3be5d4cfab8c719d6278fb0e9"
PINNED_PRUNES = "93bbf729aa0eeca512f8944e8c1b1726e158de9ce91800c56da716e86a0bd736"


def _direct_circuit():
    """xor's two inputs wired straight into the output.  Such a wire moves
    by m beta, which lies in mL, so (f) refuses every value of the first
    slot at every m."""
    from latticegames.circuits import NorCircuit

    return extend_circuit(NorCircuit(("x", "y", "o"), (("x", "o"), ("y", "o")),
                                     (("x",), ("y",)), ("o",)), "C")


def _dead_end_circuit():
    """A circuit with a gate z that reaches no output: z and its tail g sit
    on one ladder level, so the wire g -> z does not ascend the halfspace
    and (a) refuses every complete placement."""
    from latticegames.circuits import NorCircuit

    edges = (("x", "a"), ("y", "a"), ("a", "o"), ("a", "g"), ("g", "z"))
    return extend_circuit(NorCircuit(("x", "y", "a", "o", "g", "z"), edges,
                                     (("x",), ("y",)), ("o",)), "C")


def _capped(search, budget, steps):
    """search() run with search.NODE_BUDGET and compiler.M_STEPS patched."""
    from latticegames import compiler
    from latticegames import search as placement_search

    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(placement_search, "NODE_BUDGET", budget)
            patch.setattr(compiler, "M_STEPS", steps)
            return search()

    return run


def _recorded_searches(searches):
    """Run each search() while recording every check_conditions call; returns
    one (trials, outcome) pair per search, where trials are the checked
    (placement, circuit, spec) in order and outcome is the returned
    placement or the PlacementSearchError raised."""
    from latticegames import compiler

    trials, outcomes = [], []
    checker = compiler.check_conditions

    def record(*case):
        trials[-1].append(case)
        return checker(*case)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler, "check_conditions", record)
        for search in searches:
            trials.append([])
            try:
                outcomes.append(search())
            except PlacementSearchError as err:
                outcomes.append(err)
    return list(zip(trials, outcomes))


@pytest.fixture(scope="module")
def searches():
    """Every seeded search and the complete placements it checks: xor under
    variant C, rules 90 and 110 under variants C and B, each at seeds 0 and
    1, and xor with two output bits, where (i) compares the two outputs'
    order.  Then two searches that find nothing: the direct circuit, which
    checks no complete placement, and the dead-end circuit, whose complete
    placements all fail (a), at m0 alone and until it rejects 40 values."""
    cases = [(xor_recurrence(), swapped_encoding(), "C")]
    for rule in (90, 110):
        cases += [(_ca_spec(rule), CA_ENC, "C"), (_ca_spec(rule), CA_ENC, "B")]
    runs = []
    for spec, enc, variant in cases:
        circuit, pruned = _search_circuit(spec, enc, variant)
        for seed in (0, 1):
            runs.append(partial(search_placement, circuit, pruned, seed=seed))
    wide = Encoding({sym: bits * 2 for sym, bits in swapped_encoding().table.items()})
    circuit, spec = _search_circuit(xor_recurrence(), wide, "C")
    runs.append(partial(search_placement, circuit, spec))
    runs.append(partial(search_placement, _direct_circuit(), xor_recurrence()))
    runs.append(_capped(partial(search_placement, _dead_end_circuit(), xor_recurrence()),
                        budget=40, steps=1))
    return _recorded_searches(runs)


def test_search_accepts_only_passing_trials(searches):
    # the search checks only complete placements; the reference decides all
    # nine conditions, and must reject every placement the search rejected
    # and accept the one it returned
    for trials, outcome in searches:
        for case in trials:
            assert _reference_check_conditions(*case).ok() == (case[0] is outcome), case[0]
        if isinstance(outcome, Placement):
            assert trials[-1][0] is outcome
    assert [type(outcome) for _, outcome in searches[-3:]] == [
        Placement, PlacementSearchError, PlacementSearchError]
    assert not searches[-2][0] and len(searches[-1][0]) > 1


def test_search_error_carries_full_report(searches):
    # an exhausted search names the condition that rejected the most values,
    # and carries the full report of the last complete placement it checked,
    # or none when it reached none
    trials, err = searches[-1]
    want = _reference_check_conditions(*trials[-1]).results
    assert err.report.results == want
    assert [k for k, r in want.items() if r.status == "fail"] == ["a"]
    # every complete placement failed (a); the prunes never name it
    assert err.rejections["a"] == len(trials) == max(err.rejections.values())
    assert "condition (a) rejected the most values" in str(err)
    trials, err = searches[-2]
    assert err.report is None and not trials
    assert "condition (f) rejected the most values" in str(err)


def test_exhausted_search_visits_every_scale():
    # the direct circuit fails (f) on each of the five output jitters at each
    # of the M_STEPS scales m0, m0 + 2, ..., m0 + 2 (M_STEPS - 1)
    from latticegames import compiler

    with pytest.raises(PlacementSearchError) as err:
        search_placement(_direct_circuit(), xor_recurrence(), seed=3)
    assert err.value.rejections == {"f": 5 * compiler.M_STEPS}
    m0 = SearchSpace(_direct_circuit(), xor_recurrence()).m0
    assert f"m = {m0}..{m0 + 2 * (compiler.M_STEPS - 1)}" in str(err.value)


def test_search_trial_count_rule110_b():
    # the benchmark's ca-verify compiles: placement seeds 0-3 each find a
    # placement at m0 = 21 and check it once, the only complete placement
    # their search reaches (the random search checked 194 between them)
    circuit, spec = _search_circuit(_ca_spec(110), CA_ENC, "B")
    runs = _recorded_searches(
        [partial(search_placement, circuit, spec, seed=seed) for seed in range(4)]
    )
    assert all(isinstance(outcome, Placement) and outcome.m == 21 for _, outcome in runs)
    assert sum(len(trials) for trials, _ in runs) == 4
    # and each verifies at 4m, every check comparing a point
    for _, pl in runs:
        report = verify_construction(emit_ruleset(pl, circuit, spec, enc=CA_ENC), 4 * pl.m)
        assert report.ok and all(c.checked > 0 for c in report.checks), report.summary()


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_search_sequence_is_pinned(monkeypatch):
    # the placement each seeded search returns, and per search the values
    # SearchSpace.extend rejected by condition, recorded before the search
    # was made recursive, which kept them: rules 110, 90 and 30 under B and
    # xor under C, seeds 0-3.  Then the tallies of a search that exhausts
    # every scale
    rejected = []
    extend = SearchSpace.extend

    def counted(self, *args):
        bad, still = extend(self, *args)
        if bad is not None:
            rejected[-1][bad] = rejected[-1].get(bad, 0) + 1
        return bad, still

    monkeypatch.setattr(SearchSpace, "extend", counted)
    found = []
    cases = [(_ca_spec(rule), CA_ENC, "B") for rule in (110, 90, 30)]
    for spec, enc, variant in cases + [(xor_recurrence(), swapped_encoding(), "C")]:
        circuit, pruned = _search_circuit(spec, enc, variant)
        for seed in range(4):
            rejected.append({})
            pl = search_placement(circuit, pruned, seed=seed)
            found.append((pl.m, sorted(pl.pos.items())))
    tallies = [sorted(t.items()) for t in rejected]
    assert (_digest(found), _digest(tallies)) == (PINNED_PLACEMENTS, PINNED_PRUNES)
    rejected.append({})
    with pytest.raises(PlacementSearchError) as err:
        search_placement(_direct_circuit(), xor_recurrence())
    assert err.value.rejections == rejected[-1] == {"f": 250}


def test_each_placement_is_decided_once(monkeypatch):
    # the search returns only placements check_conditions accepted, so a
    # compile decides its placement once and emits it unchecked; compile and
    # verify read the int64 arrays, so the tuple forms are never built
    from latticegames import compiler

    calls = []
    checker = compiler.check_conditions
    monkeypatch.setattr(compiler, "check_conditions", lambda *case: calls.append(case) or checker(*case))
    games = [compile_recurrence(_ca_spec(110), CA_ENC, "B", seed=seed) for seed in range(4)]
    assert len(calls) == 4
    for cg in games:
        assert verify_construction(cg, 4 * cg.placement.m).ok
        assert "moves" not in cg.game.ruleset.__dict__
        assert "lines" not in cg.__dict__


def _slot_values(space, spec, m):
    """The space's candidate values at m."""
    return space.values(Placement({}, m, space.staircase, space.normal).label_frame(spec.lattice))


def _prefix_verdicts(space, spec, placement):
    """SearchSpace.extend's verdict on each prefix of the placement's slots,
    in order."""
    sv = _slot_values(space, spec, placement.m)
    pts = [placement.pos[v] for v in space.vertices]
    codes = sv.frame.mL.class_labels(pts).tolist()
    verdicts, pending = [], []
    for k, end in enumerate(space.ends, 1):
        bad, pending = space.extend(sv, k, pts[:end], codes[:end], pending)
        verdicts.append(bad)
    return verdicts


@settings(max_examples=150)
@given(st.data())
def test_prunes_keep_every_accepted_prefix(searches, data):
    # a prune may drop a value only if no completion passes: every prefix,
    # in the search's slot order, of a placement the reference accepts
    # passes SearchSpace.extend.  Once every slot is placed, extend has
    # decided (c), (e), (f) and (g) exactly, so every prefix passes just when
    # the reference passes those four.  The placements are the searches'
    # results with some slots given other candidate values, possibly at
    # another m: few changes keep most of them accepted, many reject most
    found = [trials[-1] for trials, outcome in searches if isinstance(outcome, Placement)]
    pl, circuit, spec = data.draw(st.sampled_from(found))
    space = SearchSpace(circuit, spec)
    m = data.draw(st.sampled_from([pl.m, pl.m + 2]))
    sv = _slot_values(space, spec, m)
    pos = dict(pl.pos)
    # the inputs move with m, so at another m the first slot is drawn anew
    slots = data.draw(st.lists(st.integers(0, len(space.slots) - 1), max_size=len(space.slots)))
    for k in slots + ([0] if m != pl.m else []):
        value = data.draw(st.integers(0, len(sv.points[k]) - 1))
        pos.update(zip(space.slots[k], sv.points[k][value]))
    placement = Placement(pos, m, pl.staircase, pl.normal)
    want = _reference_check_conditions(placement, circuit, spec).results
    pruned = all(want[key].status != "fail" for key in "cefg")
    assert (_prefix_verdicts(space, spec, placement) == [None] * len(space.slots)) == pruned, placement.pos


def _twin_circuit():
    """Two output bits fed by the source gates u, s1, d and p0..p5 (pi feeds
    out_1 for even i, out_2 for odd i), and a gate a reading every input.
    The six p gates widen the ladder's jitter to 12, so two gates on one
    level can differ by m (1, -1), a vector of mL, at m = 20."""
    from latticegames.circuits import NorCircuit

    inputs = (("in_1_1", "in_1_2"), ("in_2_1", "in_2_2"))
    sources = ["u", "s1", "d"] + [f"p{i}" for i in range(6)]
    edges = [("u", "out_1"), ("s1", "out_2"), ("d", "out_1")]
    edges += [(p, f"out_{1 + i % 2}") for i, p in enumerate(sources[3:])]
    edges += [(x, "a") for block in inputs for x in block] + [("a", "out_1"), ("a", "out_2")]
    vertices = (*inputs[0], *inputs[1], *sources, "a", "out_1", "out_2")
    return extend_circuit(NorCircuit(vertices, tuple(edges), inputs, ("out_1", "out_2")), "C")


def test_open_realiser_waits_for_a_later_slot(xor_spec):
    # a placement of the search's candidates at its m0 = 20 that passes all
    # nine conditions, where (c) instances stay open: u and d share a class
    # of mL (d - u = 20 (-1, 1)) and the wire s1 -> out_2 is parallel to
    # d -> out_1, so once u and s1 are placed the instance (out_1,
    # s1 -> out_2) reads the empty point out_1 - (out_2 - s1), where only d's
    # slot can put a vertex.  The pair s1, p1 and the wires u -> out_1,
    # p1 -> out_2 open a second instance, for out_2, that p1 closes.  A (c)
    # prune that decided "no exact realiser" on the placed gates alone would
    # drop this placement at s1's slot
    circuit = _twin_circuit()
    space = SearchSpace(circuit, xor_spec)
    pos = {"out_1": (12, 14), "out_2": (13, 13), "in'": (0, 2), "u": (21, -1), "s1": (2, 18),
           "d": (1, 19), "p0": (4, 16), "p1": (22, -2), "p2": (7, 13), "p3": (13, 7), "p4": (10, 10),
           "p5": (17, 3), "a": (19, 1)}
    # each input one scaled shift below its output bit
    pos.update((x, vsub(pos[f"out_{j + 1}"], (20 * b[0], 20 * b[1])))
               for block, b in zip(circuit.inputs, xor_spec.betas) for j, x in enumerate(block))
    pl = Placement(pos, 20, space.staircase, space.normal)
    assert space.m0 == 20 and check_conditions(pl, circuit, xor_spec).ok()
    sv = _slot_values(space, xor_spec, pl.m)
    assert all(tuple(pos[v] for v in vs) in sv.points[k] for k, vs in enumerate(space.slots))
    pts = [pos[v] for v in space.vertices]
    codes = sv.frame.mL.class_labels(pts).tolist()
    out_1, out_2 = (space.vertices.index(o) for o in circuit.outputs)
    pending, open_after = [], {}
    for k, end in enumerate(space.ends, 1):
        bad, pending = space.extend(sv, k, pts[:end], codes[:end], pending)
        assert bad is None, space.slots[k - 1]
        open_after[space.slots[k - 1][0]] = pending
    assert open_after["s1"] == [(out_1, pos["d"]), (out_2, pos["p1"])]
    assert open_after["d"] == open_after["p0"] == [(out_2, pos["p1"])]
    assert all(not open_after[v] for v in ("out_1", "in'", "u", "p1", "p2", "p3", "p4", "p5", "a"))


@pytest.mark.parametrize("shift, at", [((2, 0), "in''"), ((-7, -5), "not_1")])
def test_in_dprime_feed_prunes(shift, at):
    # the rule 110 B placement at seed 0 with in' moved: the difference from
    # in'' to in' then clashes with that of another pair, so (g) prunes the
    # prefix that completes the clash.  With in' moved by (2, 0) that is the
    # prefix placing in'' itself; by (-7, -5) it is the one placing not_1, a
    # ladder gate that no edge from in'' reaches.  The reference names a
    # difference clash, so no control overlaps a staircase neighbourhood and
    # the prune is the feed-difference one
    circuit, spec = _search_circuit(_ca_spec(110), CA_ENC, "B")
    pl = search_placement(circuit, spec, seed=0)
    space = SearchSpace(circuit, spec)
    ip = pl.pos["in'"]
    moved = Placement({**pl.pos, "in'": (ip[0] + shift[0], ip[1] + shift[1])}, pl.m, pl.staircase, pl.normal)
    verdicts = _prefix_verdicts(space, spec, moved)
    k = space.slots.index((at,))
    assert verdicts[:k + 1] == [None] * k + ["g"]
    assert at == circuit.in_dprime or at not in circuit.in_dprime_heads
    want = _reference_check_conditions(moved, circuit, spec).results["g"]
    assert want.status == "fail" and want.witness[0] == "difference-clash"


def test_rule32_compiles_within_the_budget():
    # rule 32 B, the outlier of the random search (m = 65 at seed 0), is
    # placed within the node budget near m0 and verifies at 4m
    spec = _ca_spec(32)
    for seed in (0, 1):
        cg = compile_recurrence(spec, CA_ENC, "B", seed=seed)
        assert cg.placement.m <= SearchSpace(*_search_circuit(spec, CA_ENC, "B")).m0 + 4
        report = verify_construction(cg, 4 * cg.placement.m)
        assert report.ok and all(c.checked > 0 for c in report.checks), report.summary()


def test_conditions_match_reference(searches):
    import random

    tried = [case for trials, _ in searches for case in trials]
    # the unextended xor circuit carries no control vertices, so (g) is
    # vacuous and (h) checks the input gates alone
    pl = paper_placement()
    plain = (pl, xor_circuit(), xor_recurrence())
    # the paper's inputs sit a full m off the board, beyond the perturbations,
    # and no draw changes the staircase, which (a)'s outward points depend on
    on_board = Placement({**pl.pos, "v0": (0, 1)}, pl.m, pl.staircase, pl.normal)
    narrow = Placement(pl.pos, pl.m, [(0, 0), (0, 1)], pl.normal)
    # shifts (1, 0) and (-1, 1) give the normal (1, 2) and a staircase of 6
    # points, where the reference enumerates 5^6 choice functions for (e);
    # at the searched m (e) passes, and small m make it fail at varied anchors
    circuit, spec = _search_circuit(_xor_spec([(1, 0), (-1, 1)]), swapped_encoding(), "C")
    six = (search_placement(circuit, spec), circuit, spec)
    assert len(six[0].staircase) == 6
    # in'' one step right of the output it feeds: their difference (-1, 0)
    # is a staircase difference but no staircase point, so (g) names the
    # clash, not an overlap
    pl, circuit, spec = next(case for case in tried if case[1].in_dprime is not None)
    out = pl.pos[circuit.outputs[0]]
    clash = Placement({**pl.pos, circuit.in_dprime: (out[0] + 1, out[1])}, pl.m, pl.staircase, pl.normal)
    rng = random.Random(0)
    drawn = list(tried) + [plain, (on_board,) + plain[1:], (narrow,) + plain[1:], six,
                           (clash, circuit, spec)]
    two_outputs = next(case for case in tried if len(case[1].outputs) == 2)
    for base in [None] * 300 + [plain] * 60 + [two_outputs] * 40 + [six] * 16:
        pl, circuit, spec = base or rng.choice(tried)
        pos = dict(pl.pos)
        for v in rng.sample(sorted(pos), rng.randint(1, 3)):
            pos[v] = (pos[v][0] + rng.randint(-3, 3), pos[v][1] + rng.randint(-3, 3))
        if base is six:
            m = rng.randint(1, 8)
        else:
            m = pl.m if rng.random() < 0.7 else rng.randint(1, pl.m)
        drawn.append((Placement(pos, m, pl.staircase, pl.normal), circuit, spec))
    seen = {}
    tags = set()
    for n, case in enumerate(drawn):
        want = _reference_check_conditions(*case).results
        report = check_conditions(*case)
        # ok() may stop at the first failure; the results read afterwards
        # are still the full report
        if n % 2:
            assert report.ok() == all(r.status != "fail" for r in want.values()), case[0]
        assert report.results == want, case[0]
        for key, r in want.items():
            seen.setdefault((key, case[1].in_prime is None), set()).add(r.status)
            if r.status == "fail" and isinstance(r.witness[0], str):
                tags.add(r.witness[0])
    # every clause both passes and fails somewhere, with and without control
    # vertices, so witness paths are compared
    for key in "abcdefhi":
        for plain_circuit in (False, True):
            assert {"pass", "fail"} <= seen[key, plain_circuit], (key, plain_circuit)
    assert seen["g", False] == {"pass", "fail"}
    assert seen["g", True] == {"vacuous"}
    # and every kind of tagged witness is compared
    assert tags == {
        "edge", "outward-point", "no-exact-realisation", "non-edge-realisation",
        "staircase-overlap", "staircase-clash", "difference-clash",
        "control-off-board", "input-on-board", "output-order", "feeder-dominates",
    }


def _reference_emit_lines(placement, circuit, spec, enc):
    """emit_ruleset's lines in their direct form, kept as the reference:
    slice 0 labels every f - i, duplicates and all, and slice 1 relabels the
    translates of each beta on their own."""
    from latticegames.lattice import F_array, vadd, vscale

    pl = placement
    labels = spec.lattice.scale(pl.m).class_labels
    I = np.array(pl.staircase, dtype=np.int64)
    pos = pl.pos
    gates = np.array([pos[v] for v in circuit.vertices], dtype=np.int64)
    f_minus_i = (F_array(spec.lattice, pl.m)[:, None] - I).reshape(-1, 2)

    def line(points, z):
        return tuple(sorted({(x, y, z) for x, y in np.reshape(points, (-1, 2)).tolist()}))

    lines = {"wires": line([vsub(pos[h], pos[t]) for t, h in circuit.edges
                            if t != circuit.in_dprime], 0)}
    forbidden = np.concatenate([labels(I[:, None] - I), labels(gates[:, None] - gates)])
    lines["slice0"] = line(f_minus_i[~np.isin(labels(f_minus_i), forbidden)], 0)
    slice1 = []
    for b in spec.betas:
        p = f_minus_i - pl.m * np.array(b, dtype=np.int64)
        hits = np.isin(labels(p[:, None] + I), labels(gates)).reshape(len(p), len(I))
        slice1.append(p[~hits.any(axis=1)])
    lines["slice1"] = line(np.concatenate(slice1), 1)
    ip = pos[circuit.in_prime]
    lines["in-prime"] = line([vadd(ip, vscale(pl.m, b)) for b in beta_intersection_generators(spec)], 1)
    lines["tangent"] = ((0, 0, 2),)
    if circuit.in_dprime is not None:
        ind = pos[circuit.in_dprime]
        lines["in-double-prime"] = line(
            [vadd(ind, vscale(pl.m, g)) for g in positive_generators(spec.lattice)], 1)
        feeders = [t for t, h in circuit.edges if h in circuit.outputs and t != circuit.in_dprime]
        initial = []
        for g in spec.module.generators:
            n_outputs = [o for o, bit in zip(circuit.outputs, enc.encode(spec.f0[g])) if bit == "N"]
            initial += [vadd(vsub(pos[t], ind), vscale(pl.m, g)) for t in feeders + n_outputs]
        lines["initial"] = line(initial, 0)
    return lines


def test_emission_matches_reference(searches):
    # every placement a search accepted, emitted once under the variant its
    # circuit carries the control vertices for
    accepted = [trials[-1] for trials, outcome in searches if isinstance(outcome, Placement)]
    emitted = set()
    for pl, circuit, spec in accepted:
        enc = swapped_encoding() if "P" in spec.alphabet else CA_ENC
        try:
            cg = emit_ruleset(pl, circuit, spec, enc=enc)
        except EmissionError as err:
            assert err.certificate is not None, pl
            continue
        want = _reference_emit_lines(pl, circuit, spec, enc)
        assert list(cg.lines) == list(want), (pl, cg.variant)
        for name, line in want.items():
            assert cg.lines[name] == line, (pl, cg.variant, name)
        assert cg.game.ruleset == Ruleset(3, [mv for line in want.values() for mv in line])
        assert not cg.game.has_defeated
        emitted.add(cg.variant)
    assert emitted == {"B", "C"}


def test_one_frame_per_compile(monkeypatch):
    # F is built once per m the search visits, plus once at m = 1 for the
    # in' generators: every value tried at one m, the conditions and the
    # emission share the placement's label frame
    from latticegames import compiler, lattice

    built = []

    def counted(L, m):
        built.append(m)
        return real(L, m)

    real = lattice.F_array
    monkeypatch.setattr(lattice, "F_array", counted)
    monkeypatch.setattr(compiler, "F_array", counted)
    tried = []
    checker = compiler.check_conditions
    monkeypatch.setattr(compiler, "check_conditions",
                        lambda *case: tried.append(case[0].m) or checker(*case))
    cg = compile_recurrence(_ca_spec(110), CA_ENC, "B", seed=0)
    assert sorted(built) == sorted({1, *tried}) and cg.placement.m in tried
    # an exhausted search builds one frame at each of the scales it visits
    built.clear()
    with pytest.raises(PlacementSearchError):
        search_placement(_direct_circuit(), xor_recurrence())
    assert len(built) == len(set(built)) == compiler.M_STEPS


def test_label_frame_follows_the_placement(xor_spec):
    pl = paper_placement()
    frame = pl.label_frame(xor_spec.lattice)
    assert pl.label_frame(xor_spec.lattice) is frame
    assert check_conditions(pl, xor_circuit(), xor_spec).ok()
    assert pl.label_frame(xor_spec.lattice) is frame
    # a changed m or another lattice gets a frame of its own
    pl.m = 12
    assert pl.label_frame(xor_spec.lattice).mL == xor_spec.lattice.scale(12)
    even = Sublattice((1, 1), (1, -1))
    assert pl.label_frame(even).mL == even.scale(12)
    # labels are additive, so plus and minus agree with labelling the sum
    rng = np.random.default_rng(0)
    p, q = rng.integers(-50, 50, size=(2, 40, 2))
    code = pl.label_frame(even).mL.class_labels
    frame = pl.label_frame(even)
    assert (frame.plus(code(p), code(q)) == code(p + q)).all()
    assert (frame.minus(code(p), code(q)) == code(p - q)).all()
    # the staircase tables, against labelling the points and their
    # differences directly
    I = pl.staircase
    assert frame.stair_set == set(code(I).tolist())
    assert frame.stair_diff_set == set(code([vsub(a, b) for a in I for b in I]).tolist())
    pairs = [(a, b) for a in I for b in I if b != a]
    assert frame.displacements.tolist() == code([vsub(a, b) for a, b in pairs]).tolist()
    assert frame.distinct.tolist() == [[b != a for b in I] for a in I]
    # (e)'s landing test: anchor + (I[p] - I[q]) has a class in classes, q != p
    anchors, gates = rng.integers(-50, 50, size=(2, 30, 2))
    classes = set(code(gates).tolist())
    want = [[[b != a and int(code([np.add(x, vsub(a, b))])[0]) in classes for b in I] for a in I]
            for x in anchors]
    assert frame.landings(code(anchors), code(gates)).tolist() == want


def test_wide_staircase_compiles_in_time():
    # shifts (2, -1) and (-1, 1) give the normal (2, 3) and a staircase of 12
    # points: 11^12 choice functions for (e), which is decided per anchor
    import signal

    def overdue(signum, frame):
        raise TimeoutError("compiling took over 5 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(5)
    try:
        cg = compile_recurrence(_xor_spec([(2, -1), (-1, 1)]), swapped_encoding(), "C")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(cg.placement.staircase) == 12


def _reference_verify_construction(cg, bound):
    """verify_construction as four per-point loops, kept as the reference."""
    from latticegames.compiler import CheckOutcome, VerificationReport
    from latticegames.engine import Solver
    from latticegames.lattice import dot
    from latticegames.recurrence import eval_recurrence

    def _lattice_points_below(lattice, m, nu, bound):
        pts = []
        for x in range(bound // (m * nu[0]) + 1):
            for y in range(bound // (m * nu[1]) + 1):
                if m * dot(nu, (x, y)) <= bound and lattice.contains((x, y)):
                    pts.append((x, y))
        return sorted(pts)

    spec = cg.spec
    pl = cg.placement
    nu = pl.normal
    m = pl.m
    mL = spec.lattice.scale(m)
    label = mL.class_label
    I_labels = {label(p) for p in pl.staircase}
    ells = _lattice_points_below(spec.lattice, m, nu, bound)
    mod_ells = [l for l in ells if spec.module.contains(l)]

    probes = []
    slice0_pts = [
        (x, y)
        for x in range(bound // nu[0] + 1)
        for y in range(bound // nu[1] + 1)
        if dot(nu, (x, y)) <= bound
    ]
    probes += [(x, y, 0) for x, y in slice0_pts]
    out_pos = [pl.pos[o] for o in cg.circuit.outputs]
    for l in mod_ells:
        for op in out_pos:
            probes.append((op[0] + m * l[0], op[1] + m * l[1], 1))
    specials = {}
    for name_attr, tag in ((cg.circuit.in_prime, "in-prime"), (cg.circuit.in_dprime, "in-double-prime")):
        if name_attr is not None:
            specials[tag] = pl.pos[name_attr]
            for l in ells:
                p = specials[tag]
                probes.append((p[0] + m * l[0], p[1] + m * l[1], 1))
    wx = max(p[0] for p in probes)
    wy = max(p[1] for p in probes)
    grid = Solver(cg.game, cg.witness).solve_window((wx, wy, 1))

    checks = []

    count = 0
    failure = None
    for x, y in slice0_pts:
        count += 1
        expect_p = label((x, y)) in I_labels
        if (grid.outcome_at((x, y, 0)) == "P") != expect_p:
            failure = ((x, y, 0), "P" if expect_p else "N", grid.outcome_at((x, y, 0)))
            break
    checks.append(CheckOutcome("slice0-lattice-law", failure is None, count, failure))

    count = 0
    failure = None
    for l in mod_ells:
        want = cg.enc.encode(eval_recurrence(spec, l))
        got = [grid.outcome_at((op[0] + m * l[0], op[1] + m * l[1], 1)) for op in out_pos]
        count += 1
        if tuple(got) != want:
            failure = (l, want, tuple(got))
            break
    checks.append(CheckOutcome("output-encoding", failure is None, count, failure))

    if "in-prime" in specials:
        count = 0
        failure = None
        ip = specials["in-prime"]
        for l in ells:
            o = grid.outcome_at((ip[0] + m * l[0], ip[1] + m * l[1], 1))
            count += 1
            expect_p = any(
                not spec.module.contains(vsub(l, b)) for b in spec.betas
            )
            if cg.variant == "B" and spec.module.is_generator(l):
                expect_p = False
            if (o == "P") != expect_p:
                failure = (l, "P" if expect_p else "N", o)
                break
        checks.append(CheckOutcome("in-prime-characterisation", failure is None, count, failure))

    if "in-double-prime" in specials:
        count = 0
        failure = None
        ind = specials["in-double-prime"]
        for l in ells:
            o = grid.outcome_at((ind[0] + m * l[0], ind[1] + m * l[1], 1))
            count += 1
            expect_p = l == (0, 0)
            if (o == "P") != expect_p:
                failure = (l, "P" if expect_p else "N", o)
                break
        checks.append(
            CheckOutcome("in-double-prime-characterisation", failure is None, count, failure)
        )

    return VerificationReport(tuple(checks))


def _verify_cases():
    """(game, bound) pairs: compiled games in variants B and C, two of which
    fail verify (the wide-staircase xor in variant C at 4m, rule 110 B with
    the word "11" at 8m), the corrupted published game, and compiled games
    with 1-3 moves removed at random; a subset of a pointed ruleset keeps
    its witness, so these still solve."""
    import dataclasses
    import random

    from latticegames.recurrence import ca_to_recurrence, wolfram_rule_table

    ca_enc = Encoding({"0": ("N",), "1": ("P",)})
    ca = {r: ca_to_recurrence(wolfram_rule_table(r), "0", "1").spec for r in (90, 110)}
    compiled = [(compile_recurrence(xor_recurrence(), swapped_encoding(), "C", seed=s), 6)
                for s in range(3)]
    compiled += [(compile_recurrence(ca[110], ca_enc, "B", seed=s), 4) for s in range(4)]
    rule90 = compile_recurrence(ca[90], ca_enc, "B", seed=0)
    compiled += [(rule90, 4), (rule90, 8)]
    compiled += [(compile_recurrence(_xor_spec([(2, -1), (-1, 1)]), swapped_encoding(), "C"), 4)]
    word11 = ca_to_recurrence(wolfram_rule_table(110), "0", "11").spec
    compiled += [(compile_recurrence(word11, ca_enc, "B", seed=0), 8)]
    cases = [(cg, k * cg.placement.m) for cg, k in compiled]
    cases.append((_corrupted_gamma(), 60))
    rng = random.Random(0)
    for _ in range(16):
        cg, k = rng.choice(compiled)
        # draw a line first, so the short control lines lose moves too
        dropped = set()
        for _ in range(rng.randint(1, 3)):
            dropped.add(rng.choice(cg.lines[rng.choice(sorted(cg.lines))]))
        moves = [mv for mv in cg.game.ruleset.moves if mv not in dropped]
        game = GameSpec(Ruleset(3, moves))
        cases.append((dataclasses.replace(cg, game=game), k * cg.placement.m))
    return cases


def test_verify_matches_reference():
    seen = {}
    for cg, bound in _verify_cases():
        want = _reference_verify_construction(cg, bound)
        got = verify_construction(cg, bound)
        assert got == want, (cg.variant, bound, got.summary(), want.summary())
        for c in want.checks:
            assert c.checked > 0, (c, bound)
            seen.setdefault(c.name, set()).add(c.ok)
    # every check both passes and fails somewhere, so first failures are compared
    assert len(seen) == 4
    for name, oks in seen.items():
        assert oks == {True, False}, name


def test_verify_flags_unchecked_checks():
    # rule 90, variant B at 2m: the normal is (1, 1) and the module's
    # generators lie on x + y = 4, so no module point l has m(x + y) <= 2m
    # and output-encoding compares none
    cg = compile_recurrence(_ca_spec(90), CA_ENC, "B", seed=0)
    rep = verify_construction(cg, 2 * cg.placement.m)
    unchecked = [c.name for c in rep.checks if c.status == "not checked"]
    assert unchecked == ["output-encoding"]
    assert all(c.failure is None and c.checked == 0 for c in rep.checks if c.name in unchecked)
    assert all(c.ok for c in rep.checks if c.name not in unchecked)
    assert not rep.ok
    assert "output-encoding: not checked (0 points)" in rep.summary().splitlines()


def test_verify_guard_covers_probe_tables(monkeypatch, traced_peak):
    # with the solve stubbed out, verify's own tables peak under its
    # up-front estimate, so a budget of that peak is refused before they
    # are built
    from latticegames import compiler, kernels

    class Unsolved:
        def __init__(self, game, witness):
            pass

        def outcomes(self, cells):
            return np.full(len(cells), engine.CODE_N, dtype=np.uint8)

    cg = compile_recurrence(_ca_spec(110), CA_ENC, "B", seed=0)
    bound = 32 * cg.placement.m
    monkeypatch.setattr(compiler, "Solver", Unsolved)
    with traced_peak() as peak:
        verify_construction(cg, bound)
    monkeypatch.setattr(kernels, "MEMORY_BUDGET", peak.bytes)
    with traced_peak() as refused, pytest.raises(ValueError, match="probe tables"):
        verify_construction(cg, bound)
    assert refused.bytes < 2**20


def test_verify_refuses_a_defeated_set(xor_compiled):
    # a defeated set has no meaning in the construction, so verify reads none
    import dataclasses

    game = GameSpec(xor_compiled.game.ruleset, LatticeSet.finite([(0, 0, 0)]))
    with pytest.raises(ValueError, match="no defeated set"):
        verify_construction(dataclasses.replace(xor_compiled, game=game), 6 * xor_compiled.placement.m)


def test_verify_rejects_negative_bound(xor_compiled):
    with pytest.raises(ValueError, match="bound"):
        verify_construction(xor_compiled, -5)


@pytest.mark.parametrize("bound", [0.5, 84.7, None, "84"])
def test_verify_refuses_a_bound_that_is_not_an_integer(xor_compiled, bound):
    # none is truncated: 0.5 and 84.7 would otherwise verify as 0 and 84
    with pytest.raises(ValueError, match=re.escape(f"bound {bound!r} is not an integer")):
        verify_construction(xor_compiled, bound)


@pytest.mark.parametrize("vertex", ["in'", "out_1"])
@pytest.mark.parametrize("at", [(-3, 2), (-100, -100)])
def test_verify_rejects_off_board_vertices(xor_compiled, vertex, at):
    # a negative coordinate would index the solved window from its far end
    import copy
    import re

    cg = copy.copy(xor_compiled)
    cg.placement = Placement({**cg.placement.pos, vertex: at}, cg.placement.m,
                             cg.placement.staircase, cg.placement.normal)
    with pytest.raises(ValueError, match=re.escape(f"vertex {vertex!r} at {at}")):
        verify_construction(cg, 4 * cg.placement.m)
