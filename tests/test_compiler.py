import pytest

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
    check_conditions,
    compile_recurrence,
    emit_defeated,
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
from latticegames.lattice import Z2, ModuleIdeal, vsub
from latticegames.recurrence import Encoding, RecurrenceSpec


@pytest.fixture(scope="module")
def xor_spec():
    return xor_recurrence()


@pytest.fixture(scope="module")
def xor_compiled(xor_spec):
    return compile_recurrence(xor_spec, swapped_encoding(), variant="C", seed=0)


def test_paper_placement_passes_conditions(xor_spec):
    rep = check_conditions(paper_placement(), xor_circuit(), xor_spec, "C")
    for key in "abcdefi":
        assert rep[key].status == "pass", (key, rep[key])
    assert rep["g"].status == "vacuous"
    assert rep.ok()


def test_condition_b_fails_on_moved_input(xor_spec):
    pl = paper_placement()
    pos = dict(pl.pos)
    pos["v0"] = (-5, 0)
    moved = Placement(pos, pl.m, pl.staircase, pl.normal)
    rep = check_conditions(moved, xor_circuit(), xor_spec, "C")
    assert rep["b"].status == "fail"
    assert rep["b"].witness[:2] == (1, 1)


def test_conditions_fail_at_m_one(xor_spec):
    pl = paper_placement()
    tiny = Placement(pl.pos, 1, pl.staircase, pl.normal)
    rep = check_conditions(tiny, xor_circuit(), xor_spec, "C")
    assert not rep.ok()
    # with m = 1 every residue is covered, so the wire moves are all
    # congruent to staircase differences
    assert rep["f"].status == "fail"


def test_staircase_must_be_downward_closed():
    with pytest.raises(ValueError):
        Placement({"v": (0, 0)}, 6, [(1, 0)], (1, 1))


def test_golden_emission(xor_spec):
    cg = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, "C", core_only=True)
    assert set(cg.game.ruleset.moves) == set(paper_gamma().moves)
    assert len(cg.lines["wires"]) == 7
    assert len(cg.lines["slice0"]) == 20
    assert len(cg.lines["slice1"]) == 55
    assert cg.game.ruleset == paper_gamma()


def test_emission_rederives_the_misprints(xor_spec):
    # the verbatim transcription differs from the formula output exactly by
    # both translates of the four bad base points
    cg = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, "C", core_only=True)
    extras = set(paper_gamma_verbatim().moves) - set(cg.game.ruleset.moves)
    want = set()
    for b in ((0, 5), (4, 0), (5, 0), (5, 1)):
        for s in ((-6, 0), (0, -6)):
            want.add((b[0] + s[0], b[1] + s[1], 1))
    assert extras == want
    assert not set(cg.game.ruleset.moves) - set(paper_gamma_verbatim().moves)


def test_emission_deterministic(xor_spec):
    a = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, "C", core_only=True)
    b = emit_ruleset(paper_placement(), xor_circuit(), xor_spec, "C", core_only=True)
    assert a.lines == b.lines
    assert a.game.ruleset == b.game.ruleset


def test_emission_refuses_failing_placement(xor_spec):
    pl = paper_placement()
    tiny = Placement(pl.pos, 1, pl.staircase, pl.normal)
    with pytest.raises(EmissionError):
        emit_ruleset(tiny, xor_circuit(), xor_spec, "C", core_only=True)


def test_tangent_line_always_present(xor_compiled):
    assert xor_compiled.lines["tangent"] == ((0, 0, 2),)


def test_search_placement_xor(xor_spec):
    from latticegames.circuits import synthesize_nor_circuit
    from latticegames.recurrence import encoded_table

    circuit = extend_circuit(
        synthesize_nor_circuit(encoded_table(xor_spec, swapped_encoding())), "C"
    )
    pl = search_placement(circuit, xor_spec, "C", seed=0)
    assert check_conditions(pl, circuit, xor_spec, "C").ok()
    # deterministic in the seed
    pl2 = search_placement(circuit, xor_spec, "C", seed=0)
    assert pl.pos == pl2.pos and pl.m == pl2.m


def test_strengthened_wire_separation(xor_spec):
    from latticegames.compiler import wire_classes_collision_free

    # the published placement satisfies the as-printed wire condition even
    # though two gates share a residue class, so the strengthened
    # distinct-difference form rejects it
    assert not wire_classes_collision_free(paper_placement(), xor_circuit(), xor_spec)
    rep = check_conditions(paper_placement(), xor_circuit(), xor_spec, "C")
    assert rep["c"].status == "pass"


def test_search_hint_mode(xor_spec):
    # a passing placement given as hint comes back unchanged
    pl = search_placement(xor_circuit(), xor_spec, "C", seed=3, hint=paper_placement())
    assert pl is not None
    assert pl.pos == paper_placement().pos
    assert pl.m == 6


def test_search_empty_circuit(xor_spec):
    from latticegames.circuits import NorCircuit

    empty = NorCircuit((), (), (), ())
    with pytest.raises(ValueError):
        search_placement(empty, xor_spec, "C", seed=0)


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
        enc=Encoding({"P": ("P",), "N": ("N",)}),
        variant="C",
        lines={},
    )
    rep = verify_construction(cg, bound=47)
    assert rep.ok, rep.summary()


def test_verify_detects_corruption():
    from latticegames.compiler import CompiledGame

    spec = xor_recurrence()
    weakened = Ruleset(3, [m for m in paper_gamma().moves if m != (1, 1, 0)])
    cg = CompiledGame(
        game=GameSpec(weakened),
        placement=paper_placement(),
        circuit=xor_circuit(),
        spec=spec,
        enc=Encoding({"P": ("P",), "N": ("N",)}),
        variant="C",
        lines={},
    )
    rep = verify_construction(cg, bound=60)
    assert not rep.ok
    assert not rep["output-encoding"].ok


def unit_placement(out_pos=(0, 0)):
    return Placement({"out_1": out_pos}, 1, [(0, 0)], (1, 1))


def one_output_circuit():
    from latticegames.circuits import NorCircuit

    return NorCircuit(("out_1",), (), (), ("out_1",))


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


def test_emit_defeated_slice0():
    d = emit_defeated(unit_placement(), simple_spec(), swapped_encoding(), one_output_circuit())
    # slice 0 of the defeated set is exactly the origin
    assert d.contains((0, 0, 0))
    for x in range(5):
        for y in range(5):
            if (x, y) != (0, 0):
                assert not d.contains((x, y, 0)), (x, y)


def test_emit_defeated_slice1_removed():
    # enc(f0) bit P at the origin output frees the whole slice-1 cone
    enc = Encoding({"P": ("P",), "N": ("N",)})
    d = emit_defeated(unit_placement(), simple_spec(), enc, one_output_circuit())
    for x in range(4):
        for y in range(4):
            assert not d.contains((x, y, 1))


def test_emit_defeated_slice1_kept():
    # enc(f0) bit N leaves slice 1 matching slice 0
    d = emit_defeated(unit_placement(), simple_spec(), swapped_encoding(), one_output_circuit())
    assert d.contains((0, 0, 1))
    assert not d.contains((1, 0, 1))
    assert not d.contains((0, 0, 2))


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
