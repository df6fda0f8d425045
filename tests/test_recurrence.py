import re
from functools import cache
from itertools import combinations, product

import pytest

from latticegames.builtin import swapped_encoding, xor_recurrence
from latticegames.lattice import EVEN_SUM, Z2, ModuleIdeal
from latticegames.recurrence import (
    Encoding,
    RecurrenceSpec,
    _positive_normal,
    binom_parity_oracle,
    ca_to_recurrence,
    encoded_table,
    eval_recurrence,
    prune_unused_arguments,
    simulate_ca,
    used_arguments,
    validate_encoding,
    wolfram_rule_table,
)


def test_eval_xor_basics():
    spec = xor_recurrence()
    assert eval_recurrence(spec, (0, 0)) == "P"
    assert eval_recurrence(spec, (1, 1)) == "N"
    assert eval_recurrence(spec, (4, 3)) == "P"  # C(7,4) = 35 is odd
    assert eval_recurrence(spec, (5, 0)) == "P"  # background branch on the axis


def test_eval_outside_domain():
    spec = xor_recurrence()
    with pytest.raises(ValueError):
        eval_recurrence(spec, (-1, 0))


def test_eval_matches_direct_recursion():
    # the shift (1, 1) is the sum of the two after it, so the stack meets
    # points that a later sibling has already evaluated; the far corner
    # first, so that one evaluation runs the whole stack
    betas = [(1, 1), (1, 0), (0, 1)]
    table = {row: "P" if row.count("N") in (0, 3) else "N" for row in product("PN", repeat=3)}
    spec = RecurrenceSpec(Z2, ModuleIdeal(Z2, [(0, 0)]), betas, ("P", "N"), table, "P", {(0, 0): "N"})

    @cache
    def direct(p):
        if p == (0, 0):
            return "N"
        shifted = [(p[0] - x, p[1] - y) for x, y in betas]
        if min(min(q) for q in shifted) < 0:
            return "P"
        return table[tuple(direct(q) for q in shifted)]

    for p in sorted(product(range(25), repeat=2), reverse=True):
        assert eval_recurrence(spec, p) == direct(p), p


def test_binom_parity():
    assert binom_parity_oracle(0, 7) == "P"
    assert binom_parity_oracle(1, 1) == "N"
    assert binom_parity_oracle(4, 3) == "P"
    with pytest.raises(ValueError):
        binom_parity_oracle(-1, 0)


def test_xor_matches_binom_parity():
    spec = xor_recurrence()
    for i in range(65):
        for j in range(65 - i):
            assert eval_recurrence(spec, (i, j)) == binom_parity_oracle(i, j), (i, j)


def test_halfspace_normal_required():
    with pytest.raises(ValueError):
        RecurrenceSpec(
            lattice=Z2,
            module=ModuleIdeal(Z2, [(0, 0)]),
            betas=[(1, 0), (-1, 0)],
            alphabet=("P", "N"),
            table={(a, b): "P" for a in "PN" for b in "PN"},
            sigma0="P",
            f0={(0, 0): "P"},
        )


def _normal_by_search(betas):
    """The halfspace normal by a search over the least total, then the least
    first coordinate.  When one exists its total is at most 2 max |beta|_1 + 1,
    that of the mediant of the two shifts that bound nu0 / nu1 the tightest."""
    for total in range(2, 2 * max(abs(x) + abs(y) for x, y in betas) + 2):
        for a in range(1, total):
            if all(a * x + (total - a) * y >= 1 for x, y in betas):
                return (a, total - a)
    return None


def test_halfspace_normal_from_the_shifts():
    # the bound comes from the shifts: (1, -200) needs nu0 >= 201 nu1 + 1
    spec = RecurrenceSpec(
        lattice=Z2,
        module=ModuleIdeal(Z2, [(0, 0)]),
        betas=[(1, -200), (0, 1)],
        alphabet=("P", "N"),
        table={(a, b): "P" if a == b else "N" for a in "PN" for b in "PN"},
        sigma0="P",
        f0={(0, 0): "P"},
    )
    assert spec.halfspace_normal == (201, 1)
    # and agrees with the search on every one or two shifts in [-3, 3]^2 and
    # every three in [-2, 2]^2
    def shifts(r):
        return [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if (x, y) != (0, 0)]

    for betas in [*combinations(shifts(3), 1), *combinations(shifts(3), 2), *combinations(shifts(2), 3)]:
        want = _normal_by_search(betas)
        if want is None:
            with pytest.raises(ValueError, match="common positive-normal halfspace"):
                _positive_normal(betas)
        else:
            assert _positive_normal(betas) == want, betas


def test_axis_anchor_required():
    with pytest.raises(ValueError):
        RecurrenceSpec(
            lattice=Z2,
            module=ModuleIdeal(Z2, [(0, 0)]),
            betas=[(1, 0), (1, 1)],  # nothing with nonpositive first coordinate
            alphabet=("P", "N"),
            table={(a, b): "P" for a in "PN" for b in "PN"},
            sigma0="P",
            f0={(0, 0): "P"},
        )


def test_validate_encoding_swapped_passes():
    spec = xor_recurrence()
    rep = validate_encoding(spec, swapped_encoding())
    assert rep.ok, rep


def test_validate_encoding_identity_fails_background():
    spec = xor_recurrence()
    rep = validate_encoding(spec, Encoding({"P": ("P",), "N": ("N",)}))
    assert not rep.ok
    assert any(f.startswith("sigma0-encoding") for f in rep.failures)


def test_validate_encoding_constant_fails_dependency():
    spec = RecurrenceSpec(
        lattice=Z2,
        module=ModuleIdeal(Z2, [(0, 0)]),
        betas=[(1, 0), (0, 1)],
        alphabet=("P", "N"),
        table={(a, b): "N" for a in "PN" for b in "PN"},
        sigma0="P",
        f0={(0, 0): "P"},
    )
    rep = validate_encoding(spec, swapped_encoding())
    assert not rep.ok
    assert any("dependency" in f for f in rep.failures)


def test_pruning_keeps_the_encoding_report():
    # compile_recurrence validates the encoding once, on the unpruned spec
    cases = [(xor_recurrence(), swapped_encoding())]
    for rule in range(0, 256, 2):
        spec = ca_to_recurrence(wolfram_rule_table(rule), "0", "1").spec
        # 0 -> N is the construction's encoding; 0 -> P fails sigma0-encoding
        cases += [(spec, Encoding({"0": (a,), "1": (b,)})) for a, b in ("NP", "PN")]
    compared = 0
    for spec, enc in cases:
        try:
            pruned = prune_unused_arguments(spec)
        except ValueError:
            continue
        assert validate_encoding(pruned, enc) == validate_encoding(spec, enc)
        compared += 1
    assert compared > 200


def test_encoding_roundtrip():
    enc = swapped_encoding()
    for sym in ("P", "N"):
        assert enc.decode(enc.encode(sym)) == sym
    assert enc.decode(("P", "P")) is None
    with pytest.raises(ValueError):
        Encoding({"a": ("P",), "b": ("P",)})  # not injective


def test_encoded_table_is_xnor():
    spec = xor_recurrence()
    t = encoded_table(spec, swapped_encoding())
    assert t[("P", "P")] == ("P",)
    assert t[("N", "N")] == ("P",)
    assert t[("P", "N")] == ("N",)


def test_used_arguments_and_pruning():
    emb = ca_to_recurrence(wolfram_rule_table(90), "0", "1")
    assert used_arguments(emb.spec) == {0, 2}  # rule 90 ignores the middle cell
    pruned = prune_unused_arguments(emb.spec)
    assert pruned.betas == ((2, 0), (0, 2))
    emb110 = ca_to_recurrence(wolfram_rule_table(110), "0", "1")
    assert used_arguments(emb110.spec) == {0, 1, 2}
    assert prune_unused_arguments(emb110.spec) is emb110.spec


def test_prune_constant_rejected():
    spec = RecurrenceSpec(
        lattice=Z2,
        module=ModuleIdeal(Z2, [(0, 0)]),
        betas=[(1, 0), (0, 1)],
        alphabet=("P", "N"),
        table={(a, b): "N" for a in "PN" for b in "PN"},
        sigma0="P",
        f0={(0, 0): "P"},
    )
    with pytest.raises(ValueError):
        prune_unused_arguments(spec)


def test_ca_embedding_structure():
    emb = ca_to_recurrence(wolfram_rule_table(90), "0", "101")
    assert emb.spec.lattice == EVEN_SUM
    assert emb.offset == 4
    gens = emb.spec.module.generators
    assert len(gens) == 2 * emb.offset + 1
    # time-0 row equals the padded word
    for x in range(-emb.offset, emb.offset + 1):
        point = emb.cell_point(x, 0)
        want = "101"[x] if 0 <= x < 3 else "0"
        assert eval_recurrence(emb.spec, point) == want
        assert emb.point_cell(point) == (x, 0)


def test_ca_rule90_matches_pascal():
    emb = ca_to_recurrence(wolfram_rule_table(90), "0", "1")
    # the Pascal-mod-2 triangle: cell (x,t) is live iff C(t, (t+x)/2) is odd
    for t in range(9):
        for x in range(-t - emb.offset, t + emb.offset + 1):
            got = eval_recurrence(emb.spec, emb.cell_point(x, t))
            if (t + x) % 2 != 0 or abs(x) > t:
                assert got == "0", (x, t)
            else:
                k = (t + x) // 2
                want = "1" if binom_parity_oracle(k, t - k) == "P" else "0"
                assert got == want, (x, t)


@pytest.mark.parametrize("rule,word,steps", [(90, "1", 8), (110, "1", 6), (30, "1", 5), (110, "10011", 5)])
def test_ca_adapter_matches_simulation(rule, word, steps):
    emb = ca_to_recurrence(wolfram_rule_table(rule), "0", word)
    sim = simulate_ca(emb.rule_table, "0", word, steps)
    for t in range(steps + 1):
        for x in range(-t - emb.offset, t + emb.offset + 1):
            assert eval_recurrence(emb.spec, emb.cell_point(x, t)) == sim(x, t), (x, t)


def test_ca_requires_quiescent_background():
    table = wolfram_rule_table(1)  # rule 1 maps (0,0,0) -> 1
    with pytest.raises(ValueError):
        ca_to_recurrence(table, "0", "1")
    with pytest.raises(ValueError):
        simulate_ca(table, "0", "1", 3)


def _xor_over(lattice, table):
    xor = xor_recurrence()
    return RecurrenceSpec(lattice, xor.module, xor.betas, xor.alphabet, table, xor.sigma0, xor.f0)


# (a call, what its refusal says)
RECURRENCE_REFUSALS = [
    (lambda: _xor_over(EVEN_SUM, xor_recurrence().table), "module and recurrence use different lattices"),
    (lambda: _xor_over(Z2, {("P", "P"): "N"}), "table must be total over alphabet^r"),
    (lambda: wolfram_rule_table(256), "rule number must be in 0..255"),
    (lambda: simulate_ca(wolfram_rule_table(90), "0", "1", 3)(0, 4), "time 4 outside the simulated range"),
    (lambda: ca_to_recurrence({("0", "0", "0"): "0", ("0", "0", "1"): "1"}, "0", "1"),
     "rule table must be total over symbol triples"),
    (lambda: ca_to_recurrence(wolfram_rule_table(110), "0", ""),
     "the initial word must be a nonempty string over the alphabet"),
    (lambda: ca_to_recurrence(wolfram_rule_table(110), "0", "12"),
     "the initial word must be a nonempty string over the alphabet"),
]


@pytest.mark.parametrize("call, says", RECURRENCE_REFUSALS)
def test_recurrence_refusals(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()
