import random
from itertools import product

import pytest

from latticegames.builtin import xor_circuit
from latticegames.circuits import (
    NorCircuit,
    eval_circuit,
    extend_circuit,
    synthesize_nor_circuit,
    table_from_function,
)


def test_xor_circuit_truth_table():
    c = xor_circuit()
    assert eval_circuit(c, (("P",), ("N",))) == ("P",)
    assert eval_circuit(c, (("N",), ("N",))) == ("N",)
    assert eval_circuit(c, (("N",), ("P",))) == ("P",)
    assert eval_circuit(c, (("P",), ("P",))) == ("N",)


def test_cycle_rejected():
    with pytest.raises(ValueError):
        NorCircuit(("a", "b"), (("a", "b"), ("b", "a")), (), ("a",))


def test_input_with_in_edge_rejected():
    with pytest.raises(ValueError):
        NorCircuit(
            ("x", "y", "o"),
            (("y", "x"), ("x", "o")),
            (("x",),),
            ("o",),
        )


def xor_table():
    return {
        ("P", "P"): ("N",),
        ("P", "N"): ("P",),
        ("N", "P"): ("P",),
        ("N", "N"): ("N",),
    }


def test_synthesize_xor():
    c = synthesize_nor_circuit(xor_table())
    for row, want in xor_table().items():
        assert eval_circuit(c, (row[:1], row[1:])) == want


def test_synthesize_constant_n():
    table = {row: ("N",) for row in product("PN", repeat=2)}
    c = synthesize_nor_circuit(table)
    # the output hangs off a single always-P feeder
    assert c.predecessors("out_1") == ["const_p"]
    assert c.predecessors("const_p") == []
    for row in table:
        assert eval_circuit(c, (row[:1], row[1:])) == ("N",)


def test_synthesize_identity():
    table = {("P",): ("P",), ("N",): ("N",)}
    c = synthesize_nor_circuit(table)
    # double-nor chain: input -> not -> det -> out
    assert eval_circuit(c, (("P",),)) == ("P",)
    assert eval_circuit(c, (("N",),)) == ("N",)


@pytest.mark.parametrize("k,s", [(2, 1), (3, 1), (4, 2), (5, 1), (6, 2), (6, 1)])
def test_synthesize_roundtrip_exhaustive(k, s):
    rng = random.Random(1000 + 10 * k + s)
    for _ in range(3):
        table = {
            row: tuple(rng.choice("PN") for _ in range(s))
            for row in product("PN", repeat=k)
        }
        c = synthesize_nor_circuit(table)
        r = k // s
        for row in table:
            blocks = tuple(row[i * s : (i + 1) * s] for i in range(r))
            assert eval_circuit(c, blocks) == table[row]


def test_synthesize_bound():
    big = {row: ("N",) for row in product("PN", repeat=10)}
    with pytest.raises(ValueError):
        synthesize_nor_circuit(big)


def _successors(circuit, v):
    return [h for t, h in circuit.edges if t == v]


def test_extend_variant_c():
    c = extend_circuit(xor_circuit(), "C")
    assert c.in_prime == "in'"
    assert c.in_dprime is None
    assert _successors(c, "in'") == ["v6"]


def test_extend_variant_b():
    c = extend_circuit(xor_circuit(), "B")
    assert c.in_dprime == "in''"
    # the output and its predecessors
    assert sorted(_successors(c, "in''")) == ["v4", "v5", "v6"]
    assert sorted(_successors(c, "in'")) == ["v6"]


def test_extend_variant_a_matches_c():
    a = extend_circuit(xor_circuit(), "A")
    c = extend_circuit(xor_circuit(), "C")
    assert a == c


def test_extend_twice_rejected():
    c = extend_circuit(xor_circuit(), "C")
    with pytest.raises(ValueError):
        extend_circuit(c, "C")


def test_in_prime_forces_all_n():
    # with in' = P every output is N regardless of the other inputs
    for k, s in ((2, 1), (4, 2), (6, 2)):
        rng = random.Random(k * 100 + s)
        table = {
            row: tuple(rng.choice("PN") for _ in range(s))
            for row in product("PN", repeat=k)
        }
        c = extend_circuit(synthesize_nor_circuit(table), "C")
        r = k // s
        for row in product("PN", repeat=k):
            blocks = tuple(row[i * s : (i + 1) * s] for i in range(r))
            assert eval_circuit(c, blocks, in_prime="P") == ("N",) * s
            assert eval_circuit(c, blocks, in_prime="N") == table[row]


def test_eval_requires_control_values():
    c = extend_circuit(xor_circuit(), "C")
    with pytest.raises(ValueError):
        eval_circuit(c, (("P",), ("N",)))


def test_table_from_function():
    t = table_from_function(lambda row: ("P",) if row.count("P") % 2 else ("N",), 3, 1)
    assert t[("P", "P", "P")] == ("P",)
    assert t[("P", "P", "N")] == ("N",)


def test_reachability_check():
    c = NorCircuit(
        ("x", "y", "g", "o"),
        (("x", "g"), ("g", "o")),
        (("x",), ("y",)),  # y never reaches the output
        ("o",),
    )
    with pytest.raises(ValueError):
        c.check_reachability()
    xor_circuit().check_reachability()
