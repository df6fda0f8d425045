import random
import re
from graphlib import TopologicalSorter
from itertools import product

import numpy as np
import pytest

from latticegames import circuits
from latticegames.builtin import xor_circuit
from latticegames.circuits import (
    NorCircuit,
    eval_circuit,
    extend_circuit,
    synthesize_nor_circuit,
    table_from_function,
)
from latticegames.compiler import compile_recurrence
from latticegames.recurrence import (
    Encoding,
    ca_to_recurrence,
    encoded_table,
    prune_unused_arguments,
    wolfram_rule_table,
)


def test_xor_circuit_truth_table():
    c = xor_circuit()
    assert eval_circuit(c, (("P",), ("N",))) == ("P",)
    assert eval_circuit(c, (("N",), ("N",))) == ("N",)
    assert eval_circuit(c, (("N",), ("P",))) == ("P",)
    assert eval_circuit(c, (("P",), ("P",))) == ("N",)
    # True and False read as 'P' and 'N'
    assert eval_circuit(c, ((True,), (False,))) == ("P",)
    assert eval_circuit(c, ((True,), ("P",))) == ("N",)


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
    assert c.preds["out_1"] == ("const_p",)
    assert c.preds["const_p"] == ()
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


def test_in_dprime_heads_follow_the_extension():
    # the heads (g) protects from in'': none without in'', else the heads of
    # the edges out of in'' in edge order, then in'
    for k, s in ((2, 1), (4, 2)):
        table = table_from_function(lambda row: row[:s][::-1], k, s)
        base = synthesize_nor_circuit(table)
        assert base.in_dprime_heads == ()
        assert extend_circuit(base, "C").in_dprime_heads == ()
        b = extend_circuit(base, "B")
        assert b.in_dprime_heads == (*_successors(b, "in''"), "in'")
        assert len(set(b.in_dprime_heads)) == len(b.in_dprime_heads) > 1


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


# (vertices, edges, inputs, outputs, in_prime, what the refusal says)
MALFORMED_CIRCUITS = [
    (("a", "a"), (), (), ("a",), None, "duplicate vertex names"),
    (("x", "o"), (("x", "z"),), (("x",),), ("o",), None, r"edge \(x,z\) uses an unknown vertex"),
    (("x", "y", "z", "o"), (), (("x", "y"), ("z",)), ("o",), None,
     "input blocks must have one bit per output"),
    (("x", "g", "o"), (("g", "x"), ("x", "o")), (("x",),), ("o",), None, "input x has an in-edge"),
    (("x", "g", "o"), (("x", "o"), ("o", "g")), (("x",),), ("o",), None,
     "output o has an out-edge"),
    (("x", "c", "g", "o"), (("g", "c"), ("x", "o")), (("x",),), ("o",), "c",
     "control vertex c has an in-edge"),
    (("x", "a", "b", "o"), (("x", "a"), ("a", "b"), ("b", "a"), ("b", "o")), (("x",),), ("o",),
     None, "circuit graph contains a cycle"),
]


@pytest.mark.parametrize("vertices, edges, inputs, outputs, in_prime, says", MALFORMED_CIRCUITS)
def test_malformed_circuit_refused(vertices, edges, inputs, outputs, in_prime, says):
    with pytest.raises(ValueError, match=says):
        NorCircuit(vertices, edges, inputs, outputs, in_prime)


# (a call, what its refusal says): evaluation, synthesis and tabulation
REFUSED_CALLS = [
    (lambda: eval_circuit(xor_circuit(), (("P",),)), "expected 2 input blocks"),
    (lambda: eval_circuit(xor_circuit(), (("P", "N"), ("N",))), "input block width mismatch"),
    (lambda: eval_circuit(xor_circuit(), (("P",), ("N",)), in_prime="P"),
     "control value supplied but the circuit has no such vertex"),
    (lambda: eval_circuit(xor_circuit(), (("P",), ("X",))), "outcome bit must be 'P' or 'N', got 'X'"),
    (lambda: synthesize_nor_circuit({}), "empty truth table"),
    (lambda: synthesize_nor_circuit({("P",): ("N",), ("N", "N"): ("N",)}), "ragged truth table"),
    (lambda: synthesize_nor_circuit({("P",): ("N",)}), "truth table must be total"),
    (lambda: synthesize_nor_circuit(table_from_function(lambda row: ("P", "N"), 3, 2)),
     "input bit count must split into blocks of the output width"),
    (lambda: table_from_function(lambda row: ("P",), 2, 2), "function output width mismatch"),
    # bits equal to True or False, but neither a bool nor 'P' or 'N'
    (lambda: eval_circuit(xor_circuit(), ((1,), ("N",))), "outcome bit must be 'P' or 'N', got 1"),
    (lambda: eval_circuit(xor_circuit(), (("P",), (0,))), "outcome bit must be 'P' or 'N', got 0"),
    (lambda: eval_circuit(xor_circuit(), ((1.0,), (0,))), "outcome bit must be 'P' or 'N', got 1.0"),
    (lambda: eval_circuit(xor_circuit(), (("N",), (0.0,))), "outcome bit must be 'P' or 'N', got 0.0"),
    (lambda: eval_circuit(extend_circuit(xor_circuit(), "B"), (("P",), ("N",)), in_prime=np.True_, in_dprime="N"),
     "outcome bit must be 'P' or 'N', got np.True_"),
]


@pytest.mark.parametrize("call, says", REFUSED_CALLS)
def test_malformed_calls_refused(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()


def _rule_circuit(rule):
    spec = ca_to_recurrence(wolfram_rule_table(rule), "0", "1").spec
    spec, _ = prune_unused_arguments(spec)
    table = encoded_table(spec, Encoding({"0": ("N",), "1": ("P",)}))
    return extend_circuit(synthesize_nor_circuit(table), "B")


@pytest.mark.parametrize("rule", [None, 30, 90, 110], ids=["xor", "rule30-B", "rule90-B", "rule110-B"])
def test_topological_order_puts_tails_first(rule):
    c = xor_circuit() if rule is None else _rule_circuit(rule)
    order = c.order
    assert sorted(order) == sorted(c.vertices)
    at = {v: k for k, v in enumerate(order)}
    assert all(at[t] < at[h] for t, h in c.edges)


def test_gate_vertices_drop_inputs_and_controls():
    c = extend_circuit(xor_circuit(), "B")
    assert c.flat_inputs == ("v0", "v1")
    assert c.controls == ("in'", "in''")
    assert c.gate_vertices() == ["v2", "v3", "v4", "v5", "v6"]
    assert xor_circuit().controls == ()


def _reference_eval_circuit(circuit, input_bits, in_prime=None, in_dprime=None):
    """Evaluation by edge scan: a topological sort of its own, then every
    edge read for every vertex."""
    graph = TopologicalSorter({v: () for v in circuit.vertices})
    for t, h in circuit.edges:
        graph.add(h, t)
    values = {name: bit == "P" for block, bits in zip(circuit.inputs, input_bits)
              for name, bit in zip(block, bits)}
    for name, given in ((circuit.in_prime, in_prime), (circuit.in_dprime, in_dprime)):
        if name is not None:
            values[name] = given == "P"
    for v in graph.static_order():
        if v not in values:
            values[v] = not any(values[t] for t, h in circuit.edges if h == v)
    return tuple("P" if values[o] else "N" for o in circuit.outputs)


def _reference_arguments_reaching_outputs(circuit):
    """Reachability by fixpoint: sweep the edges until no tail joins."""
    reach = set(circuit.outputs)
    changed = True
    while changed:
        changed = False
        for t, h in circuit.edges:
            if h in reach and t not in reach:
                reach.add(t)
                changed = True
    return {i for i, block in enumerate(circuit.inputs) if any(v in reach for v in block)}


# every (k input bits, s output bits) with s dividing k and k <= 6
TABLE_SHAPES = [(k, s) for k in range(1, 7) for s in range(1, k + 1) if k % s == 0]


@pytest.mark.parametrize("k, s", TABLE_SHAPES, ids=[f"k{k}-s{s}" for k, s in TABLE_SHAPES])
def test_graph_tables_match_edge_scans(k, s):
    # evaluation and reachability read the cached order and predecessor
    # lists; the edge-scan references must agree on a seeded random table's
    # circuit and on its C and B extensions, for every input row and
    # control value
    rng = random.Random(2000 + 10 * k + s)
    table = {row: tuple(rng.choice("PN") for _ in range(s)) for row in product("PN", repeat=k)}
    base = synthesize_nor_circuit(table)
    for c in (base, extend_circuit(base, "C"), extend_circuit(base, "B")):
        assert c.arguments_reaching_outputs() == _reference_arguments_reaching_outputs(c)
        for row, *controls in product(table, *(["PN"] * len(c.controls))):
            blocks = tuple(row[i:i + s] for i in range(0, len(row), s))
            got = eval_circuit(c, blocks, *controls)
            assert got == _reference_eval_circuit(c, blocks, *controls)
            if c is base:
                assert got == table[row]


def test_one_sort_per_circuit(monkeypatch):
    # a rule 110 B compile builds two circuits, the synthesised one and its
    # extension, and every reader of a circuit's order shares its one sort
    sorts = []

    class CountingSorter(TopologicalSorter):
        def __init__(self, *args):
            sorts.append(args)
            super().__init__(*args)

    monkeypatch.setattr(circuits, "TopologicalSorter", CountingSorter)
    spec = ca_to_recurrence(wolfram_rule_table(110), "0", "1").spec
    compile_recurrence(spec, Encoding({"0": ("N",), "1": ("P",)}), variant="B")
    assert len(sorts) == 2
