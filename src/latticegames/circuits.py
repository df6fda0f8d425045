"""Nor-gate circuits as acyclic DAGs.

Identifying P with true, nor is exactly the rule computing a game position's
outcome from its options' outcomes: a gate is P iff every feeding gate is N
(in particular a gate with no feeds is P).  Circuits here carry a grid of
input vertices (one block of bits per recurrence argument), ordered output
vertices, and optionally the two control vertices added by extend_circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import product

import numpy as np

VARIANTS = ("B", "C")

# total gate count k * 2^k admitted by truth-table synthesis
SYNTH_TABLE_BOUND = 4096


def check_synthesis_size(k: int) -> None:
    """Refuse a table on k input bits that synthesis would not take; callers
    ask before building the table's 2^k rows."""
    if k * 2**k > SYNTH_TABLE_BOUND:
        raise ValueError(f"table size {k}*2^{k} exceeds the synthesis bound")


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


@dataclass(frozen=True)
class NorCircuit:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (tail, head)
    inputs: tuple[tuple[str, ...], ...]  # inputs[i][j], argument i bit j
    outputs: tuple[str, ...]
    in_prime: str | None = None
    in_dprime: str | None = None

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for t, h in self.edges:
            if t not in vset or h not in vset:
                raise ValueError(f"edge ({t},{h}) uses an unknown vertex")
        if len({len(b) for b in self.inputs} | {len(self.outputs)}) > 1:
            raise ValueError("input blocks must have one bit per output")
        heads = {h for _, h in self.edges}
        tails = {t for t, _ in self.edges}
        for v in self.flat_inputs:
            if v in heads:
                raise ValueError(f"input {v} has an in-edge")
        for v in self.outputs:
            if v in tails:
                raise ValueError(f"output {v} has an out-edge")
        for v in self.controls:
            if v in heads:
                raise ValueError(f"control vertex {v} has an in-edge")
        self.order  # sorted here, so that a cycle raises

    @cached_property
    def flat_inputs(self) -> tuple[str, ...]:
        """The input vertices, argument by argument, in circuit order."""
        return tuple(v for block in self.inputs for v in block)

    @cached_property
    def controls(self) -> tuple[str, ...]:
        """The control vertices the circuit carries: in', then in''."""
        return tuple(v for v in (self.in_prime, self.in_dprime) if v is not None)

    @cached_property
    def in_dprime_heads(self) -> tuple[str, ...]:
        """The heads whose difference from in'' condition (g) protects: the
        heads of the edges out of in'', in edge order, then in', which the
        initial-condition moves also target.  Empty without in''."""
        if self.in_dprime is None:
            return ()
        heads = [h for t, h in self.edges if t == self.in_dprime]
        if self.in_prime is not None and self.in_prime not in heads:
            heads.append(self.in_prime)
        return tuple(heads)

    @property
    def num_args(self) -> int:
        return len(self.inputs)

    @property
    def num_bits(self) -> int:
        return len(self.outputs)

    @cached_property
    def preds(self) -> dict[str, tuple[str, ...]]:
        """The tails of the edges into each vertex, in edge order."""
        preds = {v: [] for v in self.vertices}
        for t, h in self.edges:
            preds[h].append(t)
        return {v: tuple(ts) for v, ts in preds.items()}

    @cached_property
    def order(self) -> tuple[str, ...]:
        """Every vertex, each edge's tail first."""
        try:
            return tuple(TopologicalSorter(self.preds).static_order())
        except CycleError:
            raise ValueError("circuit graph contains a cycle") from None

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        """Each vertex's position in vertices."""
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges' (tail, head) vertex_index arrays, read-only, in edge order."""
        ix = self.vertex_index
        pairs = np.array([(ix[t], ix[h]) for t, h in self.edges], dtype=np.intp).reshape(-1, 2)
        pairs.flags.writeable = False
        return tuple(pairs.T)

    def gate_vertices(self) -> list[str]:
        """Vertices that evaluate as nor gates: everything but the inputs and
        the control vertices."""
        fixed = {*self.flat_inputs, *self.controls}
        return [v for v in self.vertices if v not in fixed]

    def arguments_reaching_outputs(self) -> set[int]:
        """The arguments with an input bit on some path to an output: one
        backward traversal of the predecessor lists."""
        reach = set(self.outputs)
        stack = list(self.outputs)
        while stack:
            for t in self.preds[stack.pop()]:
                if t not in reach:
                    reach.add(t)
                    stack.append(t)
        return {
            i for i, block in enumerate(self.inputs) if any(v in reach for v in block)
        }

    def check_reachability(self):
        missing = set(range(self.num_args)) - self.arguments_reaching_outputs()
        if missing:
            raise ValueError(
                f"arguments {sorted(missing)} have no path to any output; "
                "drop them from the recurrence before building the circuit"
            )


def eval_circuit(
    circuit: NorCircuit,
    input_bits,
    in_prime: str | None = None,
    in_dprime: str | None = None,
) -> tuple[str, ...]:
    """Topological evaluation; returns the output bits as 'P'/'N'.  It walks
    the circuit's cached order and predecessor lists, in O(V + E).

    input_bits is one block of s bits per argument.  Values for the control
    vertices are required exactly when the circuit has them.
    """
    values: dict[str, bool] = {}
    if len(input_bits) != circuit.num_args:
        raise ValueError(f"expected {circuit.num_args} input blocks")
    for block, bits in zip(circuit.inputs, input_bits):
        if len(bits) != len(block):
            raise ValueError("input block width mismatch")
        for name, bit in zip(block, bits):
            values[name] = _as_bool(bit)
    for name, given in ((circuit.in_prime, in_prime), (circuit.in_dprime, in_dprime)):
        if name is not None:
            if given is None:
                raise ValueError(f"circuit has control vertex {name}; a value is required")
            values[name] = _as_bool(given)
        elif given is not None:
            raise ValueError("control value supplied but the circuit has no such vertex")
    preds = circuit.preds
    for v in circuit.order:
        if v not in values:
            values[v] = not any(values[t] for t in preds[v])
    return tuple("P" if values[o] else "N" for o in circuit.outputs)


def _as_bool(bit) -> bool:
    """'P' or True reads True, 'N' or False reads False.  Any other bit is
    refused, also one that only equals True or False, such as 1, 0.0 or a
    numpy bool."""
    if isinstance(bit, bool):
        return bit
    if isinstance(bit, str) and bit in ("P", "N"):
        return bit == "P"
    raise ValueError(f"outcome bit must be 'P' or 'N', got {bit!r}")


def synthesize_nor_circuit(table: dict) -> NorCircuit:
    """Two-level nor-of-nors realisation of a boolean table.

    One detector gate per input row that must produce an N somewhere, one
    shared inverter per input bit, plus a shared always-P gate feeding
    constant-N outputs.  Deterministic and unoptimised; the result is checked
    against the table on all 2^k inputs before being returned, in
    O(2^k (V + E)).
    """
    rows = sorted(table)
    if not rows:
        raise ValueError("empty truth table")
    k = len(rows[0])
    s = len(table[rows[0]])
    if any(len(r) != k for r in rows) or any(len(table[r]) != s for r in rows):
        raise ValueError("ragged truth table")
    if len(rows) != 2**k:
        raise ValueError("truth table must be total")
    check_synthesis_size(k)
    if k % s != 0:
        raise ValueError("input bit count must split into blocks of the output width")
    r = k // s

    input_names = [f"in_{i+1}_{j+1}" for i in range(r) for j in range(s)]
    vertices = list(input_names)
    edges: list[tuple[str, str]] = []
    inverters: dict[int, str] = {}

    def inverter(t: int) -> str:
        if t not in inverters:
            name = f"not_{t+1}"
            vertices.append(name)
            edges.append((input_names[t], name))
            inverters[t] = name
        return inverters[t]

    n_rows_per_bit = [
        [row for row in rows if table[row][j] == "N"] for j in range(s)
    ]
    detectors: dict[tuple, str] = {}
    const_p: str | None = None
    out_feeds: list[list[str]] = []
    for j in range(s):
        n_rows = n_rows_per_bit[j]
        if len(n_rows) == 2**k:
            # constant-N bit: a single always-P feeder keeps the output N
            if const_p is None:
                const_p = "const_p"
                vertices.append(const_p)
            out_feeds.append([const_p])
            continue
        feeds = []
        for row in n_rows:
            if row not in detectors:
                name = "det_" + "".join("1" if b == "P" else "0" for b in row)
                vertices.append(name)
                for t, b in enumerate(row):
                    edges.append((input_names[t] if b == "N" else inverter(t), name))
                detectors[row] = name
            feeds.append(detectors[row])
        out_feeds.append(feeds)
    outputs = []
    for j in range(s):
        name = f"out_{j+1}"
        vertices.append(name)
        outputs.append(name)
        for f in out_feeds[j]:
            edges.append((f, name))

    inputs = tuple(
        tuple(input_names[i * s + j] for j in range(s)) for i in range(r)
    )
    circuit = NorCircuit(tuple(vertices), tuple(edges), inputs, tuple(outputs))
    for row in rows:
        blocks = tuple(tuple(row[i * s + j] for j in range(s)) for i in range(r))
        got = eval_circuit(circuit, blocks)
        assert got == tuple(table[row]), f"synthesis mismatch on {row}"
    return circuit


def extend_circuit(circuit: NorCircuit, variant: str) -> NorCircuit:
    """Add the control vertices: in' feeding every output, and only for
    variant B, in'' feeding every output and every vertex that feeds one."""
    check_variant(variant)
    if circuit.in_prime is not None or circuit.in_dprime is not None:
        raise ValueError("circuit already has control vertices")
    vertices = list(circuit.vertices) + ["in'"]
    edges = list(circuit.edges) + [("in'", o) for o in circuit.outputs]
    in_dprime = None
    if variant == "B":
        in_dprime = "in''"
        vertices.append(in_dprime)
        feeders = (t for o in circuit.outputs for t in circuit.preds[o])
        targets = dict.fromkeys([*circuit.outputs, *feeders])
        edges.extend((in_dprime, t) for t in targets)
    return NorCircuit(
        tuple(vertices),
        tuple(edges),
        circuit.inputs,
        circuit.outputs,
        in_prime="in'",
        in_dprime=in_dprime,
    )


def table_from_function(fn, k: int, s: int) -> dict:
    """Materialise fn over all 2^k input tuples."""
    table = {}
    for row in product("PN", repeat=k):
        out = tuple(fn(row))
        if len(out) != s:
            raise ValueError("function output width mismatch")
        table[row] = out
    return table
