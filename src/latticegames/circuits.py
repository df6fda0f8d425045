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

VARIANTS = ("A", "B", "C")

# total gate count k * 2^k admitted by truth-table synthesis
SYNTH_TABLE_BOUND = 4096


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
        self.topological_order()  # raises on cycles

    @cached_property
    def flat_inputs(self) -> tuple[str, ...]:
        """The input vertices, argument by argument, in circuit order."""
        return tuple(v for block in self.inputs for v in block)

    @cached_property
    def controls(self) -> tuple[str, ...]:
        """The control vertices the circuit carries: in', then in''."""
        return tuple(v for v in (self.in_prime, self.in_dprime) if v is not None)

    @property
    def num_args(self) -> int:
        return len(self.inputs)

    @property
    def num_bits(self) -> int:
        return len(self.outputs)

    def predecessors(self, v: str) -> list[str]:
        return [t for t, h in self.edges if h == v]

    def topological_order(self) -> list[str]:
        graph = TopologicalSorter({v: () for v in self.vertices})
        for t, h in self.edges:
            graph.add(h, t)
        try:
            return list(graph.static_order())
        except CycleError:
            raise ValueError("circuit graph contains a cycle") from None

    def gate_vertices(self) -> list[str]:
        """Vertices that evaluate as nor gates: everything but the inputs and
        the control vertices."""
        fixed = {*self.flat_inputs, *self.controls}
        return [v for v in self.vertices if v not in fixed]

    def arguments_reaching_outputs(self) -> set[int]:
        reach = set(self.outputs)
        changed = True
        while changed:
            changed = False
            for t, h in self.edges:
                if h in reach and t not in reach:
                    reach.add(t)
                    changed = True
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
    """Topological evaluation; returns the output bits as 'P'/'N'.

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
    for v in circuit.topological_order():
        if v in values:
            continue
        values[v] = not any(values[t] for t, h in circuit.edges if h == v)
    return tuple("P" if values[o] else "N" for o in circuit.outputs)


def _as_bool(bit) -> bool:
    if bit in ("P", True):
        return True
    if bit in ("N", False):
        return False
    raise ValueError(f"outcome bit must be 'P' or 'N', got {bit!r}")


def synthesize_nor_circuit(table: dict) -> NorCircuit:
    """Two-level nor-of-nors realisation of a boolean table.

    One detector gate per input row that must produce an N somewhere, one
    shared inverter per input bit, plus a shared always-P gate feeding
    constant-N outputs.  Deterministic and unoptimised; the result is checked
    against the table on all 2^k inputs before being returned.
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
    if k * 2**k > SYNTH_TABLE_BOUND:
        raise ValueError(f"table size {k}*2^{k} exceeds the synthesis bound")
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
    """Add the control vertices: in' feeding every output, and for variant B
    also in'' feeding every output and every vertex that feeds an output."""
    check_variant(variant)
    if circuit.in_prime is not None or circuit.in_dprime is not None:
        raise ValueError("circuit already has control vertices")
    vertices = list(circuit.vertices) + ["in'"]
    edges = list(circuit.edges) + [("in'", o) for o in circuit.outputs]
    in_dprime = None
    if variant == "B":
        in_dprime = "in''"
        vertices.append(in_dprime)
        targets = list(circuit.outputs)
        for o in circuit.outputs:
            for t in circuit.predecessors(o):
                if t not in targets:
                    targets.append(t)
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
