"""From a recurrence to a playable ruleset.

The pipeline places an extended nor circuit in Z^2 (a gate position table,
a scale m, a staircase set I and a halfspace normal), checks the nine
placement conditions exactly, emits the labelled move lines, and verifies
the finished game against direct recurrence evaluation: slice-0 outcomes
follow the staircase lattice, and the outputs' slice-1 outcomes spell out
the encoded recurrence values.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, combinations, product

import numpy as np

from . import engine, kernels
from .circuits import (NorCircuit, check_synthesis_size, check_variant, extend_circuit,
                       synthesize_nor_circuit)
from .engine import GameSpec, Infeasible, PointednessWitness, Ruleset, Solver
from .lattice import (
    F_array,
    Sublattice,
    Vec,
    as_int,
    as_vec,
    dominates,
    dot,
    enumerate_F,
    points_under,
    positive_generators,
    unique_rows,
    vadd,
    vscale,
    vsub,
)
from .recurrence import (
    Encoding,
    RecurrenceSpec,
    encoded_table,
    eval_recurrence,
    prune_unused_arguments,
    validate_encoding,
)
from .search import SearchSpace


class Placement:
    """Gate positions plus the scale m, staircase I and halfspace normal."""

    def __init__(self, pos: dict, m: int, staircase, normal):
        self.pos = {v: as_vec(p, 2) for v, p in pos.items()}
        self.m = as_int(m, "scale m")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        self.staircase = tuple(sorted(as_vec(p, 2) for p in staircase))
        if not self.staircase:
            raise ValueError("the staircase set I must be nonempty")
        pts = set(self.staircase)
        for p in pts:
            if p[0] < 0 or p[1] < 0:
                raise ValueError("I must lie in the first quadrant")
            for q in product(range(p[0] + 1), range(p[1] + 1)):
                if q not in pts:
                    raise ValueError(f"I is not downward closed: misses {q} below {p}")
        self.normal = as_vec(normal, 2)
        if self.normal[0] <= 0 or self.normal[1] <= 0:
            raise ValueError("the halfspace normal must pair positively with both axes")
        self._frame = None

    def label_frame(self, lattice: Sublattice) -> LabelFrame:
        """The label frame of this m, staircase and normal over lattice,
        built on first use and kept while none of the four changes."""
        fr, key = self._frame, (lattice, self.m, self.staircase, self.normal)
        if fr is None or (fr.lattice, fr.m, fr.staircase, fr.normal) != key:
            fr = self._frame = LabelFrame(*key)
        return fr

    def __repr__(self):
        return (
            f"Placement(m={self.m}, I={list(self.staircase)}, "
            f"normal={self.normal}, {len(self.pos)} gates)"
        )


# traced peak bytes of a label frame per point of F (40-49), and of the
# emission that reads it per pair of a point of F and one of I (86-103):
# xor C and rule 110 B at 1, 3 and 6 times the m they compile at
FRAME_POINT_BYTES, EMISSION_POINT_BYTES = 50, 104


class LabelFrame:
    """The residue tables of one (L, m, I, nu), which no gate position
    changes: mL, F and its codes, the codes of the staircase points and of
    their differences (also as sets of Python ints), and (e)'s tables.  F
    and its codes name the class of a witness (rep) and give the distinct
    points of F - I.

    Codes are those of mL.class_labels, a * |det| + b for the label (a, b).
    Labels are additive mod |det|, so plus and minus give the code of a sum
    or a difference from the codes of its terms, arrays or Python ints,
    without labelling it again.  A Placement carries its frame
    (Placement.label_frame), so the values a search tries at one m, the
    conditions and the emission share one.
    """

    def __init__(self, lattice: Sublattice, m: int, staircase, normal):
        self.lattice, self.m, self.staircase, self.normal = lattice, m, staircase, normal
        self.mL = lattice.scale(m)
        self.det = self.mL.index()
        # F is the points under the running minimum of the column heights
        n = sum(accumulate(self.mL.column_heights()[:-1], min))
        kernels.check_memory(n * (FRAME_POINT_BYTES + EMISSION_POINT_BYTES * len(staircase)),
                             f"m = {m} (a label frame of {n} points and its emission)")
        self.F = F_array(lattice, m)
        self.F_codes = self.mL.class_labels(self.F)
        self.stair_codes = self.mL.class_labels(staircase)
        # [p, q] holds the code of I[p] - I[q]
        self.stair_diff_codes = self.minus(self.stair_codes[:, None], self.stair_codes)
        self.stair_set = frozenset(self.stair_codes.tolist())
        self.stair_diff_set = frozenset(self.stair_diff_codes.ravel().tolist())
        # (e)'s tables: distinct[p, q] holds when q != p, and displacements
        # are the codes of I[p] - I[q], q != p, in (p, q) order
        self.distinct = ~np.eye(len(staircase), dtype=bool)
        self.displacements = self.stair_diff_codes[self.distinct]

    def plus(self, x, y) -> np.ndarray:
        """Codes of the sums of classes of codes x and y, broadcast."""
        d = self.det
        return (x // d + y // d) % d * d + (x + y) % d

    def minus(self, x, y) -> np.ndarray:
        """Codes of the differences of classes of codes x and y, broadcast."""
        d = self.det
        return (x // d - y // d) % d * d + (x - y) % d

    def landings(self, anchors: np.ndarray, classes) -> np.ndarray:
        """(e)'s landing test: [a, p, q] holds when anchors[a] + (I[p] - I[q])
        has one of the class codes in classes, and q != p."""
        table = np.sort(classes)
        shifted = self.plus(anchors[:, None, None], self.stair_diff_codes)
        return (table.take(np.searchsorted(table, shifted), mode="clip") == shifted) & self.distinct

    def rep(self, code) -> Vec:
        """The point that names a class in a witness: its last point of F."""
        return tuple(self.F[np.flatnonzero(self.F_codes == code)[-1]].tolist())

    def f_minus_i(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct points f - i, f in F and i in I, in lexicographic
        order, and their codes.  Emission reads them once, so they are not
        kept: a compiled game holds its placement, and with it the frame."""
        points = unique_rows((self.F[:, None] - np.array(self.staircase, dtype=np.int64)).reshape(-1, 2))
        return points, self.mL.class_labels(points)


@dataclass(frozen=True)
class ConditionResult:
    status: str  # 'pass' | 'fail' | 'vacuous'
    witness: object = None
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """The decided placement conditions, by key in key order."""

    results: dict[str, ConditionResult]

    def __getitem__(self, key: str) -> ConditionResult:
        return self.results[key]

    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [k for k, r in self.results.items() if r.status == "fail"]

    def summary(self) -> str:
        lines = []
        for key, r in self.results.items():
            line = f"({key}) {r.status}"
            if r.status == "fail" and r.witness is not None:
                line += f"  witness: {r.witness}"
            if r.note:
                line += f"  [{r.note}]"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        bad = self.failures()
        return f"ConditionReport(ok={self.ok()}" + (f", failing={bad})" if bad else ")")


def check_conditions(
    placement: Placement,
    circuit: NorCircuit,
    spec: RecurrenceSpec,
) -> ConditionReport:
    """Decide the nine placement conditions exactly.

    Lattice-translation-invariant clauses are reduced to residue classes of
    m*lattice, read from class_labels codes: one per gate position, and the
    pairwise gate differences derived from them, since labels are additive.
    The tables that depend only on the lattice, m, the staircase and the
    normal come from the placement's label frame, built once for all the
    placements that share it.  The staircase clauses are finite
    enumerations.  Clauses about the control vertices are vacuous when the
    circuit does not carry them.  Each condition is a function that returns
    its first witness, or None when the condition holds.
    """
    pl = placement
    for v in circuit.vertices:
        if v not in pl.pos:
            raise ValueError(f"placement gives no position for vertex {v}")
    fr = pl.label_frame(spec.lattice)
    nu = pl.normal
    I = pl.staircase
    pos = pl.pos
    V, E, ix = circuit.vertices, circuit.edges, circuit.vertex_index
    tail, head = circuit.edge_index
    # labelled first, so that a position outside int64 raises ValueError
    gate_labels = fr.mL.class_labels([pos[v] for v in V])
    # diff[k, j] is the label of pos[V[j]] - pos[V[k]]; an edge (t, h) reads
    # its own entry
    diff = fr.minus(gate_labels, gate_labels[:, None])
    gates = np.array([pos[v] for v in V], dtype=np.int64).reshape(-1, 2)
    edge_delta = list(map(tuple, (gates[head] - gates[tail]).tolist()))
    edge_labels = diff[tail, head]

    def halfspace():
        # (a) edge differences and the staircase's outward set share the open
        # halfspace with normal nu; the outward set is the points q - i with
        # <nu, q> <= <nu, i>, and those that are staircase differences pass
        for e, d in zip(E, edge_delta):
            if dot(nu, d) <= 0:
                return ("edge", e, d)
        stair_diffs = {vsub(p, q) for p in I for q in I}
        q = _under_line(nu, max(dot(nu, i) for i in I))
        return next((("outward-point", p) for i in I
                     for p in map(tuple, (q[q @ nu <= dot(nu, i)] - i).tolist())
                     if p not in stair_diffs), None)

    def input_shifts():
        # (b) inputs sit one scaled shift before their output
        for i, block in enumerate(circuit.inputs):
            for j, name in enumerate(block):
                want = vsub(pos[circuit.outputs[j]], vscale(pl.m, spec.betas[i]))
                if pos[name] != want:
                    return (i + 1, j + 1, pos[name], want)
        return None

    def wire_realisations():
        # (c) wire moves connect gates only along actual edges: whenever the
        # difference from v to a non-input w matches an edge difference mod mL,
        # some vertex realises that difference exactly, and every vertex that
        # does is an in-neighbour of w.  reach[j, e]: the label of edge e is
        # that of a difference to V[j]; read in (w, e) order
        at: dict[Vec, list[str]] = {}
        for v in V:
            at.setdefault(pos[v], []).append(v)
        reach = (diff[:, :, None] == edge_labels).any(axis=0)
        reach[[ix[x] for x in circuit.flat_inputs]] = False
        for j, k in np.argwhere(reach).tolist():
            w, e, d = V[j], E[k], edge_delta[k]
            exact = at.get(vsub(pos[w], d), [])
            if not exact:
                return ("no-exact-realisation", w, e, d)
            bad = [v for v in exact if v not in circuit.preds[w]]
            if bad:
                return ("non-edge-realisation", w, e, d, bad[0])
        return None

    def staircase_translates():
        # (d) no translate of -I lies wholly inside the pairwise-difference
        # lattice except at staircase translates; the pairwise-difference form
        # is what the slice-0 induction consumes, and the stronger variant that
        # also admits staircase differences is violated by perfectly good
        # placements
        shifted = fr.plus(diff.reshape(-1, 1), fr.stair_codes)
        candidates = reduce(np.intersect1d, shifted.T, shifted[:, 0])
        bad = candidates[~np.isin(candidates, fr.stair_codes)]
        return fr.rep(bad[0]) if len(bad) else None

    def displacement_sets():
        # (e) no translate of any displacement set {p - h(p)}, h(p) != p in I,
        # lands inside the gate lattice.  An anchor a that some h lands on is
        # a gate label minus the label of I[0] - h(I[0]), and it admits
        # h(p) = q when a + label(p - q) is a gate label.  The witness is the
        # first h in product order, which is the least over the anchors of
        # their first admitted q per p, with the least anchor admitting it.
        anchors = fr.minus(gate_labels[:, None], fr.stair_diff_codes[0, 1:]).reshape(-1)
        admits = fr.landings(anchors, gate_labels)
        lands = admits.any(axis=2).all(axis=1)
        if not lands.any():
            return None
        first = admits[lands].argmax(axis=2)
        h = unique_rows(first)[0]
        admitting = admits[:, np.arange(len(I)), h].all(axis=1)
        return (fr.rep(anchors[admitting].min()), {vsub(p, I[q]) for p, q in zip(I, h.tolist())})

    def wire_stair_clashes():
        # (f) no wire move is congruent to a staircase difference
        clash = np.flatnonzero(np.isin(edge_labels, fr.stair_diff_codes))
        return (E[clash[0]], edge_delta[clash[0]]) if len(clash) else None

    def control_neighbourhoods():
        # (g) the control vertices own their staircase neighbourhoods, and the
        # input-feed differences from in'' clash with no other difference
        for x in circuit.controls:
            overlap = np.isin(diff[ix[x]], fr.stair_codes)
            overlap[ix[x]] = False
            if overlap.any():
                return ("staircase-overlap", V[overlap.argmax()], x)
        ind = circuit.in_dprime
        for h in circuit.in_dprime_heads:
            l0 = diff[ix[ind], ix[h]]
            if l0 in fr.stair_diff_codes:
                return ("staircase-clash", h, vsub(pos[h], pos[ind]))
            # every (v2, w2) with that label, but for the pairs in the
            # classes of (in'', h)
            clash = (diff == l0) & ~np.outer(gate_labels == gate_labels[ix[ind]],
                                             gate_labels == gate_labels[ix[h]])
            if clash.any():
                k, j = np.unravel_index(clash.argmax(), clash.shape)
                return ("difference-clash", h, (V[k], V[j]))
        return None

    def board_sides():
        # (h) control vertices on the board, input gates off it
        for x in circuit.controls:
            if pos[x][0] < 0 or pos[x][1] < 0:
                return ("control-off-board", x, pos[x])
        # in circuit order, so that (h) names the same input under every hash seed
        for name in circuit.flat_inputs:
            if pos[name][0] >= 0 and pos[name][1] >= 0:
                return ("input-on-board", name, pos[name])
        return None

    def output_order():
        # (i) outputs strictly staggered, and no output dominates a feeder
        outs = circuit.outputs
        for o1, o2 in combinations(outs, 2):
            a, b = pos[o1], pos[o2]
            if not (a[0] < b[0] and a[1] > b[1]):
                return ("output-order", o1, o2)
        feeders = [t for t, h in E if h in outs]
        for t, o in product(feeders, outs):
            if dominates(pos[t], pos[o]):
                return ("feeder-dominates", t, o)
        return None

    def decided(witness) -> ConditionResult:
        return ConditionResult("pass" if witness is None else "fail", witness)

    return ConditionReport({
        "a": decided(halfspace()),
        "b": decided(input_shifts()),
        "c": decided(wire_realisations()),
        "d": decided(staircase_translates()),
        "e": decided(displacement_sets()),
        "f": decided(wire_stair_clashes()),
        "g": decided(control_neighbourhoods()) if circuit.controls
        else ConditionResult("vacuous", note="no control vertices"),
        "h": decided(board_sides()),
        "i": decided(output_order()),
    })


class PlacementSearchError(RuntimeError):
    def __init__(self, message: str, report: ConditionReport | None = None,
                 rejections: dict[str, int] | None = None):
        super().__init__(message)
        self.report = report
        self.rejections = dict(rejections or {})


# the scales the placement search visits: m0, m0 + 2, ..., m0 + 2 * (M_STEPS - 1)
M_STEPS = 50


def search_placement(circuit: NorCircuit, spec: RecurrenceSpec, seed: int = 0) -> Placement:
    """Find a placement passing all applicable conditions.

    Deterministic for a given seed: a depth-first search over the values of
    SearchSpace's slots, each slot trying its values in an order shuffled
    from the seed, that drops a value as soon as the slots placed so far
    fail a condition no completion repairs.  check_conditions decides every
    complete placement the search reaches, and the first it accepts is
    returned.  Each rejection is tallied under one condition: a value the
    search drops under the condition that dropped it, a complete placement
    under its first failing condition in key order.  The search starts at
    m0 and moves to m + 2 when it has rejected search.NODE_BUDGET values at
    m or exhausted them; after M_STEPS scales it raises
    PlacementSearchError, naming the condition with the largest tally, with
    the last full report it got.
    """
    if not circuit.vertices or not circuit.outputs:
        raise ValueError("cannot place an empty circuit")
    circuit.check_reachability()
    space = SearchSpace(circuit, spec)
    rng = random.Random(seed)
    tally: dict[str, int] = {}
    report = None
    ms = range(space.m0, space.m0 + 2 * M_STEPS, 2)
    for m in ms:
        # the values tried at one m share this template and its label frame
        template = Placement({}, m, space.staircase, space.normal)
        for pos in space.search(space.values(template.label_frame(spec.lattice)), rng, tally):
            placement = copy.copy(template)
            placement.pos = pos
            report = check_conditions(placement, circuit, spec)
            if report.ok():
                return placement
            bad = report.failures()[0]
            tally[bad] = tally.get(bad, 0) + 1
    worst = max(sorted(tally), key=tally.get)
    raise PlacementSearchError(
        f"no placement found for m = {ms[0]}..{ms[-1]}; condition ({worst}) rejected the most "
        f"values: {dict(sorted(tally.items()))}",
        report,
        tally,
    )


@dataclass(eq=False)  # by identity: the lines are arrays, game and placement compare so anyway
class CompiledGame:
    game: GameSpec
    placement: Placement
    circuit: NorCircuit
    spec: RecurrenceSpec
    enc: Encoding
    line_arrays: dict[str, np.ndarray]  # (n, 3) int64 moves, as emitted or as read
    witness: PointednessWitness | None = None

    @cached_property
    def lines(self) -> dict[str, tuple]:
        """line_arrays as tuples of tuples of Python ints, built on first read."""
        return {name: tuple(zip(*line.T.tolist())) for name, line in self.line_arrays.items()}

    @property
    def variant(self) -> str:
        """B when the circuit carries the in'' vertex, C otherwise."""
        return "B" if self.circuit.in_dprime is not None else "C"


class EmissionError(ValueError):
    def __init__(
        self,
        message: str,
        report: ConditionReport | None = None,
        certificate: Infeasible | None = None,
    ):
        super().__init__(message)
        self.report = report
        self.certificate = certificate


LINE_WIRES = "wires"
LINE_SLICE0 = "slice0"
LINE_SLICE1 = "slice1"
LINE_IN_PRIME = "in-prime"
LINE_IN_DPRIME = "in-double-prime"
LINE_TANGENT = "tangent"
LINE_INITIAL = "initial"


def beta_intersection_generators(spec: RecurrenceSpec) -> list[Vec]:
    """Module generators of the intersection of all shifted copies beta+L+.

    Every beta lies in L, so beta + L+ = L meet (beta + N^2), and the
    intersection is L meet (b + N^2) for the componentwise maximum b of the
    shifts.  Its L+-minimal points are b + f for the points f of F (those
    dominating no nonzero element of L+) with b + f in L.
    """
    b = tuple(max(c) for c in zip(*spec.betas))
    points = (vadd(b, f) for f in enumerate_F(spec.lattice, 1))
    return sorted(p for p in points if spec.lattice.contains(p))


def emit_ruleset(
    placement: Placement,
    circuit: NorCircuit,
    spec: RecurrenceSpec,
    enc: Encoding,
) -> CompiledGame:
    """Emit the labelled move lines for a placement.

    The placement is checked first; one that fails a condition raises
    EmissionError with the condition report.  The control lines follow the
    circuit: in' and the tangent when it carries in', in'' and the initial
    moves when it carries in''; an unextended circuit gives the wire moves
    and the two slice blocks alone (the published subset).  The result
    carries its pointedness witness; a ruleset that is not pointed raises
    EmissionError with the Farkas certificate.
    """
    report = check_conditions(placement, circuit, spec)
    if not report.ok():
        raise EmissionError(f"placement fails conditions {report.failures()}", report)
    return _emit(placement, circuit, spec, enc)


def _emit(pl: Placement, circuit: NorCircuit, spec: RecurrenceSpec, enc: Encoding) -> CompiledGame:
    """emit_ruleset after its check, for a placement check_conditions accepted."""
    fr = pl.label_frame(spec.lattice)
    pos = pl.pos
    gate_codes = fr.mL.class_labels([pos[v] for v in circuit.vertices])
    f_minus_i, fi_codes = fr.f_minus_i()

    # each line is an (n, 3) int64 array of sorted distinct moves
    lines: dict[str, np.ndarray] = {}
    wires = [vsub(pos[h], pos[t]) for t, h in circuit.edges if t != circuit.in_dprime]
    lines[LINE_WIRES] = _plane_line(wires, 0)

    # slice 0: f - i unless congruent to a staircase or a gate difference
    forbidden = np.concatenate([fr.stair_diff_codes.ravel(),
                                fr.minus(gate_codes[:, None], gate_codes).ravel()])
    lines[LINE_SLICE0] = _plane_line(f_minus_i[~np.isin(fi_codes, forbidden)], 0)

    # slice 1: -m beta + f - i unless some p + i is congruent to a gate; every
    # beta lies in L, so p + i is congruent to f - i + i, and one mask serves
    # all the betas
    free = ~np.isin(fr.plus(fi_codes[:, None], fr.stair_codes), gate_codes).any(axis=1)
    shifts = pl.m * np.array(spec.betas, dtype=np.int64)
    lines[LINE_SLICE1] = _plane_line(f_minus_i[free] - shifts[:, None], 1)

    if circuit.in_prime is not None:
        ip = pos[circuit.in_prime]
        b_prime = np.array(beta_intersection_generators(spec), dtype=np.int64)
        lines[LINE_IN_PRIME] = _plane_line(np.add(ip, pl.m * b_prime), 1)
        lines[LINE_TANGENT] = _plane_line([(0, 0)], 2)
    if circuit.in_dprime is not None:
        ind = pos[circuit.in_dprime]
        b_dprime = np.array(positive_generators(spec.lattice), dtype=np.int64)
        lines[LINE_IN_DPRIME] = _plane_line(np.add(ind, pl.m * b_dprime), 1)
        # at each module generator g, from in'' to every feeder of an
        # output and to every output whose encoded initial bit is N
        feeders = [t for o in circuit.outputs for t in circuit.preds[o]
                   if t != circuit.in_dprime]
        initial = []
        for g in spec.module.generators:
            bits = enc.encode(spec.f0[g])
            n_outputs = [o for o, bit in zip(circuit.outputs, bits) if bit == "N"]
            initial += [vadd(vsub(pos[t], ind), vscale(pl.m, g)) for t in feeders + n_outputs]
        lines[LINE_INITIAL] = _plane_line(initial, 0)

    game = GameSpec(Ruleset(3, np.concatenate(list(lines.values()))))
    witness = engine.check_pointedness(game.ruleset)
    if isinstance(witness, Infeasible):
        raise EmissionError(
            "the emitted ruleset is not pointed: no positive functional bounds play",
            certificate=witness,
        )
    return CompiledGame(game, pl, circuit, spec, enc, lines, witness)


def _under_line(nu, top: int) -> np.ndarray:
    """The points q of N^2 with <nu, q> <= top, in lexicographic order."""
    return points_under((top - nu[0] * np.arange(top // nu[0] + 1)) // nu[1] + 1)


def _plane_line(points, z: int) -> np.ndarray:
    """Sorted distinct moves (x, y, z) from (..., 2) integer points (x, y),
    as an (n, 3) int64 array."""
    xy = unique_rows(np.reshape(points, (-1, 2)))
    return np.column_stack([xy, np.full(len(xy), z, dtype=np.int64)])


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    checked: int
    failure: object = None

    @property
    def status(self) -> str:
        """'ok', 'FAIL', or 'not checked' when the check compared no point."""
        if self.failure is not None:
            return "FAIL"
        return "ok" if self.checked else "not checked"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> CheckOutcome:
        return next(c for c in self.checks if c.name == name)

    def summary(self) -> str:
        out = []
        for c in self.checks:
            line = f"{c.name}: {c.status} ({c.checked} points)"
            if c.failure is not None:
                line += f"  first failure: {c.failure}"
            out.append(line)
        return "\n".join(out)


def verify_construction(cg: CompiledGame, bound: int) -> VerificationReport:
    """Compare the compiled game's outcomes with the recurrence oracle.

    Four checks over the region where the scaled staircase pairing stays
    within the bound: the slice-0 lattice law, the encoded recurrence values
    at the output gates, and the characterisations of the two control
    vertices.  Each check is one row of a table (name, the key each point
    reports on failure, its probe cells, the expected P per cell); all rows
    are read from one solve of the phi-simplex under their probe cells.  A
    check counts the points it compared up to and including its first
    failure; one that compared none is not checked, and the report is then
    not ok.  A game with a defeated set, a bound whose tables would exceed
    kernels.MEMORY_BUDGET, or an output or control vertex off the board
    raises ValueError before anything is built.
    """
    bound = as_int(bound, "bound")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if cg.game.has_defeated:
        raise ValueError("verify reads compiled games, which carry no defeated set")
    spec = cg.spec
    pl = cg.placement
    # the probe tables peak at 25.2-26.8 bytes per cell of the slice-0 box
    # under tracemalloc (rules 90 and 110 in variant B, 8m to 128m), the
    # slice-0 cells and their copy among all probe cells; 28 leaves a margin
    need = (bound // pl.normal[0] + 1) * (bound // pl.normal[1] + 1) * 28
    kernels.check_memory(need, f"bound {bound} (its probe tables)")
    # the probe cells pos[v] + m * l, l >= 0, must lie on the board
    for v in (*cg.circuit.outputs, *cg.circuit.controls):
        if min(pl.pos[v]) < 0:
            raise ValueError(f"vertex {v!r} at {pl.pos[v]} lies off the board; "
                             "verify reads outputs and controls on it")
    m = pl.m

    def lift(points, z):
        return np.concatenate([points, np.full(points.shape[:-1] + (1,), z)], axis=-1)

    # the slice-0 points, then in their place their probe cells
    mL = spec.lattice.scale(m)
    cells0 = _under_line(pl.normal, bound)
    on_stair = np.isin(mL.class_labels(cells0), mL.class_labels(pl.staircase))
    cells0 = lift(cells0, 0)
    # the l with m <nu, l> <= bound
    ells = _under_line(pl.normal, bound // m)
    ells = ells[spec.lattice.class_labels(ells) == 0]
    ell_list = [tuple(l) for l in ells.tolist()]

    def control_cells(v):
        return lift(np.array(pl.pos[v], dtype=np.int64) + m * ells[:, None], 1)

    # rows (name, failure keys, probe cells (n, k, 3), expected P (n, k), word);
    # a word row reports bit tuples
    mod_list = [l for l in ell_list if spec.module.contains(l)]
    mod_ells = np.array(mod_list, dtype=np.int64).reshape(-1, 2)
    out_pos = np.array([pl.pos[o] for o in cg.circuit.outputs], dtype=np.int64)
    words = [cg.enc.encode(eval_recurrence(spec, l)) for l in mod_list]
    expect = np.array(words, dtype="U1").reshape(len(words), len(out_pos)) == "P"
    table = [("slice0-lattice-law", cells0, cells0[:, None], on_stair[:, None], False),
             ("output-encoding", mod_ells, lift(out_pos + m * mod_ells[:, None], 1), expect, True)]
    if cg.circuit.in_prime is not None:
        expect = [
            # in variant B the initial-condition moves hand generator positions
            # the P-option (pos(in''),1), so the stored value wins instead
            not (cg.variant == "B" and spec.module.is_generator(l))
            and any(not spec.module.contains(vsub(l, b)) for b in spec.betas)
            for l in ell_list
        ]
        table.append(("in-prime-characterisation", ells, control_cells(cg.circuit.in_prime),
                      np.array(expect, dtype=bool)[:, None], False))
    if cg.circuit.in_dprime is not None:
        table.append(("in-double-prime-characterisation", ells,
                      control_cells(cg.circuit.in_dprime), ~ells.any(axis=1)[:, None], False))

    # one solve reads the probe cells of every row, split back per row
    codes = Solver(cg.game, cg.witness).outcomes(np.concatenate([row[2].reshape(-1, 3) for row in table]))
    rows = np.split(codes == engine.CODE_P, np.cumsum([row[3].size for row in table])[:-1])
    checks = []
    for (name, keys, cells, expect, word), got in zip(table, rows):
        got = got.reshape(expect.shape)
        bad = np.flatnonzero((got != expect).any(axis=1))
        checked = int(bad[0]) + 1 if len(bad) else len(got)
        failure = None
        if len(bad):
            i = bad[0]
            want, seen = (tuple("P" if b else "N" for b in row) for row in (expect[i], got[i]))
            failure = (as_vec(keys[i]),) + ((want, seen) if word else (want[0], seen[0]))
        checks.append(CheckOutcome(name, failure is None and checked > 0, checked, failure))
    return VerificationReport(tuple(checks))


def compile_recurrence(
    spec: RecurrenceSpec,
    enc: Encoding,
    variant: str = "C",
    seed: int = 0,
) -> CompiledGame:
    """Full pipeline: validate, prune, synthesise, extend, place, emit."""
    check_variant(variant)
    enc_report = validate_encoding(spec, enc)
    if not enc_report.ok:
        raise ValueError(f"encoding rejected: {'; '.join(enc_report.failures)}")
    if variant == "C":
        bad = [g for g in spec.module.generators if spec.f0[g] != spec.sigma0]
        if bad:
            raise ValueError(
                f"variant C provides no input channel, so the initial values must "
                f"all be the background symbol; offending generators: {bad}"
            )
    pruned = prune_unused_arguments(spec)
    check_synthesis_size(pruned.num_args * enc.s)  # before the table's rows are built
    circuit = synthesize_nor_circuit(encoded_table(pruned, enc))
    circuit = extend_circuit(circuit, variant)
    placement = search_placement(circuit, pruned, seed)
    return _emit(placement, circuit, pruned, enc)  # the search checked it
