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
from itertools import combinations, product

import numpy as np

from . import engine, kernels
from .circuits import NorCircuit, check_variant, extend_circuit, synthesize_nor_circuit
from .engine import GameSpec, Infeasible, PointednessWitness, Ruleset, Solver
from .lattice import (
    F_array,
    LatticeSet,
    Sublattice,
    Vec,
    as_vec,
    dominates,
    dot,
    enumerate_F,
    pareto_minimal,
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


class Placement:
    """Gate positions plus the scale m, staircase I and halfspace normal."""

    def __init__(self, pos: dict, m: int, staircase, normal):
        self.pos = {v: as_vec(p, 2) for v, p in pos.items()}
        self.m = int(m)
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


class LabelFrame:
    """The residue tables of one (L, m, I, nu), which no gate position
    changes: mL, F and its codes, the codes of the staircase points and of
    their differences, and, on first use, the outward witness of (a).  F and
    its codes name the class of a witness (rep) and give the distinct points
    of F - I.

    Codes are those of mL.class_labels, a * |det| + b for the label (a, b).
    Labels are additive mod |det|, so plus and minus give the code of a sum
    or a difference from the codes of its terms, without labelling it again.
    A Placement carries its frame (Placement.label_frame), so the trials of a
    search at one m, their conditions and the emission share one.
    """

    def __init__(self, lattice: Sublattice, m: int, staircase, normal):
        self.lattice, self.m, self.staircase, self.normal = lattice, m, staircase, normal
        self.mL = lattice.scale(m)
        self.det = self.mL.index()
        self.F = F_array(lattice, m)
        self.F_codes = self.mL.class_labels(self.F)
        self.stair_codes = self.mL.class_labels(staircase)
        # [p, q] holds the code of I[p] - I[q]
        self.stair_diff_codes = self.minus(self.stair_codes[:, None], self.stair_codes)

    def plus(self, x, y) -> np.ndarray:
        """Codes of the sums of classes of codes x and y, broadcast."""
        d = self.det
        return (x // d + y // d) % d * d + (x + y) % d

    def minus(self, x, y) -> np.ndarray:
        """Codes of the differences of classes of codes x and y, broadcast."""
        d = self.det
        return (x // d - y // d) % d * d + (x - y) % d

    def rep(self, code) -> Vec:
        """The point that names a class in a witness: its last point of F."""
        return tuple(self.F[np.flatnonzero(self.F_codes == code)[-1]].tolist())

    @cached_property
    def outward(self):
        """(a)'s witness on the staircase: the first point of its outward set,
        the points q - i with <nu, q> <= <nu, i>, that is no staircase
        difference, or None."""
        I, nu = self.staircase, self.normal
        stair_diffs = {vsub(p, q) for p in I for q in I}
        q = _under_line(nu, max(dot(nu, i) for i in I))
        return next((("outward-point", p) for i in I
                     for p in map(tuple, (q[q @ nu <= dot(nu, i)] - i).tolist())
                     if p not in stair_diffs), None)

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


class ConditionReport:
    """The placement conditions by key, each decided on first request.

    A value is a ConditionResult, or a function that decides the condition:
    it returns the first witness, or None when the condition holds.  ok()
    decides conditions in the order given and stops at the first failure;
    results, item access, failures(), summary() and repr decide every
    condition left and read the full report in key order.
    """

    def __init__(self, results: dict):
        self._results = dict(results)

    def _decide(self, key: str) -> ConditionResult:
        r = self._results[key]
        if callable(r):
            witness = r()
            r = self._results[key] = ConditionResult("pass" if witness is None else "fail", witness)
        return r

    @property
    def results(self) -> dict[str, ConditionResult]:
        return {key: self._decide(key) for key in sorted(self._results)}

    def __getitem__(self, key: str) -> ConditionResult:
        return self.results[key]

    def ok(self) -> bool:
        return all(self._decide(key).status != "fail" for key in self._results)

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
    """Decide the nine placement conditions exactly, on demand.

    Lattice-translation-invariant clauses are reduced to residue classes of
    m*lattice, read from class_labels codes: one per gate position, and the
    pairwise gate differences derived from them, since labels are additive.
    The tables that depend only on the lattice, m, the staircase and the
    normal come from the placement's label frame, built once for all the
    placements that share it.  The staircase clauses are finite
    enumerations.  Clauses about the control vertices are vacuous when the
    circuit does not carry them.  Each condition is a function that returns
    its first witness, or None when the condition holds; the report runs
    them only when asked.  ok() stops at the first failing condition, trying
    (c) first, then the checks on positions alone, then those that read the
    staircase tables.  Reading the results decides every condition, so other
    callers see the full report.
    """
    pl = placement
    for v in circuit.vertices:
        if v not in pl.pos:
            raise ValueError(f"placement gives no position for vertex {v}")
    fr = pl.label_frame(spec.lattice)
    nu = pl.normal
    I = pl.staircase
    pos = pl.pos
    V = list(circuit.vertices)
    E = list(circuit.edges)
    ix = {v: k for k, v in enumerate(V)}
    # labelled first, so that a position outside int64 raises ValueError
    gate_labels = fr.mL.class_labels([pos[v] for v in V])
    # diff[k, j] is the label of pos[V[j]] - pos[V[k]]; an edge (t, h) reads
    # its own entry
    diff = fr.minus(gate_labels, gate_labels[:, None])
    tail, head = np.array([(ix[t], ix[h]) for t, h in E], dtype=np.intp).reshape(-1, 2).T
    gates = np.array([pos[v] for v in V], dtype=np.int64).reshape(-1, 2)
    edge_delta = list(map(tuple, (gates[head] - gates[tail]).tolist()))
    edge_labels = diff[tail, head]

    def halfspace():
        # (a) edge differences and the staircase's outward set share the open
        # halfspace with normal nu
        for e, d in zip(E, edge_delta):
            if dot(nu, d) <= 0:
                return ("edge", e, d)
        return fr.outward

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
        # that of a difference to V[j]; read in (w, e) order.  An edge (t, h)
        # read at h is realised by t alone when no other vertex shares t's
        # position, so it passes unread
        at: dict[Vec, list[str]] = {}
        for v in V:
            at.setdefault(pos[v], []).append(v)
        reach = (diff[:, :, None] == edge_labels).any(axis=0)
        reach[[ix[x] for x in circuit.flat_inputs]] = False
        alone = np.array([len(at[pos[v]]) == 1 for v in V], dtype=bool)
        reach[head, np.arange(len(E))] &= ~alone[tail]
        edges = set(E)
        for j, k in np.argwhere(reach).tolist():
            w, e, d = V[j], E[k], edge_delta[k]
            exact = at.get(vsub(pos[w], d), [])
            if not exact:
                return ("no-exact-realisation", w, e, d)
            bad = [v for v in exact if (v, w) not in edges]
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
        disp = fr.stair_diff_codes
        anchors = fr.minus(gate_labels[:, None], disp[0, 1:]).reshape(-1)
        admits = np.isin(fr.plus(anchors[:, None, None], disp), gate_labels)
        admits &= ~np.eye(len(I), dtype=bool)
        lands = admits.any(axis=2).all(axis=1)
        if not lands.any():
            return None
        first = admits[lands].argmax(axis=2)
        h = first[np.lexsort(first.T[::-1])[0]]
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
        if ind is None:
            return None
        feed_heads = [h for t, h in E if t == ind]
        if circuit.in_prime is not None and circuit.in_prime not in feed_heads:
            # the initial-condition moves also target in', so its
            # difference must be protected like the edge ones
            feed_heads.append(circuit.in_prime)
        for h in feed_heads:
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
        for (t, h), o in product(E, outs):
            if h in outs and dominates(pos[t], pos[o]):
                return ("feeder-dominates", t, o)
        return None

    vacuous = ConditionResult("vacuous", note="no control vertices")
    # the order ok() decides them in: (c) rejects most drawn placements,
    # then come the checks on positions alone, then those that read the
    # staircase tables, the likeliest to fail first
    return ConditionReport({
        "c": wire_realisations,
        "b": input_shifts,
        "h": board_sides,
        "i": output_order,
        "e": displacement_sets,
        "g": control_neighbourhoods if circuit.controls else vacuous,
        "f": wire_stair_clashes,
        "d": staircase_translates,
        "a": halfspace,
    })


class PlacementSearchError(RuntimeError):
    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


def search_placement(
    circuit: NorCircuit,
    spec: RecurrenceSpec,
    seed: int = 0,
    hint: Placement | None = None,
    max_tries: int = 10_000,
) -> Placement:
    """Find a placement passing all applicable conditions.

    Deterministic for a given seed: gates go on a diagonal ladder ordered by
    longest path to the outputs (so every edge strictly ascends the
    halfspace), anti-diagonal jitter separates residue classes, and inputs
    are forced one scaled shift below their output.  The scale m grows
    slowly while seeded jitter is retried.  A trial stops at its first
    failing condition (see check_conditions); failures are reproducible,
    and the last trial's full condition report is attached to the error.
    """
    if not circuit.vertices or not circuit.outputs:
        raise ValueError("cannot place an empty circuit")
    circuit.check_reachability()
    if hint is not None:
        try:
            if check_conditions(hint, circuit, spec).ok():
                return hint
        except ValueError:
            pass  # hint does not fit this circuit; fall through to the search
    nu = spec.halfspace_normal
    I = tuple(
        (i, j) for i in range(nu[1] + 1) for j in range(nu[0] + 1)
    )
    u = nu
    w = (nu[1], -nu[0])
    s = circuit.num_bits
    ladder = [v for v in circuit.gate_vertices() if v not in circuit.outputs]

    depth = {o: 0 for o in circuit.outputs}
    order = circuit.topological_order()
    for v in reversed(order):
        if v in depth:
            continue
        succ = [depth[h] + 1 for t, h in circuit.edges if t == v and h in depth]
        depth[v] = max(succ, default=0)
    max_depth = max((depth[v] for v in ladder), default=0)

    step = 3
    jitter = max(4, len(ladder) + 2)
    out_level = step * (max_depth + 2) + s + 2
    beta_gain = min(dot(nu, b) for b in spec.betas)
    # jitter runs along w, which nu annihilates, so only ladder depth matters
    # for edge ascent; the first bound keeps the outputs inside [0, m)^2 and
    # pushes the input gates off the board
    m0 = max(
        (out_level + s + 3) * max(nu) + 2,
        (step * max_depth * dot(nu, nu) + 2) // beta_gain + 2,
    )

    def along_w(base, k):
        return (base[0] + k * w[0], base[1] + k * w[1])

    def board_slot(base, spread):
        p = along_w(base, spread)
        return p if p[0] >= 0 and p[1] >= 0 else base

    # the parts of a trial that no draw changes
    out_base = vscale(out_level, u)
    ladder_base = [(v, vscale(out_level - step * max(depth[v], 1), u)) for v in ladder]
    feeds = [(name, circuit.outputs[j], spec.betas[i])
             for i, block in enumerate(circuit.inputs) for j, name in enumerate(block)]

    # the trials at one m share the staircase, the normal and their label
    # frame, so these are checked and built once per m, and each trial
    # copies this template
    template = None
    rng = random.Random(seed)
    report = None
    for trial in range(max_tries):
        m = m0 + 2 * (trial // 200)
        if template is None or template.m != m:
            template = Placement({}, m, I, nu)
            template.label_frame(spec.lattice)
            shifts = [(name, out, vscale(m, b)) for name, out, b in feeds]
        pos: dict[str, Vec] = {}
        shared = rng.randint(-2, 2)
        for j, o in enumerate(circuit.outputs):
            pos[o] = along_w(out_base, j + shared)
        if circuit.in_prime is not None:
            pos[circuit.in_prime] = board_slot(u, rng.randint(-1, 1))
        if circuit.in_dprime is not None:
            pos[circuit.in_dprime] = board_slot(vscale(2, u), rng.randint(-2, 2))
        for v, base in ladder_base:
            pos[v] = along_w(base, rng.randint(-jitter, jitter))
        for name, out, (sx, sy) in shifts:
            pos[name] = (pos[out][0] - sx, pos[out][1] - sy)
        placement = copy.copy(template)
        placement.pos = pos
        report = check_conditions(placement, circuit, spec)
        if report.ok():
            return placement
    raise PlacementSearchError(
        f"no placement found in {max_tries} tries (last failures: {report.failures()})",
        report,
    )


@dataclass
class CompiledGame:
    game: GameSpec
    placement: Placement
    circuit: NorCircuit
    spec: RecurrenceSpec
    enc: Encoding | None
    variant: str
    lines: dict[str, tuple]
    witness: PointednessWitness | None = None


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
    variant: str = "C",
    core_only: bool = False,
    enc: Encoding | None = None,
) -> CompiledGame:
    """Emit the labelled move lines for a placement.

    The placement is checked first; one that fails a condition raises
    EmissionError with the condition report.  core_only restricts to the wire
    moves and the two slice blocks (the published subset); otherwise the
    control lines for the chosen variant are added, and variant A
    additionally carries a defeated set.  The result carries its pointedness
    witness; a ruleset that is not pointed raises EmissionError with the
    Farkas certificate.
    """
    check_variant(variant)
    pl = placement
    report = check_conditions(pl, circuit, spec)
    if not report.ok():
        raise EmissionError(f"placement fails conditions {report.failures()}", report)
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

    defeated = None
    if not core_only:
        if circuit.in_prime is None:
            raise EmissionError(
                "full emission needs the extended circuit; run extend_circuit first"
            )
        ip = pos[circuit.in_prime]
        b_prime = np.array(beta_intersection_generators(spec), dtype=np.int64)
        lines[LINE_IN_PRIME] = _plane_line(np.add(ip, pl.m * b_prime), 1)
        lines[LINE_TANGENT] = _plane_line([(0, 0)], 2)
        if variant == "B":
            if circuit.in_dprime is None:
                raise EmissionError("variant B needs the in'' vertex in the circuit")
            if enc is None:
                raise EmissionError("variant B emission needs the symbol encoding")
            ind = pos[circuit.in_dprime]
            b_dprime = np.array(positive_generators(spec.lattice), dtype=np.int64)
            lines[LINE_IN_DPRIME] = _plane_line(np.add(ind, pl.m * b_dprime), 1)
            # at each module generator g, from in'' to every feeder of an
            # output and to every output whose encoded initial bit is N
            feeders = [t for t, h in circuit.edges if h in circuit.outputs and t != circuit.in_dprime]
            initial = []
            for g in spec.module.generators:
                bits = enc.encode(spec.f0[g])
                n_outputs = [o for o, bit in zip(circuit.outputs, bits) if bit == "N"]
                initial += [vadd(vsub(pos[t], ind), vscale(pl.m, g)) for t in feeders + n_outputs]
            lines[LINE_INITIAL] = _plane_line(initial, 0)
        if variant == "A":
            if enc is None:
                raise EmissionError("variant A emission needs the symbol encoding")
            defeated = emit_defeated(pl, spec, enc, circuit)

    game = GameSpec(Ruleset(3, np.concatenate(list(lines.values()))), defeated)
    witness = engine.check_pointedness(game.ruleset)
    if isinstance(witness, Infeasible):
        raise EmissionError(
            "the emitted ruleset is not pointed: no positive functional bounds play",
            certificate=witness,
        )
    lines = {name: tuple(zip(*line.T.tolist())) for name, line in lines.items()}
    return CompiledGame(game, pl, circuit, spec, enc, variant, lines, witness)


def _under_line(nu, top: int) -> np.ndarray:
    """The points q of N^2 with <nu, q> <= top, in lexicographic order."""
    return points_under((top - nu[0] * np.arange(top // nu[0] + 1)) // nu[1] + 1)


def _plane_line(points, z: int) -> np.ndarray:
    """Sorted distinct moves (x, y, z) from (..., 2) integer points (x, y),
    as an (n, 3) int64 array."""
    xy = unique_rows(np.reshape(points, (-1, 2)))
    return np.column_stack([xy, np.full(len(xy), z, dtype=np.int64)])


def emit_defeated(
    placement: Placement,
    spec: RecurrenceSpec,
    enc: Encoding,
    circuit: NorCircuit,
) -> LatticeSet:
    """Variant-A defeated set over the two relevant slices.

    Slice 0 is the complement of the scaled non-generator module cone; slice
    1 additionally frees the output cones of the generators whose encoded
    initial bit is P.
    """
    # a non-generator g + l of M (l nonzero in L+) dominates g + q for a
    # minimal nonzero q of L+, and g + q is itself a non-generator, so the
    # componentwise cover is the Pareto minimum of these points: a union of
    # plain orthants
    positive = positive_generators(spec.lattice)
    points = np.array(
        [vadd(g, q) for g in spec.module.generators for q in positive], dtype=np.int64
    )
    nongens = placement.m * points[pareto_minimal(points)]
    covered = LatticeSet.union(*[LatticeSet.orthant(g) for g in nongens.tolist()])
    slice0 = LatticeSet.diff(LatticeSet.orthant((0, 0)), covered)
    removals = []
    for g in spec.module.generators:
        for j, o in enumerate(circuit.outputs):
            if enc.encode(spec.f0[g])[j] == "P":
                removals.append(
                    LatticeSet.orthant(vadd(placement.pos[o], vscale(placement.m, g)))
                )
    slice1 = LatticeSet.diff(slice0, LatticeSet.union(*removals)) if removals else slice0
    return LatticeSet.union(slice0.embed_slice(0), slice1.embed_slice(1))


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
    reports on failure, its probe cells, the expected P per cell), read from
    one solved window.  Defeated cells are skipped, except at the output
    gates, where they read as N bits.  A check counts the points it compared
    up to and including its first failure; one that compared none is not
    checked, and the report is then not ok.  A bound whose tables would
    exceed kernels.MEMORY_BUDGET, or an output or control vertex off the
    board, raises ValueError before anything is built.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    spec = cg.spec
    pl = cg.placement
    # the probe tables peak at 24.5-24.8 bytes per cell of the slice-0 box
    # under tracemalloc (rule 110 in variant B, rule 90 in variants A and B,
    # 8m to 128m), the slice-0 points and their lifted cells; 26 leaves a margin
    need = (bound // pl.normal[0] + 1) * (bound // pl.normal[1] + 1) * 26
    if need > kernels.MEMORY_BUDGET:
        raise ValueError(f"bound {bound} needs about {need / 2**30:.1f} GiB of probe tables, "
                         f"over the {kernels.MEMORY_BUDGET / 2**30:.0f} GiB budget")
    # the probe cells pos[v] + m * l, l >= 0, must lie in the solved window
    for v in (*cg.circuit.outputs, *cg.circuit.controls):
        if min(pl.pos[v]) < 0:
            raise ValueError(f"vertex {v!r} at {pl.pos[v]} lies off the board; "
                             "verify reads outputs and controls on it")
    m = pl.m

    def lift(points, z):
        return np.concatenate([points, np.full(points.shape[:-1] + (1,), z)], axis=-1)

    slice0 = _under_line(pl.normal, bound)
    # the l with m <nu, l> <= bound
    ells = _under_line(pl.normal, bound // m)
    ells = ells[spec.lattice.class_labels(ells) == 0]
    ell_list = [tuple(l) for l in ells.tolist()]
    mL = spec.lattice.scale(m)
    on_stair = np.isin(mL.class_labels(slice0), mL.class_labels(pl.staircase))

    def control_cells(v):
        return lift(np.array(pl.pos[v], dtype=np.int64) + m * ells[:, None], 1)

    # rows (name, failure keys, probe cells (n, k, 3), expected P (n, k), word);
    # a word row reports bit tuples and reads defeated cells as N
    cells0 = lift(slice0, 0)
    table = [("slice0-lattice-law", cells0, cells0[:, None], on_stair[:, None], False)]
    if cg.enc is not None:
        mod_list = [l for l in ell_list if spec.module.contains(l)]
        mod_ells = np.array(mod_list, dtype=np.int64).reshape(-1, 2)
        out_pos = np.array([pl.pos[o] for o in cg.circuit.outputs], dtype=np.int64)
        words = [cg.enc.encode(eval_recurrence(spec, l)) for l in mod_list]
        expect = np.array(words, dtype="U1").reshape(len(words), len(out_pos)) == "P"
        table.append(("output-encoding", mod_ells, lift(out_pos + m * mod_ells[:, None], 1),
                      expect, True))
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

    # the window reaches the largest probe cell of any row
    wx, wy, _ = np.max([row[2].reshape(-1, 3).max(axis=0, initial=0) for row in table],
                       axis=0).tolist()
    grid = Solver(cg.game, cg.witness).solve_window((wx, wy, 1))

    checks = []
    for name, keys, cells, expect, word in table:
        codes = grid.data[cells[..., 0], cells[..., 1], cells[..., 2]]
        got = codes == engine.CODE_P
        live = np.ones(len(codes), bool) if word else (codes != engine.CODE_DEFEATED).all(axis=1)
        bad = np.flatnonzero(live & (got != expect).any(axis=1))
        upto = bad[0] + 1 if len(bad) else len(live)
        checked = int(np.count_nonzero(live[:upto]))
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
    core_only: bool = False,
    hint: Placement | None = None,
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
    pruned, _kept = prune_unused_arguments(spec)
    circuit = synthesize_nor_circuit(encoded_table(pruned, enc))
    circuit = extend_circuit(circuit, variant)
    placement = search_placement(circuit, pruned, seed, hint=hint)
    return emit_ruleset(placement, circuit, pruned, variant, core_only=core_only, enc=enc)
