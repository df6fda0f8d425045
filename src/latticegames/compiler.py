"""From a recurrence to a playable ruleset.

The pipeline places an extended nor circuit in Z^2 (a gate position table,
a scale m, a staircase set I and a halfspace normal), checks the nine
placement conditions exactly, emits the labelled move lines, and verifies
the finished game against direct recurrence evaluation: slice-0 outcomes
follow the staircase lattice, and the outputs' slice-1 outcomes spell out
the encoded recurrence values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import engine
from .circuits import NorCircuit, check_variant, extend_circuit, synthesize_nor_circuit
from .engine import GameSpec, Infeasible, PointednessWitness, Ruleset, Solver
from .lattice import (
    Z2,
    IncompleteBoxError,
    LatticeSet,
    Vec,
    as_vec,
    class_representatives,
    dominates,
    dot,
    enumerate_F,
    minimal_elements,
    positive_generators,
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

    def position(self, v: str) -> Vec:
        return self.pos[v]

    def __repr__(self):
        return (
            f"Placement(m={self.m}, I={list(self.staircase)}, "
            f"normal={self.normal}, {len(self.pos)} gates)"
        )


@dataclass(frozen=True)
class ConditionResult:
    status: str  # 'pass' | 'fail' | 'vacuous'
    witness: object = None
    note: str = ""


class ConditionReport:
    def __init__(self, results: dict):
        self.results = dict(results)

    def __getitem__(self, key: str) -> ConditionResult:
        return self.results[key]

    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results.values())

    def failures(self) -> list[str]:
        return [k for k, r in self.results.items() if r.status == "fail"]

    def summary(self) -> str:
        lines = []
        for key in sorted(self.results):
            r = self.results[key]
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


def _staircase_diffs(I) -> set[Vec]:
    return {vsub(a, b) for a in I for b in I}


def check_conditions(
    placement: Placement,
    circuit: NorCircuit,
    spec: RecurrenceSpec,
    variant: str = "C",
) -> ConditionReport:
    """Decide the nine placement conditions exactly.

    Lattice-translation-invariant clauses are reduced to residue classes of
    m*lattice; the staircase clauses are finite enumerations.  Clauses about
    the control vertices are vacuous when the circuit does not carry them.
    """
    check_variant(variant)
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
    results: dict[str, ConditionResult] = {}

    # (a) edge differences and the staircase's outward set share the open
    # halfspace with normal nu
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

    # (b) inputs sit one scaled shift before their output
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

    # (c) wire moves connect gates only along actual edges: whenever the
    # difference from v to a non-input w matches an edge difference mod mL,
    # some vertex realises that difference exactly, and every vertex that
    # does is an in-neighbour of w
    flat_inputs = {x for block in circuit.inputs for x in block}
    witness = None
    preds = {w: set(circuit.predecessors(w)) for w in V}
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

    # labels are additive mod the lattice index, which turns the two
    # translate conditions into finite set intersections in label space
    d_mod = mL.index()

    def ladd(l1, l2):
        return ((l1[0] + l2[0]) % d_mod, (l1[1] + l2[1]) % d_mod)

    def lneg(l1):
        return ((-l1[0]) % d_mod, (-l1[1]) % d_mod)

    rep_of = class_representatives(spec.lattice, pl.m)

    # (d) no translate of -I lies wholly inside the pairwise-difference
    # lattice except at staircase translates; the pairwise-difference form is
    # what the slice-0 induction consumes, and the stronger variant that also
    # admits staircase differences is violated by perfectly good placements
    pair_diff_labels = {label(vsub(pos[w], pos[v])) for v in V for w in V}
    candidates = None
    for i in I:
        shifted = {ladd(c, label(i)) for c in pair_diff_labels}
        candidates = shifted if candidates is None else candidates & shifted
    bad = candidates - I_labels
    witness = rep_of[min(bad)] if bad else None
    results["d"] = ConditionResult("fail" if witness else "pass", witness)

    # (e) no translate of any displacement set {p - h(p)} lands inside the
    # gate lattice; |I|^(|I|) enumeration over residue classes
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

    # (f) no wire move is congruent to a staircase difference
    witness = None
    for e in E:
        if label(edge_delta[e]) in I_diff_labels:
            witness = (e, edge_delta[e])
            break
    results["f"] = ConditionResult("fail" if witness else "pass", witness)

    # (g) the control vertices own their staircase neighbourhoods, and the
    # input-feed differences from in'' clash with no other difference
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
                # the initial-condition moves also target in', so its
                # difference must be protected like the edge ones
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

    # (h) control vertices on the board, input gates off it
    witness = None
    for x in specials:
        if pos[x][0] < 0 or pos[x][1] < 0:
            witness = ("control-off-board", x, pos[x])
            break
    if witness is None:
        for name in flat_inputs:
            if pos[name][0] >= 0 and pos[name][1] >= 0:
                witness = ("input-on-board", name, pos[name])
                break
    results["h"] = ConditionResult("fail" if witness else "pass", witness)

    # (i) outputs strictly staggered, and no output dominates a feeder
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


def wire_classes_collision_free(placement: Placement, circuit: NorCircuit, spec) -> bool:
    """Strengthened wire separation: position differences of distinct vertex
    pairs are never congruent mod mL, except for the unavoidable coincidences
    through each input sitting one scaled shift before its output."""
    mL = spec.lattice.scale(placement.m)
    label = mL.class_label
    cls = {v: label(placement.pos[v]) for v in circuit.vertices}
    forced = {}
    for j, o in enumerate(circuit.outputs):
        forced[o] = j
        for block in circuit.inputs:
            forced[block[j]] = j
    by_class = {}
    for v, c in cls.items():
        by_class.setdefault(c, set()).add(v)
    for group in by_class.values():
        if len(group) > 1 and len({forced.get(v, v) for v in group}) > 1:
            return False  # unforced vertices share a residue class
    classes = sorted(by_class)
    seen = {}
    for a in classes:
        for b in classes:
            if a == b:
                continue
            d = ((b[0] - a[0]) % mL.index(), (b[1] - a[1]) % mL.index())
            if d in seen and seen[d] != (a, b):
                return False
            seen[d] = (a, b)
    return True


class PlacementSearchError(RuntimeError):
    def __init__(self, message: str, report: ConditionReport | None = None):
        super().__init__(message)
        self.report = report


def search_placement(
    circuit: NorCircuit,
    spec: RecurrenceSpec,
    variant: str = "C",
    seed: int = 0,
    hint: Placement | None = None,
    max_tries: int = 10_000,
) -> Placement:
    """Find a placement passing all applicable conditions.

    Deterministic for a given seed: gates go on a diagonal ladder ordered by
    longest path to the outputs (so every edge strictly ascends the
    halfspace), anti-diagonal jitter separates residue classes, and inputs
    are forced one scaled shift below their output.  The scale m grows
    slowly while seeded jitter is retried; failures are reproducible and the
    last condition report is attached to the error.
    """
    check_variant(variant)
    if not circuit.vertices or not circuit.outputs:
        raise ValueError("cannot place an empty circuit")
    circuit.check_reachability()
    if hint is not None:
        try:
            if check_conditions(hint, circuit, spec, variant).ok():
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
    specials = [x for x in (circuit.in_prime, circuit.in_dprime) if x is not None]
    flat_inputs = {x for block in circuit.inputs for x in block}
    ladder = [
        v
        for v in circuit.vertices
        if v not in flat_inputs and v not in specials and v not in circuit.outputs
    ]

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

    def board_slot(base, spread):
        p = vadd(base, vscale(spread, w))
        return p if p[0] >= 0 and p[1] >= 0 else base

    rng = random.Random(seed)
    report = None
    for trial in range(max_tries):
        m = m0 + 2 * (trial // 200)
        pos: dict[str, Vec] = {}
        shared = rng.randint(-2, 2)
        for j, o in enumerate(circuit.outputs):
            pos[o] = vadd(vscale(out_level, u), vscale(j + shared, w))
        if circuit.in_prime is not None:
            pos[circuit.in_prime] = board_slot(u, rng.randint(-1, 1))
        if circuit.in_dprime is not None:
            pos[circuit.in_dprime] = board_slot(vscale(2, u), rng.randint(-2, 2))
        for v in ladder:
            level = out_level - step * max(depth[v], 1)
            pos[v] = vadd(vscale(level, u), vscale(rng.randint(-jitter, jitter), w))
        for i, block in enumerate(circuit.inputs):
            for j, name in enumerate(block):
                pos[name] = vsub(pos[circuit.outputs[j]], vscale(m, spec.betas[i]))
        placement = Placement(pos, m, I, nu)
        report = check_conditions(placement, circuit, spec, variant)
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

    def moves_by_line(self) -> dict[str, tuple]:
        return dict(self.lines)


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


def _module_generators_box(spec: RecurrenceSpec) -> int:
    coords = [abs(c) for b in spec.betas for c in b]
    coords += [abs(c) for g in spec.module.generators for c in g]
    ax, ay = spec.lattice.axis_strides()
    return 2 * max(coords + [1]) + ax + ay + 2


def _minimal_with_growing_box(lat_set, order, box: int):
    while box <= 512:
        try:
            return minimal_elements(lat_set, order, box)
        except IncompleteBoxError:
            box *= 2
    raise IncompleteBoxError("generator enumeration box grew beyond the desk scale")


def beta_intersection_generators(spec: RecurrenceSpec) -> list[Vec]:
    """Module generators of the intersection of all shifted copies beta+L+."""
    basis = (spec.lattice.b1, spec.lattice.b2)
    parts = [
        LatticeSet.inter(
            LatticeSet.orthant(b), LatticeSet.coset(b, basis, 1)
        )
        for b in spec.betas
    ]
    return _minimal_with_growing_box(
        LatticeSet.inter(*parts), spec.lattice, _module_generators_box(spec)
    )


def emit_ruleset(
    placement: Placement,
    circuit: NorCircuit,
    spec: RecurrenceSpec,
    variant: str = "C",
    core_only: bool = False,
    enc: Encoding | None = None,
    check: bool = True,
) -> CompiledGame:
    """Emit the labelled move lines for a checked placement.

    core_only restricts to the wire moves and the two slice blocks (the
    published subset); otherwise the control lines for the chosen variant are
    added, and variant A additionally carries a defeated set.  The result
    carries its pointedness witness; a ruleset that is not pointed raises
    EmissionError with the Farkas certificate.
    """
    check_variant(variant)
    pl = placement
    if check:
        report = check_conditions(pl, circuit, spec, variant)
        if not report.ok():
            raise EmissionError(
                f"placement fails conditions {report.failures()}", report
            )
    mL = spec.lattice.scale(pl.m)
    labels = mL.class_labels
    I = np.array(pl.staircase, dtype=np.int64)
    pos = pl.pos
    V = list(circuit.vertices)
    gates = np.array([pos[v] for v in V], dtype=np.int64)
    F = np.array(enumerate_F(spec.lattice, pl.m), dtype=np.int64)
    f_minus_i = (F[:, None] - I).reshape(-1, 2)

    lines: dict[str, tuple] = {}
    wires = {
        (d[0], d[1], 0)
        for (t, h) in circuit.edges
        if t != circuit.in_dprime
        for d in (vsub(pos[h], pos[t]),)
    }
    lines[LINE_WIRES] = tuple(sorted(wires))

    # slice 0: f - i unless congruent to a staircase or a gate difference
    forbidden = np.concatenate([labels(I[:, None] - I), labels(gates[:, None] - gates)])
    slice0 = f_minus_i[~np.isin(labels(f_minus_i), forbidden)]
    lines[LINE_SLICE0] = _plane_line(slice0, 0)

    # slice 1: -m beta + f - i unless some p + i is congruent to a gate
    slice1 = []
    for b in spec.betas:
        p = f_minus_i - pl.m * np.array(b, dtype=np.int64)
        hits = np.isin(labels(p[:, None] + I), labels(gates)).reshape(len(p), len(I))
        slice1.append(p[~hits.any(axis=1)])
    lines[LINE_SLICE1] = _plane_line(np.concatenate(slice1), 1)

    defeated = None
    if not core_only:
        if circuit.in_prime is None:
            raise EmissionError(
                "full emission needs the extended circuit; run extend_circuit first"
            )
        ip = pos[circuit.in_prime]
        b_prime = beta_intersection_generators(spec)
        lines[LINE_IN_PRIME] = tuple(
            sorted(
                (ip[0] + pl.m * g[0], ip[1] + pl.m * g[1], 1) for g in b_prime
            )
        )
        lines[LINE_TANGENT] = ((0, 0, 2),)
        if variant == "B":
            if circuit.in_dprime is None:
                raise EmissionError("variant B needs the in'' vertex in the circuit")
            if enc is None:
                raise EmissionError("variant B emission needs the symbol encoding")
            ind = pos[circuit.in_dprime]
            b_dprime = positive_generators(spec.lattice)
            lines[LINE_IN_DPRIME] = tuple(
                sorted(
                    (ind[0] + pl.m * g[0], ind[1] + pl.m * g[1], 1) for g in b_dprime
                )
            )
            initial = set()
            feeders = set()
            for t, h in circuit.edges:
                if h in circuit.outputs and t != circuit.in_dprime:
                    feeders.add(t)
            for g in spec.module.generators:
                for t in feeders:
                    d = vadd(vsub(pos[t], ind), vscale(pl.m, g))
                    initial.add((d[0], d[1], 0))
                for j, o in enumerate(circuit.outputs):
                    if enc.encode(spec.f0[g])[j] == "N":
                        d = vadd(vsub(pos[o], ind), vscale(pl.m, g))
                        initial.add((d[0], d[1], 0))
            lines[LINE_INITIAL] = tuple(sorted(initial))
        if variant == "A":
            if enc is None:
                raise EmissionError("variant A emission needs the symbol encoding")
            defeated = emit_defeated(pl, spec, enc, circuit)

    moves = [m for line in lines.values() for m in line]
    game = GameSpec(Ruleset(3, moves), defeated)
    assert set(game.ruleset.moves) == set(moves)
    witness = engine.check_pointedness(game.ruleset)
    if isinstance(witness, Infeasible):
        raise EmissionError(
            "the emitted ruleset is not pointed: no positive functional bounds play",
            certificate=witness,
        )
    return CompiledGame(game, pl, circuit, spec, enc, variant, lines, witness)


def _plane_line(points: np.ndarray, z: int) -> tuple:
    """Sorted distinct moves (x, y, z) from an (n, 2) array of (x, y)."""
    return tuple((x, y, z) for x, y in np.unique(points, axis=0).tolist())


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

    class _NonGenerators:
        def contains(self, p):
            return spec.module.contains(p) and not spec.module.is_generator(p)

    # componentwise (full Z^2) order: the cover is a union of plain orthants
    nongens = _minimal_with_growing_box(
        _NonGenerators(), Z2, _module_generators_box(spec)
    )
    covered = LatticeSet.union(
        *[LatticeSet.orthant(vscale(placement.m, g)) for g in nongens]
    )
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
            line = f"{c.name}: {'ok' if c.ok else 'FAIL'} ({c.checked} points)"
            if not c.ok:
                line += f"  first failure: {c.failure}"
            out.append(line)
        return "\n".join(out)


def _lattice_points_below(lattice, m, nu, bound):
    """Points of L+ whose scaled pairing with nu stays within the bound."""
    pts = []
    for x in range(bound // (m * nu[0]) + 1):
        for y in range(bound // (m * nu[1]) + 1):
            if m * dot(nu, (x, y)) <= bound and lattice.contains((x, y)):
                pts.append((x, y))
    return sorted(pts)


def verify_construction(cg: CompiledGame, bound: int) -> VerificationReport:
    """Compare the compiled game's outcomes with the recurrence oracle.

    Four checks over the region where the scaled staircase pairing stays
    within the bound: the slice-0 lattice law, the encoded recurrence values
    at the output gates, and the characterisations of the two control
    vertices.  Defeated output cells read as N bits.
    """
    spec = cg.spec
    pl = cg.placement
    nu = pl.normal
    m = pl.m
    mL = spec.lattice.scale(m)
    label = mL.class_label
    I_labels = {label(p) for p in pl.staircase}
    ells = _lattice_points_below(spec.lattice, m, nu, bound)
    mod_ells = [l for l in ells if spec.module.contains(l)]

    probes: list[Vec] = []
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
        code = grid.code_at((x, y, 0))
        if code == 3:  # defeated cells carry no outcome
            continue
        count += 1
        expect_p = label((x, y)) in I_labels
        if (code == 1) != expect_p:
            failure = ((x, y, 0), "P" if expect_p else "N", grid.outcome_at((x, y, 0)))
            break
    checks.append(CheckOutcome("slice0-lattice-law", failure is None, count, failure))

    if cg.enc is not None:
        count = 0
        failure = None
        for l in mod_ells:
            want = cg.enc.encode(eval_recurrence(spec, l))
            got = []
            for op in out_pos:
                p = (op[0] + m * l[0], op[1] + m * l[1], 1)
                o = grid.outcome_at(p)
                got.append("N" if o is None else o)
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
            p = (ip[0] + m * l[0], ip[1] + m * l[1], 1)
            o = grid.outcome_at(p)
            if o is None:
                continue
            count += 1
            expect_p = any(
                not spec.module.contains(vsub(l, b)) for b in spec.betas
            )
            if cg.variant == "B" and spec.module.is_generator(l):
                # the initial-condition moves hand these positions the
                # P-option (pos(in''),1), so the stored value wins instead
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
            p = (ind[0] + m * l[0], ind[1] + m * l[1], 1)
            o = grid.outcome_at(p)
            if o is None:
                continue
            count += 1
            expect_p = l == (0, 0)
            if (o == "P") != expect_p:
                failure = (l, "P" if expect_p else "N", o)
                break
        checks.append(
            CheckOutcome("in-double-prime-characterisation", failure is None, count, failure)
        )

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
    if pruned is not spec:
        enc_report = validate_encoding(pruned, enc)
        if not enc_report.ok:
            raise ValueError(
                f"encoding rejected after pruning: {'; '.join(enc_report.failures)}"
            )
    circuit = synthesize_nor_circuit(encoded_table(pruned, enc))
    circuit = extend_circuit(circuit, variant)
    placement = search_placement(circuit, pruned, variant, seed, hint=hint)
    return emit_ruleset(placement, circuit, pruned, variant, core_only=core_only, enc=enc)
