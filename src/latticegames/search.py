"""The search space of the placement search, and its backtracking search.

compiler.search_placement places an extended nor circuit gate by gate:
each slot of SearchSpace (a group of vertices) takes one of its candidate
jitter values in turn, and a value is dropped as soon as the vertices
placed so far fail a condition instance that no later vertex can repair.
The complete placements the search reaches go back to the compiler, whose
check_conditions decides them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .circuits import NorCircuit
from .lattice import Vec, dot, vscale, vsub
from .recurrence import RecurrenceSpec

if TYPE_CHECKING:
    from .compiler import LabelFrame


# the values the placement search may reject at one m before it moves to
# m + 2; values it accepts on the way to a complete placement are free, so a
# circuit with more slots than this is still placed
NODE_BUDGET = 400


@dataclass(frozen=True)
class SlotValues:
    """The candidate values of every slot at one m.  points[s][i] holds the
    points of slot s's vertices under its value i, and codes[s][i] their
    class codes, from one class_labels call.  fill maps a candidate point to
    the last slot that can put a vertex there.  The frame is that of m, the
    staircase and the normal; SearchSpace.extend reads its code arithmetic
    and staircase tables."""

    frame: LabelFrame
    points: list[list[tuple[Vec, ...]]]
    codes: list[list[tuple[int, ...]]]
    fill: dict[Vec, int]


class SearchSpace:
    """The placements compiler.search_placement chooses from, for one circuit
    and spec.

    Gates go on a diagonal ladder ordered by longest path to the outputs (so
    every edge strictly ascends the halfspace), anti-diagonal jitter
    separates residue classes, and inputs sit one scaled shift below their
    output.  A placement is a value for each slot, in search order: the
    outputs with their inputs (one shared jitter), in', in'', then each
    ladder gate in topological order.  Vertices are indexed in that order,
    so the slots placed so far hold a prefix of the vertices.
    """

    def __init__(self, circuit: NorCircuit, spec: RecurrenceSpec):
        nu = self.normal = spec.halfspace_normal
        self.staircase = tuple((i, j) for i in range(nu[1] + 1) for j in range(nu[0] + 1))
        u, w = nu, (nu[1], -nu[0])
        s = circuit.num_bits
        ladder = set(circuit.gate_vertices()) - set(circuit.outputs)

        # the longest path from each vertex to a sink, in one pass from the heads
        order = circuit.order
        depth = dict.fromkeys(order, 0)
        for h in reversed(order):
            for t in circuit.preds[h]:
                depth[t] = max(depth[t], depth[h] + 1)
        max_depth = max((depth[v] for v in ladder), default=0)

        step = 3
        jitter = max(4, len(ladder) + 2)
        out_level = step * (max_depth + 2) + s + 2
        beta_gain = min(dot(nu, b) for b in spec.betas)
        # jitter runs along w, which nu annihilates, so only ladder depth
        # matters for edge ascent; the first bound keeps the outputs inside
        # [0, m)^2 and pushes the input gates off the board
        self.m0 = max(
            (out_level + s + 3) * max(nu) + 2,
            (step * max_depth * dot(nu, nu) + 2) // beta_gain + 2,
        )

        def along_w(base, k):
            return (base[0] + k * w[0], base[1] + k * w[1])

        def on_board(base, spread):
            # a point off the board falls back to the base
            points = (along_w(base, k) for k in range(-spread, spread + 1))
            return [(p,) for p in dict.fromkeys(p if min(p) >= 0 else base for p in points)]

        # the first slot: the outputs under each shared jitter, and the input
        # (output j, shift b) pairs, which values() places at m
        out_base = vscale(out_level, u)
        self._outputs = [tuple(along_w(out_base, j + shared) for j in range(s)) for shared in range(-2, 3)]
        self._feeds = [(j, b) for b, block in zip(spec.betas, circuit.inputs) for j in range(len(block))]
        self.slots = [(*circuit.outputs, *circuit.flat_inputs)]
        # the candidate values of the other slots, which no m changes
        self._later = []
        for v, base, spread in ((circuit.in_prime, u, 1), (circuit.in_dprime, vscale(2, u), 2)):
            if v is not None:
                self.slots.append((v,))
                self._later.append(on_board(base, spread))
        for v in order:
            if v in ladder:
                base = vscale(out_level - step * max(depth[v], 1), u)
                self.slots.append((v,))
                self._later.append([(along_w(base, k),) for k in range(-jitter, jitter + 1)])
        self.vertices = [v for vs in self.slots for v in vs]
        self.ends = list(accumulate(len(vs) for vs in self.slots))
        slot_of = {v: k for k, vs in enumerate(self.slots) for v in vs}
        sx = {v: i for i, v in enumerate(self.vertices)}

        # the edges as (tail, head) vertex indices, in the order of the slot
        # that completes them; the first n_known[k] are known once k slots
        # are placed
        edges = sorted(circuit.edges, key=lambda e: max(slot_of[e[0]], slot_of[e[1]]))
        done = [max(slot_of[t], slot_of[h]) + 1 for t, h in edges]
        self.n_known = [sum(d <= k for d in done) for k in range(len(self.slots) + 1)]
        self.edges = [(sx[t], sx[h]) for t, h in edges]
        self.is_input = [v in circuit.flat_inputs for v in self.vertices]
        self.preds = [{sx[t] for t in circuit.preds[v]} for v in self.vertices]
        self.controls = [sx[x] for x in circuit.controls]
        self.in_dprime = sx.get(circuit.in_dprime)
        self.feed_heads = [sx[h] for h in circuit.in_dprime_heads]

    def values(self, frame: LabelFrame) -> SlotValues:
        """The candidate values of every slot at the frame's m, labelled in
        one call."""
        first = [ps + tuple(vsub(ps[j], vscale(frame.m, b)) for j, b in self._feeds) for ps in self._outputs]
        points = [first, *self._later]
        flat = [p for values in points for value in values for p in value]
        codes = iter(frame.mL.class_labels(flat).tolist())
        fill = {}
        for k, values in enumerate(points):
            fill.update((p, k) for value in values for p in value)
        return SlotValues(frame, points,
                          [[tuple(next(codes) for _ in value) for value in values] for values in points], fill)

    def extend(self, sv: SlotValues, k: int, pts: list[Vec], codes: list[int],
               pending: list) -> tuple[str | None, list]:
        """Decide the condition instances that the k-th slot's vertices
        complete, with the first k slots at points pts and class codes codes
        (the first ends[k - 1] vertices).  pending holds the (c) instances
        that the first k - 1 slots left open, as (vertex, point) pairs.
        Returns the condition that rejects every completion within the
        slots' candidate values, or None and the (c) instances still open.

        Adding vertices never repairs a failing instance of (e), (f) or (g),
        nor a (c) difference realised exactly by a vertex that is no
        in-neighbour, so these are decided as soon as their vertices are
        placed.  A (c) difference with no exact realiser stays open while a
        later slot has a candidate at the point that would realise it.
        """
        fr = sv.frame
        plus, minus = fr.plus, fr.minus
        n = len(codes)
        new = range(self.ends[k - 1] - len(self.slots[k - 1]), n)
        by_code: dict[int, list[int]] = {}
        for i, c in enumerate(codes):
            by_code.setdefault(c, []).append(i)
        edges = self.edges[:self.n_known[k]]
        fresh = self.n_known[k - 1]
        edge_codes = [minus(codes[h], codes[t]) for t, h in edges]
        if any(c in fr.stair_diff_set for c in edge_codes[fresh:]):
            return "f", []

        # (c): the instances (w, e) that a new vertex or edge completes, as w,
        # as the vertex whose difference to w shares e's class, or as e
        cases = [(w, e) for e in range(fresh, len(edges)) for w in range(n)
                 if minus(codes[w], edge_codes[e]) in by_code]
        for x in new:
            for e in range(fresh):
                if minus(codes[x], edge_codes[e]) in by_code:
                    cases.append((x, e))
                cases += ((w, e) for w in by_code.get(plus(codes[x], edge_codes[e]), ()))
        at: dict[Vec, list[int]] = {}
        for i, p in enumerate(pts):
            at.setdefault(p, []).append(i)
        spots = [(w, (pts[w][0] - pts[edges[e][1]][0] + pts[edges[e][0]][0],
                      pts[w][1] - pts[edges[e][1]][1] + pts[edges[e][0]][1]))
                 for w, e in cases if not self.is_input[w]]
        still = []
        for w, spot in spots + pending:
            exact = at.get(spot)
            if exact is None:
                if sv.fill.get(spot, -1) < k:
                    return "c", []
                still.append((w, spot))
            elif not self.preds[w].issuperset(exact):
                return "c", []

        # (g): a control shares a staircase neighbourhood, or an in'' feed
        # difference l0 is a staircase difference or the difference of a
        # pair (v2, w2) outside the classes of in'' and the head
        for c in self.controls:
            if c < n:
                if any(minus(codes[v], codes[c]) in fr.stair_set
                       for v in (range(n) if c in new else new) if v != c):
                    return "g", []
        ind = self.in_dprime
        if ind is not None and ind < n:
            for h in self.feed_heads:
                if h >= n:
                    continue
                l0 = minus(codes[h], codes[ind])
                if ind in new or h in new:
                    if l0 in fr.stair_diff_set or any(
                            codes[v] != codes[ind] and plus(codes[v], l0) in by_code for v in range(n)):
                        return "g", []
                else:
                    # the pairs (x, w2) and (v2, x) of a new vertex x
                    for x in new:
                        ahead, behind = plus(codes[x], l0), minus(codes[x], l0)
                        if (codes[x] != codes[ind] and ahead in by_code) or (
                                behind != codes[ind] and behind in by_code):
                            return "g", []

        # (e): a translate of a displacement set lands on the gate classes;
        # a new landing uses a new class, so its anchors are those of the new
        # classes
        added = {codes[x] for x in new}.difference(codes[:new.start])
        if added:
            anchors = minus(np.array(list(added))[:, None], fr.displacements).ravel()
            if fr.landings(anchors, list(by_code)).any(axis=2).all(axis=1).any():
                return "e", []
        return None, still

    def search(self, sv: SlotValues, rng: random.Random, tally: dict[str, int]):
        """Depth-first search over the slots' values in orders shuffled by
        rng.  Yields each complete placement whose every prefix extend
        accepts, as a vertex -> point dict, for the caller to decide; the
        search goes on only when that placement was rejected.  A value extend
        rejects is counted in tally under the condition that rejected it.
        The search ends when it has rejected NODE_BUDGET values, yielded
        placements included, or tried every value."""
        orders = [rng.sample(range(len(values)), len(values)) for values in sv.points]
        rejected = 0

        def place(k, pts, codes, pending):
            # the values of slot k after the first k slots at pts and codes,
            # which left the (c) instances pending open
            nonlocal rejected
            for value in orders[k]:
                if rejected >= NODE_BUDGET:
                    return
                here, at = [*pts, *sv.points[k][value]], [*codes, *sv.codes[k][value]]
                bad, still = self.extend(sv, k + 1, here, at, pending)
                if bad is None and k + 1 < len(self.slots):
                    yield from place(k + 1, here, at, still)
                    continue
                if bad is None:
                    yield dict(zip(self.vertices, here))
                else:
                    tally[bad] = tally.get(bad, 0) + 1
                rejected += 1

        # one frame per slot, so the depth is the slot count
        yield from place(0, [], [], [])
