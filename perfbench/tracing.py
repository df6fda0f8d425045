"""Outside-in layer trace for the benchmark.

The library has no spans of its own, so the tracer wraps public attributes of
its modules from here: each wrapped call records a span (name, start, end,
parent span, operation id) in memory, plus the counts of work done that can
be read off its arguments and result.  Count bookkeeping runs in a child span
named ``trace.count``, so it is charged to the tracer and not to the layer
that made the call.

Wrappers take ``*args, **kwargs`` and bind arguments by name, so they keep
working when a parameter such as a backend selector disappears.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from contextlib import contextmanager

import numpy as np

from latticegames import compiler, engine, kernels
from latticegames.engine import Solver
from latticegames.lattice import LatticeSet

# emitted move lines of a variant-B game, in emission order
LINES = ("wires", "slice0", "slice1", "in-prime", "tangent", "in-double-prime", "initial")
# checks made by verify_construction on a variant-B game
VERIFY_CHECKS = (
    "slice0-lattice-law",
    "output-encoding",
    "in-prime-characterisation",
    "in-double-prime-characterisation",
)


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "counts")

    def __init__(self, sid, parent, op, name, start):
        self.id, self.parent, self.op, self.name = sid, parent, op, name
        self.start = start
        self.end = None
        self.counts = {}

    def as_record(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def _region_counts(bound, out):
    """Work counts of one solve_region call, read from its inputs and result."""
    moves = np.asarray(bound["moves"])
    phi = np.asarray(bound["phi"], dtype=np.int64)
    shape = out.shape
    levels = np.zeros(shape, dtype=np.int64)
    for k, n in enumerate(shape):
        axis = [1] * len(shape)
        axis[k] = n
        levels += phi[k] * np.arange(n, dtype=np.int64).reshape(axis)
    solved = out != 0  # cells above the level cap stay unvisited
    n_levels = int(np.count_nonzero(np.bincount(levels[solved])))
    return {
        "region_cells": int(np.count_nonzero(solved)),
        "box_cells": int(out.size),
        "levels": n_levels,
        "moves": int(moves.shape[0]),
        "p_cells": int(np.count_nonzero(out == kernels.CODE_P)),
        "level_move_batches": n_levels * int(moves.shape[0]),
    }


def _emission_counts(bound, cg):
    counts = {"moves": len(cg.game.ruleset)}
    for line in LINES:
        counts["moves." + line] = len(cg.lines.get(line, ()))
    return counts


# (owner, attribute, span name, before(bound) -> state, count(bound, result, state) -> dict)
TARGETS = (
    (kernels, "solve_region", "kernels.solve_region", None,
     lambda b, r, s: _region_counts(b, r)),
    (engine, "check_pointedness", "engine.check_pointedness", None,
     lambda b, r, s: {"rows": b["rs"].dim + len(b["rs"].moves)}),
    (Solver, "solve_window", "engine.solve_window", None, None),
    (Solver, "outcome", "engine.outcome", lambda b: len(b["self"].memo),
     lambda b, r, s: {"positions": len(b["self"].memo) - s}),
    (engine, "periodicity_probe", "engine.periodicity_probe", None,
     lambda b, r, s: {"pairs": r.pairs_checked}),
    (engine, "equivalence_in_window", "engine.equivalence_in_window", None, None),
    (LatticeSet, "mask", "lattice.mask", None,
     lambda b, r, s: {"cells": int(r.size)}),
    (compiler, "synthesize_nor_circuit", "compiler.synthesize_nor_circuit", None,
     lambda b, r, s: {"gates": len(r.gate_vertices())}),
    (compiler, "search_placement", "compiler.search_placement", None, None),
    (compiler, "check_conditions", "compiler.check_conditions", None, None),
    (compiler, "emit_ruleset", "compiler.emit_ruleset", None,
     lambda b, r, s: _emission_counts(b, r)),
    (compiler, "verify_construction", "compiler.verify_construction", None,
     lambda b, r, s: {"points." + c.name: c.checked for c in r.checks}),
    (compiler, "eval_recurrence", "compiler.eval_recurrence", None, None),
)


class Tracer:
    """Span recorder; ``installed()`` patches the targets for its duration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._clock = time.perf_counter

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, self._clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = self._clock()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span of one workload operation; every span inside carries op_id."""
        self._op = op_id
        span = self._open("op")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def _wrap(self, fn, name, before, count):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            state = before(bound) if before else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                bookkeeping = tracer._open("trace.count")
                try:
                    span.counts = count(bound, result, state)
                finally:
                    tracer._close(bookkeeping)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, before, count in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, before, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def layer_metrics(spans, op_id, run_s):
    """Per-layer metrics of one traced operation, from its spans; run_s is the
    operation's traced wall time."""
    mine = [s for s in spans if s.op == op_id]
    dur = {s.id: s.end - s.start for s in mine}
    child_time = dict.fromkeys(dur, 0.0)
    by_id = {s.id: s for s in mine}
    for s in mine:
        if s.parent is not None:
            child_time[s.parent] += dur[s.id]
    self_time = {i: dur[i] - child_time[i] for i in dur}

    def total(name, how=dur):
        return sum(how[s.id] for s in mine if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in mine if s.name == name)

    def calls(name):
        return sum(1 for s in mine if s.name == name)

    m = {}
    region = "kernels.solve_region"
    m["kernels.solve_region_s"] = total(region)
    for key in ("region_cells", "box_cells", "levels", "moves", "p_cells", "level_move_batches"):
        m["kernels." + key] = count(region, key)
    m["kernels.p_share"] = m["kernels.p_cells"] / max(m["kernels.region_cells"], 1)
    m["kernels.cells_per_s"] = m["kernels.region_cells"] / m["kernels.solve_region_s"] if m["kernels.solve_region_s"] else 0.0

    m["engine.pointedness_s"] = total("engine.check_pointedness")
    m["engine.pointedness_calls"] = calls("engine.check_pointedness")
    m["engine.pointedness_rows"] = count("engine.check_pointedness", "rows")
    m["engine.solve_window_self_s"] = total("engine.solve_window", self_time)
    m["lattice.mask_s"] = total("lattice.mask")
    m["lattice.mask_cells"] = count("lattice.mask", "cells")
    m["engine.topdown_s"] = total("engine.outcome")
    m["engine.topdown_positions"] = count("engine.outcome", "positions")
    m["engine.probe_s"] = total("engine.periodicity_probe")
    m["engine.probe_calls"] = calls("engine.periodicity_probe")
    m["engine.probe_pairs"] = count("engine.periodicity_probe", "pairs")
    m["engine.equivalence_self_s"] = total("engine.equivalence_in_window", self_time)

    m["compiler.synthesis_s"] = total("compiler.synthesize_nor_circuit")
    m["compiler.gates"] = count("compiler.synthesize_nor_circuit", "gates")
    m["compiler.placement_s"] = total("compiler.search_placement")
    tries = sum(
        1 for s in mine
        if s.name == "compiler.check_conditions"
        and by_id[s.parent].name == "compiler.search_placement"
    )
    m["compiler.placement_tries"] = tries
    m["compiler.placement_accept_share"] = calls("compiler.search_placement") / tries if tries else 0.0
    m["compiler.emission_s"] = total("compiler.emit_ruleset")
    m["compiler.moves"] = count("compiler.emit_ruleset", "moves")
    for line in LINES:
        m["compiler.moves." + line] = count("compiler.emit_ruleset", "moves." + line)
    m["compiler.verify_self_s"] = total("compiler.verify_construction", self_time)
    for check in VERIFY_CHECKS:
        m["compiler.verify_points." + check] = count("compiler.verify_construction", "points." + check)
    m["recurrence.eval_s"] = total("compiler.eval_recurrence")
    m["recurrence.eval_calls"] = calls("compiler.eval_recurrence")

    m["trace.count_s"] = total("trace.count")
    m["trace.spans"] = len(mine)
    # the "op" root span covers the operation, so self times add up to run_s
    # except for the cost of entering and leaving the root span
    m["trace.self_gap_s"] = run_s - sum(self_time.values())
    return m


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def median_metrics(per_op):
    """Median of each metric over the traced operations."""
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
