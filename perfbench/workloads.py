"""The three benchmark workloads: inputs from a seed, the timed operation, and
the correctness checks against references kept apart from the library.

Each workload has
  build(seed) -> inputs     fresh inputs; the same seed gives the same inputs
  digest(inputs) -> dict    fingerprint of the generated inputs
  run(inputs, stages) -> out    the timed operation; stage times go in stages
  check(inputs, out, checks) -> dict    compares out with the references and
                                        returns the output fingerprint

Inputs are rebuilt before every operation, because the library memoises on
its input objects (the recurrence spec, the solver) and a warm memo would
make later operations cheaper than a user's first.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

from latticegames import compiler, engine
from latticegames.builtin import paper_gamma, paper_gamma_prime
from latticegames.engine import CODE_DEFEATED, CODE_N, CODE_P, GameSpec, Solver
from latticegames.lattice import LatticeSet
from latticegames.recurrence import Encoding, ca_to_recurrence, wolfram_rule_table
from speed import work_clock
from tracing import VERIFY_CHECKS


class Checks:
    """Tally of correctness checks; every failure is counted, none dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name, attempted, failed, detail=""):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.failures.append(f"{name}: {failed} of {attempted} failed {detail}".rstrip())


def _timed(stages, name, fn, *args, **kwargs):
    t0 = work_clock()
    out = fn(*args, **kwargs)
    stages[name] = stages.get(name, 0.0) + work_clock() - t0
    return out


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- gasket: the paper's headline figure --------------------------------------

GASKET_WINDOW = (768, 768, 1)
GASKET_SPAN = 128  # gasket points (6i, 6j, 1) with i + j <= 128
STAIRCASE = {(0, 0), (1, 0), (2, 0), (0, 1)}  # slice-0 P cells mod 6


def gasket_build(seed):
    return {"game": GameSpec(paper_gamma_prime())}  # the figure has no free input


def gasket_digest(inputs):
    return {"moves": len(inputs["game"].ruleset), "ruleset": _sha(inputs["game"].ruleset.moves)}


def gasket_run(inputs, stages):
    return _timed(stages, "solve_s", Solver(inputs["game"]).solve_window, GASKET_WINDOW)


def gasket_check(inputs, grid, checks):
    data = grid.data
    # Lucas: C(i+j, i) is odd exactly where the gasket has a P position
    ij = [(i, j) for i in range(GASKET_SPAN + 1) for j in range(GASKET_SPAN + 1 - i)]
    want = np.array([math.comb(i + j, i) % 2 == 1 for i, j in ij])
    codes = np.array([data[6 * i, 6 * j, 1] for i, j in ij])
    bad = np.flatnonzero(((codes == CODE_P) != want) | ((codes != CODE_P) & (codes != CODE_N)))
    checks.add("gasket-lucas", len(ij), bad.size, f"first at {ij[bad[0]]}" if bad.size else "")

    # slice 0 repeats the staircase with period 6 in both axes
    r = np.arange(GASKET_WINDOW[0] + 1) % 6
    c = np.arange(GASKET_WINDOW[1] + 1) % 6
    tile = np.zeros((6, 6), dtype=bool)
    for x, y in STAIRCASE:
        tile[x, y] = True
    want0 = tile[r[:, None], c[None, :]]
    got0 = data[:, :, 0]
    bad0 = ((got0 == CODE_P) != want0) | ((got0 != CODE_P) & (got0 != CODE_N))
    n_bad = int(np.count_nonzero(bad0))
    first = tuple(int(v) for v in np.argwhere(bad0)[0]) if n_bad else None
    checks.add("gasket-staircase", want0.size, n_bad, f"first at {first}")
    return {"p_cells": int(np.count_nonzero(data == CODE_P)), "gasket_points": len(ij)}


# -- ca-verify: compile rule 110 and verify it against the recurrence ---------

CA_RULE = 110
# every operation compiles the same placement seeds, so compile time does not
# swing with the run seed (one seed's search takes 2 to 110 tries); the run
# seed picks which of these compiled games is verified
CA_PLACEMENT_SEEDS = (0, 1, 2, 3)
CA_BOUND_IN_M = 4  # the smallest bound in units of m at which output-encoding checks points


def ca_build(seed):
    emb = ca_to_recurrence(wolfram_rule_table(CA_RULE), "0", "1")
    enc = Encoding({"0": ("N",), "1": ("P",)})
    return {"spec": emb.spec, "enc": enc, "verify": CA_PLACEMENT_SEEDS[seed % len(CA_PLACEMENT_SEEDS)]}


def ca_digest(inputs):
    spec = inputs["spec"]
    return {
        "rule": CA_RULE,
        "table": _sha(sorted(["".join(k), v] for k, v in spec.table.items())),
        "generators": len(spec.module.generators),
        "placement_seeds": list(CA_PLACEMENT_SEEDS),
        "verified_seed": inputs["verify"],
    }


def ca_run(inputs, stages):
    games = {}
    for s in CA_PLACEMENT_SEEDS:
        games[s] = _timed(
            stages, "compile_s", compiler.compile_recurrence,
            inputs["spec"], inputs["enc"], variant="B", seed=s,
        )
    cg = games[inputs["verify"]]
    report = _timed(stages, "verify_s", compiler.verify_construction, cg, bound=CA_BOUND_IN_M * cg.placement.m)
    return games, report


def ca_check(inputs, out, checks):
    games, report = out
    # verify_construction compares the game's outcomes with eval_recurrence;
    # each of its four checks must run on at least one point and pass
    seen = {c.name: c for c in report.checks}
    for name in VERIFY_CHECKS:
        c = seen.get(name)
        ok = c is not None and c.ok and c.checked > 0
        checks.add(f"verify:{name}", 1, 0 if ok else 1, f"{c}")
    return {
        "games": {
            str(s): {
                "m": cg.placement.m,
                "moves": len(cg.game.ruleset),
                "lines": {k: len(v) for k, v in cg.lines.items()},
            }
            for s, cg in games.items()
        },
        "verify_points": {c.name: c.checked for c in report.checks},
    }


# -- oracle: point queries, probes and a defeated mask -------------------------

PROBE_WINDOW = (96, 96, 1)
PROBE_RANGE = 12  # slice-1 candidates (a, b) with |a|, |b| <= 12
EQUIV_WINDOW = (36, 36, 1)
DEFEATED_WINDOW = (48, 48, 1)
DEFEATED_POINTS = 500


def oracle_build(seed):
    rng = random.Random(seed)
    points = set()
    while len(points) < DEFEATED_POINTS:
        points.add(tuple(rng.randint(0, DEFEATED_WINDOW[k]) for k in range(3)))
    points = sorted(points)
    return {
        "gamma": GameSpec(paper_gamma()),
        "gamma_prime": GameSpec(paper_gamma_prime()),
        "defeated": points,
        "holed": GameSpec(paper_gamma_prime(), LatticeSet.finite(points)),
    }


def oracle_digest(inputs):
    return {"defeated": len(inputs["defeated"]), "points": _sha(inputs["defeated"])}


def oracle_run(inputs, stages):
    grid = _timed(stages, "solve_s", Solver(inputs["gamma_prime"]).solve_window, PROBE_WINDOW)
    t0 = work_clock()
    aperiodic = {}
    for a in range(-PROBE_RANGE, PROBE_RANGE + 1):
        for b in range(-PROBE_RANGE, PROBE_RANGE + 1):
            if (a, b) != (0, 0):
                aperiodic[a, b] = engine.periodicity_probe(grid, 1, ((1, 0), (1, 1)), (a, b))
    periodic = {ell: engine.periodicity_probe(grid, 0, ((1, 0), (0, 1)), ell) for ell in ((6, 0), (0, 6))}
    equiv = engine.equivalence_in_window(inputs["gamma"], inputs["gamma_prime"], EQUIV_WINDOW)
    stages["probe_s"] = work_clock() - t0
    solver = Solver(inputs["holed"])
    bottom_up = _timed(stages, "solve_s", solver.solve_window, DEFEATED_WINDOW)
    top_down = _timed(stages, "topdown_s", solver.solve_window, DEFEATED_WINDOW, mode="top-down")
    return aperiodic, periodic, equiv, bottom_up, top_down, len(solver.memo)


def oracle_check(inputs, out, checks):
    aperiodic, periodic, equiv, bottom_up, top_down, memo = out
    # criterion 8: no period on slice 1, periods (6,0) and (0,6) on slice 0
    bad = [ell for ell, r in aperiodic.items() if r.periodic or r.witness is None]
    checks.add("probe-aperiodic", len(aperiodic), len(bad), f"periodic at {bad[:3]}")
    bad = [ell for ell, r in periodic.items() if not r.periodic or r.pairs_checked == 0]
    checks.add("probe-periodic", len(periodic), len(bad), f"not periodic at {bad}")
    checks.add("gamma-equivalence", 1, 0 if equiv.equal else 1, f"{equiv}")
    # the top-down memo is the reference for the bottom-up sweep
    diff = int(np.count_nonzero(bottom_up.data != top_down.data))
    checks.add("topdown-agreement", bottom_up.data.size, diff)
    # defeated cells are exactly the generated points
    want = np.zeros(bottom_up.data.shape, dtype=bool)
    for p in inputs["defeated"]:
        want[p] = True
    diff = int(np.count_nonzero((bottom_up.data == CODE_DEFEATED) != want))
    checks.add("defeated-cells", want.size, diff)
    return {
        "probe_pairs": sum(r.pairs_checked for r in (*aperiodic.values(), *periodic.values())),
        "defeated_cells": int(np.count_nonzero(bottom_up.data == CODE_DEFEATED)),
        "holed_p_cells": int(np.count_nonzero(bottom_up.data == CODE_P)),
        "topdown_positions": memo,
    }


WORKLOADS = {
    "gasket": (gasket_build, gasket_digest, gasket_run, gasket_check),
    "ca-verify": (ca_build, ca_digest, ca_run, ca_check),
    "oracle": (oracle_build, oracle_digest, oracle_run, oracle_check),
}
