"""File formats: rulesets, recurrence specs and placement sidecars.

Everything is JSON with sorted keys and sorted move lists, so identical
objects serialise to identical bytes and compiled artifacts diff cleanly.
Defeated-position sets travel as expression strings in the small prefix
grammar of lattice.parse_set_expr.
"""

from __future__ import annotations

import json
from itertools import product

from .circuits import NorCircuit
from .compiler import CompiledGame, Placement
from .engine import GameSpec, Ruleset
from .lattice import LatticeSet, ModuleIdeal, Sublattice, parse_set_expr
from .recurrence import (
    CAEmbedding,
    Encoding,
    RecurrenceSpec,
    ca_to_recurrence,
    wolfram_rule_table,
)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def game_to_json(game: GameSpec) -> dict:
    out = {
        "dim": game.ruleset.dim,
        "moves": [list(m) for m in game.ruleset.moves],
    }
    if game.has_defeated:
        out["defeated"] = game.defeated.to_expr()
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def game_from_json(obj: dict) -> GameSpec:
    """Build a game from its JSON object; a missing or ill-typed field raises
    ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError("a game file must hold a JSON object")
    dim = obj.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"game field 'dim' must be a positive integer, got {dim!r}")
    moves = obj.get("moves")
    if not isinstance(moves, list) or not all(
        isinstance(m, list) and len(m) == dim and all(_is_int(c) for c in m) for m in moves
    ):
        raise ValueError(f"game field 'moves' must be a list of {dim}-integer lists")
    defeated = obj.get("defeated")
    if defeated is not None and not isinstance(defeated, str):
        raise ValueError(f"game field 'defeated' must be a set expression string, got {defeated!r}")
    rs = Ruleset(dim, [tuple(m) for m in moves])
    return GameSpec(rs, parse_set_expr(defeated) if defeated else None)


def save_game(game: GameSpec, path: str):
    with open(path, "w") as fh:
        fh.write(dumps(game_to_json(game)))


def load_game(path: str) -> GameSpec:
    with open(path) as fh:
        return game_from_json(json.load(fh))


def spec_to_json(spec: RecurrenceSpec, enc: Encoding | None = None, variant: str | None = None) -> dict:
    r = spec.num_args
    rows = list(product(spec.alphabet, repeat=r))
    out = {
        "lattice": [list(spec.lattice.b1), list(spec.lattice.b2)],
        "module_generators": [list(g) for g in spec.module.generators],
        "betas": [list(b) for b in spec.betas],
        "alphabet": list(spec.alphabet),
        "g": [spec.table[row] for row in rows],
        "sigma0": spec.sigma0,
        "f0": [[list(p), s] for p, s in sorted(spec.f0.items())],
    }
    if enc is not None:
        out["encoding"] = {sym: list(bits) for sym, bits in enc.table.items()}
    if variant is not None:
        out["variant"] = variant
    return out


def spec_from_json(obj: dict):
    """Returns (spec, encoding | None, variant | None, ca_embedding | None).

    A {"ca": {rule, word, steps}} block is shorthand for the cellular
    automaton embedding with the standard 0/1 encoding.
    """
    variant = obj.get("variant")
    if "ca" in obj:
        ca = obj["ca"]
        emb = ca_to_recurrence(
            wolfram_rule_table(int(ca["rule"])), "0", str(ca["word"])
        )
        enc = Encoding({"0": ("N",), "1": ("P",)})
        return emb.spec, enc, variant, emb
    lattice = Sublattice(tuple(obj["lattice"][0]), tuple(obj["lattice"][1]))
    module = ModuleIdeal(lattice, [tuple(g) for g in obj["module_generators"]])
    alphabet = tuple(obj["alphabet"])
    betas = [tuple(b) for b in obj["betas"]]
    rows = list(product(alphabet, repeat=len(betas)))
    g_values = obj["g"]
    if len(g_values) != len(rows):
        raise ValueError(
            f"table has {len(g_values)} entries, expected {len(rows)} (row-major "
            "over alphabet^r)"
        )
    table = dict(zip(rows, g_values))
    spec = RecurrenceSpec(
        lattice=lattice,
        module=module,
        betas=betas,
        alphabet=alphabet,
        table=table,
        sigma0=obj["sigma0"],
        f0={tuple(p): s for p, s in obj["f0"]},
    )
    enc = None
    if "encoding" in obj:
        enc = Encoding({sym: tuple(bits) for sym, bits in obj["encoding"].items()})
    return spec, enc, variant, None


def load_spec(path: str):
    with open(path) as fh:
        return spec_from_json(json.load(fh))


def placement_to_json(cg: CompiledGame) -> dict:
    pl = cg.placement
    return {
        "pos": {v: list(p) for v, p in sorted(pl.pos.items())},
        "m": pl.m,
        "staircase": [list(p) for p in pl.staircase],
        "normal": list(pl.normal),
        "variant": cg.variant,
        "outputs": list(cg.circuit.outputs),
        "in_prime": cg.circuit.in_prime,
        "in_dprime": cg.circuit.in_dprime,
        "lines": {name: [list(m) for m in moves] for name, moves in cg.lines.items()},
    }


def compiled_from_files(game: GameSpec, sidecar: dict, spec: RecurrenceSpec, enc: Encoding | None) -> CompiledGame:
    """Rebuild the compiled-game record needed for verification.

    Only the output/control vertex positions matter, so the circuit shell
    carries names without gates or wires.
    """
    pl = Placement(
        pos={v: tuple(p) for v, p in sidecar["pos"].items()},
        m=sidecar["m"],
        staircase=[tuple(p) for p in sidecar["staircase"]],
        normal=tuple(sidecar["normal"]),
    )
    outputs = tuple(sidecar["outputs"])
    in_prime = sidecar.get("in_prime")
    in_dprime = sidecar.get("in_dprime")
    vertices = outputs + tuple(v for v in (in_prime, in_dprime) if v is not None)
    shell = NorCircuit(vertices, (), (), outputs, in_prime, in_dprime)
    lines = {
        name: tuple(tuple(m) for m in moves)
        for name, moves in sidecar.get("lines", {}).items()
    }
    return CompiledGame(game, pl, shell, spec, enc, sidecar.get("variant", "C"), lines)


def save_compiled(cg: CompiledGame, out_path: str) -> str:
    """Write the ruleset file and its placement sidecar; returns the sidecar path."""
    save_game(cg.game, out_path)
    sidecar_path = out_path + ".placement.json"
    with open(sidecar_path, "w") as fh:
        fh.write(dumps(placement_to_json(cg)))
    return sidecar_path
