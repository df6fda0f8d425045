"""File formats: rulesets, recurrence specs and placement sidecars.

Everything is JSON with sorted keys and sorted move lists, so identical
objects serialise to identical bytes and compiled artifacts diff cleanly.
Defeated-position sets travel as expression strings in the small prefix
grammar of lattice.parse_set_expr.
"""

from __future__ import annotations

import json
from itertools import product

from .circuits import NorCircuit, check_variant
from .compiler import CompiledGame, Placement
from .engine import GameSpec, Ruleset
from .lattice import INT64, LatticeSet, ModuleIdeal, Sublattice, parse_set_expr
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
        "moves": game.ruleset.array.tolist(),
    }
    if game.has_defeated:
        out["defeated"] = game.defeated.to_expr()
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x in INT64


def _vec(dim: int = 2):
    return (
        lambda x: isinstance(x, list) and len(x) == dim and all(_is_int(c) for c in x),
        f"a list of {dim} int64 integers",
    )


def _list_of(kind):
    ok, what = kind
    return lambda x: isinstance(x, list) and all(ok(v) for v in x), f"a list, each {what}"


def _map_of(kind):
    ok, what = kind
    return (
        lambda x: isinstance(x, dict) and all(ok(v) for v in x.values()),
        f"an object, each value {what}",
    )


_INT = (_is_int, "an int64 integer")
_STR = (lambda x: isinstance(x, str), "a string")
_STRS = _list_of(_STR)
_VECS = _list_of(_vec())
_BASIS = (lambda x: _VECS[0](x) and len(x) == 2, "two lists of 2 int64 integers")
_F0_ENTRY = (
    lambda e: isinstance(e, list) and len(e) == 2 and _vec()[0](e[0]) and isinstance(e[1], str),
    "a [list of 2 int64 integers, symbol] pair",
)


def _field(obj, kind: str, name: str, type_, optional: bool = False):
    """obj[name], checked against type_ = (predicate, description); a
    missing or ill-typed field raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"a {kind} must be a JSON object")
    value = obj.get(name)
    if value is None and optional:
        return None
    ok, what = type_
    if not ok(value):
        raise ValueError(f"{kind} field {name!r} must be {what}, got {value!r}")
    return value


def game_from_json(obj: dict) -> GameSpec:
    """Build a game from its JSON object; a missing or ill-typed field raises
    ValueError naming the field."""
    dim = _field(obj, "game", "dim", (lambda x: _is_int(x) and x >= 1, "a positive integer"))
    moves = _field(obj, "game", "moves", _list_of(_vec(dim)))
    defeated = _field(obj, "game", "defeated", _STR, optional=True)
    rs = Ruleset(dim, moves)
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

    A {"ca": {rule, word}} block is shorthand for the cellular
    automaton embedding with the standard 0/1 encoding.  A missing or
    ill-typed field raises ValueError naming the field.
    """
    variant = _field(obj, "spec", "variant", _STR, optional=True)
    ca = _field(obj, "spec", "ca", (lambda x: isinstance(x, dict), "an object"), optional=True)
    if ca is not None:
        rule = _field(ca, "ca block", "rule", _INT)
        word = _field(ca, "ca block", "word", _STR)
        emb = ca_to_recurrence(wolfram_rule_table(rule), "0", word)
        enc = Encoding({"0": ("N",), "1": ("P",)})
        return emb.spec, enc, variant, emb
    b1, b2 = _field(obj, "spec", "lattice", _BASIS)
    lattice = Sublattice(tuple(b1), tuple(b2))
    gens = _field(obj, "spec", "module_generators", _VECS)
    module = ModuleIdeal(lattice, [tuple(g) for g in gens])
    alphabet = tuple(_field(obj, "spec", "alphabet", _STRS))
    betas = [tuple(b) for b in _field(obj, "spec", "betas", _VECS)]
    rows = list(product(alphabet, repeat=len(betas)))
    g_values = _field(obj, "spec", "g", _STRS)
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
        sigma0=_field(obj, "spec", "sigma0", _STR),
        f0=_initial_values(_field(obj, "spec", "f0", _list_of(_F0_ENTRY))),
    )
    encoding = _field(obj, "spec", "encoding", _map_of(_STRS), optional=True)
    enc = None
    if encoding is not None:
        enc = Encoding({sym: tuple(bits) for sym, bits in encoding.items()})
    return spec, enc, variant, None


def _initial_values(entries) -> dict:
    f0 = {}
    for p, sym in entries:
        if tuple(p) in f0:
            raise ValueError(f"spec field 'f0' gives generator {tuple(p)} more than one value")
        f0[tuple(p)] = sym
    return f0


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


def placement_from_json(sidecar: dict) -> Placement:
    """The placement in a sidecar; a missing or ill-typed field raises
    ValueError naming the field."""
    pos = _field(sidecar, "placement", "pos", _map_of(_vec()))
    return Placement(
        pos={v: tuple(p) for v, p in pos.items()},
        m=_field(sidecar, "placement", "m", _INT),
        staircase=[tuple(p) for p in _field(sidecar, "placement", "staircase", _VECS)],
        normal=tuple(_field(sidecar, "placement", "normal", _vec())),
    )


def compiled_from_files(game: GameSpec, sidecar: dict, spec: RecurrenceSpec, enc: Encoding | None) -> CompiledGame:
    """Rebuild the compiled-game record needed for verification.

    Only the output/control vertex positions matter, so the circuit shell
    carries names without gates or wires.
    """
    pl = placement_from_json(sidecar)
    outputs = tuple(_field(sidecar, "placement", "outputs", _STRS))
    in_prime = _field(sidecar, "placement", "in_prime", _STR, optional=True)
    in_dprime = _field(sidecar, "placement", "in_dprime", _STR, optional=True)
    vertices = outputs + tuple(v for v in (in_prime, in_dprime) if v is not None)
    for v in vertices:
        if v not in pl.pos:
            raise ValueError(f"placement field 'pos' gives no position for vertex {v!r}")
    shell = NorCircuit(vertices, (), (), outputs, in_prime, in_dprime)
    lines = _field(sidecar, "placement", "lines", _map_of(_list_of(_vec(3))), optional=True) or {}
    lines = {name: tuple(tuple(m) for m in moves) for name, moves in lines.items()}
    variant = check_variant(_field(sidecar, "placement", "variant", _STR, optional=True) or "C")
    return CompiledGame(game, pl, shell, spec, enc, variant, lines)


def save_compiled(cg: CompiledGame, out_path: str) -> str:
    """Write the ruleset file and its placement sidecar; returns the sidecar path."""
    save_game(cg.game, out_path)
    sidecar_path = out_path + ".placement.json"
    with open(sidecar_path, "w") as fh:
        fh.write(dumps(placement_to_json(cg)))
    return sidecar_path
