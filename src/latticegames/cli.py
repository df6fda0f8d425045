"""Command-line interface.

Subcommands: axioms, solve, render, compile, verify, probe, equiv, oracle,
builtin.  Exit codes: 0 success, 1 check failure, 2 usage error.  All output
is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import builtin, io
from .compiler import compile_recurrence, verify_construction
from .engine import (
    GameSpec,
    Infeasible,
    Solver,
    check_pointedness,
    check_tangent_cone,
    equivalence_in_window,
    periodicity_probe,
    solve_window,
)
from .kernels import CODE_N, CODE_P
from .recurrence import binom_parity_oracle, eval_recurrence
from .render import render_grid

import numpy as np


def _parse_vec(text: str, dim: int | None = None) -> tuple:
    try:
        v = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if dim is not None and len(v) != dim:
        raise argparse.ArgumentTypeError(f"expected {dim} comma-separated integers, got {text!r}")
    return v


def _load_game(name_or_path: str) -> GameSpec:
    if name_or_path in builtin.BUILTIN_RULESETS:
        return builtin.paper_game(name_or_path)
    return io.load_game(name_or_path)


def _emit(data: bytes, out_path: str | None):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("ascii"))


def cmd_axioms(args) -> int:
    game = _load_game(args.ruleset)
    rs = game.ruleset
    result = check_pointedness(rs)
    failed = False
    if isinstance(result, Infeasible):
        failed = True
        print("pointedness: infeasible")
        print(f"  certificate rhs: {result.combined_rhs}")
        for idx, lam in result.multipliers:
            print(f"  multiplier {lam} on constraint {idx}")
    else:
        phi = result.as_integer()
        print(f"pointedness: witness {phi}")
        print(f"  min move pairing: {min(sum(a*b for a, b in zip(phi, m)) for m in rs.moves)}")
    for rep in check_tangent_cone(rs):
        status = "pass" if rep.passed else "fail"
        extra = f" witness {rep.witness}" if rep.witness else ""
        print(f"tangent-cone surrogate (advisory), axis {rep.axis}: {status}{extra}")
        if not rep.passed:
            failed = True
    return 1 if failed else 0


def _solve_cmd(args, default_format: str) -> int:
    game = _load_game(args.ruleset)
    grid = solve_window(game, args.window)
    slice_index = args.slice if len(args.window) == 3 else None
    fmt = args.format or default_format
    data = render_grid(grid, slice_index, fmt, args.highlight)
    _emit(data, args.output)
    return 0


def cmd_solve(args) -> int:
    return _solve_cmd(args, "text")


def cmd_render(args) -> int:
    return _solve_cmd(args, "pbm")


def cmd_compile(args) -> int:
    with open(args.spec) as fh:
        obj = json.load(fh)
    spec, enc, variant, _emb = io.spec_from_json(obj)
    if enc is None:
        print("spec file carries no encoding table", file=sys.stderr)
        return 1
    variant = args.variant or variant or "C"
    hint = None
    if args.hint:
        with open(args.hint) as fh:
            hint = io.placement_from_json(json.load(fh))
    cg = compile_recurrence(
        spec, enc, variant=variant, seed=args.seed, core_only=args.core_only, hint=hint
    )
    sidecar = io.save_compiled(cg, args.output)
    print(f"wrote {args.output} ({len(cg.game.ruleset.moves)} moves) and {sidecar}")
    return 0


def cmd_verify(args) -> int:
    game = _load_game(args.ruleset)
    with open(args.spec) as fh:
        spec, enc, _variant, _emb = io.spec_from_json(json.load(fh))
    sidecar_path = args.placement or args.ruleset + ".placement.json"
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    from .recurrence import prune_unused_arguments

    pruned, _ = prune_unused_arguments(spec)
    cg = io.compiled_from_files(game, sidecar, pruned, enc)
    report = verify_construction(cg, args.bound)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_probe(args) -> int:
    game = _load_game(args.ruleset)
    window = args.window + (game.ruleset.dim - 2) * (args.slice,)
    grid = solve_window(game, window)
    cone = args.cone
    candidates = []
    if args.ell is not None:
        candidates.append(args.ell)
    else:
        r = args.max_period
        candidates = [
            (a, b)
            for a in range(-r, r + 1)
            for b in range(-r, r + 1)
            if (a, b) != (0, 0)
        ]
    for ell in candidates:
        res = periodicity_probe(grid, args.slice, cone, ell)
        if res.periodic:
            print(f"periodic {ell} ({res.pairs_checked} pairs)")
        else:
            print(f"violation {ell} at {res.witness}: {res.outcomes[0]} vs {res.outcomes[1]}")
    return 0


def cmd_equiv(args) -> int:
    g1 = _load_game(args.ruleset1)
    g2 = _load_game(args.ruleset2)
    rep = equivalence_in_window(g1, g2, args.window)
    if rep.equal:
        print("equal")
        return 0
    print(f"differs at {rep.first_difference}: {rep.outcomes[0]} vs {rep.outcomes[1]}")
    return 1


def cmd_oracle(args) -> int:
    nx, ny = args.window
    codes = np.zeros((nx + 1, ny + 1), dtype=np.uint8)
    if args.which == "binom-parity":
        value = binom_parity_oracle
    else:
        spec = builtin.xor_recurrence()
        value = lambda i, j: eval_recurrence(spec, (i, j))  # noqa: E731
    for i in range(nx + 1):
        for j in range(ny + 1):
            codes[i, j] = CODE_P if value(i, j) == "P" else CODE_N
    from .engine import OutcomeGrid

    data = render_grid(OutcomeGrid((nx, ny), codes), None, "text", None)
    _emit(data, args.output)
    return 0


def cmd_builtin(args) -> int:
    game = builtin.paper_game(args.name)
    data = io.dumps(io.game_to_json(game)).encode("ascii")
    _emit(data, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticegames",
        description="Exact lattice-game solving and recurrence-to-ruleset compilation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="check pointedness and the tangent-cone surrogate")
    p.add_argument("ruleset", help="ruleset file or builtin name")
    p.set_defaults(fn=cmd_axioms)

    for name, fn, help_text in (
        ("solve", cmd_solve, "solve a window and print it (text by default)"),
        ("render", cmd_render, "solve a window and render an image (pbm by default)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("ruleset")
        p.add_argument("--window", type=_parse_vec, required=True, metavar="X,Y[,Z]")
        p.add_argument("--slice", type=int, default=0, help="fixed last coordinate for 3-D grids")
        p.add_argument("--format", choices=("text", "pbm", "svg"))
        p.add_argument("--highlight", type=int, metavar="M",
                       help="restrict to positions with both coordinates multiples of M")
        p.add_argument("-o", "--output")
        p.set_defaults(fn=fn)

    p = sub.add_parser("compile", help="compile a recurrence spec into a ruleset")
    p.add_argument("spec")
    p.add_argument("--variant", choices=("A", "B", "C"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--core-only", action="store_true")
    p.add_argument("--hint", help="placement sidecar to try before searching")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("verify", help="verify a compiled ruleset against its recurrence")
    p.add_argument("ruleset")
    p.add_argument("--spec", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--placement", help="sidecar path (default: <ruleset>.placement.json)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("probe", help="probe a slice for translation periodicity")
    p.add_argument("ruleset")
    p.add_argument("--slice", type=int, default=0)
    p.add_argument("--cone", type=lambda s: tuple(_parse_vec(part, 2) for part in s.split(":")),
                   default=((1, 0), (0, 1)), metavar="RX,RY:SX,SY")
    p.add_argument("--window", type=lambda s: _parse_vec(s, 2), required=True, metavar="X,Y")
    p.add_argument("--max-period", type=int, default=6)
    p.add_argument("--l", dest="ell", type=lambda s: _parse_vec(s, 2), metavar="LX,LY",
                   help="probe a single candidate period")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("equiv", help="compare P-position sets of two rulesets on a window")
    p.add_argument("ruleset1")
    p.add_argument("ruleset2")
    p.add_argument("--window", type=_parse_vec, required=True, metavar="X,Y,Z")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("oracle", help="print a reference outcome grid")
    p.add_argument("which", choices=("binom-parity", "xor"))
    p.add_argument("--window", type=lambda s: _parse_vec(s, 2), required=True, metavar="X,Y")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("builtin", help="write a builtin ruleset file")
    p.add_argument("name", choices=sorted(builtin.BUILTIN_RULESETS))
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_builtin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
