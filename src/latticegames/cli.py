"""Command-line interface.

Subcommands: axioms, solve, render, compile, verify, probe, equiv, oracle,
builtin.  Exit codes: 0 success, 1 check failure, 2 usage error.  All output
is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product

from . import builtin, io
from .circuits import VARIANTS
from .compiler import compile_recurrence, verify_construction
from .engine import (
    GameSpec,
    Infeasible,
    OutcomeGrid,
    Solver,
    check_plane,
    check_pointedness,
    check_tangent_cone,
    equivalence_in_window,
    periodicity_probe,
)
from .kernels import CODE_N, CODE_P, check_memory
from .lattice import as_vec
from .recurrence import binom_parity_oracle, eval_recurrence
from .render import FORMATS, render_grid

import numpy as np


def _parse_vec(text: str, dim: int | None = None) -> tuple:
    try:
        v = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if dim is not None and len(v) != dim:
        raise argparse.ArgumentTypeError(f"expected {dim} comma-separated integers, got {text!r}")
    return v


def _parse_cone(text: str) -> tuple:
    rays = tuple(_parse_vec(part, 2) for part in text.split(":"))
    if len(rays) != 2:
        raise argparse.ArgumentTypeError(f"expected two rays RX,RY:SX,SY, got {text!r}")
    return rays


def _parse_period(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _load_game(name_or_path: str) -> GameSpec:
    if name_or_path in builtin.BUILTIN_RULESETS:
        return builtin.paper_game(name_or_path)
    return io.load_game(name_or_path)


def _emit(data: bytes, out_path: str | None):
    """Write data to out_path, or else to stdout as bytes: only a stdout
    with no byte buffer beneath it (such as io.StringIO) gets a decoded copy."""
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text printed before goes first
        sys.stdout.buffer.write(data)
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
        if rs.moves:
            print(f"  min move pairing: {min(sum(a*b for a, b in zip(phi, m)) for m in rs.moves)}")
    for rep in check_tangent_cone(rs):
        status = "pass" if rep.passed else "fail"
        extra = f" witness {rep.witness}" if rep.witness else ""
        print(f"tangent-cone surrogate (advisory), axis {rep.axis}: {status}{extra}")
        if not rep.passed:
            failed = True
    return 1 if failed else 0


def cmd_solve(args) -> int:
    game = _load_game(args.ruleset)
    check_plane(as_vec(args.window, game.ruleset.dim), args.slice)  # before the solve, which grows with the window
    grid = Solver(game).solve_window(args.window)
    data = render_grid(grid, args.slice, args.format, args.highlight)
    _emit(data, args.output)
    return 0


def cmd_compile(args) -> int:
    spec, enc, variant, _emb = io.load_spec(args.spec)
    variant = args.variant or variant or "C"
    cg = compile_recurrence(spec, enc, variant=variant, seed=args.seed)
    sidecar = io.save_compiled(cg, args.output)
    print(f"wrote {args.output} ({len(cg.game.ruleset)} moves) and {sidecar}")
    return 0


def cmd_verify(args) -> int:
    game = _load_game(args.ruleset)
    spec, enc, variant, _emb = io.load_spec(args.spec)
    sidecar_path = args.placement or args.ruleset + ".placement.json"
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    cg = io.compiled_from_files(game, sidecar, spec, enc)
    if variant is not None and variant != cg.variant:
        raise ValueError(f"the spec names variant {variant}, but the game is variant {cg.variant}")
    report = verify_construction(cg, args.bound)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_probe(args) -> int:
    game = _load_game(args.ruleset)
    window = args.window[: game.ruleset.dim] + (game.ruleset.dim - 2) * (args.slice,)
    check_plane(window, args.slice)  # refused before the solve, which grows with the window
    r = args.max_period
    # a longer candidate has no pairs in the window; the solve refuses a negative bound
    if args.ell is None and 0 <= max(args.window) < r:
        raise ValueError(f"--max-period {r} exceeds the window's largest bound {max(args.window)}")
    grid = Solver(game).solve_window(window)
    cone = args.cone
    candidates = [args.ell] if args.ell is not None else (
        ell for ell in product(range(-r, r + 1), repeat=2) if ell != (0, 0)
    )
    for ell in candidates:
        res = periodicity_probe(grid, args.slice, cone, ell)
        if res.pairs_checked == 0:
            print(f"not checked {ell} (no pairs in the window)")
        elif res.periodic:
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


# traced peak bytes per window cell of `oracle`, with margin: 107-194 for
# xor, which memoises every point, at windows of 41^2 to 300^2, and 3.0-6.3
# for binom-parity at 300^2 to 2000^2 (the grid, its text rendering and the memo)
ORACLE_CELL_BYTES = {"binom-parity": 8, "xor": 200}


def cmd_oracle(args) -> int:
    nx, ny = args.window
    if nx < 0 or ny < 0:
        raise ValueError("window bounds must be nonnegative")
    need = (nx + 1) * (ny + 1) * ORACLE_CELL_BYTES[args.which]
    check_memory(need, f"window {nx},{ny}")
    if args.which == "binom-parity":
        value = binom_parity_oracle
    else:
        spec = builtin.xor_recurrence()
        value = lambda i, j: eval_recurrence(spec, (i, j))  # noqa: E731
    # one pass in C order, no list: binom-parity's grid stays a byte per cell
    codes = np.fromiter((CODE_P if value(i, j) == "P" else CODE_N
                         for i in range(nx + 1) for j in range(ny + 1)),
                        dtype=np.uint8, count=(nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
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

    for name, fmt, help_text in (
        ("solve", "text", "solve a window and print it (text by default)"),
        ("render", "pbm", "solve a window and render an image (pbm by default)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("ruleset")
        p.add_argument("--window", type=_parse_vec, required=True, metavar="X,Y[,Z]")
        p.add_argument("--slice", type=int, default=0, help="fixed last coordinate for 3-D grids")
        p.add_argument("--format", choices=FORMATS, default=fmt)
        p.add_argument("--highlight", type=int, metavar="M",
                       help="restrict to positions with both coordinates multiples of M")
        p.add_argument("-o", "--output")
        p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("compile", help="compile a recurrence spec into a ruleset")
    p.add_argument("spec")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--cone", type=_parse_cone, default=((1, 0), (0, 1)), metavar="RX,RY:SX,SY")
    p.add_argument("--window", type=lambda s: _parse_vec(s, 2), required=True, metavar="X,Y")
    p.add_argument("--max-period", type=_parse_period, default=6)
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
