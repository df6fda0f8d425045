import contextlib
import io as io_module
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticegames import io
from latticegames.builtin import paper_gamma, paper_gamma_prime, swapped_encoding, xor_recurrence
from latticegames.cli import ORACLE_CELL_BYTES, main
from latticegames.compiler import compile_recurrence, verify_construction
from latticegames.engine import GameSpec
from latticegames.lattice import LatticeSet


def test_game_roundtrip(tmp_path):
    defeated = LatticeSet.finite([(0, 0, 0), (2, 1, 0)])
    game = GameSpec(paper_gamma_prime(), defeated)
    path = tmp_path / "g.json"
    io.save_game(game, str(path))
    back = io.load_game(str(path))
    assert back.ruleset == game.ruleset
    assert back.defeated.to_expr() == game.defeated.to_expr()
    # identical bytes on re-save
    path2 = tmp_path / "g2.json"
    io.save_game(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_spec_roundtrip():
    spec = xor_recurrence()
    enc = swapped_encoding()
    obj = io.spec_to_json(spec, enc, "C")
    spec2, enc2, variant, emb = io.spec_from_json(obj)
    assert variant == "C" and emb is None
    assert spec2.betas == spec.betas
    assert spec2.table == spec.table
    assert spec2.f0 == spec.f0
    assert enc2.table == enc.table


def test_spec_ca_shorthand():
    spec, enc, variant, emb = io.spec_from_json(
        {"ca": {"rule": 90, "word": "1"}, "variant": "B"}
    )
    assert variant == "B"
    assert emb is not None and emb.offset == 2
    assert enc.encode("0") == ("N",)
    assert len(spec.module.generators) == 5


def test_compiled_roundtrip(tmp_path):
    cg = compile_recurrence(xor_recurrence(), swapped_encoding(), variant="C", seed=0)
    out = tmp_path / "xor.game.json"
    sidecar = io.save_compiled(cg, str(out))
    back_game = io.load_game(str(out))
    assert back_game.ruleset == cg.game.ruleset
    side = json.loads(Path(sidecar).read_text())
    back = io.compiled_from_files(back_game, side, cg.spec, cg.enc)
    assert back.placement.pos == cg.placement.pos
    assert back.placement.m == cg.placement.m
    assert back.lines == cg.lines
    # the sidecar's lines come back as int64 arrays, read as Python ints
    assert all(line.dtype == np.int64 for line in back.line_arrays.values())
    assert all(type(c) is int for line in back.lines.values() for m in line for c in m)
    assert back.variant == "C"


def test_cli_builtin(capsys):
    assert main(["builtin", "paper-gamma-prime"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["dim"] == 3
    assert len(obj["moves"]) == 28
    assert "defeated" not in obj
    # byte-identical on a second run
    assert main(["builtin", "paper-gamma-prime"]) == 0
    assert capsys.readouterr().out == out


def test_cli_axioms(capsys, tmp_path):
    assert main(["axioms", "paper-gamma-prime"]) == 0
    out = capsys.readouterr().out
    assert "pointedness: witness" in out
    assert "advisory" in out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 3, "moves": [[1, 0, 0], [-1, 0, 0]]}))
    assert main(["axioms", str(bad)]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_cli_solve_text(capsys):
    assert main(["solve", "paper-gamma-prime", "--window", "11,11,0", "--slice", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 12
    # bottom row is y=0: staircase P-positions at x=0,1,2 then the lattice repeat at 6,7,8
    assert lines[-1] == "###...###..."


def test_cli_solve_gasket_highlight(capsys):
    assert (
        main(
            ["solve", "paper-gamma-prime", "--window", "18,18,1", "--slice", "1", "--highlight", "6"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.splitlines() == ["#...", "##..", "#.#.", "####"]


def test_cli_render_pbm(tmp_path):
    out = tmp_path / "img.pbm"
    assert (
        main(
            ["render", "paper-gamma-prime", "--window", "11,11,1", "--slice", "1", "-o", str(out)]
        )
        == 0
    )
    data = out.read_bytes()
    assert data.startswith(b"P1\n12 12\n")


def test_cli_equiv(capsys, tmp_path):
    assert main(["equiv", "paper-gamma", "paper-gamma-prime", "--window", "15,15,1"]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    weak = tmp_path / "weak.json"
    moves = [list(m) for m in paper_gamma_prime().moves if m != (1, 1, 0)]
    weak.write_text(json.dumps({"dim": 3, "moves": moves}))
    assert main(["equiv", "paper-gamma-prime", str(weak), "--window", "12,12,1"]) == 1
    assert "differs at" in capsys.readouterr().out


def test_cli_probe_single(capsys):
    assert (
        main(
            ["probe", "paper-gamma-prime", "--slice", "0", "--window", "24,24", "--l", "6,0"]
        )
        == 0
    )
    assert capsys.readouterr().out.startswith("periodic (6, 0)")
    assert (
        main(
            [
                "probe", "paper-gamma-prime", "--slice", "1",
                "--cone", "1,0:1,1", "--window", "24,24", "--l", "0,6",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.startswith("violation (0, 6)")
    # --max-period 1 probes the eight l with entries in -1..1
    assert main(["probe", "paper-gamma-prime", "--slice", "0", "--window", "24,24", "--max-period", "1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_cli_probe_reports_candidates_with_no_pairs(capsys):
    args = ["probe", "paper-gamma-prime", "--window", "24,24", "--slice", "1", "--cone", "1,0:1,1"]
    assert main(args + ["--l", "30,30"]) == 0
    assert capsys.readouterr().out == "not checked (30, 30) (no pairs in the window)\n"


@pytest.mark.parametrize("cone", ["1,0", "1,0:1,1:0,1"])
def test_cli_probe_cone_needs_two_rays(capsys, cone):
    args = ["probe", "paper-gamma-prime", "--window", "24,24", "--cone", cone, "--l", "6,0"]
    assert main(args) == 2
    assert "--cone" in capsys.readouterr().err


def test_cli_oracle_consistency(capsys):
    assert main(["oracle", "binom-parity", "--window", "16,16"]) == 0
    a = capsys.readouterr().out
    assert main(["oracle", "xor", "--window", "16,16"]) == 0
    b = capsys.readouterr().out
    assert a == b
    assert a.splitlines()[-1] == "#" * 17  # f(i,0) = P along the axis


@pytest.mark.parametrize("which, cells", [("binom-parity", 300), ("xor", 81)])
def test_oracle_guard_covers_its_traced_peak(tmp_path, traced_peak, which, cells):
    # ORACLE_CELL_BYTES claims the traced peak per window cell, with margin
    out = tmp_path / "grid.txt"
    with traced_peak() as peak:
        assert main(["oracle", which, "--window", f"{cells - 1},{cells - 1}", "-o", str(out)]) == 0
    assert out.stat().st_size == cells * (cells + 1)
    assert peak.bytes <= ORACLE_CELL_BYTES[which] * cells**2


def test_cli_writes_bytes_to_stdout(tmp_path, traced_peak, monkeypatch):
    # stdout gets the bytes -o writes, with no decoded copy of them: the
    # traced peak stays within 1/4 byte per cell of the -o path's (the
    # decoded copy of the output added about 1/2 at this window)
    cells = 400
    args = ["oracle", "binom-parity", "--window", f"{cells - 1},{cells - 1}"]
    assert main(args[:2] + ["--window", "3,3", "-o", str(tmp_path / "warm.txt")]) == 0  # first-call allocations
    with traced_peak() as to_file:
        assert main(args + ["-o", str(tmp_path / "file.txt")]) == 0
    with open(tmp_path / "stdout.txt", "wb") as raw:
        stream = io_module.TextIOWrapper(raw, encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stream)
        print("first")  # text printed before the bytes stays before them
        with traced_peak() as to_stdout:
            assert main(args) == 0
        stream.flush()
        monkeypatch.undo()
        stream.detach()
    want = (tmp_path / "file.txt").read_bytes()
    assert (tmp_path / "stdout.txt").read_bytes() == b"first\n" + want
    assert to_stdout.bytes <= to_file.bytes + cells**2 // 4
    # a stdout with no byte buffer gets the same output as text
    with contextlib.redirect_stdout(io_module.StringIO()) as text:
        assert main(args) == 0
    assert text.getvalue() == want.decode("ascii")


def test_cli_compile_verify(tmp_path, capsys):
    out = tmp_path / "xor.game.json"
    assert main(["compile", "specs/xor.json", "--seed", "0", "-o", str(out)]) == 0
    capsys.readouterr()
    sidecar = tmp_path / "xor.game.json.placement.json"
    assert sidecar.exists()
    side = json.loads(sidecar.read_text())
    m = side["m"]
    assert (
        main(
            ["verify", str(out), "--spec", "specs/xor.json", "--bound", str(6 * m)]
        )
        == 0
    )
    assert "slice0-lattice-law: ok" in capsys.readouterr().out



@pytest.mark.parametrize("bound", ["-5", "10000000"])
def test_cli_verify_negative_bound(tmp_path, capsys, bound):
    out = tmp_path / "xor.game.json"
    assert main(["compile", "specs/xor.json", "--seed", "0", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--spec", "specs/xor.json", "--bound", bound]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bound" in err


def test_cli_verify_fails_unchecked_checks(tmp_path, capsys):
    # rule 90 in variant B at 2m: output-encoding compares no point, which is
    # no pass
    out = tmp_path / "rule90.game.json"
    argv = ["compile", "specs/rule90.json", "--variant", "B", "--seed", "0", "-o", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    m = json.loads((tmp_path / "rule90.game.json.placement.json").read_text())["m"]
    assert main(["verify", str(out), "--spec", "specs/rule90.json", "--bound", str(2 * m)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "output-encoding: not checked (0 points)" in lines
    assert sum("not checked" in line for line in lines) == 1


def test_cli_verify_refuses_a_spec_of_another_variant(tmp_path, capsys):
    # the rule 110 B game against a copy of its spec that names variant C
    out = tmp_path / "rule110.game.json"
    assert main(["compile", "specs/rule110.json", "-o", str(out)]) == 0
    spec_c = tmp_path / "rule110-c.json"
    spec_c.write_text(json.dumps({**json.loads(Path("specs/rule110.json").read_text()), "variant": "C"}))
    capsys.readouterr()
    m = json.loads(Path(str(out) + ".placement.json").read_text())["m"]
    assert main(["verify", str(out), "--spec", str(spec_c), "--bound", str(4 * m)]) == 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err == "error: the spec names variant C, but the game is variant B\n"
    assert main(["verify", str(out), "--spec", "specs/rule110.json", "--bound", str(4 * m)]) == 0


def test_cli_refuses_a_spec_without_encoding(tmp_path, capsys, monkeypatch):
    # the output check reads the encoding, so verify, like compile, refuses
    # a spec without one before anything is solved or searched
    from latticegames import compiler
    from latticegames.engine import Solver

    def unreachable(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(Solver, "outcomes", unreachable)
    monkeypatch.setattr(compiler, "search_placement", unreachable)
    spec = tmp_path / "noenc.json"
    spec.write_text(json.dumps(_without(XOR_SPEC, "encoding")))
    side = tmp_path / "side.json"
    side.write_text(json.dumps(PAPER_SIDECAR))
    argvs = [["verify", "paper-gamma", "--spec", str(spec), "--placement", str(side), "--bound", "48"],
             ["compile", str(spec), "-o", str(tmp_path / "g.json")]]
    for argv in argvs:
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: spec field 'encoding' must be"), err
    assert not (tmp_path / "g.json").exists()


def test_reader_prunes_the_spec(tmp_path, capsys):
    # xor with a third shift (-1, 2) that its table ignores: the game is
    # compiled from the pruned spec, and read back against the spec as
    # written it verifies as well, through the reader and the CLI
    spec = tmp_path / "xor3.json"
    spec.write_text(json.dumps({**XOR_SPEC, "betas": [[1, 0], [0, 1], [-1, 2]],
                                "g": [g for g in XOR_SPEC["g"] for _ in "PN"]}))
    out = tmp_path / "xor3.game.json"
    assert main(["compile", str(spec), "-o", str(out)]) == 0
    side = json.loads(Path(str(out) + ".placement.json").read_text())
    written, enc, _variant, _emb = io.load_spec(str(spec))
    assert len(written.betas) == 3
    cg = io.compiled_from_files(io.load_game(str(out)), side, written, enc)
    assert cg.spec.betas == ((1, 0), (0, 1))
    report = verify_construction(cg, 4 * side["m"])
    assert report.ok and all(c.checked for c in report.checks), report.summary()
    capsys.readouterr()
    assert main(["verify", str(out), "--spec", str(spec), "--bound", str(4 * side["m"])]) == 0
    assert capsys.readouterr().out == report.summary() + "\n"


FOUR_D = {"dim": 4, "moves": [[1, 0, 0, 0], [0, 1, 0, 0]]}
ONE_D = {"dim": 1, "moves": [[1], [2]]}
TWO_D = {"dim": 2, "moves": [[1, 0], [0, 1]]}


# (argv, contents of the file that "{file}" names, the whole message): each
# is refused before anything is solved
REFUSED_BEFORE_SOLVING = [
    (["render", "{file}", "--window", "60,60,60,60"], FOUR_D,
     "a 4-D grid has no plane; only 2-D and 3-D grids do"),
    (["solve", "{file}", "--window", "2,2,1,1", "--format", "text"], FOUR_D,
     "a 4-D grid has no plane; only 2-D and 3-D grids do"),
    (["solve", "paper-gamma-prime", "--window", "768,768,1", "--slice", "5"], None, "slice 5 lies outside [0, 1]"),
    (["render", "paper-gamma-prime", "--window", "768,768,1", "--slice", "-1"], None,
     "slice -1 lies outside [0, 1]"),
    (["solve", "{file}", "--window", "20000000"], ONE_D, "a 1-D grid has no plane; only 2-D and 3-D grids do"),
    (["solve", "{file}", "--window", "2,2", "--slice", "3"], TWO_D, "a 2-D grid has no slices; got slice 3"),
    (["probe", "{file}", "--window", "4,4", "--slice", "3"], TWO_D, "a 2-D grid has no slices; got slice 3"),
    (["probe", "{file}", "--window", "4,4"], ONE_D, "a 1-D grid has no plane; only 2-D and 3-D grids do"),
    (["probe", "{file}", "--window", "4,4"], FOUR_D, "a 4-D grid has no plane; only 2-D and 3-D grids do"),
    # a negative bound passes the plane check, and the solve refuses it by name
    (["solve", "paper-gamma-prime", "--window", "3,3,-1"], None, "window bounds must be nonnegative"),
]


@pytest.mark.parametrize("argv, obj, says", REFUSED_BEFORE_SOLVING)
def test_cli_refuses_a_missing_plane_before_solving(tmp_path, capsys, monkeypatch, argv, obj, says):
    from latticegames import kernels

    def unreachable(*args, **kwargs):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(kernels, "solve_region", unreachable)
    path = tmp_path / "in.json"
    if obj is not None:
        path.write_text(json.dumps(obj))
    assert main([a.format(file=path) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {says}\n"


def test_cli_probe_refuses_before_solving(tmp_path, capsys, monkeypatch):
    # a 4-D grid has no plane to probe, so nothing is solved
    from latticegames.engine import Solver

    def unreachable(self, window, *args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(Solver, "solve_window", unreachable)
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"dim": 4, "moves": [[1, 0, 0, 0], [0, 1, 0, 0]]}))
    assert main(["probe", str(game), "--window", "4,4"]) == 1
    assert "a 4-D grid has no plane" in capsys.readouterr().err


def test_cli_probe_refuses_a_max_period_beyond_the_window(capsys, monkeypatch):
    # a candidate longer than every bound of the window has no pairs in it
    from latticegames.engine import Solver

    solve, solved = Solver.solve_window, []

    def counted(self, window, *args, **kwargs):
        solved.append(window)
        return solve(self, window, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve_window", counted)
    assert main(["probe", "paper-gamma-prime", "--window", "8,8", "--max-period", "9"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --max-period 9 exceeds the window's largest bound 8\n"
    assert solved == []
    # the window's largest bound itself is accepted: (2*8 + 1)**2 - 1 candidates
    assert main(["probe", "paper-gamma-prime", "--window", "8,8", "--max-period", "8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 288
    assert len(solved) == 1
    # a negative bound is the solve's to refuse, whatever the period
    assert main(["probe", "paper-gamma-prime", "--window=-1,-1", "--max-period", "9"]) == 1
    assert capsys.readouterr().err == "error: window bounds must be nonnegative\n"


def test_cli_usage_errors(capsys):
    assert main(["fly-to-the-moon"]) == 2
    assert main(["solve", "paper-gamma-prime", "--bogus-flag"]) == 2
    assert main([]) == 2
    # compile places by search alone; it takes no placement hint
    assert main(["compile", "specs/xor.json", "--hint", "x", "-o", "g.json"]) == 2
    capsys.readouterr()
    assert main(["probe", "paper-gamma-prime", "--window", "8,8", "--max-period", "0"]) == 2
    assert "--max-period" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["axioms", "no-such-file.json"]) == 1
    assert "error:" in capsys.readouterr().err


MALFORMED_GAMES = [
    ({"dim": 3}, "moves"),
    ({"moves": [[1, 0, 0]]}, "dim"),
    ({"dim": "3", "moves": [[1, 0, 0]]}, "dim"),
    ({"dim": 3, "moves": "[[1, 0, 0]]"}, "moves"),
    ({"dim": 3, "moves": [[1, 0]]}, "moves"),
    ({"dim": 3, "moves": [[1, 0, 0.5]]}, "moves"),
    ({"dim": 3, "moves": [[1, 0, 0]], "defeated": [[0, 0, 0]]}, "defeated"),
    ([3, [[1, 0, 0]]], "JSON object"),
    ({"dim": 3, "moves": [[1, 0, 0], [0, 10**23, 0]]}, "moves"),
    (
        {
            "dim": 3,
            "moves": [[1, 0, 0]],
            "defeated": "coset((0,0);(100000000000000000000000,0);(0,3);1)",
        },
        "int64",
    ),
]


@pytest.mark.parametrize("obj, field", MALFORMED_GAMES)
def test_cli_malformed_game_file(tmp_path, capsys, obj, field):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps(obj))
    assert main(["solve", str(bad), "--window", "3,3,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    with pytest.raises(ValueError, match=field):
        io.game_from_json(obj)


@pytest.mark.parametrize(
    "defeated, cells",
    [
        ("coset((0,0);(4611686018427387904,0);(0,3);1)", [[0, 0], [0, 3]]),
        ("coset((0,0);(0,0);1)", [[0, 0]]),
    ],
    ids=["int64-basis", "zero-vector"],
)
def test_cli_solve_coset_defeated(tmp_path, capsys, defeated, cells):
    # the dense mask of any coset the parser accepts agrees with membership
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"dim": 2, "moves": [[1, 0], [0, 1]], "defeated": defeated}))
    assert main(["solve", str(game), "--window", "4,4"]) == 0
    capsys.readouterr()
    assert np.argwhere(io.load_game(str(game)).defeated.mask((4, 4))).tolist() == cells


XOR_SPEC = json.loads((Path(__file__).parents[1] / "specs" / "xor.json").read_text())


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


MALFORMED_SPECS = [
    ({}, "'lattice'"),
    ({**XOR_SPEC, "lattice": [[1, 0]]}, "'lattice'"),
    (_without(XOR_SPEC, "module_generators"), "'module_generators'"),
    ({**XOR_SPEC, "alphabet": "PN"}, "'alphabet'"),
    (_without(XOR_SPEC, "betas"), "'betas'"),
    ({**XOR_SPEC, "g": "NPPN"}, "'g'"),
    (_without(XOR_SPEC, "sigma0"), "'sigma0'"),
    ({**XOR_SPEC, "f0": [[[0, 0]]]}, "'f0'"),
    ({**XOR_SPEC, "encoding": {"P": "N", "N": 1}}, "'encoding'"),
    ({**XOR_SPEC, "variant": 3}, "'variant'"),
    ({"ca": [110, "1"]}, "'ca'"),
    ({"ca": {"word": "1"}}, "'rule'"),
    ({"ca": {"rule": 110, "word": 1}}, "'word'"),
    ([XOR_SPEC], "JSON object"),
    ({**XOR_SPEC, "f0": [[[0, 0], "P"], [[0, 0], "N"]]}, "'f0' gives generator"),
]
# well-typed spec files that the recurrence or its encoding refuses; kept
# after every other row of CLI_FAILURES, so that the ids of those rows stay
REFUSED_SPECS = [
    ({**XOR_SPEC, "alphabet": ["P", "P"]}, "distinct symbols"),
    ({**XOR_SPEC, "sigma0": "X"}, "sigma0 must belong to the alphabet"),
    ({**XOR_SPEC, "betas": [], "g": ["P"]}, "at least one shift vector is required"),
    ({**XOR_SPEC, "betas": [[0, 0], [0, 1]]}, "shift vectors must be nonzero"),
    ({**XOR_SPEC, "lattice": [[1, 1], [1, -1]]}, "shift (1, 0) is not in the lattice"),
    ({**XOR_SPEC, "betas": [[1, 0], [1, 0]]}, "duplicate shift vectors"),
    ({**XOR_SPEC, "g": ["N", "P", "P", "X"]}, "table produces symbols outside the alphabet"),
    ({**XOR_SPEC, "f0": [[[1, 0], "P"]]}, "initial values must be given exactly on the module generators"),
    ({**XOR_SPEC, "f0": [[[0, 0], "X"]]}, "initial values outside the alphabet"),
    ({**XOR_SPEC, "encoding": {"P": ["N"], "N": ["P", "P"]}}, "all encodings must have the same width"),
    ({**XOR_SPEC, "encoding": {"P": ["N"], "N": ["X"]}}, "encodings are tuples over P/N"),
    ({**XOR_SPEC, "encoding": {"P": ["N"], "N": ["N"]}}, "encoding is not injective"),
    ({**XOR_SPEC, "encoding": {"P": ["N"]}}, "missing-symbols: ['N']"),
]


# reader refusals kept out of MALFORMED_SPECS and MALFORMED_SIDECARS, whose
# rows CLI_FAILURES spreads mid-list: their CLI rows go after every other
# row there, so that the ids of those rows stay
LATER_MALFORMED_SPECS = [
    ({**XOR_SPEC, "variant": "Z"}, "variant must be one of"),
    ({**XOR_SPEC, "variant": "A"}, "variant must be one of"),
]


# 64 shifts over two symbols ask for a table of 2^64 rows: the reader
# refuses the 4-entry table from that count, before it builds any row
SHORT_TABLE = ({**XOR_SPEC, "betas": [[1, k] for k in range(64)]},
               "table has 4 entries, expected 18446744073709551616")


@pytest.mark.parametrize("obj, field", MALFORMED_SPECS + LATER_MALFORMED_SPECS + [SHORT_TABLE])
def test_cli_malformed_spec_file(tmp_path, capsys, traced_peak, obj, field):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(obj))
    with traced_peak() as peak:
        assert main(["compile", str(bad), "-o", str(tmp_path / "g.json")]) == 1
        with pytest.raises(ValueError, match=field):
            io.spec_from_json(obj)
    assert peak.bytes < 5 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


# xor with 40-bit symbols: synthesis would read a table of 2^80 rows, refused
# from its input bit count before any row is built
WIDE_ENCODING = {**XOR_SPEC, "encoding": {"P": ["N"] * 40, "N": ["P"] * 40}}
SYNTHESIS_BOUND = r"table size 80\*2\^80 exceeds the synthesis bound"


def test_compile_refuses_an_oversized_table_before_building_it(tmp_path, capsys, traced_peak):
    spec, enc, variant, _emb = io.spec_from_json(WIDE_ENCODING)
    with traced_peak() as peak, pytest.raises(ValueError, match=SYNTHESIS_BOUND):
        compile_recurrence(spec, enc, variant)
    assert peak.bytes < 5 * 2**20
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(WIDE_ENCODING))
    with traced_peak() as peak:
        assert main(["compile", str(path), "-o", str(tmp_path / "g.json")]) == 1
    assert peak.bytes < 5 * 2**20
    assert re.fullmatch(f"error: {SYNTHESIS_BOUND}\n", capsys.readouterr().err)


# the refusals of the defeated-set grammar and of the LatticeSet constructors
# it calls, each read from the defeated field of a 3-D game file
DEFEATED_REFUSALS = [
    ("orthant((0,0,0)", "expected ')' at offset 15"),
    ("(0,0,0)", "expected a name at offset 0"),
    ("union()", "expected a name at offset 6"),
    ("orthant((0,x,0))", "expected an integer at offset 11"),
    ("square((0,0,0))", "unknown set constructor 'square'"),
    ("coset((0,0,0))", "coset needs at least one basis vector"),
    ("coset((0,0,0);(1,0,0);0)", "coset scale must be >= 1"),
    ("finite{(0,0,0),(1,1)}", "finite set mixes dimensions"),
    ("finite{}", "empty finite set needs an explicit dimension"),
    ("diff(orthant((0,0,0)))", "diff takes exactly two operands"),
    ("diff(orthant((0,0,0)),finite2{})", "dimension mismatch in diff"),
    ("union(orthant((0,0,0)),finite2{})", "dimension mismatch in union"),
    ("inter(finite2{},orthant((0,0,0)))", "dimension mismatch in inter"),
    ("union(finite2{})", "defeated set dimension differs from the ruleset"),
]


@pytest.mark.parametrize("expr, says", DEFEATED_REFUSALS)
def test_defeated_expression_refusals(tmp_path, capsys, expr, says):
    obj = {"dim": 3, "moves": [[1, 0, 0]], "defeated": expr}
    with pytest.raises(ValueError, match=re.escape(says)):
        io.game_from_json(obj)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert main(["solve", str(path), "--window", "2,2,1"]) == 1
    assert capsys.readouterr().err == f"error: {says}\n"


def test_set_operations_take_one_operand_or_more():
    # the grammar reads at least one operand, so only a direct call reaches
    # the refusal of none; one operand is that set itself
    for op in (LatticeSet.union, LatticeSet.inter):
        with pytest.raises(ValueError, match="needs at least one operand"):
            op()
    game = io.game_from_json({"dim": 3, "moves": [[1, 0, 0]], "defeated": "union(finite3{})"})
    assert game.defeated.to_expr() == "finite3{}"


PAPER_SIDECAR = {
    "pos": {
        "in_1_1": [-6, 0],
        "in_2_1": [0, -6],
        "v2": [-5, 1],
        "v3": [1, -5],
        "v4": [-1, -2],
        "v5": [-2, -1],
        "out_1": [0, 0],
    },
    "m": 6,
    "staircase": [[0, 0], [1, 0], [2, 0], [0, 1]],
    "normal": [3, 4],
    "outputs": ["out_1"],
}


MALFORMED_SIDECARS = [
    (_without(PAPER_SIDECAR, "pos"), "'pos'"),
    ({**PAPER_SIDECAR, "pos": {"out_1": [0, 0, 0]}}, "'pos'"),
    ({**PAPER_SIDECAR, "m": "6"}, "'m'"),
    (_without(PAPER_SIDECAR, "staircase"), "'staircase'"),
    ({**PAPER_SIDECAR, "normal": [3]}, "'normal'"),
    (_without(PAPER_SIDECAR, "outputs"), "'outputs'"),
    ({**PAPER_SIDECAR, "in_prime": 2}, "'in_prime'"),
    ({**PAPER_SIDECAR, "lines": {"wires": [[1, 2]]}}, "'lines'"),
    ({**PAPER_SIDECAR, "variant": ["C"]}, "'variant'"),
    ([PAPER_SIDECAR], "JSON object"),
    ({**PAPER_SIDECAR, "outputs": ["out_9"]}, "'pos' gives no position for vertex 'out_9'"),
    ({**PAPER_SIDECAR, "in_dprime": "ghost"}, "'pos' gives no position for vertex 'ghost'"),
    ({**PAPER_SIDECAR, "variant": "Z"}, "variant must be one of"),
]
LATER_MALFORMED_SIDECARS = [
    ({**PAPER_SIDECAR, "variant": "B"}, "'in_dprime' must name the in'' vertex"),
    ({**PAPER_SIDECAR, "pos": {**PAPER_SIDECAR["pos"], "in''": [4, 4]}, "in_dprime": "in''",
      "variant": "C"}, "and of no other, got \"in''\" for 'variant' C"),
    ({**PAPER_SIDECAR, "outputs": []}, "'outputs' must name one vertex per encoded bit, 1, got 0"),
    ({**PAPER_SIDECAR, "variant": "A"}, "variant must be one of"),
]
VERIFY_XOR = ["verify", "paper-gamma", "--spec", "specs/xor.json", "--bound", "12"]


@pytest.mark.parametrize("obj, field", MALFORMED_SIDECARS + LATER_MALFORMED_SIDECARS)
def test_cli_malformed_sidecar_file(tmp_path, capsys, obj, field):
    bad = tmp_path / "side.json"
    bad.write_text(json.dumps(obj))
    assert main(VERIFY_XOR + ["--placement", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    spec, enc, _variant, _emb = io.load_spec("specs/xor.json")
    with pytest.raises(ValueError, match=field):
        io.compiled_from_files(GameSpec(paper_gamma()), obj, spec, enc)


# (argv, contents of the file that "{file}" names, what the message says);
# "{out}" names a file the command may write
CLI_FAILURES = [
    (["solve", "paper-gamma-prime", "--window", "3,3,1", "--slice", "5"], None, "slice 5"),
    (["render", "paper-gamma-prime", "--window", "2,2,1", "--slice", "-2", "--format", "text"],
     None, "slice -2"),
    (["solve", "{file}", "--window", "2,2", "--slice", "3"], {"dim": 2, "moves": [[1, 0], [0, 1]]},
     "slice 3"),
    (["compile", "{file}", "-o", "{out}"], {**XOR_SPEC, "f0": [[[0, 0], "P"], [[0, 0], "N"]]},
     "'f0' gives generator (0, 0) more than one value"),
    (["axioms", "no-such-file.json"], None, "no-such-file.json"),
    (["fly-to-the-moon"], None, "invalid choice"),
    (["solve", "paper-gamma-prime", "--window", "3,3,1", "--bogus-flag"], None, "--bogus-flag"),
    ([], None, "required"),
    (["probe", "paper-gamma-prime", "--window", "8,8", "--max-period", "0"], None, "--max-period"),
    *((["solve", "{file}", "--window", "3,3,1"], obj, field) for obj, field in MALFORMED_GAMES),
    *((["compile", "{file}", "-o", "{out}"], obj, field) for obj, field in MALFORMED_SPECS),
    *((VERIFY_XOR + ["--placement", "{file}"], obj, field) for obj, field in MALFORMED_SIDECARS),
    *((["compile", "{file}", "-o", "{out}"], obj, field) for obj, field in REFUSED_SPECS),
    *((["compile", "{file}", "-o", "{out}"], obj, field) for obj, field in LATER_MALFORMED_SPECS[:1]),
    *((VERIFY_XOR + ["--placement", "{file}"], obj, field) for obj, field in LATER_MALFORMED_SIDECARS[:1]),
    (["oracle", "xor", "--window", "1000000,1000000"], None, "over the 4 GiB budget"),
    (["oracle", "xor", "--window=-1,3"], None, "window bounds must be nonnegative"),
    (["oracle", "binom-parity", "--window=3,-1"], None, "window bounds must be nonnegative"),
    (["oracle", "xor", "--window=-5,-5"], None, "window bounds must be nonnegative"),
    (["solve", "{file}", "--window", "6"], {"dim": 1, "moves": [[1], [2]]}, "a 1-D grid has no plane"),
    (["solve", "{file}", "--window", "2,2,1,1"], {"dim": 4, "moves": [[1, 0, 0, 0], [0, 1, 0, 0]]},
     "a 4-D grid has no plane"),
    (["probe", "{file}", "--window", "4,4"], {"dim": 4, "moves": [[1, 0, 0, 0], [0, 1, 0, 0]]},
     "a 4-D grid has no plane"),
    # rows added later go last, so that the ids of the rows above stay
    *((VERIFY_XOR + ["--placement", "{file}"], obj, field) for obj, field in LATER_MALFORMED_SIDECARS[1:]),
    *((["compile", "{file}", "-o", "{out}"], obj, field) for obj, field in LATER_MALFORMED_SPECS[1:]),
    (["compile", "specs/rule90.json", "--variant", "A", "-o", "{out}"], None, "invalid choice"),
    # the control lines follow the circuit, so there is no flag to drop them
    (["compile", "specs/rule90.json", "--core-only", "-o", "{out}"], None,
     "unrecognized arguments: --core-only"),
    # normal (201, 1): the search starts near m = 242,000, whose F holds
    # about 5.9e10 points, refused by their count before F is built
    (["compile", "{file}", "-o", "{out}"], {**XOR_SPEC, "betas": [[1, -200], [0, 1]]},
     "over the 4 GiB budget"),
    (["compile", "{file}", "-o", "{out}"], *SHORT_TABLE),
    (["compile", "{file}", "-o", "{out}"], WIDE_ENCODING, "exceeds the synthesis bound"),
    (["solve", "paper-gamma-prime", "--window", "3,x,1"], None,
     "expected comma-separated integers, got '3,x,1'"),
    (["probe", "paper-gamma-prime", "--window", "8,8", "--cone", "1,0:0,1,1"], None,
     "expected 2 comma-separated integers, got '0,1,1'"),
]


@pytest.mark.parametrize("argv, obj, says", CLI_FAILURES)
def test_cli_refuses_malformed_invocations(tmp_path, capsys, argv, obj, says):
    # exit 1 or 2 with a one-line message, never a traceback: the CLI's own
    # messages read "error: ...", argparse's read "<prog>: error: ..." and
    # exit 2
    names = {"file": str(tmp_path / "in.json"), "out": str(tmp_path / "out.json")}
    if obj is not None:
        Path(names["file"]).write_text(json.dumps(obj))
    code = main([a.format(**names) for a in argv])
    assert code in (1, 2)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    message = err.splitlines()[-1]
    argparse_message = message.startswith("latticegames") and ": error:" in message
    assert message.startswith("error:") or argparse_message
    if argparse_message:
        assert code == 2
    assert says in message


def test_cli_axioms_on_a_game_without_moves(tmp_path, capsys):
    game = tmp_path / "g.json"
    game.write_text(json.dumps({"dim": 2, "moves": []}))
    assert main(["axioms", str(game)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "pointedness: witness (1, 1)",
        "tangent-cone surrogate (advisory), axis 0: fail",
        "tangent-cone surrogate (advisory), axis 1: fail",
    ]


def test_cli_verify_refuses_off_board_output(tmp_path, capsys):
    side = tmp_path / "side.json"
    side.write_text(json.dumps({**PAPER_SIDECAR, "pos": {**PAPER_SIDECAR["pos"], "out_1": [-100, -100]}}))
    argv = ["verify", "paper-gamma", "--spec", "specs/xor.json", "--bound", "12"]
    assert main(argv + ["--placement", str(side)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "vertex 'out_1' at (-100, -100)" in err


def test_cli_verify_prints_the_first_failure(tmp_path, capsys):
    # the published game, and the same game without its move (1, 1, 0),
    # read against the paper placement with the identity encoding
    spec = tmp_path / "xor-identity.json"
    spec.write_text(json.dumps({**XOR_SPEC, "encoding": {"P": ["P"], "N": ["N"]}}))
    side = tmp_path / "side.json"
    side.write_text(json.dumps(PAPER_SIDECAR))
    argv = ["--spec", str(spec), "--placement", str(side), "--bound", "60"]
    assert main(["verify", "paper-gamma", *argv]) == 0
    assert "FAIL" not in capsys.readouterr().out
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps({"dim": 3, "moves": [list(m) for m in paper_gamma().moves if m != (1, 1, 0)]}))
    assert main(["verify", str(weak), *argv]) == 1
    lines = capsys.readouterr().out.splitlines()
    line = next(line for line in lines if line.startswith("output-encoding:"))
    assert line.startswith("output-encoding: FAIL (") and "  first failure: " in line


def test_python_m_runs_the_cli():
    # exit codes pass through: 0 on success, 2 on a usage error
    path = os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    for argv, code in ((["axioms", "paper-gamma"], 0), ([], 2)):
        run = subprocess.run([sys.executable, "-m", "latticegames", *argv], env=env,
                             capture_output=True, text=True)
        assert run.returncode == code, run.stderr
    assert run.stderr.startswith("usage: latticegames")
