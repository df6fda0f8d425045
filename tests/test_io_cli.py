import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticegames import io
from latticegames.builtin import paper_gamma, paper_gamma_prime, swapped_encoding, xor_recurrence
from latticegames.cli import main
from latticegames.compiler import compile_recurrence
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
    # rule 90 in variant A at 4m: two checks compare no point, which is no pass
    out = tmp_path / "rule90.game.json"
    argv = ["compile", "specs/rule90.json", "--variant", "A", "--seed", "0", "-o", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    m = json.loads((tmp_path / "rule90.game.json.placement.json").read_text())["m"]
    assert main(["verify", str(out), "--spec", "specs/rule90.json", "--bound", str(4 * m)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "slice0-lattice-law: not checked (0 points)" in lines
    assert "in-prime-characterisation: not checked (0 points)" in lines

def test_cli_compile_hint(tmp_path, capsys):
    # a hint that already passes is used as-is: paper placement, core only
    hint = tmp_path / "hint.json"
    hint.write_text(
        json.dumps(
            {
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
            }
        )
    )
    out = tmp_path / "g.json"
    rc = main(
        ["compile", "specs/xor.json", "--seed", "0", "--hint", str(hint), "-o", str(out)]
    )
    capsys.readouterr()
    # the synthesized circuit uses its own gate names, so this hint cannot
    # fit; the search still succeeds
    assert rc == 0
    assert out.exists()


def test_cli_usage_errors(capsys):
    assert main(["fly-to-the-moon"]) == 2
    assert main(["solve", "paper-gamma-prime", "--bogus-flag"]) == 2
    assert main([]) == 2
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


@pytest.mark.parametrize("obj, field", MALFORMED_SPECS)
def test_cli_malformed_spec_file(tmp_path, capsys, obj, field):
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(obj))
    assert main(["compile", str(bad), "-o", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    with pytest.raises(ValueError, match=field):
        io.spec_from_json(obj)


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
VERIFY_XOR = ["verify", "paper-gamma", "--spec", "specs/xor.json", "--bound", "12"]


@pytest.mark.parametrize("obj, field", MALFORMED_SIDECARS)
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
]


@pytest.mark.parametrize("argv, obj, says", CLI_FAILURES)
def test_cli_refuses_malformed_invocations(tmp_path, capsys, argv, obj, says):
    # exit 1 or 2 with a one-line message, never a traceback: the CLI's own
    # messages read "error: ...", argparse's read "<prog>: error: ..."
    names = {"file": str(tmp_path / "in.json"), "out": str(tmp_path / "out.json")}
    if obj is not None:
        Path(names["file"]).write_text(json.dumps(obj))
    assert main([a.format(**names) for a in argv]) in (1, 2)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    message = err.splitlines()[-1]
    argparse_message = message.startswith("latticegames") and ": error:" in message
    assert message.startswith("error:") or argparse_message
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


def test_python_m_runs_the_cli():
    # exit codes pass through: 0 on success, 2 on a usage error
    path = os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    for argv, code in ((["axioms", "paper-gamma"], 0), ([], 2)):
        run = subprocess.run([sys.executable, "-m", "latticegames", *argv], env=env,
                             capture_output=True, text=True)
        assert run.returncode == code, run.stderr
    assert run.stderr.startswith("usage: latticegames")
