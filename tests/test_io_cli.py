import json
from pathlib import Path

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
        {"ca": {"rule": 90, "word": "1", "steps": 8}, "variant": "B"}
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
    side = json.loads(open(sidecar).read())
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


def test_cli_missing_file(capsys):
    assert main(["axioms", "no-such-file.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"dim": 3}, "moves"),
        ({"moves": [[1, 0, 0]]}, "dim"),
        ({"dim": "3", "moves": [[1, 0, 0]]}, "dim"),
        ({"dim": 3, "moves": "[[1, 0, 0]]"}, "moves"),
        ({"dim": 3, "moves": [[1, 0]]}, "moves"),
        ({"dim": 3, "moves": [[1, 0, 0.5]]}, "moves"),
        ({"dim": 3, "moves": [[1, 0, 0]], "defeated": [[0, 0, 0]]}, "defeated"),
        ([3, [[1, 0, 0]]], "JSON object"),
    ],
)
def test_cli_malformed_game_file(tmp_path, capsys, obj, field):
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps(obj))
    assert main(["solve", str(bad), "--window", "3,3,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    with pytest.raises(ValueError, match=field):
        io.game_from_json(obj)


XOR_SPEC = json.loads((Path(__file__).parents[1] / "specs" / "xor.json").read_text())


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize(
    "obj, field",
    [
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
    ],
)
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


@pytest.mark.parametrize(
    "obj, field",
    [
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
    ],
)
def test_cli_malformed_sidecar_file(tmp_path, capsys, obj, field):
    bad = tmp_path / "side.json"
    bad.write_text(json.dumps(obj))
    argv = ["verify", "paper-gamma", "--spec", "specs/xor.json", "--bound", "12"]
    assert main(argv + ["--placement", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    spec, enc, _variant, _emb = io.load_spec("specs/xor.json")
    with pytest.raises(ValueError, match=field):
        io.compiled_from_files(GameSpec(paper_gamma()), obj, spec, enc)
