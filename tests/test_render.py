import hashlib

import numpy as np
import pytest

from latticegames.builtin import paper_gamma_prime
from latticegames.engine import GameSpec, OutcomeGrid, Solver
from latticegames.kernels import CODE_DEFEATED, CODE_N, CODE_P, CODE_UNSEEN
from latticegames.lattice import LatticeSet
from latticegames.render import FORMATS, render_grid


def grid2(codes):
    data = np.array(codes, dtype=np.uint8)
    return OutcomeGrid((data.shape[0] - 1, data.shape[1] - 1), data)


def test_text_all_n():
    g = grid2([[CODE_N, CODE_N], [CODE_N, CODE_N]])
    assert render_grid(g, None, "text") == b"..\n..\n"


def test_text_orientation():
    # data[x][y]; y grows upward in the output, x to the right
    g = grid2([[CODE_P, CODE_N], [CODE_N, CODE_DEFEATED]])
    # top row is y=1: (0,1)='.', (1,1)='x'; bottom row y=0: '#', '.'
    assert render_grid(g, None, "text") == b".x\n#.\n"


def test_gasket_mask(gamma_prime_grid_48):
    # positions (6i,6j,1) for i,j <= 3, live cells where i & j == 0
    data = render_grid(gamma_prime_grid_48, 1, "text", highlight_stride=6)
    lines = data.decode().splitlines()
    window_lines = [row[:4] for row in lines[-4:]]
    assert window_lines == ["#...", "##..", "#.#.", "####"]


def test_pbm_matches_text():
    g = grid2([[CODE_P, CODE_N], [CODE_N, CODE_P]])
    pbm = render_grid(g, None, "pbm").decode().splitlines()
    assert pbm[0] == "P1"
    assert pbm[1] == "2 2"
    assert pbm[2:] == ["0 1", "1 0"]
    text = render_grid(g, None, "text").decode().splitlines()
    for prow, trow in zip(pbm[2:], text):
        assert ["1" if c == "#" else "0" for c in trow] == prow.split()


def test_svg_deterministic():
    g = grid2([[CODE_P, CODE_N], [CODE_DEFEATED, CODE_N]])
    a = render_grid(g, None, "svg")
    b = render_grid(g, None, "svg")
    assert a == b
    assert a.startswith(b"<svg ")
    assert b"black" in a and b"silver" in a


def test_unknown_format():
    g = grid2([[CODE_N]])
    with pytest.raises(ValueError):
        render_grid(g, None, "png")


def test_bad_highlight():
    g = grid2([[CODE_N]])
    with pytest.raises(ValueError):
        render_grid(g, None, "text", highlight_stride=0)


def test_unseen_code_has_a_symbol_in_every_format():
    # no solve writes CODE_UNSEEN, but a grid built by hand may hold it
    g = grid2([[CODE_UNSEEN, CODE_P]])
    assert render_grid(g, None, "text") == b"#\n?\n"
    assert render_grid(g, None, "pbm") == b"P1\n1 2\n1\n0\n"
    assert b'<rect x="0" y="8" width="8" height="8" fill="silver"/>' in render_grid(g, None, "svg")


def _reference(plane, fmt):
    """The per-cell reference: rows top down, one symbol per cell."""
    nx, ny = plane.shape
    rows = [[int(plane[x, y]) for x in range(nx)] for y in range(ny - 1, -1, -1)]
    if fmt == "text":
        symbols = {CODE_P: "#", CODE_N: ".", CODE_DEFEATED: "x"}
        return "".join("".join(symbols[c] for c in row) + "\n" for row in rows).encode()
    if fmt == "pbm":
        lines = [" ".join("1" if c == CODE_P else "0" for c in row) for row in rows]
        return "\n".join(["P1", f"{nx} {ny}", *lines, ""]).encode()
    w, h = 8 * nx, 8 * ny
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    for r, row in enumerate(rows):
        for x, c in enumerate(row):
            if c != CODE_N:
                fill = "black" if c == CODE_P else "silver"
                parts.append(f'<rect x="{8 * x}" y="{8 * r}" width="8" height="8" fill="{fill}"/>')
    return "\n".join([*parts, "</svg>", ""]).encode()


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 7), (9, 3)])
def test_formats_match_the_per_cell_reference(shape):
    rng = np.random.default_rng(sum(shape))
    g = grid2(rng.choice([CODE_P, CODE_N, CODE_DEFEATED], size=shape).astype(np.uint8))
    for fmt in FORMATS:
        assert render_grid(g, None, fmt) == _reference(g.data, fmt)
        assert render_grid(g, None, fmt, 2) == _reference(g.data[::2, ::2], fmt)


# sha256 prefixes of render_grid's output on Gamma' at (191, 191, 1) and on
# Gamma' with the defeated coset (2, 3, 0) + <5 e1, 7 e2, e3> at (40, 40, 1),
# keyed by (grid, slice, format, highlight stride); recorded from the
# per-cell renderer, so the bytes written stay as they were
PINNED = {
    ("plain", 0, "text", None): "cd2d5b72a0026df2",
    ("plain", 0, "text", 6): "5305fe5fab607c19",
    ("plain", 0, "pbm", None): "3d6c3d2ee8aeeb3f",
    ("plain", 0, "pbm", 6): "0581b7f89578b43d",
    ("plain", 0, "svg", None): "32bdddffa30af919",
    ("plain", 0, "svg", 6): "644684deac67506d",
    ("plain", 1, "text", None): "8dd5f01d89807f40",
    ("plain", 1, "text", 6): "3722079bb9bf7cfc",
    ("plain", 1, "pbm", None): "90e7e97d00de688c",
    ("plain", 1, "pbm", 6): "5ca260c117241b2d",
    ("plain", 1, "svg", None): "ebaa997870cdecff",
    ("plain", 1, "svg", 6): "04ca2672f3882d9e",
    ("defeated", 0, "text", None): "40cf2af6b98e1ff3",
    ("defeated", 0, "pbm", None): "18300f85fe5f587e",
    ("defeated", 0, "svg", None): "e15d39bc51120c35",
    ("defeated", 1, "text", None): "7b7cb5f0cc41c775",
    ("defeated", 1, "pbm", None): "8d5307a64fae74f9",
    ("defeated", 1, "svg", None): "19f9f1e676a0af71",
}


def test_rendered_bytes_are_pinned(gamma_prime_solver):
    holed = GameSpec(paper_gamma_prime(), LatticeSet.coset((2, 3, 0), [(5, 0, 0), (0, 7, 0), (0, 0, 1)]))
    grids = {"plain": gamma_prime_solver.solve_window((191, 191, 1)),
             "defeated": Solver(holed).solve_window((40, 40, 1))}
    assert all((grids["defeated"].plane(s) == CODE_DEFEATED).any() for s in (0, 1))
    got = {(name, s, fmt, m): hashlib.sha256(render_grid(grids[name], s, fmt, m)).hexdigest()[:16]
           for name, s, fmt, m in PINNED}
    assert got == PINNED
