"""Deterministic renderings of outcome grids.

Text uses '#' for P, '.' for N and 'x' for defeated cells, with y increasing
upward.  PBM (P1) and SVG carry the same raster, P cells black.  An optional
highlight stride m restricts the picture to the sublattice of positions whose
coordinates are both multiples of m.  Each format reads its cells from one
table indexed by outcome code, whose entry 0 (CODE_UNSEEN, which no solve
writes) renders as '?' in text, 0 in PBM and silver in SVG.
"""

from __future__ import annotations

import numpy as np

from .engine import CODE_N, OutcomeGrid
from .lattice import as_int

FORMATS = ("text", "pbm", "svg")

# indexed by outcome code: unseen, P, N, defeated
TEXT_BYTES = np.frombuffer(b"?#.x", dtype=np.uint8)
PBM_BYTES = np.frombuffer(b"0100", dtype=np.uint8)
SVG_FILLS = ("silver", "black", None, "silver")
SVG_CELL = 8  # pixels per cell


def render_grid(
    grid: OutcomeGrid,
    slice_index: int | None = None,
    fmt: str = "text",
    highlight_stride: int | None = None,
) -> bytes:
    if fmt not in FORMATS:
        raise ValueError(f"unsupported format {fmt!r}; choose from {FORMATS}")
    plane = grid.plane(slice_index)
    if highlight_stride is not None:
        m = as_int(highlight_stride, "highlight stride")
        if m < 1:
            raise ValueError("highlight stride must be >= 1")
        plane = plane[::m, ::m]
    rows = plane.T[::-1]  # rows top down: y grows upward
    ny, nx = rows.shape
    if fmt == "svg":
        w, h = nx * SVG_CELL, ny * SVG_CELL
        r, x = np.nonzero(rows != CODE_N)
        rects = "".join(f'<rect x="{px}" y="{py}" width="{SVG_CELL}" height="{SVG_CELL}" fill="{SVG_FILLS[code]}"/>\n'
                        for px, py, code in zip((x * SVG_CELL).tolist(), (r * SVG_CELL).tolist(), rows[r, x].tolist()))
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
                f'<rect width="{w}" height="{h}" fill="white"/>\n{rects}</svg>\n').encode("ascii")
    if fmt == "text":
        out = np.empty((ny, nx + 1), dtype=np.uint8)
        out[:, :nx] = TEXT_BYTES[rows]
        head = b""
    else:
        out = np.full((ny, nx, 2), ord(" "), dtype=np.uint8)
        out[:, :, 0] = PBM_BYTES[rows]
        out = out.reshape(ny, 2 * nx)
        head = f"P1\n{nx} {ny}\n".encode("ascii")
    out[:, -1] = ord("\n")  # text's last column, PBM's last separator
    return b"".join((head, out))  # one copy of the raster
