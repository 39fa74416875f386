"""SVG figures for packings: filled primal circles, dashed dual circles.

Each group of circles is written from its coordinate columns by one
``%``-template, one ``<circle>`` line per circle with six decimals, a block
of circles at a time."""

from __future__ import annotations

import numpy as np

from .errors import integer
from .packing import DoublePacking

__all__ = ["packing_to_svg"]

# circles formatted at a time: only one block's floats and lines are alive
_BLOCK = 4096


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def packing_to_svg(pk: DoublePacking, size: int = 720) -> str:
    """Render the packing as an SVG string (deterministic, no timestamps).

    Vertex circles are drawn solid and filled, face circles dashed and
    unfilled; the y-axis is flipped so the mathematical orientation matches
    the picture.  ``size`` is the width and height in pixels.
    """
    size = integer("size", size, 1)
    bf = pk.trunc.bounded_faces
    xs = np.concatenate([pk.vertex_center.real, pk.face_center[bf].real])
    ys = -np.concatenate([pk.vertex_center.imag, pk.face_center[bf].imag])  # y flipped
    rs = np.concatenate([pk.vertex_radius, pk.face_radius[bf]])
    lo = float(np.min(np.minimum(xs - rs, ys - rs)))
    hi = float(np.max(np.maximum(xs + rs, ys + rs)))
    pad = 0.03 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    stroke = span / 900.0
    nv = pk.trunc.n_vertices

    line = '<circle cx="%.6f" cy="%.6f" r="%.6f"/>\n'.__mod__

    def circles(start, stop):
        cuts = [*range(start, stop, _BLOCK), stop]
        return "".join(["".join(map(line, zip(xs[i:j].tolist(), ys[i:j].tolist(),
                                              rs[i:j].tolist())))
                        for i, j in zip(cuts, cuts[1:])])

    return "".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(lo)} {_fmt(lo)} {_fmt(span)} {_fmt(span)}">\n',
        f'<g fill="#c9ddf0" stroke="#27415e" stroke-width="{_fmt(stroke)}">\n',
        circles(0, nv),
        "</g>\n",
        f'<g fill="none" stroke="#a03c32" stroke-width="{_fmt(stroke)}" '
        f'stroke-dasharray="{_fmt(4 * stroke)} {_fmt(3 * stroke)}">\n',
        circles(nv, xs.size),
        "</g>\n",
        "</svg>\n",
    ])
