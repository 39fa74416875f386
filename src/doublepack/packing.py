"""Double circle packings: one circle per vertex, one per bounded face,
tangent along edges and orthogonal at incidences.

The radii are characterized by angle-sum equations: around every interior
vertex the kite corners of the incident faces sum to a full turn, and dually
around every bounded face.  ``solve_radii`` solves them by Newton's method
with the boundary radii prescribed, or for the maximal packing of the disc:
hyperbolic radii with horocycles on the boundary, whose Euclidean radii one
walk of the truncation's cached dart tree reads off, then the prescribed
solve.  ``layout`` places the circles along the same tree, level by level,
and checks every closing constraint in one vectorized pass;
``compute_delta0`` extracts the shrinkage level used by the averaging
operators downstream.

The shrinkage level needs the delta-sausages of non-adjacent edges to be
disjoint.  That test does not look at every pair of edges: a k-d tree over
the edge midpoints keeps only the pairs that could fail below a cap, and the
bound is exact below the cap.  The cap follows the delta under test: just
above 1/2 in ``compute_delta0``, which tries only dyadic delta <= 1/2, and
just above a preset delta0 in ``geometry_report``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import ConvergenceError
from .maps import Truncation

__all__ = [
    "RadiiSolution",
    "DoublePacking",
    "GeometryReport",
    "solve_radii",
    "layout",
    "angle_defect",
    "compute_delta0",
    "geometry_report",
    "packing_to_json",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RadiiSolution:
    """Radii satisfying the angle-sum equations on a truncation.

    ``face_radius`` is NaN at the outer face, which carries no circle.
    """

    vertex_radius: np.ndarray
    face_radius: np.ndarray
    defect: float
    iterations: int
    boundary_mode: str
    tol: float


@dataclass
class DoublePacking:
    """A laid-out double circle packing (normalized to the closed unit disc
    unless built with ``layout(..., normalize=False)``)."""

    trunc: Truncation
    vertex_center: np.ndarray
    vertex_radius: np.ndarray
    face_center: np.ndarray
    face_radius: np.ndarray
    layout_residual: float
    delta0: float | None = None

    def max_tangency_residual(self) -> float:
        g = self.trunc.graph
        u = g.origin[::2]
        v = g.target[::2]
        d = np.abs(self.vertex_center[u] - self.vertex_center[v])
        s = self.vertex_radius[u] + self.vertex_radius[v]
        return float(np.max(np.abs(d - s) / s))

    def max_orthogonality_residual(self) -> float:
        cv, cf = _corner_arrays(self.trunc)
        d = np.abs(self.vertex_center[cv] - self.face_center[cf])
        h = np.hypot(self.vertex_radius[cv], self.face_radius[cf])
        return float(np.max(np.abs(d - h) / h))


@dataclass(frozen=True)
class GeometryReport:
    max_tangency_residual: float
    max_orthogonality_residual: float
    ring_ratio_max: float
    sausage_ok: bool
    delta0: float


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------

def _check_packable(trunc: Truncation):
    g = trunc.graph
    if not trunc.rim_is_boundary:
        raise ValueError("packing needs the boundary to be exactly the outer "
                         "face rim; this truncation grounds a different set")
    defect = g.simple_defect()
    if defect is not None:
        raise ValueError(f"map has {defect}; packings need simple maps")
    outer = trunc.faces.face_of == trunc.outer_face
    loose = np.flatnonzero(outer[::2] & outer[1::2])
    if loose.size:
        u, v = int(g.origin[2 * loose[0]]), int(g.target[2 * loose[0]])
        if g.degrees[u] < g.degrees[v]:
            u, v = v, u
        raise ValueError(
            f"edge ({u}, {v}) has the outer face on both sides, so no corner "
            f"fixes its direction; vertex {v} hangs off the map there")
    bad = trunc.interior[g.degrees[trunc.interior] < 3]
    if bad.size:
        raise ValueError(
            f"interior vertex {int(bad[0])} has degree {int(g.degrees[bad[0]])} < 3; "
            "its corners cannot sum to a full turn")


def _corner_arrays(trunc: Truncation):
    e = trunc.corner_darts
    return trunc.graph.origin[e], trunc.faces.face_of[e]


def _angle_residual(trunc: Truncation, at_v, at_f) -> np.ndarray:
    """Interior vertex and bounded face angle sums minus a full turn, from
    the corner angles at the vertex and at the face of every corner."""
    cv, cf = _corner_arrays(trunc)
    a_v = np.bincount(cv, weights=at_v, minlength=trunc.graph.n_vertices)
    a_f = np.bincount(cf, weights=at_f, minlength=trunc.faces.n_faces)
    return np.concatenate([a_v[trunc.interior], a_f[trunc.bounded_faces]]) - _TWO_PI


def angle_defect(trunc: Truncation, vertex_radius, face_radius) -> float:
    """Largest deviation of an interior vertex or bounded face angle sum
    from a full turn."""
    cv, cf = _corner_arrays(trunc)
    theta = 2.0 * np.arctan2(np.asarray(face_radius)[cf],
                             np.asarray(vertex_radius)[cv])
    return float(np.max(np.abs(_angle_residual(trunc, theta, np.pi - theta))))


def _euclidean_corners(xv, xf):
    """Kite corners 2 atan(r_f / r_v) at the vertex and at the face, and the
    Jacobian weights (both sech(x_f - x_v)), in log radii x = log r."""
    d = np.clip(xf - xv, -40.0, 40.0)
    theta = 2.0 * np.arctan(np.exp(d))
    w = 1.0 / np.cosh(d)
    return theta, np.pi - theta, w, w


def _hyperbolic_corners(xv, xf):
    """Hyperbolic kite corners in x = log tanh(r/2) <= 0, from the right
    triangle with legs r_v and r_f: 2 atan(tanh r_f / sinh r_v), which is
    2 atan(sinh(-x_v) / cosh x_f), at the vertex and dually at the face, and
    the Jacobian weights 2 cosh x_v cosh x_f / D and 2 sinh x_v sinh x_f / D
    with D = cosh^2 x_f + sinh^2 x_v."""
    sv, ch_v = np.sinh(xv), np.cosh(xv)
    sf, ch_f = np.sinh(xf), np.cosh(xf)
    d = ch_f * ch_f + sv * sv
    return (2.0 * np.arctan2(-sv, ch_f), 2.0 * np.arctan2(-sf, ch_v),
            2.0 * ch_v * ch_f / d, 2.0 * sv * sf / d)


def _solve_prescribed(trunc, boundary_x, tol, max_iter, hyperbolic=False):
    """Newton iteration on the angle sums with the boundary unknowns fixed
    to ``boundary_x``; returns (xv, xf, defect, iterations).

    Euclidean unknowns are log radii, starting from 0; hyperbolic ones are
    x = log tanh(r/2), starting from log tanh(1/2), and x = 0 is a
    horocycle.  In both geometries the Jacobian is minus a symmetric,
    diagonally dominant vertex-face Laplacian grounded at the boundary.
    """
    n = trunc.graph.n_vertices
    cv, cf = _corner_arrays(trunc)
    interior, bf = trunc.interior, trunc.bounded_faces
    ni, nun = interior.size, interior.size + bf.size
    corners = _hyperbolic_corners if hyperbolic else _euclidean_corners

    # unknown index of each corner's vertex (-1 on the boundary) and face
    idx = np.full(n + trunc.faces.n_faces, -1, dtype=np.int64)
    idx[interior] = np.arange(ni)
    idx[n + bf] = np.arange(ni, nun)
    av, af = idx[cv], idx[n + cf]
    free_v = av >= 0
    rows = np.concatenate([af, av[free_v], av[free_v], af[free_v]])
    cols = np.concatenate([af, av[free_v], af[free_v], av[free_v]])

    start = math.log(math.tanh(0.5)) if hyperbolic else 0.0
    xv = np.full(n, start)
    xv[trunc.boundary] = boundary_x
    xf = np.full(trunc.faces.n_faces, start)
    for it in range(max_iter):
        at_v, at_f, own, other = corners(xv[cv], xf[cf])
        resid = _angle_residual(trunc, at_v, at_f)
        defect = float(np.max(np.abs(resid)))
        if defect <= tol:
            return xv, xf, defect, it
        data = np.concatenate([own, own[free_v], -other[free_v], -other[free_v]])
        lap = sp.coo_matrix((data, (rows, cols)), shape=(nun, nun)).tocsc()
        step = spla.spsolve(lap, resid)
        if hyperbolic:
            # keep x < 0: no unknown moves more than halfway to 0
            x = np.concatenate([xv[interior], xf[bf]])
            step /= max(1.0, float(np.max(-2.0 * step / x)))
        else:
            step = np.clip(step, -2.0, 2.0)
        xv[interior] += step[:ni]
        xf[bf] += step[ni:]
    raise ConvergenceError(
        f"radius iteration stalled at defect {defect:.3e} after {max_iter} steps")


def _horocycle_radii(trunc, xv, xf) -> np.ndarray:
    """Euclidean radii of the boundary horocycles of the hyperbolic packing
    ``(xv, xf)`` in the unit disc, with the root circle centered at 0.

    Each tree dart gets a disc automorphism (a, b): z -> (a z + b) /
    (conj(b) z + conj(a)), |a|^2 - |b|^2 = 1, taking 0 to the tangency point
    of its edge and +1 toward its target.  The root dart's is (1, t) /
    sqrt(1 - t^2), t = tanh(r_root / 2); a child composes its parent's with
    (i, 0) for a reverse, or for a turn of sign s across face g with a
    reverse and then the rotation about the center of g by its kite corner:
    (cosh x_g + i s cosh x_v, i s) / sqrt(D), D as in ``_hyperbolic_corners``.
    Turns never rotate about a horocycle's ideal center.  In the frame of
    its vertex's first dart a horocycle is the circle |z + 1/2| = 1/2.
    """
    tree = trunc.dart_tree
    order, parent = tree.order, tree.parent
    x_v = xv[trunc.graph.origin[tree.turn_dart]]
    ch_g = np.cosh(xf[trunc.faces.face_of[tree.turn_dart]])
    norm = np.sqrt(ch_g * ch_g + np.sinh(x_v) ** 2)
    s = tree.turn_sign
    step_a = np.where(tree.reverse, 1j, (ch_g + 1j * s * np.cosh(x_v)) / norm)
    step_b = np.where(tree.reverse, 0j, 1j * s / norm)

    a = np.zeros(trunc.graph.n_darts, dtype=complex)
    b = np.zeros_like(a)
    t = math.exp(xv[trunc.root])
    a[order[0]] = 1.0 / math.sqrt(1.0 - t * t)
    b[order[0]] = t * a[order[0]]
    for lo, hi in zip(tree.levels[1:-1], tree.levels[2:]):
        pa, pb = a[parent[lo:hi]], b[parent[lo:hi]]
        sa, sb = step_a[lo:hi], step_b[lo:hi]
        a[order[lo:hi]] = pa * sa + pb * sb.conj()
        b[order[lo:hi]] = pa * sb + pb * sa.conj()
    e = tree.vertex_dart[trunc.boundary]
    return 0.5 / (a[e] * (a[e] - b[e]).conj()).real


def _check_reached(trunc: Truncation):
    tree = trunc.dart_tree
    if np.any(tree.vertex_dart < 0) or np.any(tree.face_dart[trunc.bounded_faces] < 0):
        raise ConvergenceError("layout traversal could not reach every circle")


def solve_radii(trunc: Truncation, boundary_mode: str = "prescribed",
                boundary_radii=None, tol: float = 1e-10,
                max_iter: int = 80) -> RadiiSolution:
    """Solve the angle-sum equations for all interior vertex and bounded face
    radii.

    ``boundary_mode`` is either "prescribed" (boundary vertex radii fixed to
    ``boundary_radii``, default all ones) or "disc": the maximal packing,
    which fills the unit disc around the root circle at 0 with every
    boundary circle internally tangent to the unit circle.  Disc mode solves
    for the hyperbolic radii with horocycles on the boundary, reads the
    horocycles' Euclidean radii off one walk of the dart tree, and solves
    the prescribed problem with them; ``iterations`` counts both solves.
    """
    _check_packable(trunc)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if boundary_mode == "prescribed":
        rb = 1.0 if boundary_radii is None else boundary_radii
        rb = np.broadcast_to(np.asarray(rb, dtype=float), trunc.boundary.shape).copy()
        if np.any(rb <= 0):
            raise ValueError("boundary radii must be positive")
        iters = 0
    elif boundary_mode == "disc":
        if boundary_radii is not None:
            raise ValueError("disc mode fixes the boundary radii itself; "
                             "boundary_radii applies to prescribed mode only")
        _check_reached(trunc)
        xv, xf, _, iters = _solve_prescribed(trunc, 0.0, tol, max_iter,
                                             hyperbolic=True)
        rb = _horocycle_radii(trunc, xv, xf)
    else:
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")

    uv, uf, defect, n_euclid = _solve_prescribed(trunc, np.log(rb), tol, max_iter)
    vr = np.exp(uv)
    vr[trunc.boundary] = rb
    fr = np.exp(uf)
    fr[trunc.outer_face] = np.nan
    return RadiiSolution(vr, fr, defect, iters + n_euclid, boundary_mode, tol)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def layout(trunc: Truncation, radii: RadiiSolution,
           normalize: bool = True) -> DoublePacking:
    """Place the circles along the truncation's cached breadth-first dart
    tree (``Truncation.dart_tree``).

    Consecutive darts at a vertex differ by the kite corner of the bounded
    face between them (corners on the outer face are never crossed); a dart's
    reverse points back.  Directions are summed down the tree level by level;
    each vertex center is carried down the tree from the root and each face
    center hangs off the first tree dart bordering it.  Every reached dart
    then gives a closing constraint, for its target vertex and, where it
    borders a bounded face, for that face; all are checked at once and the
    largest mismatch must stay below 10*sqrt(tol).  The tree starts at the
    root's first dart, so the root center is 0; ``normalize`` scales the
    packing into the closed unit disc.
    """
    _check_reached(trunc)
    g = trunc.graph
    tree = trunc.dart_tree
    bf = trunc.bounded_faces
    vr, fr = radii.vertex_radius, radii.face_radius
    origin, target = g.origin, g.target
    face_of = trunc.faces.face_of
    bounded = face_of != trunc.outer_face

    corner = np.zeros(g.n_darts)
    corner[bounded] = 2.0 * np.arctan2(fr[face_of[bounded]], vr[origin[bounded]])
    half = 0.5 * corner            # angular offset of the face center
    hyp = np.zeros(g.n_darts)
    hyp[bounded] = np.hypot(vr[origin[bounded]], fr[face_of[bounded]])

    order, parent = tree.order, tree.parent
    levels = list(zip(tree.levels[1:-1], tree.levels[2:]))
    turn = np.where(tree.reverse, np.pi, tree.turn_sign * corner[tree.turn_dart])
    dirs = np.zeros(g.n_darts)
    for a, b in levels:
        dirs[order[a:b]] = dirs[parent[a:b]] + turn[a:b]

    gap = vr[origin] + vr[target]
    step = gap * np.exp(1j * dirs)
    carry = np.where(tree.reverse, step[parent], 0.0)
    at = np.zeros(g.n_darts, dtype=complex)   # origin center, carried
    for a, b in levels:
        at[order[a:b]] = at[parent[a:b]] + carry[a:b]
    zv = at[tree.vertex_dart]

    # the face of a dart sits in the wedge on its clockwise side
    spoke = hyp * np.exp(1j * (dirs - half))
    zf = np.full(trunc.faces.n_faces, np.nan, dtype=complex)
    fd = tree.face_dart[bf]
    zf[bf] = zv[origin[fd]] + spoke[fd]

    eb = order[bounded[order]]
    worst = float(np.max(np.concatenate([
        np.abs(zv[origin[order]] + step[order] - zv[target[order]]) / gap[order],
        np.abs(zv[origin[eb]] + spoke[eb] - zf[face_of[eb]]) / hyp[eb]])))
    if worst > 10.0 * math.sqrt(radii.tol):
        raise ConvergenceError(
            f"layout closing residual {worst:.3e} exceeds tolerance; "
            "the radii do not fit together")

    scale = 1.0
    if normalize:
        scale = max(float(np.max(np.abs(zv) + vr)),
                    float(np.max(np.abs(zf[bf]) + fr[bf])))
    return DoublePacking(trunc, zv / scale, vr / scale, zf / scale, fr / scale,
                         worst)


# ---------------------------------------------------------------------------
# delta0 and reports
# ---------------------------------------------------------------------------

def _edge_condition_bound(pk: DoublePacking) -> float:
    g = pk.trunc.graph
    d = np.abs(pk.vertex_center[g.origin] - pk.vertex_center[g.target])
    return float(np.min(d / (4.0 * pk.vertex_radius[g.origin])))


def _sausage_bound(pk: DoublePacking, cap: float) -> float:
    """Largest delta below which all non-adjacent edge sausages are disjoint,
    by a conservative capsule test: the segment-to-segment distance must
    exceed delta times the sum of the larger endpoint radii.

    Exact below ``cap``: the smallest pair ratio when it is below ``cap``,
    else ``math.inf``.  A pair whose ratio is below ``cap`` has midpoints
    closer than rho_i + rho_j <= 2 max(rho), where rho is the half length
    plus ``cap`` times the larger endpoint radius.  So a k-d tree query at
    twice its rho around each midpoint finds the candidates, each pair once
    from its side with the larger rho; only disjoint candidates with
    midpoints closer than rho_i + rho_j are tested.  Callers pass
    ``_sausage_cap(delta)`` for the largest delta they test.
    """
    g = pk.trunc.graph
    u = g.origin[::2]
    v = g.target[::2]
    a = pk.vertex_center[u]
    b = pk.vertex_center[v]
    rmax = np.maximum(pk.vertex_radius[u], pk.vertex_radius[v])
    mid = 0.5 * (a + b)
    # the margin keeps rounding from dropping a pair whose ratio is below cap
    rho = (0.5 * np.abs(b - a) + cap * rmax) * (1.0 + 1e-6)
    tree = cKDTree(np.column_stack([mid.real, mid.imag]))
    hits = tree.query_ball_point(tree.data, 2.0 * rho)
    ii = np.repeat(np.arange(u.size), [len(h) for h in hits])
    jj = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                     count=ii.size)
    ok = (rho[ii] > rho[jj]) | ((rho[ii] == rho[jj]) & (ii < jj))
    ok &= (u[ii] != u[jj]) & (u[ii] != v[jj])
    ok &= (v[ii] != u[jj]) & (v[ii] != v[jj])
    ok &= np.abs(mid[ii] - mid[jj]) < rho[ii] + rho[jj]
    ii, jj = ii[ok], jj[ok]

    def seg_point(p, sa, sb):
        ab = sb - sa
        denom = np.maximum(np.abs(ab) ** 2, 1e-300)
        t = np.clip(((p - sa) * ab.conj()).real / denom, 0.0, 1.0)
        return np.abs(sa + t * ab - p)

    def cross(o, p, q):
        return ((p - o) * (q - o).conj()).imag

    ai, bi = a[ii], b[ii]
    aj, bj = a[jj], b[jj]
    d = np.minimum(
        np.minimum(seg_point(ai, aj, bj), seg_point(bi, aj, bj)),
        np.minimum(seg_point(aj, ai, bi), seg_point(bj, ai, bi)))
    # proper crossings have distance zero
    s1 = cross(ai, bi, aj) * cross(ai, bi, bj)
    s2 = cross(aj, bj, ai) * cross(aj, bj, bi)
    d = np.where((s1 < 0) & (s2 < 0), 0.0, d)
    ratio = d / (rmax[ii] + rmax[jj])
    best = float(ratio.min()) if ratio.size else math.inf
    return best if best < cap else math.inf


def compute_delta0(pk: DoublePacking) -> float:
    """Largest dyadic delta <= 1/2 satisfying the edge-length condition
    (a quarter of every edge is at least delta times the origin radius) and
    disjointness of all non-adjacent edge sausages."""
    m_edge = _edge_condition_bound(pk)
    m_saus = _sausage_bound(pk, _sausage_cap(0.5))
    delta = 0.5
    for _ in range(60):
        if delta <= m_edge * (1.0 + 1e-9) and _sausages_clear(delta, m_saus):
            return delta
        delta *= 0.5
    raise ConvergenceError("no dyadic delta0 found; packing is degenerate")


def _sausages_clear(delta: float, m_saus: float) -> bool:
    """Whether the delta-sausages are disjoint, given ``_sausage_bound``."""
    return delta <= m_saus * (1.0 - 1e-9)


def _sausage_cap(delta: float) -> float:
    """A cap for ``_sausage_bound`` high enough that every bound at or above
    it clears ``delta`` in ``_sausages_clear``, so the bound need not be
    exact there."""
    return delta / (1.0 - 1e-9) * (1.0 + 1e-6)


def geometry_report(pk: DoublePacking) -> GeometryReport:
    cv, cf = _corner_arrays(pk.trunc)
    ring = float(np.max(pk.vertex_radius[cv] / pk.face_radius[cf]))
    if pk.delta0 is None:
        # compute_delta0 returns only a delta whose sausages are clear, so
        # the sausage test runs once per report
        delta0, sausage_ok = compute_delta0(pk), True
    else:
        delta0 = pk.delta0
        sausage_ok = _sausages_clear(
            delta0, _sausage_bound(pk, _sausage_cap(delta0)))
    return GeometryReport(pk.max_tangency_residual(),
                          pk.max_orthogonality_residual(),
                          ring, bool(sausage_ok), delta0)


def packing_to_json(pk: DoublePacking) -> dict:
    def circle(i, kind, z, r):
        return {"id": int(i), "kind": kind, "radius": float(r),
                "center": [float(z.real), float(z.imag)]}

    bf = pk.trunc.bounded_faces
    circles = ([circle(v, "vertex", z, r) for v, (z, r) in
                enumerate(zip(pk.vertex_center, pk.vertex_radius))]
               + [circle(f, "face", pk.face_center[f], pk.face_radius[f]) for f in bf])
    doc = {"circles": circles, "layout_residual": pk.layout_residual}
    if pk.delta0 is not None:
        doc["delta0"] = pk.delta0
    return doc
