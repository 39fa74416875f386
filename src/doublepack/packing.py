"""Double circle packings: one circle per vertex, one per bounded face,
tangent along edges and orthogonal at incidences.

The radii are characterized by angle-sum equations: around every interior
vertex the kite corners 2*arctan(r(f)/r(v)) of the incident faces sum to a
full turn, and dually around every bounded face.  ``solve_radii`` finds the
radii (a damped fixed-point warm-up followed by Newton steps on log radii,
whose Jacobian is a vertex-face Laplacian grounded at the boundary),
``layout`` places the circles along a breadth-first dart tree that each
truncation builds once and caches (directions and centers are summed down the
tree level by level, then every closing constraint is checked in one
vectorized pass), and ``compute_delta0`` extracts the shrinkage level used by
the averaging operators downstream.

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
        t = self.trunc
        e = t.corner_darts
        cv = t.graph.origin[e]
        cf = t.faces.face_of[e]
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


def angle_defect(trunc: Truncation, vertex_radius, face_radius) -> float:
    """Largest deviation of an interior vertex or bounded face angle sum
    from a full turn."""
    cv, cf = _corner_arrays(trunc)
    theta = 2.0 * np.arctan2(np.asarray(face_radius)[cf],
                             np.asarray(vertex_radius)[cv])
    a_v = np.bincount(cv, weights=theta, minlength=trunc.graph.n_vertices)
    a_f = np.bincount(cf, weights=np.pi - theta, minlength=trunc.faces.n_faces)
    dv = np.max(np.abs(a_v[trunc.interior] - _TWO_PI))
    df = np.max(np.abs(a_f[trunc.bounded_faces] - _TWO_PI))
    return float(max(dv, df))


def _solve_prescribed(trunc, boundary_log_radii, tol, max_iter, warm=None):
    """Newton iteration on log radii; returns (uv, uf, defect, iterations)."""
    g = trunc.graph
    n = g.n_vertices
    nf_all = trunc.faces.n_faces
    cv, cf = _corner_arrays(trunc)
    interior = trunc.interior
    bf = trunc.bounded_faces
    ni, nf = interior.size, bf.size

    vidx = np.full(n, -1, dtype=np.int64)
    vidx[interior] = np.arange(ni)
    fidx = np.full(nf_all, -1, dtype=np.int64)
    fidx[bf] = ni + np.arange(nf)
    av = vidx[cv]          # -1 at boundary-vertex corners
    af = fidx[cf]
    free_v = av >= 0

    uv = np.zeros(n)
    uv[trunc.boundary] = boundary_log_radii
    uf = np.zeros(nf_all)
    if warm is not None:
        uv[interior], uf[bf] = warm

    def sums(d):
        theta = 2.0 * np.arctan(np.exp(np.clip(d, -40.0, 40.0)))
        a_v = np.bincount(cv, weights=theta, minlength=n)
        a_f = np.bincount(cf, weights=np.pi - theta, minlength=nf_all)
        return a_v, a_f

    if warm is None:
        for _ in range(8):
            a_v, a_f = sums(uf[cf] - uv[cv])
            uv[interior] += 0.5 * np.log(a_v[interior] / _TWO_PI)
            uf[bf] += 0.5 * np.log(a_f[bf] / _TWO_PI)

    rows = np.concatenate([af, av[free_v], av[free_v], af[free_v]])
    cols = np.concatenate([af, av[free_v], af[free_v], av[free_v]])
    nun = ni + nf
    for it in range(max_iter):
        d = uf[cf] - uv[cv]
        a_v, a_f = sums(d)
        resid = np.concatenate([a_v[interior] - _TWO_PI, a_f[bf] - _TWO_PI])
        defect = float(np.max(np.abs(resid))) if resid.size else 0.0
        if defect <= tol:
            return uv, uf, defect, it
        w = 1.0 / np.cosh(np.clip(d, -40.0, 40.0))
        data = np.concatenate([w, w[free_v], -w[free_v], -w[free_v]])
        lap = sp.coo_matrix((data, (rows, cols)), shape=(nun, nun)).tocsc()
        step = np.clip(spla.spsolve(lap, resid), -2.0, 2.0)
        uv[interior] += step[:ni]
        uf[bf] += step[ni:]
    raise ConvergenceError(
        f"radius iteration stalled at defect {defect:.3e} after {max_iter} steps")


def solve_radii(trunc: Truncation, boundary_mode: str = "prescribed",
                boundary_radii=None, tol: float = 1e-10,
                max_iter: int = 80, disc_rounds: int = 400) -> RadiiSolution:
    """Solve the angle-sum equations for all interior vertex and bounded face
    radii.

    ``boundary_mode`` is either "prescribed" (boundary vertex radii fixed to
    ``boundary_radii``, default all ones) or "disc" (boundary radii iterated
    until, after layout, every boundary circle reaches the enclosing circle:
    the packing fills the unit disc with internally tangent rim circles,
    to within sqrt(tol)).
    """
    _check_packable(trunc)
    if tol <= 0:
        raise ValueError("tol must be positive")
    nb = trunc.boundary.size
    if boundary_radii is None:
        rb = np.ones(nb)
    else:
        rb = np.broadcast_to(np.asarray(boundary_radii, dtype=float), (nb,)).copy()
        if np.any(rb <= 0):
            raise ValueError("boundary radii must be positive")

    if boundary_mode == "prescribed":
        uv, uf, defect, iters = _solve_prescribed(trunc, np.log(rb), tol, max_iter)
        vr = np.exp(uv)
        vr[trunc.boundary] = rb
        fr = np.exp(uf)
        fr[trunc.outer_face] = np.nan
        return RadiiSolution(vr, fr, defect, iters, "prescribed", tol)

    if boundary_mode != "disc":
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")

    # Iterate boundary log radii until every boundary circle's reach from the
    # root agrees: the layout then fits a common enclosing circle, which the
    # normalization maps onto the unit circle.  The fixed-point map is slow on
    # its own (smooth low-frequency radius patterns barely move the relative
    # reaches), so the iteration is Anderson-accelerated.
    target = math.sqrt(tol)
    x = np.log(rb)
    warm = None
    total_iters = 0
    hist_x: list[np.ndarray] = []
    hist_r: list[np.ndarray] = []
    best = math.inf
    best_x, best_resid = x, np.zeros(nb)
    err = math.inf
    for _ in range(disc_rounds):
        uv, uf, defect, iters = _solve_prescribed(trunc, x, tol, max_iter, warm)
        total_iters += iters
        warm = (uv[trunc.interior].copy(), uf[trunc.bounded_faces].copy())
        vr = np.exp(uv)
        vr[trunc.boundary] = np.exp(x)
        fr = np.exp(uf)
        fr[trunc.outer_face] = np.nan
        sol = RadiiSolution(vr, fr, defect, total_iters, "disc", tol)
        pk = layout(trunc, sol, normalize=False)
        reach = (np.abs(pk.vertex_center[trunc.boundary])
                 + pk.vertex_radius[trunc.boundary])
        err = float(np.max(np.abs(1.0 - reach / reach.max())))
        if err <= target:
            return sol
        resid = -(np.log(reach) - np.log(reach).mean())
        if err < best:
            best, best_x, best_resid = err, x, resid
        elif not math.isfinite(err) or err > 10.0 * best:
            # restart, damped, from the best iterate: damping the step from
            # the bad iterate just left can stall the loop far from the root
            hist_x.clear()
            hist_r.clear()
            x, resid = best_x, 0.3 * best_resid
        hist_x.append(x.copy())
        hist_r.append(resid.copy())
        if len(hist_x) > 7:
            hist_x.pop(0)
            hist_r.pop(0)
        if len(hist_x) > 1:
            d_r = np.diff(np.array(hist_r), axis=0).T
            d_x = np.diff(np.array(hist_x), axis=0).T
            gamma, *_ = np.linalg.lstsq(d_r, resid, rcond=None)
            x = x + resid - (d_x + d_r) @ gamma
        else:
            x = x + resid
    raise ConvergenceError(
        f"disc normalization stalled at reach error {err:.3e} "
        f"(target {target:.1e}) after {disc_rounds} rounds")


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
    largest mismatch must stay below 10*sqrt(tol).  With ``normalize`` the
    packing is translated (root center to 0) and scaled into the closed unit
    disc.
    """
    g = trunc.graph
    faces = trunc.faces
    tree = trunc.dart_tree
    bf = trunc.bounded_faces
    if np.any(tree.vertex_dart < 0) or np.any(tree.face_dart[bf] < 0):
        raise ConvergenceError("layout traversal could not reach every circle")
    vr = radii.vertex_radius
    fr = radii.face_radius
    origin, target = g.origin, g.target
    face_of = faces.face_of
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
    zf = np.full(faces.n_faces, np.nan, dtype=complex)
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

    vr = vr.copy()
    fr = fr.copy()
    if normalize:
        shift = zv[trunc.root]
        zv = zv - shift
        zf = zf - shift
        scale = max(float(np.max(np.abs(zv) + vr)),
                    float(np.max(np.abs(zf[bf]) + fr[bf])))
        zv /= scale
        zf /= scale
        vr /= scale
        fr /= scale
    return DoublePacking(trunc, zv, vr, zf, fr, float(worst))


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
    circles = []
    for v in range(pk.trunc.n_vertices):
        circles.append({"id": int(v), "kind": "vertex",
                        "radius": float(pk.vertex_radius[v]),
                        "center": [float(pk.vertex_center[v].real),
                                   float(pk.vertex_center[v].imag)]})
    for f in pk.trunc.bounded_faces:
        circles.append({"id": int(f), "kind": "face",
                        "radius": float(pk.face_radius[f]),
                        "center": [float(pk.face_center[f].real),
                                   float(pk.face_center[f].imag)]})
    doc = {"circles": circles, "layout_residual": pk.layout_residual}
    if pk.delta0 is not None:
        doc["delta0"] = pk.delta0
    return doc
