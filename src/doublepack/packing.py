"""Double circle packings: one circle per vertex, one per bounded face,
tangent along edges and orthogonal at incidences.

The radii solve angle-sum equations: around every interior vertex the kite
corners of the incident faces sum to a full turn, and dually around every
bounded face.  ``solve_radii`` runs Newton's method on them with the
boundary radii prescribed, or, for the maximal packing of the disc, in
hyperbolic radii with horocycles on the boundary; one walk of the cached
dart tree then reads off every Euclidean radius.  The Jacobian joins
vertices only to faces, so each step eliminates the face radii exactly and
factors the interior vertices' Schur complement alone.  ``layout`` places the
circles along the same tree and checks every closing constraint in one
vectorized pass; ``compute_delta0`` extracts the shrinkage level.

The shrinkage level needs the delta-sausages of non-adjacent edges to be
disjoint.  That test does not look at every pair of edges, only at the pairs
whose midpoints are close enough to fail below a cap, and the bound is exact
below the cap.  The edges are grouped into octave classes of that closeness
radius, each with a k-d tree over its midpoints; searching every pair of
classes at the sum of their largest radii finds a superset of those pairs a
block at a time, in memory bounded by the largest block.  The cap follows
the delta under test: just above the largest dyadic delta <= 1/2 that the
edge condition admits in ``compute_delta0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import POSITIVE, ConvergenceError, integer, number
from .maps import Truncation
from .textio import Records

__all__ = [
    "RadiiSolution", "Carrier", "DoublePacking", "GeometryReport", "solve_radii",
    "layout", "angle_defect", "compute_delta0", "geometry_report", "packing_to_json",
]

_TWO_PI = 2.0 * math.pi
# walks in a row without a new least walked defect after which a disc solve
# stops: past the rounding floor the walked defects only scatter
_STALLED_WALKS = 3
# Shewchuk's bound on the rounding error of a cross product of two
# differences of doubles, relative to the sum of its two products' sizes
# (Shewchuk, Discrete Comput. Geom. 18, 1997)
_CROSS_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53


@dataclass(frozen=True)
class RadiiSolution:
    """Radii satisfying the angle-sum equations on a truncation, and their
    angle defect; ``face_radius`` is NaN at the outer face."""

    vertex_radius: np.ndarray
    face_radius: np.ndarray
    defect: float
    iterations: int
    boundary_mode: str
    tol: float


@dataclass(frozen=True)
class Carrier:
    """The triangulated carrier of a packing and its point-location table.

    Every corner dart contributes the triangle (center of its origin, center
    of its target, center of its face); ``tri_nodes`` holds them in the order
    of ``Truncation.corner_darts``.  Each face center has power r_f^2 with
    respect to the vertex circles on its rim and more with respect to every
    other vertex circle, so the face centers are the vertices of the power
    diagram of the vertex circles.  Hence the power cell of a vertex u meets
    the carrier in the half-kites (c_u, t_uv, c_f), each inside a triangle
    with a corner at c_u, and a carrier point lies in one of the triangles
    ``vertex_triangles[u]`` of the vertex u of least power |z - c_u|^2 - r_u^2:
    those of u's darts, then those of their reverses, -1 where a dart borders
    the outer face or the row is padded (one more row, all -1, stands for no
    vertex).  ``tree`` finds that vertex: it
    holds the lifted points (c_u, sqrt(R^2 - r_u^2)), R the largest vertex
    radius, whose squared distance to (z, 0) is that power plus R^2.
    """

    tri_nodes: np.ndarray            # (n_tri, 3) complex corners
    tree: cKDTree
    vertex_triangles: np.ndarray     # (n_vertices + 1, 2 * largest degree)


@dataclass(frozen=True)
class DoublePacking:
    """A laid-out double circle packing, scaled into the closed unit disc
    around the root circle at 0."""

    trunc: Truncation
    vertex_center: np.ndarray
    vertex_radius: np.ndarray
    face_center: np.ndarray
    face_radius: np.ndarray
    layout_residual: float

    @cached_property
    def carrier(self) -> Carrier:
        """The carrier triangles and their lookup, built on first use (a
        laid-out packing is not moved).  Raises ``ValueError`` when a
        triangle is degenerate."""
        t = self.trunc
        g = t.graph
        darts = t.corner_darts
        tri_nodes = np.stack([self.vertex_center[g.origin[darts]],
                              self.vertex_center[g.target[darts]],
                              self.face_center[t.faces.face_of[darts]]], axis=1)
        e1 = tri_nodes[:, 1] - tri_nodes[:, 0]
        e2 = tri_nodes[:, 2] - tri_nodes[:, 0]
        det = np.abs(e1.real * e2.imag - e1.imag * e2.real)
        if det.max() == 0.0 or det.min() <= 1e-12 * det.max():
            raise ValueError("degenerate triangle in the carrier; "
                             "the layout is inconsistent")

        r = self.vertex_radius
        z = self.vertex_center
        # compact nodes made the queries from height 0 five times slower
        # (r=9 ball, 70k queries: 2.2 s against 0.4 s on a 2-vCPU host)
        tree = cKDTree(np.column_stack([z.real, z.imag, np.sqrt(r.max() ** 2 - r * r)]),
                       compact_nodes=False)
        tri_of = np.full(g.n_darts, -1, dtype=np.int64)
        tri_of[darts] = np.arange(darts.size)
        d = int(g.degrees.max())
        row = g.origin[g.rotation]
        col = np.arange(g.n_darts) - g.offsets[row]
        # the extra last row answers the index the tree returns when a
        # distance overflows: such a point is in no triangle
        table = np.full((g.n_vertices + 1, 2 * d), -1, dtype=np.int64)
        table[row, col] = tri_of[g.rotation]
        table[row, d + col] = tri_of[g.rotation ^ 1]
        return Carrier(tri_nodes, tree, table)

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
    """The one test of whether a truncation packs; ``ValueError`` names the
    first failure.  A vertex that the outer face visits twice is a cut vertex
    (Mohar & Thomassen, *Graphs on Surfaces*, 2001): the layout crosses only
    bounded corners, so it never reaches the blocks past that vertex."""
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
    twice = np.flatnonzero(np.bincount(g.origin[outer]) > 1)
    if twice.size:
        raise ValueError(
            f"the outer face visits rim vertex {int(twice[0])} twice, so it is a "
            "cut vertex and the layout cannot reach past it")
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


def _newton_step(trunc, own, other, resid) -> np.ndarray:
    """The Newton step [s_v, s_f] solving L s = ``resid``, where L = [[D_v,
    -B], [-B^T, D_f]] is minus the Jacobian in both geometries: D_v and D_f
    sum the ``own`` weights at each interior vertex and bounded face, B[v, f]
    is the ``other`` weight of corner (v, f).  D_f is diagonal, so the faces
    are eliminated exactly: S = D_v - B D_f^-1 B^T is factored in the cached
    order of ``Truncation.corner_pattern`` with diagonal pivots, S s_v = r_v +
    B (r_f / D_f), and s_f = (r_f + B^T s_v) / D_f.  Raises ``RuntimeError``
    at a zero pivot, in D_f or in S.
    """
    pattern = trunc.corner_pattern
    free, vertex, face = pattern.free, pattern.vertex, pattern.face
    pa, pb = pattern.pair
    bf = trunc.bounded_faces
    ni = pattern.order.size
    _, cf = _corner_arrays(trunc)
    d_f = np.bincount(cf, weights=own, minlength=trunc.faces.n_faces)[bf]
    if not np.all(d_f > 0):
        raise RuntimeError("a bounded face has no positive Jacobian weight")
    w = other[free]
    data = np.concatenate([own[free], -w[pa] * w[pb] / d_f[face[pa]]])
    # one matrix per pattern, overwritten at every step: the factor keeps no
    # reference to it
    m = pattern.matrix
    m.data[:] = np.bincount(pattern.slot, weights=data, minlength=m.nnz)
    lu = spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    g_f = resid[ni:] / d_f
    rhs = resid[:ni] + np.bincount(vertex, weights=w * g_f[face], minlength=ni)
    s_v = lu.solve(rhs[pattern.order])[pattern.position]
    s_f = g_f + np.bincount(face, weights=w * s_v[vertex], minlength=bf.size) / d_f
    return np.concatenate([s_v, s_f])


def _solve_prescribed(trunc, boundary_x, tol, max_iter, hyperbolic=False):
    """Newton iteration on the angle sums with the boundary unknowns fixed
    to ``boundary_x``; returns (vertex radii, face radii, defect, iterations).

    Euclidean unknowns are log radii, starting from 0; hyperbolic ones are
    x = log tanh(r/2), starting from log tanh(1/2), and x = 0 is a
    horocycle.  Each step factors only the interior-vertex block left after
    eliminating the faces (``_newton_step``).  A hyperbolic step from a
    residual within ``tol`` is followed by the walk of ``_disc_radii``, whose
    Euclidean defect must be within ``tol`` too; the solve stops once
    ``_STALLED_WALKS`` walks in a row set no new least walked defect.
    """
    cv, cf = _corner_arrays(trunc)
    interior, bf = trunc.interior, trunc.bounded_faces
    ni = interior.size
    corners = _hyperbolic_corners if hyperbolic else _euclidean_corners

    start = math.log(math.tanh(0.5)) if hyperbolic else 0.0
    xv = np.full(trunc.graph.n_vertices, start)
    xv[trunc.boundary] = boundary_x
    xf = np.full(trunc.faces.n_faces, start)
    walked, least, stale = None, math.inf, 0
    # the iterate after the last step is checked too, so a failure quotes
    # its defect; a hyperbolic one packs only through the walk after a step
    # from within tol, so its failure quotes the last walked defect as well
    for it in range(max_iter + 1):
        at_v, at_f, own, other = corners(xv[cv], xf[cf])
        resid = _angle_residual(trunc, at_v, at_f)
        defect = float(np.max(np.abs(resid)))
        if defect <= tol and not hyperbolic:
            return np.exp(xv), np.exp(xf), defect, it
        if it == max_iter:
            break
        try:
            step = _newton_step(trunc, own, other, resid)
        except RuntimeError as exc:  # a zero pivot, in D_f or in SuperLU
            raise ConvergenceError(
                f"radius iteration met a singular Jacobian at step {it + 1} "
                f"(defect {defect:.3e})") from exc
        if hyperbolic:
            # keep x < 0: no unknown moves more than halfway to 0
            x = np.concatenate([xv[interior], xf[bf]])
            step /= max(1.0, float(np.max(-2.0 * step / x)))
        else:
            step = np.clip(step, -2.0, 2.0)
        xv[interior] += step[:ni]
        xf[bf] += step[ni:]
        if defect <= tol:
            # this step from within tol lands near the rounding floor; walked
            # radii with a defect just under tol can close up to 300 times worse
            vr, fr = _disc_radii(trunc, xv, xf)
            walked = angle_defect(trunc, vr, fr)
            if walked <= tol:
                return vr, fr, walked, it + 1
            stale = 0 if walked < least else stale + 1
            least = min(least, walked)
            if stale == _STALLED_WALKS:
                it += 1  # steps taken
                break
    stall = (f"defect {defect:.3e}" if walked is None else
             f"walked Euclidean defect {walked:.3e}, above tol {tol:.3e} "
             f"(hyperbolic {defect:.3e}),")
    raise ConvergenceError(f"radius iteration stalled at {stall} after {it} steps")


def _disc_radii(trunc, xv, xf):
    """Euclidean radii of the hyperbolic packing ``(xv, xf)`` in the unit
    disc, with the root circle centered at 0 (NaN at the outer face).

    Each tree dart gets a disc automorphism (a, b): z -> (a z + b) /
    (conj(b) z + conj(a)), |a|^2 - |b|^2 = 1, taking 0 to the tangency point
    of its edge and +1 toward its target.  The root dart's is (1, t) /
    sqrt(1 - t^2), t = tanh(r_root / 2); a child composes its parent's with
    (i, 0) for a reverse, or for a turn of sign s across face g with a
    reverse and then the rotation about the center of g by its kite corner:
    (cosh x_g + i s cosh x_v, i s) / sqrt(D), D as in ``_hyperbolic_corners``.
    Turns never rotate about a horocycle's ideal center.  In its first tree
    dart's frame a circle has radius rho = 1 / (2 cosh x) and center rho u,
    u = -1 for a vertex and -i for a face, and (a, b) maps it to radius
    rho / (|a|^2 + 2 rho Re(a conj(b) u)): 0.5 / Re(a conj(a - b)) if x = 0.
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
    ab = a * b.conj()
    bf = trunc.bounded_faces
    ev, ef = tree.vertex_dart, tree.face_dart[bf]
    rho_v, rho_f = 0.5 / np.cosh(xv), 0.5 / np.cosh(xf[bf])
    fr = np.full(trunc.faces.n_faces, np.nan)
    fr[bf] = rho_f / (np.abs(a[ef]) ** 2 + 2.0 * rho_f * ab[ef].imag)
    return rho_v / (np.abs(a[ev]) ** 2 - 2.0 * rho_v * ab[ev].real), fr


def solve_radii(trunc: Truncation, boundary_mode: str = "prescribed",
                boundary_radii=None, tol: float = 1e-10,
                max_iter: int = 80) -> RadiiSolution:
    """Solve the angle-sum equations for all interior vertex and bounded face
    radii.

    ``boundary_mode`` is either "prescribed" (boundary vertex radii fixed to
    ``boundary_radii``, default all ones) or "disc": the maximal packing,
    which fills the unit disc around the root circle at 0 with every
    boundary circle internally tangent to the unit circle, solved in
    hyperbolic radii (``iterations`` counts those steps) and read off one
    walk of the dart tree.  ``defect`` is the returned radii's angle defect.
    A truncation that cannot pack raises ``ValueError`` before any solve.
    """
    tol, max_iter = number("tol", tol, POSITIVE), integer("max_iter", max_iter, 0)
    _check_packable(trunc)
    if boundary_mode == "prescribed":
        rb = 1.0 if boundary_radii is None else boundary_radii
        rb = np.broadcast_to(np.asarray(rb, dtype=float), trunc.boundary.shape).copy()
        if not np.all(np.isfinite(rb) & (rb > 0)):
            raise ValueError("boundary radii must be finite and positive")
        vr, fr, defect, iters = _solve_prescribed(trunc, np.log(rb), tol, max_iter)
        vr[trunc.boundary] = rb
        fr[trunc.outer_face] = np.nan
    elif boundary_mode == "disc":
        if boundary_radii is not None:
            raise ValueError("disc mode fixes the boundary radii itself; "
                             "boundary_radii applies to prescribed mode only")
        vr, fr, defect, iters = _solve_prescribed(trunc, 0.0, tol, max_iter,
                                                  hyperbolic=True)
    else:
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    return RadiiSolution(vr, fr, defect, iters, boundary_mode, tol)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def layout(trunc: Truncation, radii: RadiiSolution) -> DoublePacking:
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
    root's first dart, so the root center is 0, and the packing is scaled
    into the closed unit disc: by 1 up to rounding for disc-mode radii,
    which fill it already.  ``solve_radii``'s packability test runs first,
    and a truncation that passes it has every circle reached.
    """
    _check_packable(trunc)
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


def _close_pairs(mid: np.ndarray, rho: np.ndarray):
    """Blocks (i, j) of index pairs that hold every unordered pair of points
    ``mid`` closer than rho_i + rho_j, each once, among others no farther
    than twice that.

    Class k holds the points with floor(log2(max rho / rho)) = k, each class
    has a k-d tree, and ``top`` is a class's largest rho.  A pair in classes
    ci and cj has rho_i + rho_j <= top_ci + top_cj, so one block searches each
    class against itself at twice its top and one each later class at
    top_ci + top_cj.  Every rho exceeds half its class's top, so no search
    reaches past twice the distance it must cover: a point of large rho does
    not sweep up the many small ones beyond it.
    """
    octave = np.floor(np.log2(rho.max() / rho))
    order = np.argsort(octave, kind="stable")
    members = np.split(order, np.flatnonzero(np.diff(octave[order])) + 1)
    trees = [cKDTree(np.column_stack([mid[m].real, mid[m].imag])) for m in members]
    top = [float(rho[m].max()) for m in members]
    for ci, (mi, ti) in enumerate(zip(members, trees)):
        pairs = ti.query_pairs(2.0 * top[ci], output_type="ndarray")
        yield mi[pairs[:, 0]], mi[pairs[:, 1]]
        for cj in range(ci + 1, len(members)):
            hits = ti.sparse_distance_matrix(trees[cj], top[ci] + top[cj],
                                             output_type="ndarray")
            yield mi[hits["i"]], members[cj][hits["j"]]


def _sausage_bound(pk: DoublePacking, cap: float) -> float:
    """Largest delta below which all non-adjacent edge sausages are disjoint,
    by a conservative capsule test: the segment-to-segment distance must
    exceed delta times the sum of the larger endpoint radii.

    Exact below ``cap``: the smallest pair ratio when it is below ``cap``,
    else ``math.inf``.  Let rho be an edge's half length plus ``cap`` times
    its larger endpoint radius.  A pair whose ratio is below ``cap`` has a
    point on each segment closer than ``cap`` times the radius sum, so its
    midpoints are closer than rho_i + rho_j; ``_close_pairs`` finds those,
    and only the disjoint ones are tested, block by block against a running
    minimum (which does not depend on the order of the blocks; the test is
    symmetric in the two edges).  rho carries a 1e-6 relative margin, a
    million times the rounding in the ratio and in these distances, so no
    pair whose computed ratio is below ``cap`` can fall outside the test,
    while a pair at the test's rounding edge has a ratio of at least ``cap``
    and cannot change a result below it.  Callers pass
    ``_sausage_cap(delta)`` for the largest delta they test.
    """
    g = pk.trunc.graph
    u = g.origin[::2]
    v = g.target[::2]
    a = pk.vertex_center[u]
    b = pk.vertex_center[v]
    rmax = np.maximum(pk.vertex_radius[u], pk.vertex_radius[v])
    mid = 0.5 * (a + b)
    rho = (0.5 * np.abs(b - a) + cap * rmax) * (1.0 + 1e-6)
    # a static filter: no coordinate exceeds s in size, so neither product
    # in a cross product below exceeds 4 s^2 (up to rounding), and a cross
    # product larger than ``sure`` has the sign of its exact value
    s = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    sure = 9.0 * s * s * _CROSS_ERR

    def seg_point(p, sa, sb):
        ab = sb - sa
        denom = np.maximum(np.abs(ab) ** 2, 1e-300)
        t = np.clip(((p - sa) * ab.conj()).real / denom, 0.0, 1.0)
        return np.abs(sa + t * ab - p)

    def cross(o, p, q):
        return ((p - o) * (q - o).conj()).imag

    best = math.inf
    for ii, jj in _close_pairs(mid, rho):
        ok = (u[ii] != u[jj]) & (u[ii] != v[jj])
        ok &= (v[ii] != u[jj]) & (v[ii] != v[jj])
        ok &= np.abs(mid[ii] - mid[jj]) < rho[ii] + rho[jj]
        ii, jj = ii[ok], jj[ok]
        ai, bi = a[ii], b[ii]
        aj, bj = a[jj], b[jj]
        d = np.minimum(
            np.minimum(seg_point(ai, aj, bj), seg_point(bi, aj, bj)),
            np.minimum(seg_point(aj, ai, bi), seg_point(bj, ai, bi)))
        # proper crossings have distance zero: each segment's ends lie
        # strictly on both sides of the other's line.  That is read from the
        # signs of the four cross products where all are certain.  A pair is
        # apart where both ends of one segment are certainly on one side of
        # the other's line; the few pairs left are settled exactly.
        c1, c2 = cross(ai, bi, aj), cross(ai, bi, bj)
        c3, c4 = cross(aj, bj, ai), cross(aj, bj, bi)
        crossing = (c1 * c2 < 0) & (c3 * c4 < 0)
        near12 = np.minimum(np.abs(c1), np.abs(c2))
        near34 = np.minimum(np.abs(c3), np.abs(c4))
        apart = ((near12 > sure) & (c1 * c2 > 0)) | ((near34 > sure) & (c3 * c4 > 0))
        for k in np.flatnonzero((np.minimum(near12, near34) <= sure) & ~apart):
            crossing[k] = _crosses_exactly(ai[k], bi[k], aj[k], bj[k])
        d = np.where(crossing, 0.0, d)
        best = min(best, float(np.min(d / (rmax[ii] + rmax[jj]), initial=math.inf)))
    return best if best < cap else math.inf


def _crosses_exactly(a, b, c, d) -> bool:
    """Whether segments ab and cd cross properly, in exact rational
    arithmetic on the doubles: for the pairs whose signs are not certain."""
    a, b, c, d = ((Fraction(z.real), Fraction(z.imag)) for z in (a, b, c, d))

    def side(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    return side(a, b, c) * side(a, b, d) < 0 and side(c, d, a) * side(c, d, b) < 0


def compute_delta0(pk: DoublePacking) -> float:
    """Largest dyadic delta <= 1/2 satisfying the edge-length condition
    (a quarter of every edge is at least delta times the origin radius) and
    disjointness of all non-adjacent edge sausages."""
    m_edge = _edge_condition_bound(pk)
    admitted = [delta for delta in (0.5 ** k for k in range(1, 61))
                if delta <= m_edge * (1.0 + 1e-9)]
    if admitted:
        # the bound need only be exact below the largest delta left to test
        m_saus = _sausage_bound(pk, _sausage_cap(admitted[0]))
        for delta in admitted:
            if _sausages_clear(delta, m_saus):
                return delta
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
    # compute_delta0 returns only a delta whose sausages are clear
    return GeometryReport(pk.max_tangency_residual(),
                          pk.max_orthogonality_residual(),
                          ring, True, compute_delta0(pk))


def packing_to_json(pk: DoublePacking) -> dict:
    """The packing as a JSON document: ``circles``, one record ``{"id",
    "kind", "radius", "center": [x, y]}`` per vertex and then per bounded
    face, and the ``layout_residual``.  The circles are ``textio.Records``,
    held as columns: indexing or iterating them builds each plain record,
    ``textio.json_text`` writes them without building any, and
    ``json.dumps`` raises ``TypeError`` on them."""
    nv, bf = pk.trunc.n_vertices, pk.trunc.bounded_faces
    zs = np.concatenate([pk.vertex_center, pk.face_center[bf]])
    circles = Records({"id": np.concatenate([np.arange(nv), bf]),
                       "kind": np.repeat(np.array(["vertex", "face"]), [nv, bf.size]),
                       "radius": np.concatenate([pk.vertex_radius, pk.face_radius[bf]]),
                       "center": [zs.real, zs.imag]})
    return {"circles": circles, "layout_residual": pk.layout_residual}
