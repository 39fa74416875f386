"""Double circle packing solver: radii, layout, delta0, geometry reports."""

import dataclasses
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import dijkstra

from doublepack import maps, packing
from doublepack.errors import ConvergenceError
from doublepack.maps import Truncation, boundary_truncation, build_map, truncate
from doublepack.packing import (
    DoublePacking,
    RadiiSolution,
    _edge_condition_bound,
    _sausage_bound,
    _sausage_cap,
    _sausages_clear,
    angle_defect,
    compute_delta0,
    geometry_report,
    layout,
    packing_to_json,
    solve_radii,
)
from doublepack.potential import capacity, escape_capacity
from doublepack.tilings import generate_grid, generate_tiling

from conftest import PINCHED_WHEEL, delaunay_rotations

TRIANGLE = [[1, 2], [2, 0], [0, 1]]


def flower_center_radius_oracle(p=7, r_boundary=1.0):
    """Scalar bisection for the symmetric one-interior-vertex packing.

    By symmetry all petals share one face radius r_f, fixed by the center
    condition p * 2*atan(r_f / r_c) = 2*pi, i.e. r_f = r_c * tan(pi/p); the
    remaining unknown r_c is pinned by the face condition
    atan(r_c/r_f) + 2*atan(r_boundary/r_f) = pi, decreasing in r_c.
    """
    t = math.tan(math.pi / p)

    def face_defect(r_c):
        r_f = r_c * t
        return math.atan(r_c / r_f) + 2 * math.atan(r_boundary / r_f) - math.pi

    lo, hi = 1e-6, 1e6
    assert face_defect(lo) > 0 > face_defect(hi)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if face_defect(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def flower_truncation(p=7):
    return truncate(generate_tiling(p, 3, 2), root=0, radius=1)


def delaunay_truncation(n, seed):
    """Boundary truncation of the Delaunay triangulation of ``n`` seeded
    uniform points in the unit disc."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(n))
    t = 2 * np.pi * rng.random(n)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return boundary_truncation(build_map(delaunay_rotations(pts)))


def stack_layout_reference(trunc, radii):
    """Reference layout: the dart-by-dart depth-first stack traversal that
    preceded the cached dart tree.  Returns the normalized vertex centers,
    vertex radii, face centers and face radii, and the closing residual."""
    g = trunc.graph
    faces = trunc.faces
    vr = radii.vertex_radius
    fr = radii.face_radius
    nxt, prv, origin, target = g.nxt, g.prv, g.origin, g.target
    face_of = faces.face_of
    bounded = face_of != trunc.outer_face

    corner = np.zeros(g.n_darts)
    corner[bounded] = 2.0 * np.arctan2(fr[face_of[bounded]], vr[origin[bounded]])
    half = 0.5 * corner
    hyp = np.zeros(g.n_darts)
    hyp[bounded] = np.hypot(vr[origin[bounded]], fr[face_of[bounded]])

    dirs = np.full(g.n_darts, np.nan)
    zv = np.full(g.n_vertices, np.nan, dtype=complex)
    zf = np.full(faces.n_faces, np.nan, dtype=complex)
    worst = 0.0
    zv[trunc.root] = 0.0
    first = int(g.vertex_darts(trunc.root)[0])
    dirs[first] = 0.0
    stack = [first]
    while stack:
        e = stack.pop()
        v = int(origin[e])
        u = int(target[e])
        de = dirs[e]
        z_new = zv[v] + (vr[v] + vr[u]) * np.exp(1j * de)
        if np.isnan(zv[u].real):
            zv[u] = z_new
        else:
            worst = max(worst, abs(z_new - zv[u]) / (vr[v] + vr[u]))
        r = e ^ 1
        if np.isnan(dirs[r]):
            dirs[r] = de + np.pi
            stack.append(r)
        if bounded[e]:
            f = int(face_of[e])
            zc = zv[v] + hyp[e] * np.exp(1j * (de - half[e]))
            if np.isnan(zf[f].real):
                zf[f] = zc
            else:
                worst = max(worst, abs(zc - zf[f]) / hyp[e])
            pe = int(prv[e])
            if np.isnan(dirs[pe]):
                dirs[pe] = de - corner[e]
                stack.append(pe)
        ne = int(nxt[e])
        if bounded[ne] and np.isnan(dirs[ne]):
            dirs[ne] = de + corner[ne]
            stack.append(ne)

    bf = trunc.bounded_faces
    scale = max(float(np.max(np.abs(zv) + vr)),
                float(np.max(np.abs(zf[bf]) + fr[bf])))
    return zv / scale, vr / scale, zf / scale, fr / scale, worst


def brute_sausage_bound(pk, chunk=128):
    """Reference sausage bound: the all-pairs capsule test that preceded the
    k-d tree pruning, exact at every value.  A pair crosses where each
    segment's ends lie strictly on both sides of the other's line: by the
    signs of the cross products that Shewchuk's static error bound makes
    certain, and by exact rational arithmetic where it does not."""
    g = pk.trunc.graph
    u = g.origin[::2]
    v = g.target[::2]
    a = pk.vertex_center[u]
    b = pk.vertex_center[v]
    rmax = np.maximum(pk.vertex_radius[u], pk.vertex_radius[v])
    m = u.size

    def seg_point(p, sa, sb):
        ab = sb - sa
        denom = np.maximum(np.abs(ab) ** 2, 1e-300)
        t = np.clip(((p - sa) * ab.conj()).real / denom, 0.0, 1.0)
        return np.abs(sa + t * ab - p)

    best = math.inf
    for i0 in range(0, m, chunk):
        i1 = min(i0 + chunk, m)
        ii = np.arange(i0, i1)[:, None]
        jj = np.arange(m)[None, :]
        ok = (jj > ii)
        ok &= (u[ii] != u[jj]) & (u[ii] != v[jj])
        ok &= (v[ii] != u[jj]) & (v[ii] != v[jj])
        if not np.any(ok):
            continue
        ai, bi = a[ii], b[ii]
        aj, bj = a[jj], b[jj]
        d = np.minimum(
            np.minimum(seg_point(ai, aj, bj), seg_point(bi, aj, bj)),
            np.minimum(seg_point(aj, ai, bi), seg_point(bj, ai, bi)))
        # proper crossings have distance zero
        s1 = certain_side(ai, bi, aj) * certain_side(ai, bi, bj)
        s2 = certain_side(aj, bj, ai) * certain_side(aj, bj, bi)
        crossing = (s1 < 0) & (s2 < 0)
        for i, j in zip(*np.nonzero(ok & (s1 <= 0) & (s2 <= 0) & ~crossing)):
            p, q, r, t = [(Fraction(z.real), Fraction(z.imag))
                          for z in (ai[i, 0], bi[i, 0], aj[0, j], bj[0, j])]
            crossing[i, j] = (exact_side(p, q, r) * exact_side(p, q, t) < 0
                              and exact_side(r, t, p) * exact_side(r, t, q) < 0)
        d = np.where(crossing, 0.0, d)
        ratio = d / (rmax[ii] + rmax[jj])
        best = min(best, float(ratio[ok].min()))
    return best


def vertex_face_laplacian(trunc, own, other):
    """The grounded vertex-face Laplacian of the corner weights, interior
    vertices then bounded faces, assembled from COO (equal entries sum)."""
    n = trunc.graph.n_vertices
    cv, cf = packing._corner_arrays(trunc)
    interior, bf = trunc.interior, trunc.bounded_faces
    ni, nun = interior.size, interior.size + bf.size
    idx = np.full(n + trunc.faces.n_faces, -1, dtype=np.int64)
    idx[interior] = np.arange(ni)
    idx[n + bf] = np.arange(ni, nun)
    av, af = idx[cv], idx[n + cf]
    free_v = av >= 0
    rows = np.concatenate([af, av[free_v], av[free_v], af[free_v]])
    cols = np.concatenate([af, av[free_v], af[free_v], av[free_v]])
    data = np.concatenate([own, own[free_v], -other[free_v], -other[free_v]])
    return sp.coo_matrix((data, (rows, cols)), shape=(nun, nun)).tocsc()


def spsolve_newton_reference(trunc, boundary_x, tol, max_iter, hyperbolic=False):
    """Reference Newton iteration: the angle-sum solve that preceded the
    cached ``corner_pattern``, assembling each vertex-face Jacobian from COO
    and solving it with ``spsolve`` (a fresh COLAMD ordering and partial
    pivoting)."""
    n = trunc.graph.n_vertices
    cv, cf = packing._corner_arrays(trunc)
    interior, bf = trunc.interior, trunc.bounded_faces
    ni = interior.size
    corners = packing._hyperbolic_corners if hyperbolic else packing._euclidean_corners

    start = math.log(math.tanh(0.5)) if hyperbolic else 0.0
    xv = np.full(n, start)
    xv[trunc.boundary] = boundary_x
    xf = np.full(trunc.faces.n_faces, start)
    for it in range(max_iter + 1):
        at_v, at_f, own, other = corners(xv[cv], xf[cf])
        resid = packing._angle_residual(trunc, at_v, at_f)
        defect = float(np.max(np.abs(resid)))
        if defect <= tol and not hyperbolic:
            return np.exp(xv), np.exp(xf), defect, it
        if it == max_iter:
            break
        step = spla.spsolve(vertex_face_laplacian(trunc, own, other), resid)
        if hyperbolic:
            x = np.concatenate([xv[interior], xf[bf]])
            step /= max(1.0, float(np.max(-2.0 * step / x)))
        else:
            step = np.clip(step, -2.0, 2.0)
        xv[interior] += step[:ni]
        xf[bf] += step[ni:]
        if defect <= tol:
            vr, fr = packing._disc_radii(trunc, xv, xf)
            defect = angle_defect(trunc, vr, fr)
            if defect <= tol:
                return vr, fr, defect, it + 1
    raise ConvergenceError(f"reference iteration stalled at defect {defect:.3e}")


def reference_delta0(pk):
    """Reference delta0: every dyadic delta <= 1/2 from the top, tested
    against the edge condition and the all-pairs sausage bound."""
    m_edge = _edge_condition_bound(pk)
    m_saus = brute_sausage_bound(pk)
    delta = 0.5
    for _ in range(60):
        if delta <= m_edge * (1.0 + 1e-9) and _sausages_clear(delta, m_saus):
            return delta
        delta *= 0.5
    raise ConvergenceError("no dyadic delta0 found")


def no_newton_step(*args, **kwargs):
    raise AssertionError("a Newton iteration started")


def honeycomb_truncation():
    """Boundary truncation of seven unit hexagons: one and the ring around it."""
    centers = [0j] + [math.sqrt(3) * np.exp(1j * math.pi * (2 * k + 1) / 6)
                      for k in range(6)]
    ids, xy, nbrs = {}, [], []
    for c in centers:
        ring = []
        for k in range(6):
            z = c + np.exp(1j * math.pi * k / 3)
            key = (round(z.real, 6), round(z.imag, 6))
            if key not in ids:
                ids[key] = len(xy)
                xy.append(z)
                nbrs.append(set())
            ring.append(ids[key])
        for k in range(6):
            nbrs[ring[k]].add(ring[k - 1])
            nbrs[ring[k - 1]].add(ring[k])
    rotations = [sorted(nbrs[v], key=lambda w: np.angle(xy[w] - xy[v]))
                 for v in range(len(xy))]
    return boundary_truncation(build_map(rotations))


def rotations_from_drawing(xy, edges):
    """Rotation system of a straight-line drawing: neighbors sorted
    counterclockwise by angle."""
    nbrs = {v: [] for v in xy}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(nbrs[v], key=lambda u: np.angle(xy[u] - xy[v]))
            for v in range(len(xy))]


def corner_block_truncation():
    """The 3x3 grid with a triangle hanging off its corner 8: the triangle
    meets the grid only across outer-face corners, which the layout never
    turns through."""
    xy = {v: complex(v % 3, v // 3) for v in range(9)}
    xy[9], xy[10] = 3 + 2j, 2 + 3j
    edges = [(v, v + 1) for v in range(9) if v % 3 < 2]
    edges += [(v, v + 3) for v in range(6)] + [(8, 9), (9, 10), (10, 8)]
    return boundary_truncation(build_map(rotations_from_drawing(xy, edges)))


def certain_side(o, p, q):
    """The sign of (p - o) x (q - o) where Shewchuk's static error bound
    makes the double value certain, else 0."""
    left = (p.real - o.real) * (q.imag - o.imag)
    right = (p.imag - o.imag) * (q.real - o.real)
    det = left - right
    err = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53 * (np.abs(left) + np.abs(right))
    return np.where(np.abs(det) > err, np.sign(det), 0.0)


def exact_side(o, p, q):
    """(p - o) x (q - o) for points given as pairs of fractions."""
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def triangle_around_hexagon():
    """Outer triangle 0, 1, 2 around the hexagon 3-8, joined by the edges
    0-3, 0-8, 1-4, 1-5, 2-6 and 2-7: a polyhedral map whose largest face,
    the hexagon, is bounded."""
    angle = {0: 90, 1: 210, 2: 330, 3: 120, 4: 180, 5: 240, 6: 300, 7: 0, 8: 60}
    xy = {v: (2 if v < 3 else 1) * np.exp(1j * math.radians(a))
          for v, a in angle.items()}
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (0, 8), (1, 4), (1, 5), (2, 6), (2, 7)]
    edges += [(3 + k, 3 + (k + 1) % 6) for k in range(6)]
    return build_map(rotations_from_drawing(xy, edges))


def assert_fills_unit_disc(t, sol):
    """Disc-mode radii lay out in the unit disc around the root at 0 at the
    scale they were solved at, every boundary circle touching the unit
    circle, all to 1e-9.  The maximal packing is unique up to disc
    automorphisms, so this pins the radii completely."""
    assert sol.defect <= 1e-9
    pk = layout(t, sol)
    assert np.max(np.abs(pk.vertex_radius - sol.vertex_radius)) <= 1e-9
    assert abs(pk.vertex_center[t.root]) <= 1e-12
    reach = np.abs(pk.vertex_center[t.boundary]) + pk.vertex_radius[t.boundary]
    assert np.max(np.abs(1.0 - reach)) <= 1e-9
    assert pk.layout_residual <= 1e-9
    assert pk.max_tangency_residual() <= 1e-9
    assert pk.max_orthogonality_residual() <= 1e-9


class TestSolveRadii:
    def test_flower_matches_bisection_oracle(self):
        oracle_rc = flower_center_radius_oracle(7)
        t = flower_truncation(7)
        sol = solve_radii(t, tol=1e-12)
        assert sol.vertex_radius[t.root] == pytest.approx(oracle_rc, rel=1e-9)
        petals = sol.face_radius[t.bounded_faces]
        assert np.allclose(petals, oracle_rc * math.tan(math.pi / 7), rtol=1e-9)

    def test_square_patch_all_radii_equal(self):
        t = boundary_truncation(generate_grid(4, 4))
        sol = solve_radii(t, tol=1e-12)
        assert np.allclose(sol.vertex_radius, 1.0, atol=1e-9)
        assert np.allclose(sol.face_radius[t.bounded_faces], 1.0, atol=1e-9)

    def test_triangle_not_packable(self):
        with pytest.raises(ValueError):
            boundary_truncation(build_map(TRIANGLE))

    def test_outer_face_found_from_boundary(self):
        # the largest face is the bounded hexagon; the outer face is the one
        # face whose rim is the boundary
        t = Truncation(triangle_around_hexagon(), [0, 1, 2], root=3, radius=1)
        assert sorted(t.faces.vertices(t.graph, t.outer_face)) == [0, 1, 2]
        assert t.rim_is_boundary
        for mode in ("prescribed", "disc"):
            sol = solve_radii(t, boundary_mode=mode, tol=1e-14)
            assert sol.defect <= 1e-14
            pk = layout(t, sol)
            assert pk.max_tangency_residual() <= 1e-13
            assert pk.max_orthogonality_residual() <= 1e-13

    def test_no_face_with_the_boundary_rim(self):
        # grounding the hexagon's far side leaves no face with that rim
        t = Truncation(triangle_around_hexagon(), [0, 1, 2, 4], root=3, radius=1)
        assert t.outer_face is None
        assert not t.rim_is_boundary
        with pytest.raises(ValueError, match="outer face rim"):
            solve_radii(t)

    def test_pendant_vertices_rejected(self):
        # the (4,4) ball of depth 2 has four pendant edges, (1,9), (3,10),
        # (4,11) and (6,12), with the outer face on both sides: no corner
        # fixes their direction, so layout could never place vertex 9
        t = boundary_truncation(generate_tiling(4, 4, 2))
        with pytest.raises(ValueError, match=r"edge \(1, 9\).*vertex 9 hangs"):
            solve_radii(t)

    @pytest.mark.parametrize("mode", ["prescribed", "disc"])
    def test_pinched_rim_rejected_before_solving(self, mode, monkeypatch):
        # the outer face visits rim vertex 1 twice, so the triangle past it
        # can never be laid out; the gate says so before any Newton step
        t = boundary_truncation(build_map(PINCHED_WHEEL))
        assert t.rim_is_boundary
        monkeypatch.setattr(packing, "_solve_prescribed", no_newton_step)
        with pytest.raises(ValueError, match="outer face visits rim vertex 1 twice"):
            solve_radii(t, boundary_mode=mode)

    def test_ball_that_does_not_pack(self):
        # the (5,4) ball of radius 3 is a valid grounding set whose boundary
        # is not the outer face rim: potential theory works on it, packing
        # refuses it
        t = truncate(generate_tiling(5, 4, 4), 0, 3)
        assert not t.rim_is_boundary
        target = [t.root]
        assert capacity(t, target).value == pytest.approx(escape_capacity(t, target),
                                                          rel=0, abs=1e-8)
        with pytest.raises(ValueError, match="outer face rim"):
            solve_radii(t)

    def test_interior_degree_two_rejected(self):
        # hexagon with a subdivided chord: vertex 6 is interior with degree 2,
        # so its two kite corners can never sum to a full turn
        rotations = [[1, 6, 5], [2, 0], [1, 3], [6, 2, 4], [5, 3], [0, 4], [0, 3]]
        t = boundary_truncation(build_map(rotations))
        with pytest.raises(ValueError, match="degree"):
            solve_radii(t)

    def test_defects_below_tolerance(self):
        t = boundary_truncation(generate_tiling(7, 3, 3))
        sol = solve_radii(t, tol=1e-10)
        assert angle_defect(t, sol.vertex_radius, sol.face_radius) <= 1e-10

    def test_prescribed_values_respected(self):
        t = flower_truncation(7)
        values = 1.0 + 0.1 * np.arange(t.boundary.size)
        sol = solve_radii(t, boundary_radii=values, tol=1e-12)
        assert np.allclose(sol.vertex_radius[t.boundary], values)
        assert angle_defect(t, sol.vertex_radius, sol.face_radius) <= 1e-11

    def test_last_step_is_checked(self):
        # the iterate after the last allowed step counts: a budget of exactly
        # the steps the default solve takes packs, one step less raises and
        # quotes the defect of the iterate it stopped at
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        steps = solve_radii(t).iterations
        sol = solve_radii(t, max_iter=steps)
        assert sol.iterations == steps and sol.defect <= 1e-10
        with pytest.raises(ConvergenceError, match=f"after {steps - 1} steps") as err:
            solve_radii(t, max_iter=steps - 1)
        assert float(str(err.value).split("defect ")[1].split()[0]) > 1e-10

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_disc_failure_quotes_last_iterate(self, max_iter, monkeypatch):
        # a disc solve that runs out of steps quotes the defect of the iterate
        # it stops at: one residual per iterate, the start included
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        seen = []
        residual = packing._angle_residual

        def record(*args):
            resid = residual(*args)
            seen.append(float(np.max(np.abs(resid))))
            return resid

        monkeypatch.setattr(packing, "_angle_residual", record)
        with pytest.raises(ConvergenceError, match=f"after {max_iter} steps") as err:
            solve_radii(t, boundary_mode="disc", max_iter=max_iter)
        assert len(seen) == max_iter + 1
        assert seen == sorted(seen, reverse=True)
        assert f"defect {seen[-1]:.3e} " in str(err.value)

    @pytest.mark.parametrize("mode", ["prescribed", "disc"])
    def test_negative_step_budget_rejected(self, mode):
        t = truncate(generate_tiling(7, 3, 3), root=0, radius=2)
        with pytest.raises(ValueError, match="max_iter"):
            solve_radii(t, boundary_mode=mode, max_iter=-1)

    @pytest.mark.parametrize("mode", ["prescribed", "disc"])
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, mode, tol, monkeypatch):
        t = truncate(generate_tiling(7, 3, 3), root=0, radius=2)
        monkeypatch.setattr(packing, "_solve_prescribed", no_newton_step)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve_radii(t, boundary_mode=mode, tol=tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_boundary_radii_must_be_finite_and_positive(self, bad, monkeypatch):
        t = truncate(generate_tiling(7, 3, 3), root=0, radius=2)
        monkeypatch.setattr(packing, "_solve_prescribed", no_newton_step)
        rb = np.ones(t.boundary.size)
        rb[-1] = bad
        for radii in (bad, rb):
            with pytest.raises(ValueError, match="boundary radii must be finite and positive"):
                solve_radii(t, boundary_radii=radii)

    def test_scaling_boundary_scales_solution(self):
        t = boundary_truncation(generate_tiling(7, 3, 3))
        a = solve_radii(t, tol=1e-12)
        b = solve_radii(t, boundary_radii=3.0 * np.ones(t.boundary.size), tol=1e-12)
        assert np.allclose(b.vertex_radius, 3.0 * a.vertex_radius, rtol=1e-8)
        fr = t.bounded_faces
        assert np.allclose(b.face_radius[fr], 3.0 * a.face_radius[fr], rtol=1e-8)


class TestLayout:
    def test_square_patch_centers_on_lattice(self):
        t = boundary_truncation(generate_grid(4, 4))
        pk = layout(t, solve_radii(t, tol=1e-12))
        z = pk.vertex_center
        # every horizontal/vertical neighbor step is the same lattice vector
        steps = []
        for e in range(0, t.graph.n_darts, 2):
            u, v = int(t.graph.origin[e]), int(t.graph.target[e])
            steps.append(z[v] - z[u])
        steps = np.array(steps)
        lengths = np.abs(steps)
        assert np.allclose(lengths, lengths[0], rtol=1e-9)
        axis = np.angle(steps / steps[0]) % (np.pi / 2)
        assert np.all(np.minimum(axis, np.pi / 2 - axis) < 1e-9)

    def test_flower_neighbors_on_common_circle(self):
        t = flower_truncation(7)
        pk = layout(t, solve_radii(t, tol=1e-12))
        ring = np.abs(pk.vertex_center[t.boundary] - pk.vertex_center[t.root])
        assert np.allclose(ring, ring[0], rtol=1e-9)

    def test_residuals_below_tolerance(self):
        t = boundary_truncation(generate_tiling(7, 3, 4))
        pk = layout(t, solve_radii(t, tol=1e-10))
        assert pk.max_tangency_residual() <= 1e-4
        assert pk.max_orthogonality_residual() <= 1e-4

    def test_vertex_circles_disjoint(self):
        t = boundary_truncation(generate_tiling(7, 3, 3))
        pk = layout(t, solve_radii(t, tol=1e-10))
        z, r = pk.vertex_center, pk.vertex_radius
        n = z.size
        ii, jj = np.triu_indices(n, k=1)
        gap = np.abs(z[ii] - z[jj]) - (r[ii] + r[jj])
        assert gap.min() >= -1e-6 * r.max()

    def test_normalized_to_unit_disc(self):
        t = boundary_truncation(generate_tiling(7, 3, 3))
        pk = layout(t, solve_radii(t))
        assert abs(pk.vertex_center[t.root]) <= 1e-12
        reach = np.abs(pk.vertex_center) + pk.vertex_radius
        assert reach.max() == pytest.approx(1.0, abs=1e-9)

    def test_layout_ignores_the_scale_of_the_radii(self):
        t = flower_truncation(7)
        sol = solve_radii(t, tol=1e-12)
        scaled = solve_radii(t, boundary_radii=2.5 * np.ones(t.boundary.size),
                             tol=1e-12)
        a, b = layout(t, sol), layout(t, scaled)
        assert np.allclose(b.vertex_center, a.vertex_center, atol=1e-8)
        assert np.allclose(b.vertex_radius, a.vertex_radius, atol=1e-8)
        bf = t.bounded_faces
        assert np.allclose(b.face_center[bf], a.face_center[bf], atol=1e-8)

    @pytest.mark.parametrize("build", [
        lambda: truncate(generate_tiling(7, 3, 5), root=0, radius=4),
        lambda: boundary_truncation(generate_grid(11, 11)),
        lambda: delaunay_truncation(100, seed=5),
    ], ids=["ball4", "grid11", "delaunay100"])
    def test_matches_stack_traversal(self, build):
        t = build()
        sol = solve_radii(t, boundary_mode="disc")
        pk = layout(t, sol)
        zv, vr, zf, fr, worst = stack_layout_reference(t, sol)
        bf = t.bounded_faces
        # normalized into the unit disc, so absolute center error is
        # relative to the disc
        assert np.max(np.abs(pk.vertex_center - zv)) <= 1e-9
        assert np.max(np.abs(pk.face_center[bf] - zf[bf])) <= 1e-9
        assert np.allclose(pk.vertex_radius, vr, rtol=1e-9, atol=0)
        assert np.allclose(pk.face_radius[bf], fr[bf], rtol=1e-9, atol=0)
        assert pk.layout_residual <= 10 * math.sqrt(sol.tol)
        assert worst <= 10 * math.sqrt(sol.tol)

    def test_mismatched_radii_fail_closing_check(self):
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        sol = solve_radii(t)
        vr = sol.vertex_radius.copy()
        vr[t.interior[len(t.interior) // 2]] *= 1.01
        with pytest.raises(ConvergenceError, match="closing residual"):
            layout(t, dataclasses.replace(sol, vertex_radius=vr))

    def test_block_behind_outer_corner_unreachable(self):
        # the outer face visits corner 8 twice: the gate refuses to solve,
        # and layout runs the same gate on any radii it is given
        t = corner_block_truncation()
        with pytest.raises(ValueError, match="rim vertex 8 twice"):
            solve_radii(t)
        ones = RadiiSolution(np.ones(t.n_vertices), np.ones(t.faces.n_faces), 0.0, 0,
                             "prescribed", 1e-10)
        with pytest.raises(ValueError, match="rim vertex 8 twice"):
            layout(t, ones)

    @pytest.mark.parametrize("n", [7, 9, 15])
    def test_disc_mode_small_grids(self, n):
        t = boundary_truncation(generate_grid(n, n))
        assert_fills_unit_disc(t, solve_radii(t, boundary_mode="disc", tol=1e-10))

    def test_disc_mode_boundary_tangency(self):
        t = boundary_truncation(generate_tiling(7, 3, 3))
        pk = layout(t, solve_radii(t, boundary_mode="disc", tol=1e-10))
        reach = np.abs(pk.vertex_center[t.boundary]) + pk.vertex_radius[t.boundary]
        assert np.max(np.abs(1.0 - reach)) <= 1e-9


class TestDiscMode:
    @pytest.mark.parametrize("build", [
        lambda: truncate(generate_tiling(7, 3, 4), root=0, radius=3),
        lambda: truncate(generate_tiling(7, 3, 5), root=0, radius=4),
        lambda: truncate(generate_tiling(7, 3, 6), root=0, radius=5),
        lambda: delaunay_truncation(100, seed=5),
    ], ids=["ball3", "ball4", "ball5", "delaunay100"])
    def test_fills_the_unit_disc(self, build):
        t = build()
        assert_fills_unit_disc(t, solve_radii(t, boundary_mode="disc"))

    def test_boundary_radii_rejected(self):
        t = flower_truncation(7)
        with pytest.raises(ValueError, match="boundary_radii"):
            solve_radii(t, boundary_mode="disc", boundary_radii=1.0)

    def test_unreachable_circles(self):
        with pytest.raises(ValueError, match="rim vertex 8 twice"):
            solve_radii(corner_block_truncation(), boundary_mode="disc")

    def test_newton_budget(self):
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        with pytest.raises(ConvergenceError, match="after 2 steps"):
            solve_radii(t, boundary_mode="disc", max_iter=2)

    def test_defect_is_that_of_the_returned_radii(self):
        # walked at the first iterate whose hyperbolic residual is within
        # tol, the radii here miss tol (defect 1.4e-8); the reported defect
        # must be that of the radii returned
        t = boundary_truncation(generate_grid(31, 31))
        sol = solve_radii(t, boundary_mode="disc", tol=1e-8)
        assert sol.defect <= 1e-8
        assert sol.defect == angle_defect(t, sol.vertex_radius, sol.face_radius)

    def test_walked_defect_stops_the_iteration(self, monkeypatch):
        # a walked defect above tol keeps the hyperbolic steps going, one
        # per walk, until a walk meets tol
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        base = solve_radii(t, boundary_mode="disc")
        walks = []

        def rejecting_twice(trunc, vr, fr):
            walks.append(1)
            return 1.0 if len(walks) <= 2 else angle_defect(trunc, vr, fr)

        monkeypatch.setattr(packing, "angle_defect", rejecting_twice)
        sol = solve_radii(t, boundary_mode="disc")
        assert len(walks) == 3
        assert sol.iterations == base.iterations + 2
        assert sol.defect <= sol.tol
        assert np.allclose(sol.vertex_radius, base.vertex_radius, rtol=1e-12, atol=0)

    def test_hyperbolic_steps_only(self):
        # iterations counts hyperbolic Newton steps only (7 here)
        t = truncate(generate_tiling(7, 3, 7), root=0, radius=6)
        sol = solve_radii(t, boundary_mode="disc")
        assert sol.iterations <= 8
        assert_fills_unit_disc(t, sol)

    def test_tight_tolerance(self):
        t = boundary_truncation(generate_grid(21, 21))
        sol = solve_radii(t, boundary_mode="disc", tol=1e-13)
        assert sol.defect <= 1e-13
        assert_fills_unit_disc(t, sol)


def newton_instances():
    return [
        *[(f"ball{r}", lambda r=r: truncate(generate_tiling(7, 3, r + 1), root=0, radius=r))
          for r in range(3, 7)],
        ("grid21", lambda: boundary_truncation(generate_grid(21, 21))),
        ("delaunay400", lambda: delaunay_truncation(400, seed=0)),
    ]


def filled(pattern, data):
    """The pattern's matrix with ``data`` summed per slot, as a Newton step
    fills it."""
    m = pattern.matrix
    m.data[:] = np.bincount(pattern.slot, weights=data, minlength=m.nnz)
    return m


class TestCornerPattern:
    @pytest.mark.parametrize("hyperbolic", [False, True], ids=["prescribed", "disc"])
    @pytest.mark.parametrize("name,build", newton_instances(),
                             ids=[name for name, _ in newton_instances()])
    def test_matches_the_spsolve_reference(self, name, build, hyperbolic):
        t = build()
        # prescribed radii between 1/2 and 3/2, so even the grid iterates
        bx = 0.0 if hyperbolic else np.log1p(0.5 * np.cos(np.arange(t.boundary.size)))
        got = packing._solve_prescribed(t, bx, 1e-10, 80, hyperbolic)
        ref = spsolve_newton_reference(t, bx, 1e-10, 80, hyperbolic)
        assert got[3] == ref[3]
        for a, b in zip(got[:2], ref[:2]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("hyperbolic", [False, True], ids=["prescribed", "disc"])
    @pytest.mark.parametrize("name,build", [
        ("delaunay200", lambda: delaunay_truncation(200, seed=4)),
        ("ball54", lambda: boundary_truncation(generate_tiling(5, 4, 4))),
        ("grid21", lambda: boundary_truncation(generate_grid(21, 21))),
    ], ids=["delaunay200", "ball54", "grid21"])
    def test_step_matches_the_vertex_face_solve(self, name, build, hyperbolic):
        # one step from a seeded random iterate: eliminating the faces must
        # give the step of the whole vertex-face system, to 1e-12 of its
        # largest entry (the grid's smallest entries differ by 1e-12 of
        # themselves)
        t = build()
        rng = np.random.default_rng(11)
        cv, cf = packing._corner_arrays(t)
        if hyperbolic:
            xv = -rng.uniform(0.05, 2.0, t.n_vertices)
            xf = -rng.uniform(0.05, 2.0, t.faces.n_faces)
            xv[t.boundary] = 0.0
        else:
            xv = rng.normal(scale=0.5, size=t.n_vertices)
            xf = rng.normal(scale=0.5, size=t.faces.n_faces)
        corners = packing._hyperbolic_corners if hyperbolic else packing._euclidean_corners
        at_v, at_f, own, other = corners(xv[cv], xf[cf])
        resid = packing._angle_residual(t, at_v, at_f)
        got = packing._newton_step(t, own, other, resid)
        ref = spla.spsolve(vertex_face_laplacian(t, own, other), resid)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_matrix_is_the_schur_complement(self):
        # the pattern's matrix is D_v - B D_f^-1 B^T in the cached order
        t = delaunay_truncation(60, seed=2)
        pat = t.corner_pattern
        ni, nf = t.interior.size, t.bounded_faces.size
        assert np.array_equal(np.sort(pat.order), np.arange(ni))
        assert np.array_equal(pat.order[pat.position], np.arange(ni))
        rng = np.random.default_rng(3)
        own = rng.uniform(0.5, 1.5, pat.vertex.size)
        other = rng.uniform(0.5, 1.5, pat.vertex.size)
        d_f = rng.uniform(1.0, 2.0, nf)
        pa, pb = pat.pair
        m = filled(pat, np.concatenate([own, -other[pa] * other[pb] / d_f[pat.face[pa]]]))
        assert m.has_canonical_format and m.indices.dtype == np.intc
        b = sp.coo_matrix((other, (pat.vertex, pat.face)), shape=(ni, nf)).toarray()
        ref = np.diag(np.bincount(pat.vertex, weights=own, minlength=ni)) - (b / d_f) @ b.T
        np.testing.assert_allclose(m.toarray(), ref[np.ix_(pat.order, pat.order)],
                                   rtol=1e-14, atol=1e-14)

    def test_cached_order_cuts_the_fill(self):
        # the step factor of S in the cached order must fill at most half
        # of the vertex-face Jacobian's in symmetric minimum-degree order
        # (3660 against 7700 nonzeros in L + U here)
        t = truncate(generate_tiling(7, 3, 6), root=0, radius=5)
        pat = t.corner_pattern
        # the Jacobian at the first Euclidean step: every weight is 1
        own = np.ones(t.corner_darts.size)
        d_f = np.bincount(t.faces.face_of[t.corner_darts])[t.bounded_faces]
        m = filled(pat, np.concatenate([own[pat.free], -1.0 / d_f[pat.face[pat.pair[0]]]]))
        lu = spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        ref = spla.splu(vertex_face_laplacian(t, own, own), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert lu.L.nnz + lu.U.nnz <= 0.5 * (ref.L.nnz + ref.U.nnz)

    def test_one_ordering_per_truncation(self, monkeypatch):
        orderings, factors = [], []
        order_splu, factor_splu = maps.splu, spla.splu

        def count_ordering(a, **kwargs):
            orderings.append(kwargs["permc_spec"])
            return order_splu(a, **kwargs)

        def count_factor(a, **kwargs):
            factors.append(kwargs["permc_spec"])
            return factor_splu(a, **kwargs)

        monkeypatch.setattr(maps, "splu", count_ordering)
        monkeypatch.setattr(spla, "splu", count_factor)
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        disc = solve_radii(t, boundary_mode="disc")
        prescribed = solve_radii(t, boundary_radii=2.0)
        assert orderings == ["COLAMD"]
        assert factors == ["NATURAL"] * (disc.iterations + prescribed.iterations)

    def test_pattern_is_freed_with_its_truncation(self):
        # reference counting alone must free the pattern with its truncation
        gc.collect()
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        solve_radii(t, boundary_mode="disc")
        ref = weakref.ref(t.corner_pattern)
        del t
        assert ref() is None
        assert gc.collect() == 0

    def test_singular_jacobian_fails_fast(self, monkeypatch):
        # zero Jacobian weights leave a zero pivot: the solve names it at
        # the first step instead of iterating on NaN
        t = truncate(generate_tiling(7, 3, 3), root=0, radius=2)
        corners = packing._euclidean_corners

        def weightless(xv, xf):
            at_v, at_f, own, other = corners(xv, xf)
            return at_v, at_f, 0.0 * own, 0.0 * other

        monkeypatch.setattr(packing, "_euclidean_corners", weightless)
        with pytest.raises(ConvergenceError, match="singular Jacobian at step 1 "):
            solve_radii(t)


class TestDelta0:
    def test_square_patch_delta_half(self):
        t = boundary_truncation(generate_grid(5, 5))
        pk = layout(t, solve_radii(t, tol=1e-12))
        assert compute_delta0(pk) == 0.5

    def test_postconditions_hold(self):
        t = boundary_truncation(generate_tiling(7, 3, 3))
        pk = layout(t, solve_radii(t))
        d0 = compute_delta0(pk)
        assert 0 < d0 <= 0.5
        g = t.graph
        z, r = pk.vertex_center, pk.vertex_radius
        for e in range(g.n_darts):
            u, v = int(g.origin[e]), int(g.target[e])
            assert 0.25 * abs(z[u] - z[v]) >= d0 * r[u] * (1 - 1e-12)

    def test_matches_the_all_pairs_reference(self, sausage_packing):
        pk, _ = sausage_packing
        assert compute_delta0(pk) == reference_delta0(pk)

    def test_sausages_set_delta0_on_the_delaunay_map(self, monkeypatch):
        # the edges admit 1/4 (m_edge 0.262) but the sausages only 1/16:
        # the bound is queried once, at the cap of 1/4
        t = delaunay_truncation(400, seed=0)
        pk = layout(t, solve_radii(t, boundary_mode="disc"))
        caps = []
        bound = packing._sausage_bound

        def record(pk, cap):
            caps.append(cap)
            return bound(pk, cap)

        monkeypatch.setattr(packing, "_sausage_bound", record)
        assert 0.25 < _edge_condition_bound(pk) < 0.5
        assert compute_delta0(pk) == reference_delta0(pk) == 0.0625
        assert caps == [_sausage_cap(0.25)]
        assert geometry_report(pk).sausage_ok

    def test_no_dyadic_delta(self):
        t = boundary_truncation(generate_grid(5, 5))
        pk = layout(t, solve_radii(t))
        pk = dataclasses.replace(pk, vertex_center=np.zeros_like(pk.vertex_center))
        with pytest.raises(ConvergenceError, match="no dyadic delta0 found"):
            compute_delta0(pk)

    def test_stable_across_relabeling(self):
        m = generate_tiling(7, 3, 4)
        t1 = boundary_truncation(m)
        pk1 = layout(t1, solve_radii(t1, tol=1e-11))
        # rebuild the same map with every rotation cyclically shifted: an
        # isomorphic map whose breadth-first traversal visits darts differently
        from doublepack.maps import build_map as bm

        rots = [np.roll(m.target[m.vertex_darts(v)], 1).tolist()
                for v in range(m.n_vertices)]
        t2 = boundary_truncation(bm(rots))
        pk2 = layout(t2, solve_radii(t2, tol=1e-11))
        assert compute_delta0(pk1) == compute_delta0(pk2)


def split_lattice_packing():
    """The 9x9 grid on the exact lattice of spacing 2, with unit vertex
    circles on its right half and quarter circles on its left.  Edge lengths
    and radii are exact, so rho takes two values, each shared by many edges:
    3 (1 + 1e-6) where an edge reaches the right half and 1.5 (1 + 1e-6) on
    the left at cap 2, where the octave split falls exactly between them."""
    t = boundary_truncation(generate_grid(9, 9))
    pk = layout(t, solve_radii(t))
    spacing = 2.0 * pk.vertex_radius[0]
    z = 2.0 * np.round(pk.vertex_center / spacing)
    return dataclasses.replace(pk, vertex_center=z,
                               vertex_radius=np.where(z.real > 0, 1.0, 0.25))


def packed(t, mode="disc"):
    return layout(t, solve_radii(t, boundary_mode=mode))


@pytest.fixture(scope="module", params=[
    lambda: packed(truncate(generate_tiling(7, 3, 5), root=0, radius=4)),
    lambda: packed(boundary_truncation(generate_grid(11, 11))),
    lambda: packed(delaunay_truncation(100, seed=5)),
    # rho spans about 5.6 octave classes
    lambda: packed(truncate(generate_tiling(7, 3, 5), root=0, radius=5)),
    # all circles equal, so every rho falls in one class
    lambda: packed(boundary_truncation(generate_grid(11, 11)), "prescribed"),
    split_lattice_packing,
    # rows of edges on lines, whose cross products rounding may leave of
    # either sign
    lambda: packed(boundary_truncation(generate_grid(9, 9)), "prescribed"),
    lambda: packed(boundary_truncation(generate_grid(21, 21)), "prescribed"),
], ids=["ball4", "grid11", "delaunay100", "ball5", "prescribed_grid11",
        "split_lattice", "prescribed_grid9", "prescribed_grid21"])
def sausage_packing(request):
    """A laid-out packing and its all-pairs sausage bound."""
    pk = request.param()
    return pk, brute_sausage_bound(pk)


def test_dart_tree_levels_are_the_breadth_first_depths(sausage_packing):
    # dijkstra's unweighted depths over the dart graph a layout walks (a
    # dart to its reverse, to the dart before it when it borders a bounded
    # face, and to the dart after it when that one does), sorted as the
    # breadth-first order lists them, cut into levels
    t = sausage_packing[0].trunc
    g, tree = t.graph, t.dart_tree
    m = g.n_darts
    darts = np.arange(m)
    bounded = t.faces.face_of != t.outer_face
    ahead = bounded[g.nxt]
    src = np.concatenate([darts, darts[bounded], darts[ahead]])
    dst = np.concatenate([darts ^ 1, g.prv[bounded], g.nxt[ahead]])
    adj = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(m, m))
    depth = dijkstra(adj, indices=tree.order[0], unweighted=True)[tree.order]
    assert np.all(np.diff(depth) >= 0)
    assert np.array_equal(tree.levels, np.searchsorted(depth, np.arange(depth[-1] + 2)))


class TestSausageBound:
    # those of compute_delta0 for 1/4 (the balls) and 1/2, and values on
    # both sides
    @pytest.mark.parametrize("cap", [0.1, _sausage_cap(0.5), 1.0, 2.0, 0.05,
                                     _sausage_cap(0.25)])
    def test_matches_all_pairs_below_cap(self, sausage_packing, cap):
        pk, ref = sausage_packing
        got = _sausage_bound(pk, cap)
        if ref < cap:
            assert got == ref
        else:
            assert got >= cap

    def test_exact_at_the_cap(self, sausage_packing):
        pk, ref = sausage_packing
        assert _sausage_bound(pk, ref * (1 + 1e-12)) == ref
        assert _sausage_bound(pk, ref) >= ref

    @pytest.mark.parametrize("n", [9, 21])
    def test_collinear_edges_do_not_cross(self, n):
        # disjoint edges on one row of the lattice: rounding once gave both
        # sign products about -1e-67, and so a crossing at distance 0
        pk = packed(boundary_truncation(generate_grid(n, n)), "prescribed")
        for cap in (1.0, 2.0):
            assert _sausage_bound(pk, cap) == pytest.approx(1.0, rel=1e-12)

    def test_exact_test_only_where_it_decides(self, monkeypatch):
        # every T of the lattice ends an edge on the line of another.  Where
        # one edge has both ends certainly on one side of the other's line
        # the pair is apart without exact arithmetic: of the 556 and 1030
        # pairs with an uncertain sign at caps 1 and 2, 108 and 198 need it
        calls = []
        exact = packing._crosses_exactly
        monkeypatch.setattr(packing, "_crosses_exactly",
                            lambda *ends: calls.append(ends) or exact(*ends))
        pk = packed(boundary_truncation(generate_grid(9, 9)), "prescribed")
        counts = []
        for cap in (1.0, 2.0):
            calls.clear()
            assert _sausage_bound(pk, cap) == pytest.approx(1.0, rel=1e-12)
            counts.append(len(calls))
        assert counts == [108, 198]

    def test_crossing_one_ulp_off_a_line(self):
        # in the 4-cycle, the end (0.3, 0.3 + 1 ulp) of edge 2-3 lies one ulp
        # above the line y = x of edge 0-1, too close for the filter to
        # trust the sign: exact arithmetic finds the crossing
        end = 0.3 + 1j * np.nextafter(0.3, 1.0)
        pk = SimpleNamespace(
            trunc=SimpleNamespace(graph=build_map([[1, 3], [2, 0], [3, 1], [0, 2]])),
            vertex_center=np.array([0.1 + 0.1j, 0.7 + 0.7j, end, 0.5 + 0.1j]),
            vertex_radius=np.full(4, 0.05))
        assert _sausage_bound(pk, 1.0) == brute_sausage_bound(pk) == 0.0

    @pytest.mark.parametrize("first", [0, 2])
    def test_crossing_the_rounded_sign_misses(self, first):
        # the end (0.0346, -0.3912) of one edge lies within rounding of the
        # other's line, and its rounded cross product puts it on the side of
        # its other end: only exact arithmetic sees the crossing.  The other
        # edge's ends are certainly on both sides of this edge's line, which
        # must not make the pair apart, whichever of the two comes first
        ends = np.array([-0.2 - 0.29j, 0.31 - 0.51j, 0.03459999999999999 - 0.3912j, -0.08 - 0.67j])
        pk = SimpleNamespace(
            trunc=SimpleNamespace(graph=build_map([[1, 3], [2, 0], [3, 1], [0, 2]])),
            vertex_center=np.roll(ends, first), vertex_radius=np.full(4, 0.05))
        assert _sausage_bound(pk, 1.0) == brute_sausage_bound(pk) == 0.0

    @pytest.mark.parametrize("spread", ["octaves", "equal", "split"])
    def test_close_pairs_holds_every_close_pair_once(self, spread):
        rng = np.random.default_rng(3)
        mid = rng.random(600) + 1j * rng.random(600)
        rho = {"octaves": 0.05 * 2.0 ** -rng.uniform(0, 6, 600),
               "equal": np.full(600, 0.03),
               # a factor of exactly 2 puts the octave split between two
               # groups of equal rho
               "split": np.where(rng.random(600) < 0.5, 0.04, 0.02)}[spread]
        ii, jj = (np.concatenate(x) for x in zip(*packing._close_pairs(mid, rho)))
        found = {(min(i, j), max(i, j)) for i, j in zip(ii.tolist(), jj.tolist())}
        assert len(found) == ii.size  # each pair once
        gap = np.abs(mid[ii] - mid[jj])
        assert np.all(gap <= 2.0 * (rho[ii] + rho[jj]))
        i, j = np.triu_indices(mid.size, k=1)
        close = np.abs(mid[i] - mid[j]) < rho[i] + rho[j]
        assert set(zip(i[close].tolist(), j[close].tolist())) <= found

    def test_delta0_in_bounded_memory(self):
        # one class pair's candidates at a time: on the r=7 ball the traced
        # peak of compute_delta0 is about 2.4 MB, against 33 MB for a hit
        # list per edge
        t = truncate(generate_tiling(7, 3, 7), 0, 7)
        pk = layout(t, solve_radii(t, boundary_mode="disc"))
        tracemalloc.start()
        try:
            assert compute_delta0(pk) == 0.25
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_no_candidate_pairs(self):
        t = honeycomb_truncation()
        pk = layout(t, solve_radii(t, tol=1e-12))
        # with the vertex circles shrunk to a tenth, every two disjoint edges
        # keep their midpoints farther apart than rho_i + rho_j, so the k-d
        # tree query leaves no pair to test
        pk = dataclasses.replace(pk, vertex_radius=0.1 * pk.vertex_radius)
        g = t.graph
        u, v = g.origin[::2], g.target[::2]
        a, b = pk.vertex_center[u], pk.vertex_center[v]
        rho = (0.5 * np.abs(b - a) + _sausage_cap(0.5)
               * np.maximum(pk.vertex_radius[u], pk.vertex_radius[v]))
        ii, jj = np.triu_indices(u.size, k=1)
        disjoint = ((u[ii] != u[jj]) & (u[ii] != v[jj])
                    & (v[ii] != u[jj]) & (v[ii] != v[jj]))
        gap = np.abs(0.5 * (a[ii] + b[ii] - a[jj] - b[jj])) - rho[ii] - rho[jj]
        assert gap[disjoint].min() > 0
        assert _sausage_bound(pk, _sausage_cap(0.5)) == math.inf
        assert compute_delta0(pk) == 0.5


class TestGeometryReport:
    def test_square_patch_ring_ratio_one(self):
        t = boundary_truncation(generate_grid(4, 4))
        pk = layout(t, solve_radii(t, tol=1e-12))
        rep = geometry_report(pk)
        assert rep.ring_ratio_max == pytest.approx(1.0, abs=1e-9)
        assert rep.sausage_ok
        assert rep.delta0 == compute_delta0(pk)

    def test_ring_ratio_bounded_over_family(self):
        # The max incident ratio lives in the rim layer and saturates as the
        # ball deepens (measured 3.181, 3.510, 3.700 for layers 3, 4, 5):
        # increments shrink and the whole family stays under a common bound.
        ratios = {}
        for layers in (3, 4, 5):
            t = boundary_truncation(generate_tiling(7, 3, layers))
            pk = layout(t, solve_radii(t, tol=1e-10))
            ratios[layers] = geometry_report(pk).ring_ratio_max
        assert ratios[4] >= ratios[3] - 1e-9
        assert ratios[5] >= ratios[4] - 1e-9
        assert ratios[5] - ratios[4] < ratios[4] - ratios[3]
        assert ratios[5] <= 1.2 * ratios[3]
        assert ratios[5] < 4.0

    def test_flat_patch_interior_radii_uniform(self):
        t = boundary_truncation(generate_tiling(6, 3, 4))
        sol = solve_radii(t, tol=1e-11)
        deep = t.dist_from_root <= t.radius - 2
        r = sol.vertex_radius[deep]
        assert r.max() / r.min() - 1 <= 0.01


class TestSerialization:
    def test_packing_json_schema(self):
        t = flower_truncation(7)
        pk = layout(t, solve_radii(t))
        doc = packing_to_json(pk)
        kinds = {c["kind"] for c in doc["circles"]}
        assert kinds == {"vertex", "face"}
        n_vertex = sum(c["kind"] == "vertex" for c in doc["circles"])
        assert n_vertex == t.n_vertices
        for c in doc["circles"]:
            assert c["radius"] > 0
            assert len(c["center"]) == 2

    def test_svg_rendering(self):
        from doublepack.render import packing_to_svg

        t = flower_truncation(7)
        pk = layout(t, solve_radii(t))
        svg = packing_to_svg(pk)
        assert svg.count("<circle") == t.n_vertices + t.bounded_faces.size
        assert "stroke-dasharray" in svg
        assert packing_to_svg(pk) == svg  # deterministic
