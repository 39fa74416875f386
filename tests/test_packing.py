"""Double circle packing solver: radii, layout, delta0, geometry reports."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

from doublepack.errors import ConvergenceError
from doublepack.maps import Truncation, boundary_truncation, build_map, truncate
from doublepack.packing import (
    DoublePacking,
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
from doublepack.tilings import generate_grid, generate_tiling

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
    indptr, nbrs = Delaunay(pts).vertex_neighbor_vertices
    rotations = []
    for v in range(n):
        nb = nbrs[indptr[v]:indptr[v + 1]]
        d = pts[nb] - pts[v]
        rotations.append(nb[np.argsort(np.arctan2(d[:, 1], d[:, 0]))].tolist())
    return boundary_truncation(build_map(rotations))


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
    k-d tree pruning, exact at every value."""
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
        def cross(o, p, q):
            return ((p - o) * (q - o).conj()).imag
        s1 = cross(ai, bi, aj) * cross(ai, bi, bj)
        s2 = cross(aj, bj, ai) * cross(aj, bj, bi)
        d = np.where((s1 < 0) & (s2 < 0), 0.0, d)
        ratio = d / (rmax[ii] + rmax[jj])
        best = min(best, float(ratio[ok].min()))
    return best


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
    """Disc-mode radii lay out, unscaled, in the unit disc around the root
    at 0, every boundary circle touching the unit circle, all to 1e-9.  The
    maximal packing is unique up to disc automorphisms, so this pins the
    radii completely."""
    assert sol.defect <= 1e-9
    raw = layout(t, sol, normalize=False)
    assert abs(raw.vertex_center[t.root]) <= 1e-12
    reach = np.abs(raw.vertex_center[t.boundary]) + raw.vertex_radius[t.boundary]
    assert np.max(np.abs(1.0 - reach)) <= 1e-9
    pk = layout(t, sol)
    assert np.max(np.abs(pk.vertex_center - raw.vertex_center)) <= 1e-9
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

    def test_raw_layout_scales_with_radii(self):
        t = flower_truncation(7)
        sol = solve_radii(t, tol=1e-12)
        lam = 2.5
        scaled = solve_radii(t, boundary_radii=lam * np.ones(t.boundary.size),
                             tol=1e-12)
        a = layout(t, sol, normalize=False)
        b = layout(t, scaled, normalize=False)
        assert np.allclose(b.vertex_center, lam * a.vertex_center, atol=1e-8)
        bf = t.bounded_faces
        assert np.allclose(b.face_center[bf], lam * a.face_center[bf], atol=1e-8)

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
        t = corner_block_truncation()
        with pytest.raises(ConvergenceError, match="could not reach every circle"):
            layout(t, solve_radii(t))

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
        with pytest.raises(ConvergenceError, match="could not reach every circle"):
            solve_radii(corner_block_truncation(), boundary_mode="disc")

    def test_newton_budget(self):
        t = truncate(generate_tiling(7, 3, 5), root=0, radius=4)
        with pytest.raises(ConvergenceError, match="after 2 steps"):
            solve_radii(t, boundary_mode="disc", max_iter=2)


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


@pytest.fixture(scope="module", params=[
    lambda: truncate(generate_tiling(7, 3, 5), root=0, radius=4),
    lambda: boundary_truncation(generate_grid(11, 11)),
    lambda: delaunay_truncation(100, seed=5),
], ids=["ball4", "grid11", "delaunay100"])
def disc_packing(request):
    t = request.param()
    return layout(t, solve_radii(t, boundary_mode="disc"))


class TestSausageBound:
    @pytest.mark.parametrize("cap", [0.1, _sausage_cap(0.5), 1.0, 2.0])
    def test_matches_all_pairs_below_cap(self, disc_packing, cap):
        ref = brute_sausage_bound(disc_packing)
        got = _sausage_bound(disc_packing, cap)
        if ref < cap:
            assert got == ref
        else:
            assert got >= cap

    def test_exact_at_the_cap(self, disc_packing):
        ref = brute_sausage_bound(disc_packing)
        assert _sausage_bound(disc_packing, ref * (1 + 1e-12)) == ref
        assert _sausage_bound(disc_packing, ref) >= ref

    def test_preset_delta0_judged_exactly_above_half(self):
        # the 21x21 grid's bound is about 0.54: it clears 1/2 but not 1
        t = boundary_truncation(generate_grid(21, 21))
        pk = layout(t, solve_radii(t, boundary_mode="disc"))
        ref = brute_sausage_bound(pk)
        assert 0.5 < ref < 1.0
        for delta0, ok in [(0.5, True), (1.0, False)]:
            pk.delta0 = delta0
            assert geometry_report(pk).sausage_ok is ok
            assert _sausages_clear(delta0, ref) is ok

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
        pk.delta0 = rep.delta0
        assert geometry_report(pk) == rep

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
