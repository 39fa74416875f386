"""Operators bridging packed maps and the disc: piecewise-affine extension,
the pullback/pushforward pair, roundtrip diagnostics, capacity comparison,
and the Harnack exponent fit."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublepack import packing, transfer
from doublepack.continuum import (BoundaryFunction, HarmonicDiscField, douglas_energy,
                                  grid_capacity, poisson_extend)
from doublepack.maps import boundary_truncation, build_map, truncate
from doublepack.packing import Carrier, layout, solve_radii
from doublepack.potential import (capacity, energy, escape_capacity, royden_project,
                                  solve_dirichlet)
from doublepack.render import packing_to_svg
from doublepack.tilings import generate_grid, generate_tiling
from doublepack.transfer import (
    capacity_comparison,
    cont_operator,
    disc_operator,
    energy_of_extension,
    extend_affine,
    harnack_fit,
    harnack_to_json,
    roundtrip,
    shrunk_discs,
    transfer_report_to_json,
)

from conftest import delaunay_rotations

RE_Z = HarmonicDiscField(0.0, np.array([1.0]), np.array([0.0]))


def pack(trunc, mode):
    sol = solve_radii(trunc, boundary_mode=mode)
    return layout(trunc, sol)


@pytest.fixture(scope="module")
def grid_lattice_pk():
    """9x9 grid patch with unit prescribed radii: a square-lattice carrier."""
    return pack(boundary_truncation(generate_grid(9, 9)), "prescribed")


@pytest.fixture(scope="module")
def grid_disc_pk():
    """9x9 grid patch packed to fill the unit disc."""
    return pack(boundary_truncation(generate_grid(9, 9)), "disc")


@pytest.fixture(scope="module")
def hyp_disc_pk():
    """(7,3) ball of radius 3 packed to fill the unit disc."""
    return pack(truncate(generate_tiling(7, 3, 5), 0, 3), "disc")


@pytest.fixture(scope="module")
def ball5_cli_samples():
    """(7,3) ball of radius 5 packed to fill the unit disc, and six harmonic
    samples drawn as the ``harnack`` command draws them for seed 0."""
    t = truncate(generate_tiling(7, 3, 6), 0, 5)
    pk = pack(t, "disc")
    rng = np.random.default_rng(0)
    weights = 1.0 / (1.0 + np.arange(3))
    fields = [HarmonicDiscField(0.0, rng.normal(size=3) * weights,
                                rng.normal(size=3) * weights) for _ in range(6)]
    return pk, [disc_operator(t, pk, f).values for f in fields]


def interior_probes(pk, rng, count):
    """Random points inside vertex circles of interior vertices: safely in
    the carrier."""
    t = pk.trunc
    vs = rng.choice(t.interior, size=count)
    ang = rng.uniform(0, 2 * np.pi, count)
    rad = rng.uniform(0, 0.8, count) * pk.vertex_radius[vs]
    return pk.vertex_center[vs] + rad * np.exp(1j * ang)


class TestAffineExtension:
    def test_constant(self, hyp_disc_pk):
        t = hyp_disc_pk.trunc
        ext = extend_affine(hyp_disc_pk, np.full(t.n_vertices, 1.25))
        pts = interior_probes(hyp_disc_pk, np.random.default_rng(0), 40)
        assert np.allclose(ext.evaluate(pts), 1.25, atol=1e-12)

    def test_vertex_values_exact(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        phi = np.random.default_rng(1).normal(size=t.n_vertices)
        ext = extend_affine(grid_disc_pk, phi)
        got = ext.evaluate(grid_disc_pk.vertex_center)
        assert np.allclose(got, phi, atol=1e-9)

    def test_reproduces_linear_functions(self, grid_lattice_pk):
        pk = grid_lattice_pk
        z = pk.vertex_center
        phi = 0.7 * z.real - 1.3 * z.imag
        ext = extend_affine(pk, phi)
        pts = interior_probes(pk, np.random.default_rng(2), 60)
        assert np.allclose(ext.evaluate(pts), 0.7 * pts.real - 1.3 * pts.imag,
                           atol=1e-10)

    def test_face_nodes_average_incident_vertices(self, grid_lattice_pk):
        pk = grid_lattice_pk
        t = pk.trunc
        phi = np.random.default_rng(3).normal(size=t.n_vertices)
        ext = extend_affine(pk, phi)
        f = int(t.bounded_faces[5])
        incident = t.faces.vertices(t.graph, f)
        got = ext.evaluate(np.array([pk.face_center[f]]))
        assert got[0] == pytest.approx(phi[incident].mean(), abs=1e-10)

    def test_continuity_across_shared_edges(self, hyp_disc_pk):
        pk = hyp_disc_pk
        t = pk.trunc
        phi = np.random.default_rng(4).normal(size=t.n_vertices)
        ext = extend_affine(pk, phi)
        rng = np.random.default_rng(5)
        darts = rng.choice(t.corner_darts, size=100)
        # midpoint of the vertex-to-face-center edge of each triangle, probed
        # from both sides of the segment
        a = pk.vertex_center[t.graph.origin[darts]]
        b = pk.face_center[t.faces.face_of[darts]]
        mid = 0.5 * (a + b)
        normal = 1j * (b - a) / np.abs(b - a)
        left = ext.evaluate(mid + 1e-12 * normal)
        right = ext.evaluate(mid - 1e-12 * normal)
        assert np.max(np.abs(left - right)) < 1e-10

    def test_linear_in_function_argument(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        rng = np.random.default_rng(6)
        phi, psi = rng.normal(size=(2, t.n_vertices))
        pts = interior_probes(grid_disc_pk, rng, 30)
        combo = extend_affine(grid_disc_pk, 2.0 * phi - 0.5 * psi).evaluate(pts)
        parts = (2.0 * extend_affine(grid_disc_pk, phi).evaluate(pts)
                 - 0.5 * extend_affine(grid_disc_pk, psi).evaluate(pts))
        assert np.allclose(combo, parts, atol=1e-10)

    @pytest.mark.parametrize("name", ["hyp_disc_pk", "grid_disc_pk", "grid_lattice_pk"])
    def test_face_centers_are_power_diagram_vertices(self, name, request):
        # the fact the carrier lookup rests on: a face center has power r_f^2
        # with respect to the circles on its rim and more to every other one
        pk = request.getfixturevalue(name)
        t = pk.trunc
        bf = t.bounded_faces
        power = (np.abs(pk.face_center[bf, None] - pk.vertex_center[None, :]) ** 2
                 - pk.vertex_radius[None, :] ** 2)
        rim = np.zeros((t.faces.n_faces, t.n_vertices), dtype=bool)
        rim[t.faces.face_of, t.graph.origin] = True
        rim = rim[bf]
        rf2 = np.broadcast_to(pk.face_radius[bf, None] ** 2, power.shape)
        assert np.allclose(power[rim], rf2[rim], rtol=1e-9, atol=0.0)
        assert np.all(power[~rim] > rf2[~rim])

    def test_one_carrier_per_packing(self, hyp_disc_pk, monkeypatch):
        pk = dataclasses.replace(hyp_disc_pk)    # a copy with no carrier yet
        t = pk.trunc
        built = []
        monkeypatch.setattr(packing, "Carrier",
                            lambda *parts: built.append(parts) or Carrier(*parts))
        theta = np.angle(pk.vertex_center[t.boundary])
        for k in range(1, 6):
            roundtrip(t, pk, solve_dirichlet(t, np.cos(k * theta)))
        assert len(built) == 1

    def test_point_at_overflowing_distance_is_outside(self, grid_disc_pk):
        # the lookup's distance overflows, so the tree finds no vertex
        ext = extend_affine(grid_disc_pk, np.zeros(grid_disc_pk.trunc.n_vertices))
        with pytest.raises(ValueError, match="1 evaluation point"):
            ext.evaluate(np.array([0.0, 1e300]))

    def test_degenerate_triangle_rejected(self, grid_lattice_pk):
        bad = dataclasses.replace(grid_lattice_pk,
                                  face_center=grid_lattice_pk.face_center.copy())
        f = int(bad.trunc.bounded_faces[0])
        v = bad.trunc.faces.vertices(bad.trunc.graph, f)[0]
        bad.face_center[f] = bad.vertex_center[v]
        with pytest.raises(ValueError, match="degenerate"):
            extend_affine(bad, np.zeros(bad.trunc.n_vertices))


def brute_force_evaluate(ext, points):
    """Reference for ``AffineExtension.evaluate``: the first of all carrier
    triangles that holds each point."""
    out = np.empty(points.size)
    for i, z in enumerate(points):
        lam = transfer._bary(ext.tri_nodes, z)
        inside = np.flatnonzero(np.min(lam, axis=1) >= -transfer._BARY_TOL)
        assert inside.size, f"probe {z} is in no carrier triangle"
        out[i] = lam[inside[0]] @ ext.tri_values[inside[0]]
    return out


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(20, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_lookup_matches_brute_force_on_delaunay_packings(n, seed):
    rng = np.random.default_rng(seed)
    t = boundary_truncation(build_map(delaunay_rotations(rng.random((n, 2)))))
    pk = pack(t, "disc")
    g = t.graph
    ext = extend_affine(pk, rng.normal(size=t.n_vertices))
    u, v = g.origin[::2], g.target[::2]
    ru, rv = pk.vertex_radius[u], pk.vertex_radius[v]
    tangency = (pk.vertex_center[u] * rv + pk.vertex_center[v] * ru) / (ru + rv)
    probes = np.concatenate([pk.vertex_center, pk.face_center[t.bounded_faces],
                             tangency, interior_probes(pk, rng, 100)])
    assert np.max(np.abs(ext.evaluate(probes)
                         - brute_force_evaluate(ext, probes))) <= 1e-11
    with pytest.raises(ValueError, match="outside the triangulated carrier"):
        ext.evaluate(np.array([1.5 + 0j]))


class TestEnergyOfExtension:
    def test_constant_zero(self, grid_disc_pk):
        e = energy_of_extension(grid_disc_pk,
                                np.full(grid_disc_pk.trunc.n_vertices, 3.0))
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_linear_on_lattice(self, grid_lattice_pk):
        pk = grid_lattice_pk
        z = pk.vertex_center
        slope = 1.4
        phi = slope * z.real
        width = z.real.max() - z.real.min()
        height = z.imag.max() - z.imag.min()
        e = energy_of_extension(pk, phi)
        assert e == pytest.approx(slope ** 2 * width * height, rel=1e-8)

    def test_ratio_to_discrete_energy_bounded(self, hyp_disc_pk):
        t = hyp_disc_pk.trunc
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(10):
            phi = rng.normal(size=t.n_vertices)
            ratios.append(energy_of_extension(hyp_disc_pk, phi) / energy(t.graph, phi))
        ratios = np.array(ratios)
        assert np.all(ratios > 0)
        assert ratios.max() < 10.0


class TestDiscOperator:
    def test_constant(self, hyp_disc_pk):
        c = HarmonicDiscField(2.0, np.zeros(1), np.zeros(1))
        h = disc_operator(hyp_disc_pk.trunc, hyp_disc_pk, c)
        assert np.allclose(h.values, 2.0, atol=1e-10)

    def test_coordinate_function_on_lattice(self, grid_lattice_pk):
        pk = grid_lattice_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        assert np.allclose(h.values, pk.vertex_center.real, atol=1e-9)

    def test_linear_in_field(self, grid_disc_pk):
        pk = grid_disc_pk
        rng = np.random.default_rng(8)
        f1 = HarmonicDiscField(rng.normal(), rng.normal(size=3), rng.normal(size=3))
        f2 = HarmonicDiscField(rng.normal(), rng.normal(size=3), rng.normal(size=3))
        combo = HarmonicDiscField(f1.a0 + 2 * f2.a0, f1.a + 2 * f2.a,
                                  f1.b + 2 * f2.b)
        lhs = disc_operator(pk.trunc, pk, combo).values
        rhs = (disc_operator(pk.trunc, pk, f1).values
               + 2 * disc_operator(pk.trunc, pk, f2).values)
        assert np.allclose(lhs, rhs, atol=1e-8)

    @pytest.mark.parametrize("field", [lambda z: z.real, np.zeros(3)],
                             ids=["callable", "array"])
    def test_only_a_disc_field_is_read(self, hyp_disc_pk, field):
        with pytest.raises(TypeError, match="cannot evaluate field"):
            disc_operator(hyp_disc_pk.trunc, hyp_disc_pk, field)

    def test_other_map_of_the_same_size_rejected(self):
        pk = pack(boundary_truncation(generate_grid(5, 5)), "disc")
        pts = np.random.default_rng(0).random((25, 2))
        other = boundary_truncation(build_map(delaunay_rotations(pts)))
        assert other.n_vertices == pk.trunc.n_vertices
        with pytest.raises(ValueError, match="different maps"):
            disc_operator(other, pk, RE_Z)
        # an equal truncation built again is the same map
        again = boundary_truncation(generate_grid(5, 5))
        assert np.allclose(disc_operator(again, pk, RE_Z).values,
                           disc_operator(pk.trunc, pk, RE_Z).values)


class TestContOperator:
    def test_constant(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        field = cont_operator(t, grid_disc_pk, np.full(t.n_vertices, 1.5))
        assert field.a0 == pytest.approx(1.5, abs=1e-9)
        assert np.max(np.abs(field.a)) < 1e-9
        assert np.max(np.abs(field.b)) < 1e-9

    def test_recovers_first_harmonic(self, grid_disc_pk):
        # pulling back Re z through the embedding and pushing forward again
        # should recover the first cosine mode
        pk = grid_disc_pk
        field = cont_operator(pk.trunc, pk, pk.vertex_center.real)
        assert field.a[0] == pytest.approx(1.0, rel=0.02)
        assert abs(field.b[0]) < 0.02
        assert abs(field.a0) < 0.02

    def test_trace_circle_must_fit(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        with pytest.raises(ValueError):
            cont_operator(t, grid_disc_pk, np.zeros(t.n_vertices), eps_trace=1e-6)


class TestTraceParams:
    def test_derived_depth_names_its_source(self):
        pk = pack(truncate(generate_tiling(7, 3, 2), 0, 1), "disc")
        t = pk.trunc
        r_max = float(np.max(pk.vertex_radius[t.boundary]))
        assert 4.0 * r_max >= 1.0
        with pytest.raises(ValueError) as exc:
            roundtrip(t, pk, np.zeros(t.n_vertices))
        msg = str(exc.value)
        assert f"derived eps_trace {4.0 * r_max:.4g}" in msg
        assert f"largest boundary circle radius, {r_max:.4g}" in msg
        assert "use a larger truncation radius" in msg

    @pytest.mark.parametrize("eps_trace", [1.0, 1.5])
    def test_given_depth_keeps_its_message(self, hyp_disc_pk, eps_trace):
        t = hyp_disc_pk.trunc
        with pytest.raises(ValueError, match=(
                f"^eps_trace must lie strictly between 0 and 1, got {eps_trace}$")):
            roundtrip(t, hyp_disc_pk, np.zeros(t.n_vertices), eps_trace=eps_trace)


class TestRoundtrip:
    def test_constant(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        rep = roundtrip(t, grid_disc_pk, np.full(t.n_vertices, 2.0))
        assert rep.roundtrip_residual == 0.0
        assert rep.asymptotic_gap == pytest.approx(0.0, abs=1e-9)

    def test_coordinate_self_consistency(self, grid_disc_pk):
        pk = grid_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        rep = roundtrip(pk.trunc, pk, h)
        assert rep.roundtrip_residual <= 0.05
        assert rep.energy_ratio_A > 0
        assert rep.energy_ratio_R > 0

    def test_hyperbolic_ball(self, hyp_disc_pk):
        pk = hyp_disc_pk
        t = pk.trunc
        bv = np.cos(2 * np.angle(pk.vertex_center[t.boundary]))
        h = solve_dirichlet(t, bv)
        rep = roundtrip(t, pk, h)
        assert rep.roundtrip_residual < 0.3
        assert rep.asymptotic_gap >= 0

    def test_report_json(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        h = disc_operator(grid_disc_pk.trunc, grid_disc_pk, RE_Z)
        rep = roundtrip(t, grid_disc_pk, h)
        payload = transfer_report_to_json(rep)
        assert set(payload) == {"energy_ratio_A", "energy_ratio_R",
                                "roundtrip_residual", "asymptotic_gap", "params"}
        assert payload["params"]["eps_trace"] > 0

    def test_one_extension_per_roundtrip(self, hyp_disc_pk, monkeypatch):
        pk = hyp_disc_pk
        t = pk.trunc
        h = solve_dirichlet(t, np.cos(2 * np.angle(pk.vertex_center[t.boundary])))
        built = []

        def counting_extend_affine(packing, phi):
            built.append(phi)
            return extend_affine(packing, phi)

        monkeypatch.setattr(transfer, "extend_affine", counting_extend_affine)
        rep = roundtrip(t, pk, h)
        assert len(built) == 1
        # the same numbers as composing the public operators
        H = cont_operator(t, pk, h)
        back = disc_operator(t, pk, H).values
        e_h = energy(t.graph, h)
        assert rep.roundtrip_residual == math.sqrt(energy(t.graph, h.values - back) / e_h)
        assert rep.energy_ratio_A == energy_of_extension(pk, h) / e_h


class TestCapacityComparison:
    def test_empty_target(self, grid_disc_pk):
        d, c, ratio = capacity_comparison(grid_disc_pk.trunc, grid_disc_pk,
                                          [], delta=0.5, grid_h=1 / 32)
        assert d == 0.0 and c == 0.0

    def test_root_set_both_positive(self, hyp_disc_pk):
        t = hyp_disc_pk.trunc
        d, c, ratio = capacity_comparison(t, hyp_disc_pk, [t.root],
                                          delta=0.5, grid_h=1 / 64)
        assert d > 0 and c > 0
        assert ratio == pytest.approx(c / d)

    def test_smaller_delta_smaller_continuum_capacity(self, hyp_disc_pk):
        t = hyp_disc_pk.trunc
        _, c_half, _ = capacity_comparison(t, hyp_disc_pk, [t.root],
                                           delta=0.5, grid_h=1 / 64)
        _, c_quarter, _ = capacity_comparison(t, hyp_disc_pk, [t.root],
                                              delta=0.25, grid_h=1 / 64)
        assert c_quarter < c_half


def looped_harnack_fit(trunc, packing, h_samples, alpha, seed=0, n_balls=40,
                       pairs_per_ball=60):
    """The fit computed sample by sample: per ball, each sample's
    oscillation and ratios on their own, the pair table of the ball's own
    size."""
    sample_vals = [np.asarray(h, dtype=float) for h in h_samples]
    z = packing.vertex_center
    rng = np.random.default_rng(seed)
    centers = trunc.interior
    if centers.size > n_balls:
        centers = np.sort(rng.choice(centers, size=n_balls, replace=False))
    xs, ys = [], []
    for w in centers:
        R = 0.9 * (1.0 - abs(z[w]))
        if R <= 0.0:
            continue
        members = np.flatnonzero(np.abs(z - z[w]) <= R)
        if members.size < 2:
            continue
        oscs = [float(vals[members].max() - vals[members].min())
                for vals in sample_vals]
        sub = members
        if sub.size > 40:
            sub = np.sort(rng.choice(sub, size=40, replace=False))
        iu, iv = np.triu_indices(sub.size, k=1)
        d = np.abs(z[sub[iu]] - z[sub[iv]])
        keep = (d > 0.0) & (d <= alpha * R)
        iu, iv, d = iu[keep], iv[keep], d[keep]
        if d.size > pairs_per_ball:
            pick = np.sort(rng.choice(d.size, size=pairs_per_ball, replace=False))
            iu, iv, d = iu[pick], iv[pick], d[pick]
        for vals, osc in zip(sample_vals, oscs):
            if osc > 0.0:
                ratio = np.abs(vals[sub[iu]] - vals[sub[iv]]) / osc
            else:
                ratio = np.zeros(d.size)
            xs.append(d / R)
            ys.append(ratio)
    x, y = np.concatenate(xs), np.concatenate(ys)
    pairs = np.column_stack([x, y])
    pos = (x > 0.0) & (y > transfer._RATIO_FLOOR)
    if int(pos.sum()) < 2 or math.log(x[pos].max() / x[pos].min()) < transfer._MIN_LOG_SPAN:
        return transfer.HarnackFit(0.0, 0.0, False, pairs, float(alpha))
    slope, intercept = np.polyfit(np.log(x[pos]), np.log(y[pos]), 1)
    return transfer.HarnackFit(float(slope), float(math.exp(intercept)), True, pairs,
                               float(alpha))


def ball_sizes(pk):
    """Members of each interior vertex's sample ball."""
    z = pk.vertex_center
    return np.array([np.count_nonzero(np.abs(z - z[w]) <= 0.9 * (1.0 - abs(z[w])))
                     for w in pk.trunc.interior])


class TestHarnackFit:
    def test_constant_samples_skip_fit(self, hyp_disc_pk):
        t = hyp_disc_pk.trunc
        fit = harnack_fit(t, hyp_disc_pk, [np.ones(t.n_vertices)], alpha=0.5)
        assert not fit.fitted
        assert fit.beta_hat == 0.0

    def test_positive_exponent(self, hyp_disc_pk):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        fit = harnack_fit(pk.trunc, pk, [h], alpha=0.5)
        assert fit.fitted
        assert fit.beta_hat > 0
        assert len(fit.pairs) >= 10

    def test_rounding_noise_leaves_the_fit(self, hyp_disc_pk):
        # some sampled ratios are zero up to rounding (about 1e-16); their
        # logarithms must not set the slope
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z).values
        noise = np.random.default_rng(1).standard_normal(h.size)
        fit = harnack_fit(pk.trunc, pk, [h], alpha=0.5)
        noisy = harnack_fit(pk.trunc, pk, [h * (1.0 + 1e-15 * noise)], alpha=0.5)
        assert fit.fitted and noisy.fitted
        assert noisy.beta_hat == pytest.approx(fit.beta_hat, rel=1e-9)

    @pytest.mark.parametrize("seed", [635, 864, 982, 1160, 1439])
    def test_one_distance_band_is_not_a_fit(self, ball5_cli_samples, seed):
        # with the CLI sampling these fit seeds keep pairs whose scaled
        # distances span only 0.15 in log; a slope through them came out
        # between -0.52 and 0.41
        pk, samples = ball5_cli_samples
        fit = harnack_fit(pk.trunc, pk, samples, alpha=0.5, seed=seed,
                          n_balls=40, pairs_per_ball=60)
        assert not fit.fitted
        x, y = fit.pairs.T
        kept = x[y > 1e-9]
        assert math.log(kept.max() / kept.min()) < 0.16

    def test_spread_pairs_fit(self, ball5_cli_samples):
        pk, samples = ball5_cli_samples
        fit = harnack_fit(pk.trunc, pk, samples, alpha=0.5, seed=0,
                          n_balls=40, pairs_per_ball=60)
        assert fit.fitted
        assert fit.beta_hat > 0

    def test_deterministic(self, hyp_disc_pk):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        f1 = harnack_fit(pk.trunc, pk, [h], alpha=0.5, seed=3)
        f2 = harnack_fit(pk.trunc, pk, [h], alpha=0.5, seed=3)
        assert f1.beta_hat == f2.beta_hat and f1.C_hat == f2.C_hat

    @pytest.mark.parametrize("instance", ["ball5", "grid9"])
    def test_bitwise_equal_to_the_sample_loop(self, ball5_cli_samples, grid_disc_pk,
                                              instance):
        if instance == "ball5":
            pk, samples = ball5_cli_samples
        else:
            pk = grid_disc_pk
            rng = np.random.default_rng(4)
            samples = [disc_operator(pk.trunc, pk, HarmonicDiscField(
                0.0, rng.normal(size=3), rng.normal(size=3))).values for _ in range(3)]
        t = pk.trunc
        # one ball takes the 40-member subsample, the others the pair table
        # filtered to their size
        sizes = ball_sizes(pk)
        assert np.count_nonzero(sizes > 40) == 1 and sizes.min() >= 2
        # a constant sample has zero oscillation in every ball
        samples = [*samples, np.full(t.n_vertices, 0.25)]
        for seed, n_balls, pairs_per_ball in ((0, 40, 60), (3, 80, 80), (5, 1000, 7),
                                              (9, 1000, 1000)):
            got = harnack_fit(t, pk, samples, alpha=0.5, seed=seed, n_balls=n_balls,
                              pairs_per_ball=pairs_per_ball)
            want = looped_harnack_fit(t, pk, samples, alpha=0.5, seed=seed,
                                      n_balls=n_balls, pairs_per_ball=pairs_per_ball)
            assert got.pairs.tobytes() == want.pairs.tobytes()
            assert (got.beta_hat, got.C_hat, got.fitted) == \
                (want.beta_hat, want.C_hat, want.fitted)

    @pytest.mark.parametrize("arg, value", [
        ("n_balls", -3), ("n_balls", 0), ("pairs_per_ball", -2), ("pairs_per_ball", 2.5),
        ("seed", -1), ("n_balls", True), ("seed", "3"),
    ])
    def test_bad_count_names_it(self, hyp_disc_pk, arg, value):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        with pytest.raises(ValueError, match=f"^{arg} must be an integer"):
            harnack_fit(pk.trunc, pk, [h], alpha=0.5, **{arg: value})

    def test_numpy_integer_counts_accepted(self, hyp_disc_pk):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        want = harnack_fit(pk.trunc, pk, [h], alpha=0.5, seed=3, n_balls=20,
                           pairs_per_ball=30)
        got = harnack_fit(pk.trunc, pk, [h], alpha=np.float64(0.5), seed=np.int64(3),
                          n_balls=np.int64(20), pairs_per_ball=np.uint8(30))
        assert got.pairs.tobytes() == want.pairs.tobytes()
        assert type(got.alpha) is float

    def test_json_payload(self, hyp_disc_pk):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        fit = harnack_fit(pk.trunc, pk, [h], alpha=0.5)
        payload = harnack_to_json(fit)
        assert {"beta_hat", "C_hat", "fitted", "pairs"} <= set(payload)
        assert len(payload["pairs"]) == len(fit.pairs)


COS = BoundaryFunction(func=np.cos)


# one call per argument check of the library: each bad value is refused by a
# ValueError whose message starts with the argument's name
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda pk: capacity(pk.trunc, [0.5]), "target", id="capacity-float-target"),
    pytest.param(lambda pk: escape_capacity(pk.trunc, [1.9]), "target",
                 id="escape-capacity-float-target"),
    pytest.param(lambda pk: shrunk_discs(pk, [0.5], 0.5), "target",
                 id="shrunk-discs-float-target"),
    pytest.param(lambda pk: shrunk_discs(pk, [10 ** 6], 0.5), "target",
                 id="shrunk-discs-far-target"),
    pytest.param(lambda pk: capacity_comparison(pk.trunc, pk, [0.5]), "target",
                 id="capacity-comparison-float-target"),
    pytest.param(lambda pk: douglas_energy(COS, "2048"), "n_theta", id="douglas-str-n-theta"),
    pytest.param(lambda pk: grid_capacity([(0j, 0.25)], "0.125"), "grid_h",
                 id="grid-capacity-str-h"),
    pytest.param(lambda pk: poisson_extend(COS, 2.9), "K_max", id="poisson-float-k-max"),
    pytest.param(lambda pk: cont_operator(pk.trunc, pk, np.zeros(pk.trunc.n_vertices),
                                          eps_trace=0.2, k_max=3.9), "k_max",
                 id="cont-operator-float-k-max"),
    pytest.param(lambda pk: roundtrip(pk.trunc, pk, np.zeros(pk.trunc.n_vertices),
                                      eps_trace=0.2, n_theta=256.5), "n_theta",
                 id="roundtrip-float-n-theta"),
    pytest.param(lambda pk: COS.sample(64.5), "n", id="sample-float-n"),
    pytest.param(lambda pk: generate_tiling(7, 3, True), "layers", id="tiling-bool-layers"),
    pytest.param(lambda pk: truncate(generate_tiling(7, 3, 3), 1.0, 2), "root",
                 id="truncate-float-root"),
    pytest.param(lambda pk: packing_to_svg(pk, True), "size", id="svg-bool-size"),
    pytest.param(lambda pk: solve_radii(pk.trunc, max_iter=2.5), "max_iter",
                 id="solve-radii-float-max-iter"),
    pytest.param(lambda pk: harnack_fit(pk.trunc, pk, [np.zeros(pk.trunc.n_vertices)],
                                        alpha="0.5"), "alpha", id="harnack-str-alpha"),
])
def test_bad_argument_is_refused_by_name(hyp_disc_pk, call, name):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(hyp_disc_pk)
