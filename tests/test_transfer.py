"""Operators bridging packed maps and the disc: piecewise-affine extension,
disc averages, the pullback/pushforward pair, roundtrip diagnostics, capacity
comparison, and the Harnack exponent fit."""

import dataclasses
import math

import numpy as np
import pytest

from doublepack import transfer
from doublepack.continuum import HarmonicDiscField, sample_grid_field
from doublepack.maps import boundary_truncation, truncate
from doublepack.packing import layout, solve_radii
from doublepack.potential import energy, royden_project, solve_dirichlet
from doublepack.tilings import generate_grid, generate_tiling
from doublepack.transfer import (
    capacity_comparison,
    cont_operator,
    continuity_bound_check,
    disc_average,
    disc_operator,
    energy_of_extension,
    extend_affine,
    harnack_fit,
    harnack_to_json,
    roundtrip,
    transfer_report_to_json,
)

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

    def test_degenerate_triangle_rejected(self, grid_lattice_pk):
        bad = dataclasses.replace(grid_lattice_pk,
                                  face_center=grid_lattice_pk.face_center.copy())
        f = int(bad.trunc.bounded_faces[0])
        v = bad.trunc.faces.vertices(bad.trunc.graph, f)[0]
        bad.face_center[f] = bad.vertex_center[v]
        with pytest.raises(ValueError, match="degenerate"):
            extend_affine(bad, np.zeros(bad.trunc.n_vertices))


class TestDiscAverage:
    def test_constant(self, grid_disc_pk):
        c = HarmonicDiscField(0.75, np.zeros(1), np.zeros(1))
        assert disc_average(grid_disc_pk, c, grid_disc_pk.trunc.root) == \
            pytest.approx(0.75, abs=1e-12)

    def test_mean_value_identity(self, hyp_disc_pk):
        pk = hyp_disc_pk
        for v in (pk.trunc.root, int(pk.trunc.interior[3])):
            got = disc_average(pk, RE_Z, v)
            assert got == pytest.approx(pk.vertex_center[v].real, abs=1e-10)

    def test_squared_modulus_closed_form(self, grid_disc_pk):
        pk = grid_disc_pk
        v = pk.trunc.root
        rho = 0.4 * pk.vertex_radius[v]
        got = disc_average(pk, lambda z: np.abs(z) ** 2, v, delta=0.4)
        want = abs(pk.vertex_center[v]) ** 2 + rho ** 2 / 2
        assert got == pytest.approx(want, abs=1e-8)

    def test_center_outside_domain(self, grid_disc_pk):
        shifted = dataclasses.replace(
            grid_disc_pk, vertex_center=grid_disc_pk.vertex_center + 0.4)
        far = int(np.argmax(np.abs(shifted.vertex_center)))
        with pytest.raises(ValueError, match="domain"):
            disc_average(shifted, RE_Z, far)

    def test_grid_fields_unsupported(self, grid_disc_pk):
        grid = sample_grid_field(RE_Z, 1 / 32)
        with pytest.raises(TypeError):
            disc_average(grid_disc_pk, grid, grid_disc_pk.trunc.root)


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
        assert rep.roundtrip_residual == math.sqrt(energy(t.graph, h - back) / e_h)
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


class TestContinuityBound:
    def test_constant(self, grid_disc_pk):
        t = grid_disc_pk.trunc
        chk = continuity_bound_check(grid_disc_pk, np.full(t.n_vertices, 4.0), 0.5)
        assert chk.bound == 0.0
        assert chk.max_deviation == pytest.approx(0.0, abs=1e-12)
        assert chk.worst_slack <= 1e-8

    def test_random_no_violations(self, hyp_disc_pk):
        t = hyp_disc_pk.trunc
        phi = np.random.default_rng(9).normal(size=t.n_vertices)
        chk = continuity_bound_check(hyp_disc_pk, phi, 0.5)
        assert chk.worst_slack <= 1e-8

    def test_indicator_is_reasonably_tight(self, grid_lattice_pk):
        pk = grid_lattice_pk
        t = pk.trunc
        phi = np.zeros(t.n_vertices)
        phi[t.root] = 1.0
        chk = continuity_bound_check(pk, phi, 0.9)
        assert chk.worst_slack <= 1e-8
        assert chk.max_deviation >= 0.4 * chk.bound


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

    def test_deterministic(self, hyp_disc_pk):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        f1 = harnack_fit(pk.trunc, pk, [h], alpha=0.5, seed=3)
        f2 = harnack_fit(pk.trunc, pk, [h], alpha=0.5, seed=3)
        assert f1.beta_hat == f2.beta_hat and f1.C_hat == f2.C_hat

    def test_json_payload(self, hyp_disc_pk):
        pk = hyp_disc_pk
        h = disc_operator(pk.trunc, pk, RE_Z)
        fit = harnack_fit(pk.trunc, pk, [h], alpha=0.5)
        payload = harnack_to_json(fit)
        assert {"beta_hat", "C_hat", "fitted", "pairs"} <= set(payload)
        assert len(payload["pairs"]) == len(fit.pairs)
