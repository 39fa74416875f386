"""Unit-disc Dirichlet machinery: Fourier harmonic fields, Poisson extension,
Douglas boundary energy, and grid capacity."""

import gc
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from doublepack import continuum, linalg
from doublepack.continuum import (
    BoundaryFunction,
    HarmonicDiscField,
    boundary_function_to_csv,
    douglas_energy,
    energy_continuous,
    grid_capacity,
    load_boundary_csv,
    poisson_extend,
)
from doublepack.errors import InvariantViolation

ANNULUS_CAPACITY_QUARTER = 2 * math.pi / math.log(4)  # ground at |z|=1, target 1/4


def poisson_quadrature_oracle(boundary_func, z, n=4096):
    """Direct Poisson-kernel integral (1/2pi) int P(z, theta) phi(theta) dtheta
    by the trapezoid rule; independent of any Fourier machinery."""
    theta = 2 * np.pi * np.arange(n) / n
    xi = np.exp(1j * theta)
    kernel = (1 - abs(z) ** 2) / np.abs(xi - z) ** 2
    return float(np.mean(kernel * boundary_func(theta)))


def field_from_single_mode(k, a=0.0, b=0.0, K=None):
    K = K or k
    ak = np.zeros(K)
    bk = np.zeros(K)
    if k >= 1:
        ak[k - 1] = a
        bk[k - 1] = b
    return HarmonicDiscField(a0=0.0 if k >= 1 else a, a=ak, b=bk)


class TestBoundaryFunction:
    def test_from_samples_and_callable_agree(self):
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        bf_s = BoundaryFunction(samples=np.cos(3 * theta))
        bf_c = BoundaryFunction(func=lambda t: np.cos(3 * t))
        assert np.allclose(bf_s.sample(n), bf_c.sample(n), atol=1e-12)

    @pytest.mark.parametrize("n", [32, 256])
    def test_samples_are_read_at_their_own_count_only(self, n):
        bf = BoundaryFunction(samples=np.arange(64.0))
        assert np.array_equal(bf.sample(64), np.arange(64.0))
        with pytest.raises(ValueError, match=f"holds 64 samples, not {n}"):
            bf.sample(n)

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            BoundaryFunction()
        with pytest.raises(ValueError):
            BoundaryFunction(samples=np.ones(8), func=np.cos)


class TestPoissonExtend:
    def test_constant(self):
        field = poisson_extend(BoundaryFunction(func=lambda t: 0 * t + 2.5), 4)
        z = np.array([0.0, 0.3 + 0.4j, -0.9j])
        assert np.allclose(field.evaluate(z), 2.5, atol=1e-12)

    def test_first_harmonic_is_re_z(self):
        field = poisson_extend(BoundaryFunction(func=np.cos), 4)
        assert field.a[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(field.a0) < 1e-12
        rng = np.random.default_rng(1)
        z = rng.uniform(-0.6, 0.6, 8) + 1j * rng.uniform(-0.6, 0.6, 8)
        assert np.allclose(field.evaluate(z), z.real, atol=1e-12)

    def test_cos3_matches_poisson_kernel_quadrature(self):
        f = lambda t: np.cos(3 * t)
        field = poisson_extend(BoundaryFunction(func=f), 8)
        for z in (0.2 + 0.1j, -0.5j, 0.65 - 0.2j):
            assert field.evaluate(z) == pytest.approx(
                poisson_quadrature_oracle(f, z), abs=1e-6)
            r, th = abs(z), np.angle(z)
            assert field.evaluate(z) == pytest.approx(r ** 3 * np.cos(3 * th))

    def test_undersampled_boundary_rejected(self):
        theta = 2 * np.pi * np.arange(12) / 12
        with pytest.raises(ValueError, match="sample"):
            poisson_extend(BoundaryFunction(samples=np.cos(theta)), K_max=5)


class TestHarmonicDiscField:
    def test_string_a0_rejected(self):
        with pytest.raises(ValueError, match="a0 must be finite, got '1'"):
            HarmonicDiscField("1", [1.0], [0.0])


class TestEnergyContinuous:
    def test_constant_zero(self):
        assert energy_continuous(HarmonicDiscField(3.0, np.zeros(2), np.zeros(2))) == 0.0

    def test_single_modes(self):
        # E(Re z^k) over the unit disc is k*pi: the gradient has |f'|^2 =
        # k^2 r^(2k-2), integrating to k^2 * 2pi/(2k).
        for k in range(1, 7):
            field = field_from_single_mode(k, a=1.0)
            assert energy_continuous(field) == pytest.approx(k * math.pi)

    def test_monotone_in_radius_and_additive(self):
        # the energy over the disc of radius rho is that of z -> H(rho z)
        # over the unit disc, whose coefficients are rho^k a_k and rho^k b_k
        def dilated(f, rho):
            scale = rho ** np.arange(1, f.degree + 1)
            return HarmonicDiscField(f.a0, f.a * scale, f.b * scale)

        rng = np.random.default_rng(4)
        f = HarmonicDiscField(0.5, rng.normal(size=6), rng.normal(size=6))
        energies = [energy_continuous(dilated(f, rho)) for rho in (0.4, 0.7, 1.0)]
        assert energies[0] <= energies[1] <= energies[2]
        total = sum(energy_continuous(dilated(
            field_from_single_mode(k, f.a[k - 1], f.b[k - 1]), 0.8)) for k in range(1, 7))
        assert energy_continuous(dilated(f, 0.8)) == pytest.approx(total)


def douglas_pairwise_reference(boundary, n):
    """The Douglas sum as a loop over circular distances d, one rolled copy
    of the samples per d: O(n^2)."""
    vals = boundary.sample(n)
    w = 2 * np.pi / n
    off = 0.0
    for d in range(1, n):
        gap = vals - np.roll(vals, -d)
        off += float(np.dot(gap, gap)) / (4 * math.sin(math.pi * d / n) ** 2)
    deriv = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * w)
    return w * w / (2 * np.pi) * (off + float(np.dot(deriv, deriv)))


class TestDouglasEnergy:
    def test_constant_zero(self):
        assert douglas_energy(BoundaryFunction(func=lambda t: 0 * t + 1.0), 256) == \
            pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [100, 256, 1000])
    @pytest.mark.parametrize("value", [1.0, 1 / 3, -2.5e10])
    def test_constant_is_exactly_zero(self, n, value):
        assert douglas_energy(BoundaryFunction(func=lambda t: 0 * t + value), n) == 0.0

    @pytest.mark.parametrize("n", [256, 1000, 2048, 8192])
    def test_matches_pairwise_reference(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, 20))
        ks = np.arange(1, 21)
        cases = [BoundaryFunction(func=lambda t: np.cos(3 * t)),
                 BoundaryFunction(func=lambda t: 3.0 + np.cos(np.outer(t, ks)) @ a
                                  + np.sin(np.outer(t, ks)) @ b),
                 BoundaryFunction(samples=rng.normal(size=n) + 7.0)]
        for bf in cases:
            assert douglas_energy(bf, n) == pytest.approx(
                douglas_pairwise_reference(bf, n), rel=1e-12)

    def test_single_cosines_give_k_pi(self):
        for k in range(1, 6):
            d = douglas_energy(BoundaryFunction(func=lambda t, k=k: np.cos(k * t)), 2048)
            assert d == pytest.approx(k * math.pi, rel=1e-3)

    def test_sine_matches_cosine(self):
        dc = douglas_energy(BoundaryFunction(func=lambda t: np.cos(2 * t)), 1024)
        ds = douglas_energy(BoundaryFunction(func=lambda t: np.sin(2 * t)), 1024)
        assert ds == pytest.approx(dc, rel=1e-9)

    def test_matches_harmonic_extension_energy(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, 8)) / (1 + np.arange(8))
        f = HarmonicDiscField(0.0, a, b)
        bf = BoundaryFunction(func=lambda t: f.evaluate(np.exp(1j * t)))
        d = douglas_energy(bf, 2048)
        e = energy_continuous(f)
        assert abs(d - e) / e <= 1e-2

    def test_odd_or_small_grid_rejected(self):
        bf = BoundaryFunction(func=np.cos)
        with pytest.raises(ValueError):
            douglas_energy(bf, 63)
        with pytest.raises(ValueError):
            douglas_energy(bf, 32)

    def test_oversized_sample_count_rejected_before_sampling(self):
        def never(theta):
            raise AssertionError("sampled an oversized request")

        with pytest.raises(ValueError, match="n_theta = 1000000000 samples exceed the size budget"):
            douglas_energy(BoundaryFunction(func=never), 10 ** 9)


class TestGridCapacity:
    def test_empty_target(self):
        assert grid_capacity([], 1 / 64) == 0.0

    def test_centered_quarter_disc(self):
        cap = grid_capacity([(0.0, 0.25)], grid_h=1 / 256)
        assert cap == pytest.approx(ANNULUS_CAPACITY_QUARTER, rel=0.05)

    def test_monotone_under_enlargement(self):
        small = grid_capacity([(0.0, 0.2)], 1 / 64)
        big = grid_capacity([(0.0, 0.3)], 1 / 64)
        two = grid_capacity([(0.0, 0.2), (0.5, 0.1)], 1 / 64)
        assert small < big
        assert small < two

    def test_boundary_contact_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            grid_capacity([(0.9, 0.2)], 1 / 64)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            grid_capacity([(0.1j, -0.1)], 1 / 64)

    @pytest.mark.parametrize("radius, shown", [("0.25", "'0.25'"), (True, "True")])
    def test_radius_that_is_not_a_real_rejected(self, radius, shown):
        with pytest.raises(ValueError, match=f"target radius .* got {shown}"):
            grid_capacity([(0j, radius)], 1 / 32)

    @pytest.mark.parametrize("center, shown", [
        ("0.3", "'0.3'"), (True, "True"), (complex("nan"), "\\(nan\\+0j\\)"),
    ], ids=["string", "bool", "nan"])
    def test_center_that_is_not_a_number_rejected(self, center, shown):
        message = f"target center must be a finite number, got {shown}"
        with pytest.raises(ValueError, match=message):
            grid_capacity([(center, 0.1)], 1 / 32)

    def test_real_and_numpy_centers_accepted(self):
        want = grid_capacity([(0.3 + 0j, 0.1)], 1 / 32)
        for center in (0.3, np.float64(0.3), np.complex128(0.3)):
            assert grid_capacity([(center, 0.1)], 1 / 32) == want

    @pytest.mark.parametrize("h, nodes", [(2e-5, "1e\\+10"), (1e-320, "inf")])
    def test_oversized_lattice_rejected_before_allocation(self, h, nodes):
        # (2 ceil(1/h) + 1)^2 nodes: 74.5 GiB of float64 at h = 2e-5
        with pytest.raises(ValueError, match=f"grid_h = .* lattice of {nodes} nodes"):
            grid_capacity([(0j, 0.25)], h)


def _thirty_small_discs():
    rng = np.random.default_rng(5)
    discs = []
    while len(discs) < 30:
        c = complex(*rng.uniform(-0.75, 0.75, 2))
        if abs(c) < 0.8:
            discs.append((c, float(rng.uniform(0.005, 0.03))))
    return discs


CAPACITY_TARGETS = {
    "centred": [(0j, 0.25)],
    "three": [(0.3 + 0.1j, 0.1), (-0.4 + 0.2j, 0.15), (0.1 - 0.5j, 0.05)],
    "point": [(0.2 - 0.1j, 0.0)],
    "rim": [(0.8 + 0j, 0.1)],
    "thirty": _thirty_small_discs(),
}


# grid_capacity(CAPACITY_TARGETS[name], 1 / n), bit for bit
PINNED_CAPACITIES = {
    ("centred", 41): "0x1.2eb7d991cd5eap+2", ("centred", 64): "0x1.2901aa923b90ap+2",
    ("point", 41): "0x1.8551bd57b8aaep+0", ("point", 64): "0x1.5f443c4c07e91p+0",
    ("rim", 41): "0x1.6455f47a4c15dp+2", ("rim", 64): "0x1.60a189a87664ap+2",
    ("thirty", 41): "0x1.e5b2ff7df03a0p+3", ("thirty", 64): "0x1.d85945082f808p+3",
    ("three", 41): "0x1.bf408dc766777p+2", ("three", 64): "0x1.b8ad3d6892af0p+2",
}


def masked_laplacian(free):
    """5-point Laplacian on the free nodes of a square mask, row-major, with
    zero Dirichlet values off the mask."""
    n = free.shape[0]
    t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lap = (sparse.kron(sparse.eye(n), t) + sparse.kron(t, sparse.eye(n))).tocsr()
    idx = np.flatnonzero(free.ravel())
    return lap[idx][:, idx]


def kron_interpolation(free):
    """Bilinear interpolation onto the free nodes of a square mask from the
    free nodes at even positions, both row-major: the Kronecker square of
    the 1-d linear interpolation (even points copy, odd ones average their
    two even neighbours, and the last point of an even side keeps half of
    its one), sliced to the free rows and the coarse free columns."""
    n = free.shape[0]
    nc = (n + 1) // 2
    odd = np.arange(1, n, 2)
    rows = np.r_[np.arange(0, n, 2), odd, odd]
    cols = np.r_[np.arange(nc), odd // 2, odd // 2 + 1]
    vals = np.r_[np.ones(nc), np.full(2 * odd.size, 0.5)]
    keep = cols < nc
    i1 = sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, nc))
    p = sparse.kron(i1, i1, format="csr")[np.flatnonzero(free.ravel())]
    return p[:, np.flatnonzero(free[::2, ::2].ravel())]


def random_mask(side, seed, border=False):
    """Seeded random mask, its border never free unless ``border``."""
    free = np.random.default_rng(seed).random((side, side)) < 0.7
    if not border:
        free[[0, -1]] = False
        free[:, [0, -1]] = False
    return free


def direct_lattice_solve(free, b, tol, failure):
    return splu(masked_laplacian(free).tocsc()).solve(b)


def disc_mask(n, radius=None):
    """The nodes of an n x n lattice inside a centred disc, clear of the
    border by default and cut by it when ``radius`` passes it."""
    c = np.arange(n) - (n - 1) / 2
    return c[None, :] ** 2 + c[:, None] ** 2 < (n / 2 - 1 if radius is None else radius) ** 2


def masked_five_point(free):
    """The (3, 3, n, n) float32 stencils of the 5-point operator masked to
    the free nodes: ``s[1 + dy, 1 + dx][J] = L f(J) f(J + (dy, dx))``, with L
    4 at the centre and -1 at the four neighbours, f the mask, 0 past the
    lattice."""
    n = free.shape[0]
    f = np.pad(free, 1).astype(np.float32)
    s = np.zeros((3, 3, n, n), np.float32)
    for (dy, dx), weight in {(0, 0): 4, (-1, 0): -1, (0, -1): -1, (0, 1): -1, (1, 0): -1}.items():
        s[1 + dy, 1 + dx] = weight * f[1:-1, 1:-1] * f[1 + dy:1 + dy + n, 1 + dx:1 + dx + n]
    return s


def probed_operator(apply, probed):
    """The matrix of a 9-point operator ``apply`` on the square lattice of
    the mask ``probed``, read entry for entry off nine float32 probes, each
    1 on the ``probed`` nodes of one class (i mod 3, j mod 3): row I of a
    probe's product is I's entry to its one neighbour in that class, and 0
    where that neighbour is past the lattice's edge."""
    m = probed.shape[0]
    i, j = np.divmod(np.arange(m * m), m)
    rows, cols, vals = [], [], []
    for cy, cx in itertools.product(range(3), repeat=2):
        y = apply((probed.ravel() & (i % 3 == cy) & (j % 3 == cx)).astype(np.float32))
        assert y.dtype == np.float32
        ni, nj = i + (cy - i + 1) % 3 - 1, j + (cx - j + 1) % 3 - 1
        assert not y[(ni < 0) | (ni >= m) | (nj < 0) | (nj >= m)].any()
        hit = np.flatnonzero(y)
        rows.append(hit)
        cols.append(ni[hit] * m + nj[hit])
        vals.append(y[hit])
    return sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(m * m, m * m))


def nan_vector(size):
    return np.full(size, np.nan, np.float32)


def level_product(levels, k):
    """The product with level ``k``'s operator (the coarsest keeps its matrix)."""
    return levels[k][0] if k < len(levels) - 1 else levels[k][0].dot


class TestLatticeBuild:
    # 64 is even at the fine level, 83 -> 42 -> 21 above the coarsest and
    # 201 -> 101 -> 51 -> 26 at the coarsest
    @pytest.mark.parametrize("side", [33, 64, 65, 83, 201])
    @pytest.mark.parametrize("border", [False, True], ids=["closed", "open"])
    def test_operator_and_interpolation_match_the_oracles(self, side, border):
        free = random_mask(side, side, border)
        rng = np.random.default_rng(side)
        a = masked_laplacian(free)
        levels = linalg._hierarchy(free)
        for k in range(len(levels)):
            # every level's operator is the Galerkin product of the oracles,
            # entry for entry, and couples nothing off the mask.  The finest
            # stores no matrix and is read off probes on the mask, where the
            # vectors it is applied to live; the coarser ones off probes on
            # every node, so that their columns off the mask show too
            apply = level_product(levels, k)
            on, off = np.flatnonzero(free), np.flatnonzero(~free)
            built = probed_operator(apply, free if k == 0 else np.ones_like(free))
            assert (built[on][:, on] != a).nnz == 0
            assert built[off].nnz == 0 and built[:, off].nnz == 0
            # and it has no entry past a node's eight neighbours: on a
            # vector of signs (every sum exact) the products agree
            v = rng.integers(-1, 2, free.size).astype(np.float32) * free.ravel()
            assert np.array_equal(apply(v), built @ v)
            if k == len(levels) - 1:
                break
            p = kron_interpolation(free)
            coarse = free[::2, ::2]
            e = np.zeros(coarse.size, np.float32)
            e[coarse.ravel()] = rng.normal(size=p.shape[1])
            # the transfers write into buffers they are given, whatever those held
            fine = linalg._prolong(e, free, nan_vector(free.size), nan_vector(free.size))
            assert fine.dtype == np.float32 and not fine[~free.ravel()].any()
            assert np.allclose(fine[on], p @ e[coarse.ravel()], rtol=1e-6, atol=1e-6)
            r = np.zeros(free.size, np.float32)
            r[on] = rng.normal(size=p.shape[0])
            back = linalg._restrict(r, free, nan_vector(free.size))
            assert back.dtype == np.float32 and not back[~coarse.ravel()].any()
            assert np.allclose(back[coarse.ravel()], p.T @ r[on], rtol=1e-5, atol=1e-5)
            a = (p.T @ a @ p).tocsr()
            free = coarse

    @pytest.mark.parametrize("side", [41, 64, 65, 83, 201])
    @pytest.mark.parametrize("border", [False, True], ids=["closed", "open"])
    @pytest.mark.parametrize("kind", ["random", "disc"])
    def test_first_coarsening_is_the_galerkin_product(self, side, border, kind):
        # the first coarse stencils, formed from the mask at coarse size, are
        # _galerkin's of the masked fine stencils, entry for entry
        if kind == "random":
            free = random_mask(side, side, border)
        else:
            free = disc_mask(side, 0.6 * side if border else None)
        assert free[[0, -1]].any() == border
        built = linalg._first_coarsening(free)
        want = linalg._galerkin(masked_five_point(free), (side + 1) // 2)
        assert built.dtype == np.float32 and built.shape == want.shape
        assert not (built != want).any()

    @pytest.mark.parametrize("side", [64, 65])
    def test_hierarchy_is_single_precision_and_the_solve_double(self, side):
        free = disc_mask(side)
        levels = linalg._hierarchy(free)
        assert len(levels) >= 2
        for apply, dinv, mask in levels[:-1]:
            y = apply(mask.ravel().astype(np.float32))
            assert y.dtype == dinv.dtype == np.float32
            assert y.shape == dinv.shape == (mask.size,)
        assert levels[-1][0].dtype == np.float32
        r = np.zeros(free.size, np.float32)
        r[free.ravel()] = np.random.default_rng(side).normal(size=np.count_nonzero(free))
        z = linalg._vcycle(levels, 0, r)
        # the V-cycle keeps single precision and, as the finest product
        # asks of its vectors, vanishes off the mask
        assert z.dtype == np.float32 and not z[~free.ravel()].any()
        # the finest product keeps the precision it is given: double in the CG
        assert levels[0][0](z.astype(np.float64)).dtype == np.float64
        a = masked_laplacian(free)
        b = r[free.ravel()].astype(np.float64)
        x = linalg.lattice_solve(free, b, 1e-10, "no convergence")
        assert x.dtype == np.float64
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("border", [False, True], ids=["closed", "open"])
    def test_finest_product_is_the_dia_product_bit_for_bit(self, dtype, border):
        # the DIA matrix of the masked 5-point stencil, its diagonals in the
        # order -m, -1, 0, +1, +m: the finest level's product adds the same
        # terms in the same order, so every sum agrees, signed zeros
        # included, on every free row
        side = 65
        free = random_mask(side, 3, border)
        m, n = side, free.size
        # the couplings of each node to the one above it and to its left
        up = -(np.pad(free, 1)[:-2, 1:-1] & free).ravel().astype(dtype)
        left = -(np.pad(free, 1)[1:-1, :-2] & free).ravel().astype(dtype)
        data = np.zeros((5, n), dtype)
        data[0, :n - m], data[1, :n - 1] = up[m:], left[1:]
        data[2] = 4 * free.ravel()
        data[3, 1:], data[4, m:] = left[1:], up[m:]
        dia = sparse.dia_matrix((data, [-m, -1, 0, 1, m]), shape=(n, n))
        rng = np.random.default_rng(side)
        x = (rng.normal(size=n) * free.ravel()).astype(dtype)
        x[rng.random(n) < 0.2] *= 0.0
        x[rng.random(n) < 0.1] *= -0.0
        want = dia @ x
        got = linalg._hierarchy(free)[0][0](x)
        on = free.ravel()
        assert got.dtype == dtype
        assert np.array_equal(got[on].view(np.uint8), want[on].view(np.uint8))
        assert not got[~on].any()


class TestLatticeSolve:
    @pytest.mark.parametrize("h", [1 / 64, 0.01, 1 / 128, 1 / 41])
    @pytest.mark.parametrize("name", sorted(CAPACITY_TARGETS))
    def test_matches_direct_solve(self, name, h, monkeypatch):
        # h = 0.01 gives sides 201 -> 101 -> 51 -> 26: an even coarsest side;
        # h = 1/41 gives 83 -> 42 -> 21: an even side above the coarsest
        target = CAPACITY_TARGETS[name]
        multigrid = grid_capacity(target, h)
        monkeypatch.setattr(continuum, "lattice_solve", direct_lattice_solve)
        direct = grid_capacity(target, h)
        assert multigrid == pytest.approx(direct, rel=1e-10)

    def test_thin_strip_between_target_and_rim(self, monkeypatch):
        # a coarse level that also kept nodes reaching this strip only through
        # free fine neighbours would have a singular coarsest operator here
        target = [(-0.045977359416088714 + 0.7300180617325412j, 0.16359222821521746)]
        multigrid = grid_capacity(target, 1 / 22)
        monkeypatch.setattr(continuum, "lattice_solve", direct_lattice_solve)
        assert multigrid == pytest.approx(grid_capacity(target, 1 / 22), rel=1e-10)

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128, 1 / 256])
    def test_steps_do_not_grow_with_resolution(self, h, monkeypatch):
        vcycle = linalg._vcycle
        steps = []

        def counting(levels, k, r):
            steps[-1] += k == 0
            return vcycle(levels, k, r)

        monkeypatch.setattr(linalg, "_vcycle", counting)
        for target in CAPACITY_TARGETS.values():
            steps.append(0)
            grid_capacity(target, h)
        assert 1 <= min(steps) and max(steps) <= 10

    @pytest.mark.parametrize("side", [33, 64, 101])
    def test_solution_matches_direct(self, side):
        free = disc_mask(side)
        a = masked_laplacian(free)
        b = np.random.default_rng(side).normal(size=a.shape[0])
        x = linalg.lattice_solve(free, b, 1e-12, "no convergence")
        assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
        direct = splu(a.tocsc()).solve(b)
        assert np.allclose(x, direct, rtol=0, atol=1e-9 * np.abs(direct).max())

    @pytest.mark.parametrize("side", [65, 83])
    def test_levels_without_a_free_node(self, side):
        # free nodes at odd positions only: every coarse level is masked out
        # entirely, and the isolated nodes solve 4 x = b
        free = np.zeros((side, side), dtype=bool)
        free[1::2, 1::2] = True
        b = np.random.default_rng(side).normal(size=np.count_nonzero(free))
        x = linalg.lattice_solve(free, b, 1e-12, "no convergence")
        assert np.allclose(x, b / 4, rtol=1e-12, atol=0)
        assert linalg.lattice_solve(np.zeros_like(free), np.zeros(0), 1e-12, "none").size == 0

    def test_unreachable_tolerance_raises(self):
        free = disc_mask(65)
        a = masked_laplacian(free)
        with pytest.raises(InvariantViolation, match="grid solve gave up"):
            linalg.lattice_solve(free, np.ones(a.shape[0]), 0.0, "grid solve gave up")

    @pytest.mark.parametrize("n", [41, 64])
    @pytest.mark.parametrize("name", sorted(CAPACITY_TARGETS))
    def test_capacities_keep_their_bits(self, name, n):
        # the finest product adds a DIA product's terms in its order, and
        # the levels below are built exactly, so these bits hold
        assert grid_capacity(CAPACITY_TARGETS[name], 1 / n).hex() == PINNED_CAPACITIES[name, n]

    def test_lattice_solve_in_bounded_memory(self):
        # a traced peak near 67 bytes a lattice node, in the residual of the
        # first coarse level of a V-cycle: the CG's four float64 vectors (32),
        # the float32 workspace (16), the hierarchy (13, most of it the first
        # coarse level's nine diagonals), the two masks (2) and the coarse
        # level's own vectors
        target = CAPACITY_TARGETS["three"]
        grid_capacity(target, 1 / 128)
        tracemalloc.start()
        try:
            grid_capacity(target, 1 / 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 75 * 257 ** 2

    def test_hierarchy_and_solve_in_bounded_memory(self, monkeypatch):
        # a seeded three-disc union at h = 1/256.  Building the hierarchy,
        # workspace included, peaks near 38 bytes a node, far below the
        # solve; the solve near 66 (see the test above)
        rng = np.random.default_rng(7)
        target = [(complex(*rng.uniform(-0.5, 0.5, 2)), float(rng.uniform(0.05, 0.2)))
                  for _ in range(3)]
        grid_capacity(target, 1 / 256)
        hierarchy, peaks = linalg._hierarchy, {}

        def traced(free):
            tracemalloc.reset_peak()
            levels = hierarchy(free)
            peaks["hierarchy"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            return levels

        monkeypatch.setattr(linalg, "_hierarchy", traced)
        tracemalloc.start()
        try:
            grid_capacity(target, 1 / 256)
            peaks["solve"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks["hierarchy"] <= 45 * 513 ** 2 and peaks["solve"] <= 70 * 513 ** 2

    def test_leaves_no_reference_cycles(self):
        # the hierarchy must be freed by reference counting alone: a cycle
        # would hold every level until the cyclic collector runs
        gc.collect()
        grid_capacity(CAPACITY_TARGETS["three"], 1 / 64)
        assert gc.collect() == 0


class TestSerialization:
    def test_boundary_csv_round_trip(self):
        theta = 2 * np.pi * np.arange(32) / 32
        bf = BoundaryFunction(samples=np.cos(theta) + 0.5)
        text = boundary_function_to_csv(bf, 32)
        assert text.splitlines()[0] == "theta,value"
        back = load_boundary_csv(io.StringIO(text))
        assert np.allclose(back.sample(32), bf.sample(32), atol=1e-12)

    def test_bad_number_names_its_line(self):
        bad = "theta,value\n0.0,1.0\n1.5707963267948966,x1\n"
        with pytest.raises(ValueError, match="boundary CSV line 3: could not convert string to float: 'x1'"):
            load_boundary_csv(io.StringIO(bad))

    def test_rejects_nonuniform_grid(self):
        bad = "theta,value\n0.0,1.0\n0.5,2.0\n3.0,1.5\n"
        with pytest.raises(ValueError, match="uniform"):
            load_boundary_csv(io.StringIO(bad))
