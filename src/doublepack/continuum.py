"""Dirichlet machinery on the unit disc.

Harmonic functions are carried as truncated boundary Fourier series, which
makes evaluation, gradients, and energies exact; Cartesian grid fields serve
the two jobs Fourier cannot: non-harmonic equilibrium potentials (capacity,
by a lattice solve: double-precision CG, single-precision multigrid V-cycle)
and energy checks of sampled data.  The boundary Douglas energy is a double
quadrature over the circle, summed through the FFT autocorrelation of the
samples, whose diagonal uses the difference-quotient limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _SIZE_BUDGET, lattice_laplacian, lattice_solve
from .textio import csv_text, read_csv

__all__ = [
    "HarmonicDiscField", "GridDiscField", "BoundaryFunction",
    "poisson_extend", "energy_continuous", "douglas_energy",
    "inner_product_continuous", "grid_capacity", "oscillation_bound_check",
    "sample_grid_field", "boundary_function_to_csv", "load_boundary_csv",
]


@dataclass(frozen=True)
class HarmonicDiscField:
    """Harmonic function on the unit disc, H(re^{it}) = a0 + sum over k of
    r^k (a_k cos kt + b_k sin kt); equivalently Re f for the polynomial
    f(z) = a0 + sum (a_k - i b_k) z^k."""

    a0: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("cosine and sine coefficient arrays must match")
        if not (np.isfinite(self.a0) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite Fourier coefficient")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a0", float(self.a0))

    @property
    def degree(self) -> int:
        return self.a.size

    def evaluate(self, z):
        """Value of the field at points of the closed unit disc."""
        z = np.asarray(z, dtype=complex)
        c = self.a - 1j * self.b
        acc = np.zeros_like(z)
        for k in range(self.degree, 0, -1):
            acc = acc * z + c[k - 1]
        return self.a0 + (acc * z).real

    def gradient(self, z):
        """Complex derivative f'(z); the gradient of H is (Re f', -Im f')
        and |grad H| = |f'|."""
        z = np.asarray(z, dtype=complex)
        d = np.arange(1, self.degree + 1) * (self.a - 1j * self.b)
        acc = np.zeros_like(z)
        for k in range(self.degree - 1, -1, -1):
            acc = acc * z + d[k]
        return acc

    def boundary_values(self, theta):
        return _trig_eval(self.a0, self.a, self.b,
                          np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class GridDiscField:
    """Field sampled on the square lattice of spacing ``grid_h`` covering
    [-1, 1]^2; entries outside the closed unit disc are NaN (absent)."""

    values: np.ndarray
    grid_h: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2 == 0:
            raise ValueError("grid must be square with an odd side (centered)")
        if self.grid_h <= 0:
            raise ValueError("grid spacing must be positive")
        object.__setattr__(self, "values", v)

    def node_radius_sq(self) -> np.ndarray:
        n = self.values.shape[0]
        coords = (np.arange(n) - n // 2) * self.grid_h
        return coords[None, :] ** 2 + coords[:, None] ** 2


def sample_grid_field(field: HarmonicDiscField, grid_h: float) -> GridDiscField:
    n_half = int(round(1.0 / grid_h))
    coords = np.arange(-n_half, n_half + 1) * grid_h
    zz = coords[None, :] + 1j * coords[:, None]
    inside = np.abs(zz) <= 1.0
    vals = np.full(zz.shape, np.nan)
    vals[inside] = field.evaluate(zz[inside])
    return GridDiscField(vals, grid_h)


class BoundaryFunction:
    """Real function on the unit circle, defined by uniform samples
    (theta_j = 2 pi j / n) or by a callable of theta."""

    def __init__(self, samples=None, func=None):
        if (samples is None) == (func is None):
            raise ValueError("provide exactly one of samples= or func=")
        if samples is not None:
            s = np.asarray(samples, dtype=float)
            if s.ndim != 1 or s.size < 4:
                raise ValueError("need a 1-d array of at least 4 samples")
            if not np.all(np.isfinite(s)):
                raise ValueError("boundary samples must be finite")
            self._samples = s
        else:
            self._samples = None
        self._func = func

    @property
    def native_size(self):
        return None if self._samples is None else self._samples.size

    def sample(self, n: int) -> np.ndarray:
        n = int(n)
        if n < 4:
            raise ValueError("need at least 4 sample points")
        theta = 2 * np.pi * np.arange(n) / n
        if self._func is not None:
            vals = np.asarray(self._func(theta), dtype=float)
            if vals.shape == ():
                vals = np.full(n, float(vals))
            if vals.shape != (n,):
                raise ValueError("boundary callable must map a theta grid to values")
            if not np.all(np.isfinite(vals)):
                raise ValueError("boundary callable produced non-finite values")
            return vals
        s = self._samples
        if n == s.size:
            return s.copy()
        # trigonometric resampling through modes strictly below the original
        # Nyquist frequency
        a0, a, b = _fourier_coefficients(s, (s.size - 1) // 2)
        return _trig_eval(a0, a, b, theta)


def _fourier_coefficients(samples: np.ndarray, k_max: int):
    m = samples.size
    if k_max > (m - 1) // 2:
        raise ValueError(f"{m} samples resolve modes only up to {(m - 1) // 2}")
    spec = np.fft.rfft(samples)
    a0 = float(spec[0].real) / m
    a = 2.0 * spec[1:k_max + 1].real / m
    b = -2.0 * spec[1:k_max + 1].imag / m
    return a0, a, b


def _trig_eval(a0, a, b, theta):
    ang = np.multiply.outer(theta, np.arange(1, a.size + 1))
    return a0 + np.cos(ang) @ a + np.sin(ang) @ b


def poisson_extend(boundary: BoundaryFunction, K_max: int) -> HarmonicDiscField:
    """Harmonic extension of boundary data, truncated at frequency ``K_max``.

    Sampled boundary data must oversample the target band: at least
    4 * K_max points.
    """
    K = int(K_max)
    if K < 0:
        raise ValueError("K_max must be nonnegative")
    m = boundary.native_size
    if m is not None:
        if m < 4 * K:
            raise ValueError(
                f"{m} boundary samples cannot resolve modes up to {K}; "
                f"need at least {4 * K}")
        vals = boundary.sample(m)
    else:
        vals = boundary.sample(max(4 * K, 64))
    a0, a, b = _fourier_coefficients(vals, K)
    if K == 0:
        a = b = np.zeros(1)
    return HarmonicDiscField(a0, a, b)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_continuous(field, inner_radius: float = 1.0) -> float:
    """Dirichlet energy over the concentric disc of the given radius.

    Exact for harmonic representations (sum of k pi (a_k^2 + b_k^2) rho^{2k});
    a first-difference sum for grid representations.
    """
    rho = float(inner_radius)
    if not 0 < rho <= 1:
        raise ValueError("inner_radius must lie in (0, 1]")
    if isinstance(field, HarmonicDiscField):
        ks = np.arange(1, field.degree + 1)
        return float(np.sum(ks * np.pi * (field.a ** 2 + field.b ** 2)
                            * rho ** (2 * ks)))
    if isinstance(field, GridDiscField):
        v = field.values
        ok = np.isfinite(v) & (field.node_radius_sq() <= rho * rho + 1e-12)
        dx = v[:, 1:] - v[:, :-1]
        keep = ok[:, 1:] & ok[:, :-1]
        e = float(np.sum(dx[keep] ** 2))
        dy = v[1:, :] - v[:-1, :]
        keep = ok[1:, :] & ok[:-1, :]
        e += float(np.sum(dy[keep] ** 2))
        return e
    raise TypeError(f"not a disc field: {type(field).__name__}")


def douglas_energy(boundary: BoundaryFunction, n_theta: int) -> float:
    """Boundary-only Dirichlet energy: the arc-length double integral over
    the circle of |phi(xi) - phi(zeta)|^2 / |xi - zeta|^2, normalized by
    1/(2 pi) so that it reproduces the full energy of the harmonic extension,
    integral of ||grad h||^2 (the Douglas integral without the half-energy
    convention: on cos k theta it gives k pi).

    The off-diagonal sum over sample pairs at circular distance d needs only
    sum_j (phi_j - phi_{j+d})^2 = 2 c_0 - 2 c_d, where c is the circular
    autocorrelation of the samples, taken by FFT (O(n log n)); the mean is
    removed first, which leaves every gap as it is.  The integrand extends
    continuously to the diagonal with value phi'(theta)^2, estimated by the
    symmetric difference quotient.  Past ``_SIZE_BUDGET`` samples it raises.
    """
    n = int(n_theta)
    if n < 64 or n % 2:
        raise ValueError("n_theta must be even and at least 64")
    if n > _SIZE_BUDGET:
        raise ValueError(f"n_theta = {n} samples exceed the size budget {_SIZE_BUDGET}")
    vals = boundary.sample(n)
    w = 2 * np.pi / n
    # shifting by a sample makes a constant input exactly zero
    spec = np.fft.rfft(vals - vals[0])
    spec[0] = 0.0
    c = np.fft.irfft(spec.real ** 2 + spec.imag ** 2, n)
    d = np.arange(1, n)
    off = float(np.dot(2 * c[0] - 2 * c[1:], 0.25 / np.sin(np.pi * d / n) ** 2))
    deriv = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * w)
    diag = float(np.dot(deriv, deriv))
    return w * w / (2 * np.pi) * (off + diag)


def inner_product_continuous(field1, field2, region, n_r: int = 96,
                             n_theta: int = 192) -> float:
    """Rooted inner product: the product integral over the disc ``region``
    (center, radius) plus the gradient pairing over the whole unit disc.

    The gradient term is computed exactly from coefficients; the mass term by
    midpoint-radial, uniform-angular quadrature.
    """
    if not (isinstance(field1, HarmonicDiscField)
            and isinstance(field2, HarmonicDiscField)):
        raise TypeError("inner products need harmonic field representations")
    center, radius = region
    center = complex(center)
    radius = float(radius)
    if radius <= 0:
        raise ValueError("region radius must be positive")
    if abs(center) + radius >= 1:
        raise ValueError("region must be compactly contained in the unit disc")
    rr = (np.arange(n_r) + 0.5) * (radius / n_r)
    tt = 2 * np.pi * np.arange(n_theta) / n_theta
    z = center + rr[:, None] * np.exp(1j * tt)[None, :]
    weights = rr[:, None] * (radius / n_r) * (2 * np.pi / n_theta)
    mass = float(np.sum(weights * field1.evaluate(z) * field2.evaluate(z)))
    kk = min(field1.degree, field2.degree)
    ks = np.arange(1, kk + 1)
    grad = float(np.sum(ks * np.pi * (field1.a[:kk] * field2.a[:kk]
                                      + field1.b[:kk] * field2.b[:kk])))
    return mass + grad


# ---------------------------------------------------------------------------
# grid capacity
# ---------------------------------------------------------------------------

def grid_capacity(target, grid_h: float) -> float:
    """Capacity between a union of closed discs, given as a list of
    (center, radius) pairs with complex centers, and the unit circle, from
    the 5-point equilibrium potential on a Cartesian grid.

    The potential is 1 on the target nodes and 0 off the open disc; the free
    nodes are solved by ``lattice_solve`` to a double-precision residual of
    1e-10 relative (its V-cycle runs in single precision, which changes the
    work, not the answer), and the capacity is the lattice Dirichlet energy.
    Targets get a one-cell margin (the continuum definition asks for an open
    neighbourhood); the estimate refines as ``grid_h`` decreases, up to
    ``_SIZE_BUDGET`` nodes, past which it raises before any allocation.
    """
    h = float(grid_h)
    if not 0 < h <= 0.25:
        raise ValueError("grid_h must be in (0, 1/4]")
    discs = [(complex(c), float(r)) for c, r in target]
    if any(r < 0 for _, r in discs):
        raise ValueError("disc radius cannot be negative")
    if not discs:
        return 0.0
    for c, r in discs:
        if abs(c) + r >= 1 - 2 * h:
            raise ValueError("target touches the disc boundary at this spacing")

    side = 2 * np.ceil(1.0 / h) + 1
    if side * side > _SIZE_BUDGET:
        raise ValueError(f"grid_h = {h:g} asks for a lattice of {side * side:.4g} "
                         f"nodes; the size budget is {_SIZE_BUDGET}")
    n_half = int(side) // 2
    coords = np.arange(-n_half, n_half + 1) * h
    xx = coords[None, :]
    yy = coords[:, None]
    inside = xx ** 2 + yy ** 2 < 1.0
    tmask = np.zeros_like(inside)
    for c, r in discs:
        tmask |= (xx - c.real) ** 2 + (yy - c.imag) ** 2 <= (r + h) ** 2

    unknown = inside & ~tmask
    phi = tmask.astype(float)
    # a free node's right-hand side counts its neighbours on the target
    pad = np.pad(phi, 1)
    rhs = pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:]
    phi[unknown] = lattice_solve(lattice_laplacian(unknown), unknown, rhs[unknown],
                                 1e-10, "grid equilibrium solve did not converge")
    e = float(np.sum((phi[:, 1:] - phi[:, :-1]) ** 2))
    e += float(np.sum((phi[1:, :] - phi[:-1, :]) ** 2))
    return e


# ---------------------------------------------------------------------------
# oscillation bound
# ---------------------------------------------------------------------------

def oscillation_bound_check(field: HarmonicDiscField, center, radius: float,
                            alpha: float, n_r: int = 64,
                            n_theta: int = 128) -> tuple:
    """Evaluate both sides of the Harnack-type oscillation estimate: the
    squared oscillation of the field over B(center, radius) against
    log(alpha^2/(alpha^2-1))/pi times its gradient energy over the
    alpha-enlarged disc.  Returns (oscillation_sq, bound)."""
    center = complex(center)
    radius = float(radius)
    alpha = float(alpha)
    if radius <= 0 or alpha <= 1:
        raise ValueError("need radius > 0 and alpha > 1")
    if abs(center) + alpha * radius > 1:
        raise ValueError("the enlarged disc must stay inside the unit disc")
    tt = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    rr = radius * (np.arange(1, n_r + 1) / n_r)
    z = center + rr[:, None] * tt[None, :]
    h0 = float(field.evaluate(np.asarray(center)))
    osc_sq = float(np.max((field.evaluate(z) - h0) ** 2))
    rr2 = (np.arange(n_r) + 0.5) * (alpha * radius / n_r)
    z2 = center + rr2[:, None] * tt[None, :]
    weights = rr2[:, None] * (alpha * radius / n_r) * (2 * np.pi / n_theta)
    grad_sq = np.abs(field.gradient(z2)) ** 2
    integral = float(np.sum(weights * grad_sq))
    bound = math.log(alpha * alpha / (alpha * alpha - 1)) / math.pi * integral
    return osc_sq, bound


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def boundary_function_to_csv(bf: BoundaryFunction, n_theta: int) -> str:
    theta = 2 * np.pi * np.arange(n_theta) / n_theta
    return csv_text(["theta", "value"], zip(theta, bf.sample(n_theta)))


def load_boundary_csv(source) -> BoundaryFunction:
    """Boundary samples from a CSV file (a path or an open text file);
    requires the uniform grid theta_j = 2 pi j / n in any row order."""
    rows, _ = read_csv(source, ["theta", "value"], "boundary")
    theta, vals = np.array(rows).reshape(-1, 2).T
    order = np.argsort(theta)
    theta, vals = theta[order], vals[order]
    n = theta.size
    expect = 2 * np.pi * np.arange(n) / n
    if n < 4 or not np.allclose(theta, expect, atol=1e-9):
        raise ValueError("boundary CSV must sample the uniform theta grid "
                         "2 pi j / n starting at 0")
    return BoundaryFunction(samples=vals)
