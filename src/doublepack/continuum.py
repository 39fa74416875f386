"""Dirichlet machinery on the unit disc.

Harmonic functions are carried as truncated boundary Fourier series, which
makes evaluation and energies exact; a Cartesian grid serves the one job
Fourier cannot: non-harmonic equilibrium potentials (capacity, by a lattice
solve: double-precision CG, single-precision multigrid V-cycle).  The
boundary Douglas energy is a double quadrature over the circle, summed
through the FFT autocorrelation of the samples, whose diagonal uses the
difference-quotient limit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FINITE, NONNEGATIVE, QUARTER, complex_number, integer, number
from .linalg import _SIZE_BUDGET, lattice_solve
from .textio import csv_text, read_csv

__all__ = [
    "HarmonicDiscField", "BoundaryFunction", "poisson_extend",
    "energy_continuous", "douglas_energy", "grid_capacity",
    "boundary_function_to_csv", "load_boundary_csv",
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
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite Fourier coefficient")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a0", number("a0", self.a0, FINITE))

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
        """Values at theta_j = 2 pi j / n: the callable's, or a copy of the
        samples when ``n`` is their count (any other ``n`` raises
        ``ValueError``)."""
        n = integer("n", n, 4)
        if self._func is not None:
            theta = 2 * np.pi * np.arange(n) / n
            vals = np.asarray(self._func(theta), dtype=float)
            if vals.shape == ():
                vals = np.full(n, float(vals))
            if vals.shape != (n,):
                raise ValueError("boundary callable must map a theta grid to values")
            if not np.all(np.isfinite(vals)):
                raise ValueError("boundary callable produced non-finite values")
            return vals
        if n != self._samples.size:
            raise ValueError(f"the boundary data holds {self._samples.size} "
                             f"samples, not {n}")
        return self._samples.copy()


def poisson_extend(boundary: BoundaryFunction, K_max: int) -> HarmonicDiscField:
    """Harmonic extension of boundary data, truncated at frequency ``K_max``.

    Sampled boundary data must oversample the target band: at least
    4 * K_max points.
    """
    K = integer("K_max", K_max, 0)
    m = boundary.native_size
    if m is not None:
        if m < 4 * K:
            raise ValueError(
                f"{m} boundary samples cannot resolve modes up to {K}; "
                f"need at least {4 * K}")
        vals = boundary.sample(m)
    else:
        vals = boundary.sample(max(4 * K, 64))
    n = vals.size
    spec = np.fft.rfft(vals)
    a0 = float(spec[0].real) / n
    a = 2.0 * spec[1:K + 1].real / n
    b = -2.0 * spec[1:K + 1].imag / n
    if K == 0:
        a = b = np.zeros(1)
    return HarmonicDiscField(a0, a, b)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy_continuous(field) -> float:
    """Dirichlet energy over the unit disc, exact from the coefficients: the
    sum of k pi (a_k^2 + b_k^2).
    """
    if isinstance(field, HarmonicDiscField):
        ks = np.arange(1, field.degree + 1)
        return float(np.sum(ks * np.pi * (field.a ** 2 + field.b ** 2)))
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
    n = integer("n_theta", n_theta, 64)
    if n % 2:
        raise ValueError(f"n_theta must be even, got {n}")
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


# ---------------------------------------------------------------------------
# grid capacity
# ---------------------------------------------------------------------------

def grid_capacity(target, grid_h: float) -> float:
    """Capacity between a union of closed discs, given as a list of
    (center, radius) pairs with complex centers, and the unit circle, from
    the 5-point equilibrium potential on a Cartesian grid.

    The potential ``phi`` is 1 on the target nodes and 0 off the open disc,
    on the square lattice; the free nodes (the mask ``unknown``) are solved
    by ``lattice_solve``, which takes the mask and the right-hand side (the
    target neighbours of each free node, counted in bytes) and applies the
    operator from the mask without storing it, to a double-precision
    residual of 1e-10 relative (its V-cycle runs in single precision, which
    changes the work, not the answer).  During the solve only the target
    and free masks are held here: the right-hand side is passed without a
    name, so the solve frees it once it is copied.  ``phi`` is formed after
    the solve, which then holds the only full-lattice float arrays.
    The capacity is the lattice Dirichlet energy of ``phi``.
    Targets get a one-cell margin (the continuum definition asks for an open
    neighbourhood); the estimate refines as ``grid_h`` decreases, up to
    ``_SIZE_BUDGET`` nodes, past which it raises before any allocation.
    """
    h = number("grid_h", grid_h, QUARTER)
    discs = [(complex_number("target center", c), number("target radius", r, NONNEGATIVE))
             for c, r in target]
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
    unknown = xx ** 2 + yy ** 2 < 1.0
    tmask = np.zeros_like(unknown)
    for c, r in discs:
        tmask |= (xx - c.real) ** 2 + (yy - c.imag) ** 2 <= (r + h) ** 2
    unknown &= ~tmask
    # a free node's right-hand side counts its neighbours on the target; no
    # name is kept to it, so the solve frees it once it is copied
    x = lattice_solve(unknown, _neighbours(tmask)[unknown].astype(float), 1e-10,
                      "grid equilibrium solve did not converge")
    phi = tmask.astype(float)
    phi[unknown] = x
    e = float(np.sum((phi[:, 1:] - phi[:, :-1]) ** 2))
    e += float(np.sum((phi[1:, :] - phi[:-1, :]) ** 2))
    return e


def _neighbours(mask):
    """How many of each node's four lattice neighbours lie on ``mask``."""
    t = np.pad(mask, 1).astype(np.int8)
    return t[:-2, 1:-1] + t[2:, 1:-1] + t[1:-1, :-2] + t[1:-1, 2:]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def boundary_function_to_csv(bf: BoundaryFunction, n_theta: int) -> str:
    n_theta = integer("n_theta", n_theta, 4)
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
