"""The sparse SPD solves: the pinned-block solve of the discrete Dirichlet
problems, one LU reused with iterative refinement, and a multigrid-
preconditioned conjugate gradient for the masked 5-point lattice of the
continuum capacity.  Its finest level is applied by shifted slices of the
lattice and stores no matrix; the coarser ones are built as stencil arrays
on the square mask and applied as DIA matrices."""

from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import InvariantViolation

# The most lattice nodes (continuum.grid_capacity), boundary samples
# (continuum.douglas_energy) or grid patch vertices (tilings.generate_grid)
# one request may ask for: at 95 bytes a node (the peak-RSS rise of one call
# in a fresh process, 93 at h = 1/512 and 87 at h = 1/1024) and 60 a sample,
# no lattice solve within it needs 0.8 GB nor Douglas sum 0.5 GB, and it
# admits h = 1/1024 and n_theta = 2^23.
_SIZE_BUDGET = 2 ** 23

# the residual every harmonic solve of ``PinnedSolve.extend`` reaches
_SOLVE_TOL = 1e-10
_SOLVE_FAILURE = ("harmonic solve did not reach its residual tolerance; "
                  "the system should be well conditioned at this scale")

# lattice side at or below which the V-cycle solves directly
_COARSEST_SIDE = 40
# damped-Jacobi weight; the Galerkin stencils keep diag^-1 a within [0, 2]
_OMEGA = 0.8
_CG_STEPS = 100
# the 5-point stencil: s[1 + dy, 1 + dx] couples a node to the one (dy, dx) on
_LAPLACIAN = np.array([[0, -1, 0], [-1, 4, -1], [0, -1, 0]], np.float32)[:, :, None, None]


class PinnedSolve:
    """Values pinned on some unknowns of a sparse SPD system (``a`` CSR,
    ``pinned`` a boolean mask over its rows), extended to the free ones by
    solving the free block ``a_ff`` (CSC, factored once by ``splu``) against
    the coupling block ``a_fp`` (CSR); every ``extend`` reuses all three."""

    def __init__(self, a, pinned):
        self.free = np.flatnonzero(~pinned)
        self.pinned = np.flatnonzero(pinned)
        rows = a[self.free]
        self.a_ff = rows[:, self.free].tocsc()
        self.a_fp = rows[:, self.pinned]
        self.lu = splu(self.a_ff) if self.free.size else None

    def extend(self, values) -> np.ndarray:
        """A copy of ``values`` whose free entries solve the free rows of
        ``a x = 0`` against its pinned ones: one solve, then up to five
        rounds of iterative refinement to a residual of ``_SOLVE_TOL * |b|``,
        else ``InvariantViolation(_SOLVE_FAILURE)``."""
        full = np.array(values, dtype=float)
        if self.free.size == 0:
            return full
        b = -(self.a_fp @ full[self.pinned])
        x = self.lu.solve(b)
        scale = float(np.linalg.norm(b)) or 1.0
        for _ in range(5):
            r = b - self.a_ff @ x
            if float(np.linalg.norm(r)) <= _SOLVE_TOL * scale:
                full[self.free] = x
                return full
            x = x + self.lu.solve(r)
        raise InvariantViolation(_SOLVE_FAILURE)


def lattice_solve(free, b, tol: float, failure: str) -> np.ndarray:
    """Solve ``A x = b`` for the 5-point operator A (``4 u`` minus its four
    neighbours, 0 off the mask) on the ``True`` nodes of the square mask
    ``free``, ``b`` and ``x`` over them row-major, by double-precision CG
    preconditioned with one single-precision multigrid V-cycle, to a residual
    of ``tol * |b|``; raises ``InvariantViolation(failure)`` after 100 steps.
    A is applied by ``_laplacian``, never stored, and the CG holds four
    lattice vectors: ``w`` takes the preconditioned residual, then ``A p``."""
    levels = _hierarchy(free)
    on = free.ravel()
    scale = float(np.linalg.norm(b)) or 1.0
    x, r, p, w = (np.zeros(free.size) for _ in range(4))
    r[on] = b
    rz = None
    for _ in range(_CG_STEPS):
        if float(np.linalg.norm(r)) <= tol * scale:
            return x[on]
        w[:] = _vcycle(levels, 0, r.astype(np.float32))
        rz_old, rz = rz, float(r @ w)
        if rz_old is None:
            p[:] = w
        else:
            p *= rz / rz_old
            p += w
        _laplacian(free, p, out=w)
        alpha = rz / float(p @ w)
        x += alpha * p
        w *= alpha
        r -= w
    raise InvariantViolation(failure)


def _laplacian(free, x, out=None):
    """``A x`` for the 5-point operator A on the square mask ``free``, ``x`` a
    lattice vector of any float dtype that vanishes off the mask, into
    ``out`` if given.  No matrix: each neighbour term is one shifted slice of
    the raveled lattice, the column ones put back where they wrap a row.
    The terms are added from 0 in the order of A's DIA product, offsets -m,
    -1, 0, +1, +m, so every sum is that product's, bit for bit."""
    m = free.shape[0]
    y = np.empty_like(x) if out is None else out
    y[:m] = 0
    np.subtract(0, x[:-m], out=y[m:])
    first = y[::m].copy()  # the first column has no left neighbour
    y[1:] -= x[:-1]
    y[::m] = first
    y += 4 * x
    last = y[m - 1::m].copy()  # nor the last a right one
    y[:-1] -= x[1:]
    y[m - 1::m] = last
    y[:-m] -= x[m:]
    y *= free.ravel()
    return y


def _hierarchy(free):
    """Levels ``(apply, omega / diag A, free)`` from the 5-point operator on
    the mask ``free`` to coarse, ``apply`` the product with the level's
    operator A, built from its stencils ``s`` masked to couple free nodes
    only.  The finest level stores no matrix: it applies ``_laplacian``.
    Each coarser one is the float32 DIA matrix of its stencils (its diagonal
    at offset ``dy m + dx`` is ``s[1 - dy, 1 - dx]``, by symmetry), and so is
    a finest level that is also the coarsest; last ``(a, LU)``."""
    levels = []
    s = _LAPLACIAN
    while True:
        m = free.shape[0]
        f = np.pad(free, 1).astype(np.float32)
        s = s * f[1:-1, 1:-1]
        s *= sliding_window_view(f, free.shape)
        dinv = (np.float32(_OMEGA) / np.where(free, s[1, 1], np.inf)).ravel()
        if not levels and m > _COARSEST_SIDE:
            levels.append((partial(_laplacian, free), dinv, free))
        else:
            dy, dx = np.nonzero(s.any(axis=(2, 3)))
            a = sparse.dia_matrix((s[2 - dy, 2 - dx].reshape(-1, m * m), (dy - 1) * m + dx - 1),
                                  shape=(m * m, m * m))
            if m <= _COARSEST_SIDE:
                return levels + [(a, splu((a + sparse.diags((~free).ravel().astype(float))).tocsc()))]
            levels.append((a.dot, dinv, free))
        free, s = free[::2, ::2], _galerkin(s, (m + 1) // 2)


def _galerkin(s, m):
    """The stencils of ``P^T A P`` on the coarse side ``m``, unmasked, from
    those ``s`` of A: ``A_c[I, I + O]`` sums ``w(d) w(e) s[o][2 I + d]`` over
    the offsets d, o and ``e = d + o - 2 O`` in {-1, 0, 1}, with w(t) = 0.5^|t|
    per axis, one axis at a time.  Every entry is dyadic: float32 holds it
    exactly through five products, and the sixth (a finest side of 1281 or
    more) rounds the coarsest stencils in their last bits."""
    for axis in (2, 3):
        n = s.shape[axis]
        out = np.zeros(s.shape[:axis] + (m,) + s.shape[axis + 1:], np.float32)
        src, dst = (np.moveaxis(v, (axis - 2, axis), (0, 1)) for v in (s, out))
        for d in (-1, 0, 1):  # fine points 2 c + d, for the coarse c that have one
            fine, coarse = slice(abs(d), n - (d < 0), 2), slice(d < 0, n // 2 if d > 0 else None)
            for o, e in ((o, e) for o in (-1, 0, 1) for e in (-1, 0, 1) if not (d + o + e) % 2):
                dst[(d + o - e) // 2 + 1, coarse] += 0.5 ** (abs(d) + abs(e)) * src[o + 1, fine]
        s = out
    return s


def _prolong(e, free):
    """P: the coarse lattice vector ``e`` interpolated onto the fine mask
    ``free``, one axis at a time: even points copy, odd ones average."""
    n = free.shape[0]
    c = e.reshape((n + 1) // 2, -1)
    for axis in (0, 1):
        out = np.empty((n, n if axis else c.shape[1]), np.float32)
        fine, v = out.swapaxes(0, axis), c.swapaxes(0, axis)
        odd = 0.5 * v[:n // 2]
        odd[:v.shape[0] - 1] += 0.5 * v[1:]
        fine[::2], fine[1::2], c = v, odd, out
    return (c * free).ravel()


def _restrict(r, free):
    """P^T: the fine lattice vector ``r`` (0 off the mask ``free``) summed
    onto the coarse mask with the weights of P, one axis at a time."""
    c = r.reshape(free.shape)
    for axis in (0, 1):
        fine = c.swapaxes(0, axis)
        odd = 0.5 * fine[1::2]
        c = fine[::2].copy(order="K")
        c[:odd.shape[0]] += odd
        c[1:] += odd[:c.shape[0] - 1]
        c = c.swapaxes(0, axis)
    return (c * free[::2, ::2]).ravel()


def _vcycle(levels, k, r):
    """One single-precision symmetric V-cycle from level ``k`` on the full-
    lattice vector ``r``: two damped-Jacobi sweeps each side of the coarse correction."""
    if k == len(levels) - 1:
        return levels[k][1].solve(r).astype(np.float32)
    apply, dinv, free = levels[k]
    x = dinv * r
    x += dinv * (r - apply(x))
    x += _prolong(_vcycle(levels, k + 1, _restrict(r - apply(x), free)), free)
    for _ in range(2):
        x += dinv * (r - apply(x))
    return x
