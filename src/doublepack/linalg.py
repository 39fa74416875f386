"""The sparse SPD solves: the pinned-block solve of the discrete Dirichlet
problems, one LU reused with iterative refinement, and a multigrid-
preconditioned conjugate gradient for the masked 5-point lattice of the
continuum capacity, its levels built as stencil arrays on the square mask."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import InvariantViolation

# The most lattice nodes (continuum.grid_capacity), boundary samples
# (continuum.douglas_energy) or grid patch vertices (tilings.generate_grid)
# one request may ask for: at 180 bytes a node (the peak-RSS rise of one
# h = 1/512 call in a fresh process) and 60 a sample, no request within it
# needs 1.6 GB, and it admits h = 1/1024 and n_theta = 2^23.
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
    of ``tol * |b|``; raises ``InvariantViolation(failure)`` after 100 steps."""
    levels = _hierarchy(free)
    a = levels[0][0].astype(np.float64)
    scale = float(np.linalg.norm(b)) or 1.0
    x, r = np.zeros((2, free.size))
    r[free.ravel()] = b
    p = rz = None
    for _ in range(_CG_STEPS):
        if float(np.linalg.norm(r)) <= tol * scale:
            return x[free.ravel()]
        z = _vcycle(levels, 0, r.astype(np.float32)).astype(np.float64)
        rz_old, rz = rz, float(r @ z)
        p = z if p is None else z + (rz / rz_old) * p
        q = a @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
    raise InvariantViolation(failure)


def _hierarchy(free):
    """Levels ``(a, omega / diag a, free)`` from the 5-point operator on the
    mask ``free`` to coarse, each ``a`` the float32 DIA matrix of the level's
    stencils ``s`` masked to couple free nodes only (its diagonal at offset
    ``dy m + dx`` is ``s[1 - dy, 1 - dx]``, by symmetry); last ``(a, LU)``."""
    levels = []
    s = _LAPLACIAN
    while True:
        m = free.shape[0]
        f = np.pad(free, 1).astype(np.float32)
        s = s * f[1:-1, 1:-1]
        s *= sliding_window_view(f, free.shape)
        dy, dx = np.nonzero(s.any(axis=(2, 3)))
        a = sparse.dia_matrix((s[2 - dy, 2 - dx].reshape(-1, m * m), (dy - 1) * m + dx - 1),
                              shape=(m * m, m * m))
        if m <= _COARSEST_SIDE:
            return levels + [(a, splu((a + sparse.diags((~free).ravel().astype(float))).tocsc()))]
        levels.append((a, (np.float32(_OMEGA) / np.where(free, s[1, 1], np.inf)).ravel(), free))
        free, s = free[::2, ::2], _galerkin(s, (m + 1) // 2)


def _galerkin(s, m):
    """The stencils of ``P^T A P`` on the coarse side ``m``, unmasked, from
    those ``s`` of A: ``A_c[I, I + O]`` sums ``w(d) w(e) s[o][2 I + d]`` over
    the offsets d, o and ``e = d + o - 2 O`` in {-1, 0, 1}, with w(t) = 0.5^|t|
    per axis, one axis at a time.  Every entry is dyadic, so it is exact."""
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
    a, dinv, free = levels[k]
    x = dinv * r
    x += dinv * (r - a @ x)
    x += _prolong(_vcycle(levels, k + 1, _restrict(r - a @ x, free)), free)
    for _ in range(2):
        x += dinv * (r - a @ x)
    return x
