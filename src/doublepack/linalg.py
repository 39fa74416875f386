"""The sparse SPD solves: the pinned-block solve of the discrete Dirichlet
problems, one LU reused with iterative refinement, and a multigrid-
preconditioned conjugate gradient for the masked 5-point lattice of the
continuum capacity: built straight from its mask (only this module numbers
it), with a single-precision multigrid hierarchy under a double-precision CG.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import InvariantViolation

# The most lattice nodes (continuum.grid_capacity), boundary samples
# (continuum.douglas_energy) or grid patch vertices (tilings.generate_grid)
# one request may ask for: at about 230 bytes a node and 60 a sample, no
# lattice or Douglas request within it needs 2 GB, and it admits h = 1/1024
# and n_theta = 2^23.
_SIZE_BUDGET = 2 ** 23

# lattice side at or below which the V-cycle solves directly
_COARSEST_SIDE = 40
# damped-Jacobi weight; the Galerkin stencils keep diag^-1 a within [0, 2]
_OMEGA = 0.8
_CG_STEPS = 100


class PinnedSolve:
    """Values pinned on some unknowns of a sparse SPD system, extended to the
    free ones by solving the free block, which is factored once.

    ``a`` is a CSR matrix and ``pinned`` a boolean mask over its rows.  The
    free block ``a_ff`` is kept in CSC form with its ``splu``, the coupling
    block ``a_fp`` in CSR form; every ``extend`` reuses both, so the
    factorization is paid once however many value sets are extended.
    """

    def __init__(self, a, pinned):
        self.free = np.flatnonzero(~pinned)
        self.pinned = np.flatnonzero(pinned)
        rows = a[self.free]
        self.a_ff = rows[:, self.free].tocsc()
        self.a_fp = rows[:, self.pinned]
        self.lu = splu(self.a_ff) if self.free.size else None

    def extend(self, values, tol: float, failure: str) -> np.ndarray:
        """A copy of ``values`` whose free entries solve the free rows of
        ``a x = 0`` against its pinned entries: one solve with the stored
        factorization, then up to five rounds of iterative refinement until
        the residual is at most ``tol * |b|``.  Raises
        ``InvariantViolation(failure)`` when the rounds run out."""
        full = np.array(values, dtype=float)
        if self.free.size == 0:
            return full
        b = -(self.a_fp @ full[self.pinned])
        x = self.lu.solve(b)
        scale = float(np.linalg.norm(b)) or 1.0
        for _ in range(5):
            r = b - self.a_ff @ x
            if float(np.linalg.norm(r)) <= tol * scale:
                full[self.free] = x
                return full
            x = x + self.lu.solve(r)
        raise InvariantViolation(failure)


def lattice_solve(a, free, b, tol: float, failure: str) -> np.ndarray:
    """Solve ``a x = b`` for an SPD operator on the ``True`` nodes of the
    square boolean mask ``free``, numbered row-major, by conjugate gradients
    preconditioned with one symmetric multigrid V-cycle.

    Each coarse level keeps the free nodes at even positions, with the
    ``lattice_interpolation`` P and the Galerkin operator ``P^T a P``; the
    V-cycle smooths with two damped-Jacobi sweeps before and after its
    coarse correction and factorizes the level whose side is at most 40.
    It runs in single precision, half the memory: a preconditioner need only
    approximate the inverse, and CG stays double, so its rounding can slow
    CG but not change the answer.  Stops once the residual is at most
    ``tol * |b|``; raises ``InvariantViolation(failure)`` after 100 steps.
    """
    a = a.tocsr()
    levels = _hierarchy(a, free)
    scale = float(np.linalg.norm(b)) or 1.0
    x = np.zeros_like(b)
    r = b.copy()
    p = rz = None
    for _ in range(_CG_STEPS):
        if float(np.linalg.norm(r)) <= tol * scale:
            return x
        z = _vcycle(levels, 0, r.astype(np.float32)).astype(np.float64)
        rz_old, rz = rz, float(r @ z)
        p = z if p is None else z + (rz / rz_old) * p
        q = a @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
    raise InvariantViolation(failure)


def lattice_laplacian(free):
    """The 5-point operator ``4 u - (its four neighbours)`` on the free nodes
    of the square mask ``free``, numbered row-major (values off it are 0):
    per row, the free ones of the columns -m, -1, 0, +1, +m, m the side."""
    w = free.shape[0] + 2
    at = np.flatnonzero(np.pad(free, 1))[:, None] + np.array([-w, -1, 0, 1, w])
    return _csr(free, at, np.array([-1.0, -1.0, 4.0, -1.0, -1.0]))


def lattice_interpolation(free):
    """Bilinear interpolation P (single precision) onto the free nodes of
    ``free`` from those at even positions, both numbered row-major: a fine
    node takes 0.5^(its odd coordinates) from each free one of its 1, 2 or 4
    coarse neighbours.  P copies each coarse node onto its own fine node, so
    its columns are independent and ``P^T a P`` is SPD."""
    i, j = np.nonzero(free)
    w = (free.shape[0] + 1) // 2 + 2
    # padded coarse rows and columns; an even coordinate's second is row 0
    rows = np.stack([i // 2 + 1, (i // 2 + 2) * (i & 1)], axis=1) * w
    cols = np.stack([j // 2 + 1, (j // 2 + 2) * (j & 1)], axis=1)
    at = (rows[:, :, None] + cols[:, None, :]).reshape(-1, 4)
    weight = np.array([1.0, 0.5, 0.25], dtype=np.float32)[(i & 1) + (j & 1)]
    return _csr(free[::2, ::2], at, weight[:, None])


def _csr(free, at, vals):
    """CSR matrix of ``vals`` (broadcast against ``at``) in the row-major
    numbers (in the narrowest type, to keep the tables small) of the free
    nodes of ``free`` at the ascending flat positions ``at[k]`` in its
    lattice padded by one node, for each row k."""
    number = np.full((free.shape[0] + 2,) * 2, -1, dtype=np.min_scalar_type(-free.size))
    number[1:-1, 1:-1][free] = np.arange(np.count_nonzero(free))
    cols = number.ravel()[at]
    keep = cols >= 0
    indptr = np.r_[0, np.cumsum(np.count_nonzero(keep, axis=1))]
    return sparse.csr_matrix((np.broadcast_to(vals, cols.shape)[keep], cols[keep], indptr),
                             shape=(cols.shape[0], int(number.max()) + 1))


def _hierarchy(a, free):
    """Levels ``(a, omega / diag a, P, P^T)`` in single precision from fine
    to coarse (the finest shares the index arrays of ``a``), ending with the
    LU factorization of the coarsest operator."""
    levels = []
    a = sparse.csr_matrix((a.data.astype(np.float32), a.indices, a.indptr), shape=a.shape)
    while free.shape[0] > _COARSEST_SIDE:
        p = lattice_interpolation(free)
        pt = p.T.tocsr()
        levels.append((a, np.float32(_OMEGA) / a.diagonal(), p, pt))
        a = pt @ a @ p
        free = free[::2, ::2]
    levels.append(splu(a.astype(np.float64).tocsc()))
    return levels


def _vcycle(levels, k, r):
    """One single-precision symmetric V-cycle from level ``k`` on ``r``."""
    if k == len(levels) - 1:
        return levels[k].solve(r).astype(np.float32)
    a, dinv, p, pt = levels[k]
    x = dinv * r
    x += dinv * (r - a @ x)
    x += p @ _vcycle(levels, k + 1, pt @ (r - a @ x))
    for _ in range(2):
        x += dinv * (r - a @ x)
    return x
