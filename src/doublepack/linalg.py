"""The sparse SPD solves: the pinned-block solve of the discrete Dirichlet
problems, one LU reused with iterative refinement, and a multigrid-
preconditioned conjugate gradient for the masked 5-point lattice of the
continuum capacity.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import InvariantViolation

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

    Each coarse level keeps the free nodes at even positions, with bilinear
    interpolation ``P`` between the free nodes of the two levels and the
    Galerkin operator ``P^T a P``; the V-cycle smooths with two damped-Jacobi
    sweeps before and after its coarse correction and factorizes the level
    whose side is at most 40.  Stops once the residual is at most
    ``tol * |b|``; raises ``InvariantViolation(failure)`` when 100 steps do
    not reach that.
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
        z = _vcycle(levels, 0, r)
        rz_old, rz = rz, float(r @ z)
        p = z if p is None else z + (rz / rz_old) * p
        q = a @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
    raise InvariantViolation(failure)


def _interpolation(n_fine: int):
    """1-d linear interpolation onto ``n_fine`` points from the coarse points
    at the even ones: even points copy, odd ones average their two even
    neighbours (the last point of an even side keeps half of its one)."""
    nc = (n_fine + 1) // 2
    odd = np.arange(1, n_fine, 2)
    rows = np.r_[np.arange(0, n_fine, 2), odd, odd]
    cols = np.r_[np.arange(nc), odd // 2, odd // 2 + 1]
    vals = np.r_[np.ones(nc), np.full(2 * odd.size, 0.5)]
    keep = cols < nc
    return sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_fine, nc))


def _hierarchy(a, free):
    """Levels ``(a, omega / diag a, P, P^T)`` from fine to coarse, ending
    with the LU factorization of the coarsest operator.  The coarse free
    nodes are the free nodes at even positions; ``P`` copies each onto its
    own fine node, so its columns are independent and ``P^T a P`` is SPD."""
    levels = []
    while free.shape[0] > _COARSEST_SIDE:
        i1 = _interpolation(free.shape[0])
        coarse = free[::2, ::2]
        p = sparse.kron(i1, i1, format="csr")[np.flatnonzero(free.ravel())]
        p = p[:, np.flatnonzero(coarse.ravel())]
        pt = p.T.tocsr()
        levels.append((a, _OMEGA / a.diagonal(), p, pt))
        a = (pt @ a @ p).tocsr()
        free = coarse
    levels.append(splu(a.tocsc()))
    return levels


def _vcycle(levels, k, r):
    """One symmetric V-cycle from level ``k`` on the residual ``r``."""
    if k == len(levels) - 1:
        return levels[k].solve(r)
    a, dinv, p, pt = levels[k]
    x = dinv * r
    x += dinv * (r - a @ x)
    x += p @ _vcycle(levels, k + 1, pt @ (r - a @ x))
    for _ in range(2):
        x += dinv * (r - a @ x)
    return x
