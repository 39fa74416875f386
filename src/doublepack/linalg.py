"""The sparse SPD solve shared by the discrete and the continuum Dirichlet
problems."""

import numpy as np
from scipy.sparse.linalg import splu

from .errors import InvariantViolation


def refined_solve(a, b, tol: float, failure: str) -> np.ndarray:
    """Solve ``a x = b`` for a sparse SPD matrix ``a`` in CSC form: one LU
    factorization, then up to five rounds of iterative refinement until the
    residual is at most ``tol * |b|``.  Raises ``InvariantViolation(failure)``
    when the rounds run out."""
    lu = splu(a)
    x = lu.solve(b)
    scale = float(np.linalg.norm(b)) or 1.0
    for _ in range(5):
        r = b - a @ x
        if float(np.linalg.norm(r)) <= tol * scale:
            return x
        x = x + lu.solve(r)
    raise InvariantViolation(failure)
