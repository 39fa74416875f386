"""The sparse SPD solves: the pinned-block solve of the discrete Dirichlet
problems, one LU reused with iterative refinement, and a multigrid-
preconditioned conjugate gradient for the masked 5-point lattice of the
continuum capacity.  Its finest level is applied by shifted slices of the
lattice and stores nothing but its mask, and it works, with the CG, in one
float32 workspace per solve; the coarser ones are built as stencil arrays
on the square mask (the first straight from the fine mask) and applied as
DIA matrices."""

import itertools
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import InvariantViolation

# The most lattice nodes (continuum.grid_capacity), boundary samples
# (continuum.douglas_energy) or grid patch vertices (tilings.generate_grid)
# one request may ask for: at 77 bytes a node (the peak-RSS rise of one
# call in a fresh process at h = 1/256, 75 at h = 1/512 and 68 at h = 1/1024)
# and 60 a sample, no lattice solve within it needs 0.65 GB nor Douglas sum
# 0.5 GB, and it admits h = 1/1024 and n_theta = 2^23.
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
    A is applied by ``_laplacian``, never stored.  The CG holds four float64
    lattice vectors (``w`` takes the preconditioned residual, then ``A p``,
    then ``alpha p``) and shares the hierarchy's float32 workspace with the
    finest V-cycle level: its first vector takes the residual in single
    precision, and its last two, read as one float64 vector, the ``4 p``
    term of ``A p``.  ``b`` is dropped once it is copied, so a caller that
    keeps no name to it gets its memory back before the CG starts, and every
    lattice vector but ``x`` is dropped before the answer is gathered."""
    levels = _hierarchy(free)
    r32, wide = levels.work[0], levels.work[2:].reshape(-1).view(np.float64)
    on = free.ravel()
    scale = float(np.linalg.norm(b)) or 1.0
    r = np.zeros(free.size)
    r[on] = b
    del b
    x, p, w = (np.zeros(free.size) for _ in range(3))
    rz = None
    for _ in range(_CG_STEPS):
        if float(np.linalg.norm(r)) <= tol * scale:
            break
        r32[:] = r
        w[:] = _vcycle(levels, 0, r32)
        rz_old, rz = rz, float(r @ w)
        if rz_old is None:
            p[:] = w
        else:
            p *= rz / rz_old
            p += w
        _laplacian(free, p, out=w, scratch=wide)
        alpha = rz / float(p @ w)
        w *= alpha
        r -= w
        x += np.multiply(p, alpha, out=w)
    else:
        raise InvariantViolation(failure)
    del levels, r32, wide, r, p, w
    return x[on]


def _laplacian(free, x, out=None, scratch=None):
    """``A x`` for the 5-point operator A on the square mask ``free``, ``x`` a
    lattice vector of any float dtype that vanishes off the mask, into
    ``out`` if given, with ``scratch``, if given, a lattice vector of
    ``x``'s dtype, for the ``4 x`` term.  No matrix: each neighbour term is
    one shifted slice of the raveled lattice, the column ones put back where
    they wrap a row.  The terms are added from 0 in the order of A's DIA
    product, offsets -m, -1, 0, +1, +m, so every sum is that product's, bit
    for bit."""
    m = free.shape[0]
    y = np.empty_like(x) if out is None else out
    y[:m] = 0
    np.subtract(0, x[:-m], out=y[m:])
    first = y[::m].copy()  # the first column has no left neighbour
    y[1:] -= x[:-1]
    y[::m] = first
    y += np.multiply(x, 4, out=scratch)
    last = y[m - 1::m].copy()  # nor the last a right one
    y[:-1] -= x[1:]
    y[m - 1::m] = last
    y[:-m] -= x[m:]
    y *= free.ravel()
    return y


class _Levels(list):
    """The levels of one lattice solve, finest first (see ``_hierarchy``),
    and ``work``: one float32 block of four lattice vectors ``r, x, y, t``
    that the CG and the V-cycle share (see ``lattice_solve``, ``_vcycle``)."""


def _hierarchy(free):
    """Levels ``(apply, omega / diag A, free)`` from the 5-point operator on
    the mask ``free`` to coarse, ``apply`` the product with the level's
    operator A, built from its stencils ``s`` masked to couple free nodes
    only; last ``(a, LU)``; and the solve's workspace, ``levels.work``.
    The finest level stores no matrix and no diagonal: it applies
    ``_laplacian``, and as its diagonal is 4 on every free node and its
    vectors vanish off the mask, ``omega / diag A`` is one number broadcast
    over the lattice.  Its coarse stencils come from the mask itself
    (``_first_coarsening``), every further one from the stencils below by
    ``_galerkin``.  Each coarser level is the float32 DIA matrix of its
    stencils (its diagonal at offset ``dy m + dx`` is ``s[1 - dy, 1 - dx]``,
    by symmetry), and so is a finest level that is also the coarsest."""
    levels, size = _Levels(), free.size
    if free.shape[0] > _COARSEST_SIDE:
        dinv = np.broadcast_to(np.float32(_OMEGA) / np.float32(4), (size,))
        levels.append((partial(_laplacian, free), dinv, free))
        free, s = free[::2, ::2], _first_coarsening(free)
    else:
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
            levels.append((a, splu((a + sparse.diags((~free).ravel().astype(float))).tocsc())))
            levels.work = np.empty((4, size), np.float32)
            return levels
        dinv = (np.float32(_OMEGA) / np.where(free, s[1, 1], np.inf)).ravel()
        levels.append((a.dot, dinv, free))
        free, s = free[::2, ::2], _galerkin(s, (m + 1) // 2)


# (coarse offset O, fine offset e) with t = 2 O + e, per axis, for t in [-2, 2]
_SPLITS = {t: [(c, t - 2 * c) for c in (-1, 0, 1) if abs(t - 2 * c) <= 1] for t in range(-2, 3)}


def _first_coarsening(free):
    """``_galerkin`` of the 5-point stencils masked to ``free``, formed from
    the mask at coarse size.  The masked entry ``L[o] f(J) f(J + o)`` at the
    fine node J = 2 I + d (d in {-1, 0, 1}^2, o a 5-point offset) reaches
    the coarse stencil plane O with weight ``w(d) w(e)``, e = d + o - 2 O, so
    each of the 45 products ``f(2 I + d) f(2 I + d + o)`` is added to its
    1, 2 or 4 planes.  The zero-padded mask is read through its four parity
    sub-lattices, so that every product is a slice at coarse size.  Every
    entry is a sum of dyadic numbers of a few bits, exact in float32 in any
    order: these are ``_galerkin``'s entries, bit for bit."""
    n = free.shape[0]
    m = (n + 1) // 2
    g = np.zeros((2 * m + 4,) * 2, bool)
    g[2:n + 2, 2:n + 2] = free
    parity = [[np.ascontiguousarray(g[a::2, b::2]) for b in (0, 1)] for a in (0, 1)]

    def f(ky, kx):  # f(2 I + k) over the coarse nodes I, for k in [-2, 2]^2
        (qy, py), (qx, px) = divmod(ky + 2, 2), divmod(kx + 2, 2)
        return parity[py][px][qy:qy + m, qx:qx + m]

    s = np.zeros((3, 3, m, m), np.float32)
    term = np.empty((m, m), np.float32)
    for dy, dx in itertools.product((-1, 0, 1), repeat=2):
        for oy, ox in ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)):
            both = f(dy, dx) & f(dy + oy, dx + ox)
            for (cy, ey), (cx, ex) in itertools.product(_SPLITS[dy + oy], _SPLITS[dx + ox]):
                weight = _LAPLACIAN[1 + oy, 1 + ox, 0, 0] * np.float32(
                    0.5 ** (abs(dy) + abs(dx) + abs(ey) + abs(ex)))
                s[1 + cy, 1 + cx] += np.multiply(both, weight, out=term)
    return s


def _galerkin(s, m):
    """The stencils of ``P^T A P`` on the coarse side ``m``, unmasked, from
    those ``s`` of A: ``A_c[I, I + O]`` sums ``w(d) w(e) s[o][2 I + d]`` over
    the offsets d, o and ``e = d + o - 2 O`` in {-1, 0, 1}, with w(t) = 0.5^|t|
    per axis, one axis at a time.  It forms every level from the second
    coarse one on, and is the oracle of ``_first_coarsening``.  Every entry
    is dyadic: float32 holds it exactly through five products, and the sixth
    (a finest side of 1281 or more) rounds the coarsest stencils in their
    last bits."""
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


def _prolong(e, free, out, scratch):
    """P: the coarse lattice vector ``e`` interpolated onto the fine mask
    ``free``, into ``out``, one axis at a time: even points copy, odd ones
    average.  The pass along the first axis fills the head of ``scratch``, a
    fine lattice vector, and the halves each pass adds go in its tail."""
    n = free.shape[0]
    m = (n + 1) // 2
    c = e.reshape(m, m)
    for axis, dst in ((0, scratch[:n * m].reshape(n, m)), (1, out.reshape(n, n))):
        fine, v = dst.swapaxes(0, axis), c.swapaxes(0, axis)
        fine[::2] = v
        odd = np.multiply(v[:n // 2], 0.5, out=fine[1::2])
        odd[:m - 1] += np.multiply(v[1:], 0.5, out=_tail(scratch, n * m, v[1:], axis))
        c = dst
    out *= free.ravel()
    return out


def _restrict(r, free, scratch):
    """P^T: the fine lattice vector ``r`` (0 off the mask ``free``) summed
    onto the coarse mask with the weights of P, one axis at a time.  The
    sums along the first axis fill the head of ``scratch``, a fine lattice
    vector, and the odd rows each pass halves go in its tail."""
    n = free.shape[0]
    m = (n + 1) // 2
    c = r.reshape(n, n)
    for axis, sums in ((0, scratch[:m * n].reshape(m, n)), (1, np.empty((m, m), np.float32))):
        fine, sums = c.swapaxes(0, axis), sums.swapaxes(0, axis)
        odd = np.multiply(fine[1::2], 0.5, out=_tail(scratch, m * n, fine[1::2], axis))
        sums[:] = fine[::2]
        sums[:odd.shape[0]] += odd
        sums[1:] += odd[:m - 1]
        c = sums.swapaxes(0, axis)
    c *= free[::2, ::2]
    return c.ravel()


def _tail(scratch, start, like, axis):
    """A view of ``scratch`` from ``start`` on, shaped as ``like`` (a slice
    of a lattice swapped to ``axis``) and laid out in memory as it is."""
    return scratch[start:start + like.size].reshape(like.swapaxes(0, axis).shape).swapaxes(0, axis)


def _vcycle(levels, k, r):
    """One single-precision symmetric V-cycle from level ``k`` on the full-
    lattice vector ``r``: two damped-Jacobi sweeps each side of the coarse
    correction.  A level works in three lattice vectors of its size: its
    answer ``x``, ``y`` for each residual and then the prolonged correction,
    and ``t`` for the scratch of the transfers and of the finest product.
    ``y`` and ``t`` are the heads of the last two vectors of the solve's
    workspace at every level, since a level reads them only while no
    coarser one runs; ``x`` is the workspace's second vector at the finest
    level, and a coarser level allocates its own."""
    if k == len(levels) - 1:
        return levels[k][1].solve(r).astype(np.float32)
    apply, dinv, free = levels[k]
    y, t = levels.work[2:, :r.size]
    if k == 0:
        x = levels.work[1]
        apply = partial(apply, out=y, scratch=t)
    else:
        x = np.empty_like(r)

    def residual():  # r - A x, into y
        return np.subtract(r, apply(x), out=y)

    np.multiply(dinv, r, out=x)
    x += np.multiply(dinv, residual(), out=y)
    x += _prolong(_vcycle(levels, k + 1, _restrict(residual(), free, t)), free, y, t)
    for _ in range(2):
        x += np.multiply(dinv, residual(), out=y)
    return x
