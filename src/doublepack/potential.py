"""Discrete Dirichlet space on weighted planar maps.

The energy lives on any `PlanarMap`; harmonic extension, the
harmonic/grounded decomposition, capacities, and the random-walk boundary
estimator act on a `Truncation`, whose boundary plays the role of the
grounded sphere in an exhaustion of an infinite graph.  All linear
systems are symmetric positive definite and solved by a sparse direct
factorization with iterative refinement (``linalg.PinnedSolve``).

Every solve pins the boundary and reads the map's cached Laplacian.  The
boundary-pinned solve of `solve_dirichlet` (and so of `royden_project`) is
factored once per truncation and kept on it (``Truncation.boundary_solver``).
`capacity` and `escape_capacity` also pin their target set, which differs
from call to call, so each call factors its own block and keeps nothing.
The walk's step tables are built once per map (``PlanarMap.walk_tables``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, integer, integers
from .linalg import PinnedSolve
from .maps import PlanarMap, Truncation

__all__ = [
    "VertexFunction", "RoydenSplit", "CapacityEstimate", "energy",
    "solve_dirichlet", "royden_project", "capacity", "escape_capacity",
    "walk_limit_estimate", "capacity_to_json",
]


@dataclass(frozen=True)
class VertexFunction:
    """A real-valued function on the kept vertices of a truncation."""

    trunc: Truncation
    values: np.ndarray

    def __post_init__(self):
        vals = _coerce(self.values, self.trunc.n_vertices, what="vertex function")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class RoydenSplit:
    """Decomposition φ = harmonic_part + d0_part: the harmonic part matches φ
    on the boundary and is conductance-harmonic inside; the grounded part
    vanishes on the boundary.  The two are energy-orthogonal."""

    harmonic_part: VertexFunction
    d0_part: VertexFunction


@dataclass(frozen=True)
class CapacityEstimate:
    """Energy of the equilibrium potential of a target set (``target``, its
    distinct vertex ids): 1 on the set, 0 on the boundary, harmonic in
    between."""

    value: float
    equilibrium_potential: VertexFunction
    target: np.ndarray = field(repr=False)


def _coerce(phi, n_vertices, what="function"):
    vals = phi.values if isinstance(phi, VertexFunction) else np.asarray(phi, dtype=float)
    if vals.shape != (n_vertices,):
        raise ValueError(
            f"{what} must assign one value to each of the map's "
            f"{n_vertices} vertices, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what} has non-finite values")
    return vals


def energy(pmap: PlanarMap, phi) -> float:
    """Dirichlet energy: half the sum over darts of c(e) (φ(e-) - φ(e+))²,
    i.e. the sum over unoriented edges."""
    vals = _coerce(phi, pmap.n_vertices)
    d = vals[pmap.origin] - vals[pmap.target]
    return 0.5 * float(np.dot(pmap.conductance * d, d))


# ---------------------------------------------------------------------------
# harmonic solves
# ---------------------------------------------------------------------------

def _target_solve(trunc: Truncation, A: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Harmonically extend ``full`` pinned on the boundary and the target
    set ``A``, factoring that free block for this one call: it is SPD, as
    the graph is connected and the boundary pinned."""
    fixed = trunc.is_boundary.copy()
    fixed[A] = True
    return PinnedSolve(trunc.graph.laplacian, fixed).extend(full)


def solve_dirichlet(trunc: Truncation, boundary_values) -> VertexFunction:
    """Unique conductance-harmonic extension of boundary data, given as an
    array of one value per vertex of ``trunc.boundary`` (ascending vertex
    ids)."""
    nb = trunc.boundary.size
    bv = np.asarray(boundary_values, dtype=float)
    if bv.shape != (nb,):
        raise ValueError(
            f"expected one value per boundary vertex ({nb}), got shape {bv.shape}")
    if not np.all(np.isfinite(bv)):
        raise ValueError("boundary data has non-finite values")
    full = np.zeros(trunc.n_vertices)
    full[trunc.boundary] = bv
    out = trunc.boundary_solver.extend(full)
    return VertexFunction(trunc, out)


def royden_project(trunc: Truncation, phi) -> RoydenSplit:
    """Split φ into its harmonic extension from the boundary and a grounded
    remainder vanishing there; the energies of the parts add up to E(φ)."""
    vals = _coerce(phi, trunc.n_vertices)
    harm = solve_dirichlet(trunc, vals[trunc.boundary])
    d0 = vals - harm.values
    d0[trunc.boundary] = 0.0
    return RoydenSplit(harm, VertexFunction(trunc, d0))


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def _target_set(trunc: Truncation, target) -> np.ndarray:
    """The distinct ids in ``target``, if they are interior vertices of ``trunc``."""
    A = np.unique(integers("target", target, trunc.n_vertices))
    if np.any(trunc.is_boundary[A]):
        raise ValueError("target set must consist of interior vertices")
    return A


def capacity(trunc: Truncation, target) -> CapacityEstimate:
    """Capacity of a set of interior vertices relative to the grounded
    boundary: the energy of its equilibrium potential (1 on the set, 0 on the
    boundary, harmonic elsewhere).  This is the least energy among grounded
    functions that are ≥ 1 on the set."""
    A = _target_set(trunc, target)
    full = np.zeros(trunc.n_vertices)
    full[A] = 1.0
    q = _target_solve(trunc, A, full)
    return CapacityEstimate(energy(trunc.graph, q), VertexFunction(trunc, q), A)


def escape_capacity(trunc: Truncation, target) -> float:
    """The same capacity through the walk interpretation: the sum over v in
    the target of c(v) times the probability that the conductance walk from v
    reaches the boundary before returning to the target.

    Computed from the complementary potential (0 on the target, 1 on the
    boundary), an independent linear system from the one `capacity` solves.
    """
    A = _target_set(trunc, target)
    if A.size == 0:
        return 0.0
    g = trunc.graph
    full = np.zeros(trunc.n_vertices)
    full[trunc.boundary] = 1.0
    qbar = _target_solve(trunc, A, full)
    in_a = np.zeros(trunc.n_vertices, dtype=bool)
    in_a[A] = True
    mask = in_a[g.origin]
    return float(np.sum(g.conductance[mask] * qbar[g.target[mask]]))


def capacity_to_json(trunc: Truncation, est: CapacityEstimate) -> dict:
    """Report payload: the value plus the worst relative harmonicity defect
    of the equilibrium potential away from its pinned vertices."""
    g = trunc.graph
    q = est.equilibrium_potential.values
    flow = g.conductance * (q[g.origin] - q[g.target])
    net = np.bincount(g.origin, weights=flow, minlength=g.n_vertices)
    pinned = trunc.is_boundary.copy()
    pinned[est.target] = True
    free = ~pinned
    residual = 0.0
    if free.any():
        residual = float(np.max(np.abs(net[free]) / g.vertex_conductance[free]))
    return {"value": float(est.value), "residual": residual,
            "tolerance": 1e-8}


# ---------------------------------------------------------------------------
# random-walk estimator
# ---------------------------------------------------------------------------

_WALK_BLOCK = 32
_WALK_CHECK = 8  # steps between absorption checks; divides _WALK_BLOCK


def walk_limit_estimate(trunc: Truncation, phi, v: int, samples: int,
                        seed: int) -> tuple:
    """Monte Carlo mean of φ at the boundary hit by the conductance walk from
    ``v``, with its standard error.

    Sample ``i`` consumes a fixed slice of the pseudorandom stream determined
    by ``(seed, i)`` alone: its step ``32 r + c`` reads column ``c`` of row
    ``i`` of round ``r``'s ``(samples, 32)`` uniform block, drawn from
    ``default_rng([seed, r])``.  So results are bitwise reproducible and each
    sample's walk does not depend on how many other samples run.  Aggregation
    is in sample-index order.  A round draws only the rows from its first
    live sample to its last: the generator skips the 32 draws of each row
    before them (``PCG64.advance``), which leaves every drawn row's bits.

    One step of the live walkers is array work over them alone: at vertex
    ``pos`` a uniform ``u`` picks the dart ``sum_c [u >= cum[pos, c]]`` over
    the first ``width - 1`` columns of the step table (the last is 1, above
    every draw), read as ``pos * width + pick`` in the raveled neighbour
    table.
    Boundary rows step to themselves, so a walker that hits the boundary
    stays there and absorption is checked every ``_WALK_CHECK`` steps only.
    """
    vals = _coerce(phi, trunc.n_vertices)
    v = integer("v", v, 0, trunc.n_vertices)
    samples, seed = integer("samples", samples, 1), integer("seed", seed, 0)
    if trunc.is_boundary[v]:
        return float(vals[v]), 0.0

    nbr, cum = trunc.graph.walk_tables
    n, width = nbr.shape
    is_b = trunc.is_boundary
    step = np.where(is_b[:, None], np.arange(n)[:, None], nbr).ravel()
    cols = cum[:, :-1].T.copy()
    ids = np.arange(samples)
    pos = np.full(samples, v, dtype=np.int64)
    out = np.empty(samples)
    round_no = 0
    while ids.size:
        bits = np.random.PCG64(np.random.SeedSequence([seed, round_no]))
        bits.advance(_WALK_BLOCK * int(ids[0]))
        rows = ids - ids[0]
        block = np.random.Generator(bits).random((int(rows[-1]) + 1, _WALK_BLOCK))
        for col in range(_WALK_BLOCK):
            u = block[rows, col]
            at = pos * width
            for c in cols:
                at += u >= c[pos]
            pos = step[at]
            if col % _WALK_CHECK == _WALK_CHECK - 1:
                hit = is_b[pos]
                if hit.any():
                    out[ids[hit]] = vals[pos[hit]]
                    ids, rows, pos = ids[~hit], rows[~hit], pos[~hit]
                    if ids.size == 0:
                        break
        round_no += 1
        if round_no > 100_000:
            raise ConvergenceError("random walk failed to reach the boundary")
    mean = float(out.mean())
    stderr = float(out.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr
