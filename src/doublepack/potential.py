"""Discrete Dirichlet space on weighted planar maps.

Energies and inner products live on any `PlanarMap`; harmonic extension,
the harmonic/grounded decomposition, capacities, and the random-walk
boundary estimator act on a `Truncation`, whose boundary plays the role of
the grounded sphere in an exhaustion of an infinite graph.  All linear
systems are symmetric positive definite and solved by a sparse direct
factorization with iterative refinement.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import ConvergenceError
from .linalg import refined_solve
from .maps import PlanarMap, Truncation

__all__ = [
    "VertexFunction", "RoydenSplit", "CapacityEstimate", "CapacityProfile",
    "energy", "inner_product", "solve_dirichlet", "royden_project",
    "capacity", "escape_capacity", "walk_limit_estimate",
    "quasi_asymptotic_profile", "vertex_function_to_csv",
    "load_vertex_function_csv", "capacity_to_json",
]

_SOLVE_TOL = 1e-10


@dataclass(frozen=True)
class VertexFunction:
    """A real-valued function on the kept vertices of a truncation."""

    trunc: Truncation
    values: np.ndarray

    def __post_init__(self):
        vals = _coerce(self.values, self.trunc.n_vertices, what="vertex function")
        object.__setattr__(self, "values", vals)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


@dataclass(frozen=True)
class RoydenSplit:
    """Decomposition φ = harmonic_part + d0_part: the harmonic part matches φ
    on the boundary and is conductance-harmonic inside; the grounded part
    vanishes on the boundary.  The two are energy-orthogonal."""

    harmonic_part: VertexFunction
    d0_part: VertexFunction


@dataclass(frozen=True)
class CapacityEstimate:
    """Energy of the equilibrium potential of a target set: 1 on the set,
    0 on the boundary, harmonic in between."""

    value: float
    equilibrium_potential: VertexFunction
    target: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class CapacityProfile:
    """Capacity of a superlevel set across a nested truncation sequence."""

    radii: list
    values: list
    classification: str
    eps: float


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


def _cross_energy(pmap: PlanarMap, phi, psi) -> float:
    d1 = phi[pmap.origin] - phi[pmap.target]
    d2 = psi[pmap.origin] - psi[pmap.target]
    return 0.5 * float(np.dot(pmap.conductance * d1, d2))


def inner_product(pmap: PlanarMap, phi, psi, o: int) -> float:
    """Rooted Dirichlet inner product φ(o)ψ(o) + Σ_E c Δφ Δψ.

    Positive definite; different roots give equivalent norms.
    """
    f = _coerce(phi, pmap.n_vertices)
    g = _coerce(psi, pmap.n_vertices, what="second function")
    if not 0 <= o < pmap.n_vertices:
        raise ValueError(f"root vertex {o} is not in the map")
    return float(f[o] * g[o]) + _cross_energy(pmap, f, g)


# ---------------------------------------------------------------------------
# harmonic solves
# ---------------------------------------------------------------------------

def _laplacian(g: PlanarMap) -> sparse.csr_matrix:
    n = g.n_vertices
    off = sparse.coo_matrix((-g.conductance, (g.origin, g.target)), shape=(n, n))
    idx = np.arange(n)
    diag = sparse.coo_matrix((g.vertex_conductance, (idx, idx)), shape=(n, n))
    return (off + diag).tocsr()


def _fixed_solve(g: PlanarMap, fixed_mask: np.ndarray, full_values: np.ndarray,
                 tol: float = _SOLVE_TOL) -> np.ndarray:
    """Harmonically extend the values pinned where ``fixed_mask`` is set.

    The free-block Laplacian is SPD because the graph is connected and at
    least one vertex is pinned; a few rounds of iterative refinement push the
    relative residual below ``tol``.
    """
    full = np.array(full_values, dtype=float)
    free = np.flatnonzero(~fixed_mask)
    if free.size == 0:
        return full
    lap = _laplacian(g)
    fixed = np.flatnonzero(fixed_mask)
    a = lap[free][:, free].tocsc()
    b = -(lap[free][:, fixed] @ full[fixed])
    full[free] = refined_solve(
        a, b, tol, "harmonic solve did not reach its residual tolerance; "
        "the system should be well conditioned at this scale")
    return full


def solve_dirichlet(trunc: Truncation, boundary_values) -> VertexFunction:
    """Unique conductance-harmonic extension of boundary data.

    ``boundary_values`` is either an array aligned with ``trunc.boundary``
    (ascending vertex ids) or a mapping from boundary vertex id to value.
    """
    nb = trunc.boundary.size
    if hasattr(boundary_values, "keys"):
        try:
            bv = np.array([boundary_values[int(v)] for v in trunc.boundary],
                          dtype=float)
        except KeyError as exc:
            raise ValueError(f"missing boundary value for vertex {exc}")
    else:
        bv = np.asarray(boundary_values, dtype=float)
        if bv.shape != (nb,):
            raise ValueError(
                f"expected one value per boundary vertex ({nb}), got shape {bv.shape}")
    if not np.all(np.isfinite(bv)):
        raise ValueError("boundary data has non-finite values")
    full = np.zeros(trunc.n_vertices)
    full[trunc.boundary] = bv
    out = _fixed_solve(trunc.graph, trunc.is_boundary, full)
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
    A = np.unique(np.asarray(target, dtype=np.int64)) if len(target) else \
        np.empty(0, dtype=np.int64)
    if A.size and (A.min() < 0 or A.max() >= trunc.n_vertices):
        raise ValueError("target set contains a vertex id outside the truncation")
    if np.any(trunc.is_boundary[A]):
        raise ValueError("target set must consist of interior vertices")
    return A


def capacity(trunc: Truncation, target) -> CapacityEstimate:
    """Capacity of a set of interior vertices relative to the grounded
    boundary: the energy of its equilibrium potential (1 on the set, 0 on the
    boundary, harmonic elsewhere).  This is the least energy among grounded
    functions that are ≥ 1 on the set."""
    A = _target_set(trunc, target)
    fixed = trunc.is_boundary.copy()
    fixed[A] = True
    full = np.zeros(trunc.n_vertices)
    full[A] = 1.0
    q = _fixed_solve(trunc.graph, fixed, full)
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
    fixed = trunc.is_boundary.copy()
    fixed[A] = True
    full = np.zeros(trunc.n_vertices)
    full[trunc.boundary] = 1.0
    qbar = _fixed_solve(g, fixed, full)
    in_a = np.zeros(trunc.n_vertices, dtype=bool)
    in_a[A] = True
    mask = in_a[g.origin]
    return float(np.sum(g.conductance[mask] * qbar[g.target[mask]]))


def capacity_to_json(trunc: Truncation, est: CapacityEstimate,
                     tolerance: float = 1e-8) -> dict:
    """Report payload: the value plus the worst relative harmonicity defect
    of the equilibrium potential away from its pinned vertices."""
    g = trunc.graph
    q = est.equilibrium_potential.values
    flow = g.conductance * (q[g.origin] - q[g.target])
    net = np.bincount(g.origin, weights=flow, minlength=g.n_vertices)
    pinned = trunc.is_boundary.copy()
    if est.target is not None:
        pinned[est.target] = True
    free = ~pinned
    residual = 0.0
    if free.any():
        residual = float(np.max(np.abs(net[free]) / g.vertex_conductance[free]))
    return {"value": float(est.value), "residual": residual,
            "tolerance": float(tolerance)}


# ---------------------------------------------------------------------------
# random-walk estimator
# ---------------------------------------------------------------------------

_WALK_BLOCK = 32


def _transition_tables(g: PlanarMap):
    """Padded per-vertex neighbor targets and cumulative step probabilities."""
    width = int(g.degrees.max())
    nbr = np.zeros((g.n_vertices, width), dtype=np.int64)
    cum = np.ones((g.n_vertices, width))
    for v in range(g.n_vertices):
        darts = g.vertex_darts(v)
        c = g.conductance[darts]
        p = np.cumsum(c) / c.sum()
        p[-1] = 1.0
        nbr[v, :darts.size] = g.target[darts]
        cum[v, :darts.size] = p
    return nbr, cum


def walk_limit_estimate(trunc: Truncation, phi, v: int, samples: int,
                        seed: int) -> tuple:
    """Monte Carlo mean of φ at the boundary hit by the conductance walk from
    ``v``, with its standard error.

    Sample ``i`` consumes a fixed slice of the pseudorandom stream determined
    by ``(seed, i)`` alone, so results are bitwise reproducible and each
    sample's walk does not depend on how many other samples run.  Aggregation
    is in sample-index order.
    """
    vals = _coerce(phi, trunc.n_vertices)
    if samples < 1:
        raise ValueError("need at least one sample")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if trunc.is_boundary[v]:
        return float(vals[v]), 0.0

    nbr, cum = _transition_tables(trunc.graph)
    is_b = trunc.is_boundary
    cur = np.full(samples, v, dtype=np.int64)
    out = np.empty(samples)
    alive = np.arange(samples)
    round_no = 0
    while alive.size:
        block = np.random.default_rng([seed, round_no]).random((samples, _WALK_BLOCK))
        for col in range(_WALK_BLOCK):
            if alive.size == 0:
                break
            at = cur[alive]
            u = block[alive, col]
            pick = (u[:, None] >= cum[at]).sum(axis=1)
            nv = nbr[at, pick]
            cur[alive] = nv
            absorbed = is_b[nv]
            if absorbed.any():
                done = alive[absorbed]
                out[done] = vals[cur[done]]
                alive = alive[~absorbed]
        round_no += 1
        if round_no > 100_000:
            raise ConvergenceError("random walk failed to reach the boundary")
    mean = float(out.mean())
    stderr = float(out.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# capacity profiles along an exhaustion
# ---------------------------------------------------------------------------

def quasi_asymptotic_profile(trunc_sequence, phi_family, eps: float) -> CapacityProfile:
    """Capacity of {|φ| ≥ eps} per truncation; a bounded profile as the
    radius grows is the finite-scale signature of a function that is
    quasi-asymptotically zero, a growing one of uniform mass out to infinity.

    Superlevel sets are intersected with each truncation's interior: boundary
    vertices are grounded, so they never carry capacity.  Classification
    compares the last two entries with a 5% growth margin.
    """
    if len(trunc_sequence) != len(phi_family):
        raise ValueError("need one function per truncation")
    if len(trunc_sequence) < 2:
        raise ValueError("need at least two truncations to classify a profile")
    if eps <= 0:
        raise ValueError("eps must be positive")
    radii, values = [], []
    for trunc, phi in zip(trunc_sequence, phi_family):
        vals = _coerce(phi, trunc.n_vertices)
        targets = trunc.interior[np.abs(vals[trunc.interior]) >= eps]
        values.append(capacity(trunc, targets).value)
        radii.append(trunc.radius)
    growing = values[-1] > 1.05 * values[-2]
    return CapacityProfile(radii, values, "growing" if growing else "bounded", eps)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def vertex_function_to_csv(vf: VertexFunction) -> str:
    lines = ["vertex_id,value"]
    lines.extend(f"{i},{float(x)!r}" for i, x in enumerate(vf.values))
    return "\n".join(lines) + "\n"


def load_vertex_function_csv(trunc: Truncation, source) -> VertexFunction:
    """Read a vertex function for ``trunc`` from CSV text or a file path."""
    if isinstance(source, str) and ("\n" in source or source.startswith("vertex_id")):
        text = source
    else:
        with open(source) as fh:
            text = fh.read()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["vertex_id", "value"]:
        raise ValueError("vertex function CSV must start with 'vertex_id,value'")
    vals = np.full(trunc.n_vertices, np.nan)
    for row in reader:
        if not row:
            continue
        i = int(row[0])
        if not 0 <= i < trunc.n_vertices:
            raise ValueError(f"vertex id {i} outside the truncation")
        vals[i] = float(row[1])
    if np.isnan(vals).any():
        missing = int(np.flatnonzero(np.isnan(vals))[0])
        raise ValueError(f"no value for vertex {missing}")
    return VertexFunction(trunc, vals)
