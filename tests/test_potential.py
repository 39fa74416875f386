"""Discrete Dirichlet machinery: energy, harmonic solves, Royden splits,
capacities, and the random-walk boundary-limit estimator."""

import gc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from conftest import delaunay_rotations
from doublepack import linalg
from doublepack.errors import InvariantViolation
from doublepack.continuum import HarmonicDiscField
from doublepack.maps import (
    PlanarMap,
    Truncation,
    boundary_truncation,
    build_map,
    truncate,
)
from doublepack.potential import (
    RoydenSplit,
    VertexFunction,
    capacity,
    capacity_to_json,
    energy,
    escape_capacity,
    royden_project,
    solve_dirichlet,
    walk_limit_estimate,
)
from doublepack.packing import layout, solve_radii
from doublepack.tilings import generate_grid, generate_tiling
from doublepack.transfer import disc_operator

K4 = [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]]
PATH3 = [[1], [0, 2], [1]]


def k4_energy_oracle(phi, cond):
    """Direct sum over the six unoriented K4 edges, no dart machinery."""
    total = 0.0
    for (a, b), c in cond.items():
        total += c * (phi[a] - phi[b]) ** 2
    return total


def reweighted(pmap, edge_conductance):
    """The same map with the given conductance on each edge."""
    return PlanarMap(pmap.rotation, pmap.offsets, np.repeat(edge_conductance, 2))


def path_truncation():
    """a - b - c with the endpoints grounded; one interior vertex."""
    return Truncation(build_map(PATH3), boundary_ids=[0, 2], root=1, radius=1)


def star_truncation():
    """K_{1,3}: center 0, grounded leaves 1..3."""
    return Truncation(build_map([[1, 2, 3], [0], [0], [0]]),
                      boundary_ids=[1, 2, 3], root=0, radius=1)


def grid_trunc(n):
    return boundary_truncation(generate_grid(n, n))


def mc_escape_probability(trunc, start, samples, seed, max_steps=100_000):
    """Monte Carlo estimate of P_start(hit boundary before returning to start)
    for the unit-conductance walk; written against neighbor lists only.

    Returns (p_hat, stderr).  Walks step uniformly; the first step always
    leaves ``start``, after which hitting ``start`` again counts as a return.
    """
    g = trunc.graph
    deg = g.degrees
    pad = np.zeros((g.n_vertices, deg.max()), dtype=np.int64)
    for v in range(g.n_vertices):
        pad[v, :deg[v]] = g.neighbors(v)
    rng = np.random.default_rng(seed)
    cur = np.full(samples, start, dtype=np.int64)
    escaped = np.zeros(samples, dtype=bool)
    active = np.ones(samples, dtype=bool)
    for step in range(max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        at = cur[idx]
        pick = (rng.random(idx.size) * deg[at]).astype(np.int64)
        nxt = pad[at, pick]
        cur[idx] = nxt
        hit_boundary = trunc.is_boundary[nxt]
        # the forced first step out of ``start`` is never a return
        returned = (nxt == start) if step > 0 else np.zeros(idx.size, bool)
        done = hit_boundary | returned
        escaped[idx[hit_boundary]] = True
        active[idx[done]] = False
    assert not active.any(), "walks failed to absorb"
    p = escaped.mean()
    return p, np.sqrt(p * (1 - p) / samples)


class TestEnergy:
    def test_constant_is_zero(self):
        g = generate_grid(4, 4)
        assert energy(g, np.full(g.n_vertices, 2.75)) == 0.0

    def test_path_two_unit_gaps(self):
        assert energy(build_map(PATH3), [0.0, 1.0, 2.0]) == pytest.approx(2.0)

    def test_k4_matches_edge_resummation(self):
        rng = np.random.default_rng(7)
        cond = {(0, 1): 1.5, (0, 2): 0.25, (0, 3): 2.0,
                (1, 2): 0.75, (1, 3): 1.0, (2, 3): 3.0}
        g = build_map(K4, [[a, b, c] for (a, b), c in cond.items()])
        for _ in range(5):
            phi = rng.normal(size=4)
            assert energy(g, phi) == pytest.approx(
                k4_energy_oracle(phi, cond), rel=1e-12)

    def test_nonconstant_is_positive(self):
        g = generate_grid(3, 3)
        phi = np.zeros(g.n_vertices)
        phi[4] = 1e-3
        assert energy(g, phi) > 0

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="9 vertices"):
            energy(generate_grid(3, 3), np.zeros(5))


class TestSolveDirichlet:
    def test_path_midpoint(self):
        t = path_truncation()
        h = solve_dirichlet(t, [0.0, 1.0])
        assert h.values[1] == pytest.approx(0.5)

    def test_constant_boundary_data(self):
        for t in (grid_trunc(5), truncate(generate_tiling(7, 3, 4), 0, 3)):
            h = solve_dirichlet(t, np.full(t.boundary.size, 3.25))
            assert np.allclose(h.values, 3.25, atol=1e-12)

    def test_grid_x_coordinate_is_exact(self):
        # x is grid-harmonic: at an interior lattice point the four neighbor
        # values average to the center value.  Verify the oracle property
        # first, then that the solver reproduces x from its boundary trace.
        t = grid_trunc(5)
        x = np.arange(t.n_vertices, dtype=float) % 5
        for v in t.interior:
            nb = t.graph.neighbors(v)
            assert np.mean(x[nb]) == pytest.approx(x[v])
        h = solve_dirichlet(t, x[t.boundary])
        assert np.allclose(h.values, x, atol=1e-10)

    def test_linear_in_boundary_data(self):
        t = truncate(generate_tiling(6, 3, 3), 0, 2)
        rng = np.random.default_rng(2)
        g1, g2 = rng.normal(size=(2, t.boundary.size))
        lhs = solve_dirichlet(t, 0.5 * g1 - 2.0 * g2).values
        rhs = 0.5 * solve_dirichlet(t, g1).values - 2.0 * solve_dirichlet(t, g2).values
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_maximum_principle(self):
        t = truncate(generate_tiling(7, 3, 4), 0, 3)
        rng = np.random.default_rng(23)
        bv = rng.uniform(-5, 5, size=t.boundary.size)
        h = solve_dirichlet(t, bv).values
        assert h[t.interior].min() >= bv.min() - 1e-12
        assert h[t.interior].max() <= bv.max() + 1e-12

    def test_weighted_harmonicity_residual(self):
        pm = generate_tiling(7, 3, 3)
        rng = np.random.default_rng(5)
        pm = reweighted(pm, rng.uniform(0.2, 3.0, pm.n_darts // 2))
        t = truncate(pm, 0, 2)
        h = solve_dirichlet(t, rng.normal(size=t.boundary.size)).values
        g = t.graph
        flow = g.conductance * (h[g.origin] - h[g.target])
        net = np.abs(np.bincount(g.origin, weights=flow, minlength=g.n_vertices))
        assert net[t.interior].max() < 1e-10 * max(1.0, np.abs(h).max())

    def test_wrong_boundary_length(self):
        with pytest.raises(ValueError, match="boundary"):
            solve_dirichlet(grid_trunc(5), np.zeros(3))


def weighted_delaunay_truncation(n, seed):
    """Boundary truncation of a seeded Delaunay map with conductances spread
    over three decades and several vertices of degree 8 or more."""
    rng = np.random.default_rng(seed)
    pm = build_map(delaunay_rotations(rng.random((n, 2))))
    pm = reweighted(pm, rng.uniform(0.1, 10.0, pm.n_edges) ** 1.5)
    return boundary_truncation(pm)


def uncached_dirichlet(t, full):
    """The harmonic extension of ``full`` from the boundary by the same
    arithmetic as the solver, but from a freshly built Laplacian and a fresh
    factorization: the free block, one LU, and up to five refinements."""
    g = t.graph
    n = g.n_vertices
    idx = np.arange(n)
    lap = (sparse.coo_matrix((-g.conductance, (g.origin, g.target)), shape=(n, n))
           + sparse.coo_matrix((g.vertex_conductance, (idx, idx)),
                               shape=(n, n))).tocsr()
    free, fixed = t.interior, t.boundary
    a = lap[free][:, free].tocsc()
    b = -(lap[free][:, fixed] @ full[fixed])
    lu = splu(a)
    x = lu.solve(b)
    for _ in range(5):
        r = b - a @ x
        if np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b):
            break
        x = x + lu.solve(r)
    out = full.copy()
    out[free] = x
    return out


@pytest.fixture
def count_splu(monkeypatch):
    """Counts the LU factorizations made from here on."""
    calls = []

    def counting_splu(a, *args, **kwargs):
        calls.append(a.shape)
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "splu", counting_splu)
    return calls


class TestFactorizationCache:
    @pytest.mark.parametrize("make", [
        lambda: truncate(generate_tiling(7, 3, 5), 0, 4),
        lambda: grid_trunc(11),
        lambda: weighted_delaunay_truncation(300, 3),
    ], ids=["ball4", "grid11", "delaunay"])
    def test_bitwise_equal_to_an_uncached_solve(self, make):
        t = make()
        rng = np.random.default_rng(17)
        for _ in range(3):
            bv = rng.normal(size=t.boundary.size)
            full = np.zeros(t.n_vertices)
            full[t.boundary] = bv
            assert np.array_equal(solve_dirichlet(t, bv).values,
                                  uncached_dirichlet(t, full))
            phi = rng.normal(size=t.n_vertices)
            split = royden_project(t, phi)
            ref = uncached_dirichlet(t, np.where(t.is_boundary, phi, 0.0))
            assert np.array_equal(split.harmonic_part.values, ref)
            assert np.array_equal(split.d0_part.values,
                                  np.where(t.is_boundary, 0.0, phi - ref))

    def test_one_factorization_per_truncation(self, count_splu):
        t = truncate(generate_tiling(7, 3, 4), 0, 3)
        pk = layout(t, solve_radii(t, boundary_mode="disc"))
        rng = np.random.default_rng(4)
        for k in range(5):
            solve_dirichlet(t, rng.normal(size=t.boundary.size))
            disc_operator(t, pk, HarmonicDiscField(0.0, np.eye(5)[k], np.zeros(5)))
        assert count_splu == [(t.interior.size, t.interior.size)]

    def test_capacities_keep_no_per_target_state(self, count_splu):
        t = truncate(generate_tiling(7, 3, 5), 0, 4)
        t.graph.laplacian  # the one per-map cache the capacities may fill
        trunc_state, graph_state = dict(vars(t)), dict(vars(t.graph))
        rng = np.random.default_rng(8)
        for size in range(1, 6):
            target = rng.choice(t.interior, size=size, replace=False)
            capacity(t, target)
            escape_capacity(t, target)
        assert len(count_splu) == 10
        for obj, before in ((t, trunc_state), (t.graph, graph_state)):
            after = vars(obj)
            assert after.keys() == before.keys()
            assert all(after[k] is before[k] for k in before)

    def test_solver_is_freed_with_its_truncation(self):
        # reference counting alone must free the factorization: a cycle would
        # hold it until the cyclic collector runs
        gc.collect()
        t = truncate(generate_tiling(7, 3, 5), 0, 4)
        solve_dirichlet(t, np.ones(t.boundary.size))
        ref = weakref.ref(t.boundary_solver)
        del t
        assert ref() is None
        assert gc.collect() == 0

    @pytest.mark.parametrize("solve", [
        lambda t: solve_dirichlet(t, np.linspace(-1.0, 2.0, t.boundary.size)),
        lambda t: capacity(t, [t.root]),
    ], ids=["dirichlet", "capacity"])
    def test_refinement_failure_keeps_its_message(self, solve, monkeypatch):
        t = truncate(generate_tiling(7, 3, 5), 0, 4)
        monkeypatch.setattr(linalg, "_SOLVE_TOL", 0.0)
        with pytest.raises(InvariantViolation, match=(
                "^harmonic solve did not reach its residual tolerance; the "
                "system should be well conditioned at this scale$")):
            solve(t)


class TestRoydenProject:
    def test_harmonic_input_has_zero_d0(self):
        t = grid_trunc(5)
        x = np.arange(t.n_vertices, dtype=float) % 5
        split = royden_project(t, x)
        assert np.allclose(split.d0_part.values, 0.0, atol=1e-10)

    def test_interior_spike_is_pure_d0(self):
        t = grid_trunc(5)
        phi = np.zeros(t.n_vertices)
        phi[t.root] = 4.0
        split = royden_project(t, phi)
        assert np.allclose(split.harmonic_part.values, 0.0)
        assert np.allclose(split.d0_part.values, phi)

    def test_parts_sum_and_energies_add(self):
        pm = generate_tiling(7, 3, 3)
        rng = np.random.default_rng(13)
        pm = reweighted(pm, rng.uniform(0.5, 2.0, pm.n_darts // 2))
        t = truncate(pm, 0, 2)
        phi = rng.normal(size=t.n_vertices)
        split = royden_project(t, phi)
        g = t.graph
        assert np.allclose(split.harmonic_part.values + split.d0_part.values, phi)
        assert np.allclose(split.d0_part.values[t.boundary], 0.0)
        total = energy(g, phi)
        parts = energy(g, split.harmonic_part.values) + energy(g, split.d0_part.values)
        assert parts == pytest.approx(total, rel=1e-8)

    def test_idempotent(self):
        t = truncate(generate_tiling(6, 3, 3), 0, 2)
        phi = np.random.default_rng(29).normal(size=t.n_vertices)
        split = royden_project(t, phi)
        again = royden_project(t, split.harmonic_part.values)
        assert np.allclose(again.harmonic_part.values,
                           split.harmonic_part.values, atol=1e-10)
        assert np.allclose(again.d0_part.values, 0.0, atol=1e-10)
        d0_again = royden_project(t, split.d0_part.values)
        assert np.allclose(d0_again.harmonic_part.values, 0.0, atol=1e-10)


class TestCapacity:
    def test_star_center(self):
        t = star_truncation()
        est = capacity(t, [0])
        assert est.value == pytest.approx(3.0)
        assert np.allclose(est.equilibrium_potential.values, [1.0, 0, 0, 0])
        assert escape_capacity(t, [0]) == pytest.approx(3.0)

    def test_whole_interior_gives_cut_conductance(self):
        t = grid_trunc(5)
        est = capacity(t, t.interior)
        assert est.value == pytest.approx(12.0)
        # and with non-unit conductances the cut total
        rng = np.random.default_rng(31)
        pm = reweighted(t.graph, rng.uniform(0.1, 2.0, t.graph.n_darts // 2))
        t2 = Truncation(pm, t.boundary, t.root, t.radius)
        cut = sum(pm.conductance[e] for e in range(pm.n_darts)
                  if t.is_boundary[pm.origin[e]] != t.is_boundary[pm.target[e]]) / 2
        assert capacity(t2, t2.interior).value == pytest.approx(cut, rel=1e-12)

    def test_monotone_under_inclusion(self):
        t = truncate(generate_tiling(7, 3, 3), 0, 2)
        rng = np.random.default_rng(37)
        for _ in range(5):
            small = rng.choice(t.interior, size=3, replace=False)
            extra = np.setdiff1d(t.interior, small)
            big = np.concatenate([small, rng.choice(extra, size=4, replace=False)])
            assert capacity(t, small).value <= capacity(t, big).value + 1e-12

    def test_escape_formula_agrees(self):
        rng = np.random.default_rng(41)
        cases = [(grid_trunc(7), [24]),
                 (truncate(generate_tiling(7, 3, 4), 0, 3), [0, 1, 2])]
        pm = generate_tiling(6, 3, 3)
        pm = reweighted(pm, rng.uniform(0.3, 3.0, pm.n_darts // 2))
        cases.append((truncate(pm, 0, 2), [0, 3]))
        for t, A in cases:
            e = capacity(t, A).value
            p = escape_capacity(t, A)
            assert p == pytest.approx(e, rel=1e-6)

    def test_grid_center_against_walk_oracle(self):
        t = grid_trunc(7)
        est = capacity(t, [t.root])
        p_hat, se = mc_escape_probability(t, t.root, samples=100_000, seed=97)
        c_root = t.graph.vertex_conductance[t.root]
        assert abs(c_root * p_hat - est.value) <= 3 * c_root * se

    def test_potential_invariants(self):
        t = truncate(generate_tiling(7, 3, 3), 0, 2)
        A = [0, 1]
        est = capacity(t, A)
        q = est.equilibrium_potential.values
        assert np.allclose(q[A], 1.0)
        assert np.allclose(q[t.boundary], 0.0)
        assert ((q >= -1e-12) & (q <= 1 + 1e-12)).all()
        assert est.value == pytest.approx(energy(t.graph, q), rel=1e-8)

    def test_boundary_vertex_rejected(self):
        t = grid_trunc(5)
        with pytest.raises(ValueError, match="interior"):
            capacity(t, [int(t.boundary[0])])

    def test_empty_target(self):
        t = grid_trunc(5)
        est = capacity(t, [])
        assert est.value == 0.0
        assert np.allclose(est.equilibrium_potential.values, 0.0)


class TestWalkLimit:
    def test_constant_function(self):
        t = grid_trunc(5)
        mean, se = walk_limit_estimate(t, np.full(t.n_vertices, 2.5), t.root,
                                       samples=200, seed=1)
        assert mean == pytest.approx(2.5)
        assert se == 0.0

    def test_path_symmetry(self):
        t = path_truncation()
        phi = np.array([0.0, 0.0, 1.0])
        mean, se = walk_limit_estimate(t, phi, 1, samples=4000, seed=8)
        assert se > 0
        assert abs(mean - 0.5) <= 3 * se

    def test_matches_harmonic_part_on_grid(self):
        t = grid_trunc(7)
        rng = np.random.default_rng(55)
        phi = rng.uniform(-1, 1, t.n_vertices)
        target = royden_project(t, phi).harmonic_part.values[t.root]
        mean, se = walk_limit_estimate(t, phi, t.root, samples=20_000, seed=3)
        assert abs(mean - target) <= 3 * se

    def test_seed_reproducibility(self):
        t = truncate(generate_tiling(7, 3, 3), 0, 2)
        phi = np.random.default_rng(0).normal(size=t.n_vertices)
        a = walk_limit_estimate(t, phi, t.root, samples=500, seed=42)
        b = walk_limit_estimate(t, phi, t.root, samples=500, seed=42)
        c = walk_limit_estimate(t, phi, t.root, samples=500, seed=43)
        assert a == b
        assert a != c

    def test_conductance_bias(self):
        # Tilt the path's two edges 3:1; the walk from the middle should land
        # right with probability 3/4.
        pm = build_map(PATH3, [[0, 1, 1.0], [1, 2, 3.0]])
        t = Truncation(pm, [0, 2], 1, 1)
        phi = np.array([0.0, 0.0, 1.0])
        mean, se = walk_limit_estimate(t, phi, 1, samples=8000, seed=12)
        assert abs(mean - 0.75) <= 3 * se


def looped_walk(trunc, phi, v, samples, seed):
    """The walk stepped the plain way: each step compares a live walker's
    uniform with its whole table row and writes it back into the full
    position array, absorption checked every step.  Returns the estimate
    and the number of 32-step rounds drawn."""
    vals = np.asarray(phi, dtype=float)
    nbr, cum = trunc.graph.walk_tables
    is_b = trunc.is_boundary
    cur = np.full(samples, v, dtype=np.int64)
    out = np.empty(samples)
    alive = np.arange(samples)
    round_no = 0
    while alive.size:
        block = np.random.default_rng([seed, round_no]).random((samples, 32))
        for col in range(32):
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
    stderr = float(out.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return (float(out.mean()), stderr), round_no


def looped_walk_tables(g):
    """Step tables built vertex by vertex: each row's cumulative
    probabilities over its own conductance total, the last set to 1."""
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


class TestWalkTables:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_the_vertex_loop(self, seed):
        g = weighted_delaunay_truncation(400, seed).graph
        # rows of 8 or more terms, where numpy's pairwise total can differ
        # in the last bit from the running one
        assert g.degrees.max() >= 8
        assert any(np.cumsum(c)[-1] != c.sum() for c in
                   (g.conductance[g.vertex_darts(v)] for v in range(g.n_vertices)))
        nbr, cum = g.walk_tables
        ref_nbr, ref_cum = looped_walk_tables(g)
        assert np.array_equal(nbr, ref_nbr)
        assert np.array_equal(cum, ref_cum)

    def test_built_once_per_graph(self):
        t = truncate(generate_tiling(7, 3, 4), 0, 3)
        phi = np.random.default_rng(1).normal(size=t.n_vertices)
        walk_limit_estimate(t, phi, t.root, samples=50, seed=1)
        tables = vars(t.graph)["walk_tables"]
        walk_limit_estimate(t, phi, t.root, samples=50, seed=2)
        assert vars(t.graph)["walk_tables"] is tables


class TestWalkKernel:
    @pytest.mark.parametrize("make", [
        lambda: grid_trunc(9),
        lambda: truncate(generate_tiling(7, 3, 5), 0, 4),
        lambda: weighted_delaunay_truncation(400, 0),
    ], ids=["grid9", "ball4", "delaunay"])
    def test_bitwise_equal_to_the_plain_loop(self, make):
        t = make()
        rng = np.random.default_rng(7)
        phi = rng.normal(size=t.n_vertices)
        starts = [int(t.root), *rng.choice(t.interior, size=3, replace=False).tolist()]
        rounds = []
        for v in starts:
            for samples, seed in ((1, 3), (37, 0), (250, 11), (1000, 2 ** 40)):
                got = walk_limit_estimate(t, phi, v, samples, seed)
                want, r = looped_walk(t, phi, v, samples, seed)
                assert got == want, (v, samples, seed)
                rounds.append(r)
        # some walks outlast one 32-step block
        assert max(rounds) > 1

    def test_boundary_start_takes_no_step(self):
        t = grid_trunc(5)
        phi = np.arange(t.n_vertices, dtype=float)
        v = int(t.boundary[3])
        assert walk_limit_estimate(t, phi, v, samples=10, seed=0) == (phi[v], 0.0)

    @pytest.mark.parametrize("arg, value", [
        ("v", -1), ("v", 85), ("v", 2.0), ("samples", 100.5), ("samples", 0),
        ("seed", 1.5), ("seed", -1), ("v", True), ("samples", "3"),
    ])
    def test_bad_argument_names_it(self, arg, value):
        t = truncate(generate_tiling(7, 3, 4), 0, 3)
        assert t.n_vertices == 85
        kwargs = {"v": int(t.root), "samples": 100, "seed": 1, arg: value}
        with pytest.raises(ValueError, match=f"^{arg} must be an integer"):
            walk_limit_estimate(t, np.arange(85.0), **kwargs)

    def test_numpy_integer_arguments_accepted(self):
        t = truncate(generate_tiling(7, 3, 4), 0, 3)
        phi = np.arange(85.0)
        assert walk_limit_estimate(t, phi, np.int64(5), np.uint16(50), np.int32(2)) == \
            walk_limit_estimate(t, phi, 5, 50, 2)


class TestSerialization:
    def test_capacity_report_fields(self):
        t = grid_trunc(5)
        report = capacity_to_json(t, capacity(t, [t.root]))
        assert set(report) == {"value", "residual", "tolerance"}
        assert report["value"] > 0
        assert report["residual"] <= report["tolerance"]

    def test_vertex_function_validates(self):
        t = path_truncation()
        with pytest.raises(ValueError):
            VertexFunction(t, np.array([1.0, np.nan, 0.0]))
        with pytest.raises(ValueError):
            VertexFunction(t, np.zeros(7))
