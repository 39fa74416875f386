"""The four benchmark workloads.

Each workload is a closed loop with one caller and no threads: a job starts
when the previous one returns.  ``setup`` builds the inputs from the seed
(and, where stated, packs fixed instances); ``run_pass`` runs every job of the
workload once.  Passes draw fresh seeded inputs where the workload has any,
so no two passes in a run share a target set or a field.  Packing uses
tol=1e-10 throughout, the CLI default.

Why each workload exists:

- ``ball_pack`` mirrors CLI ``pack``/``analyze``: the user pays the whole chain
  on every run.  The disc loop iterates over boundary radii; hyperbolic balls
  are mostly boundary, while the Delaunay map has only 24-28 hull vertices
  out of 400 and irregular degrees.  A packing change that helps only one
  boundary shape, or only symmetric inputs, shows here.  No harmonic solves.
- ``field_transfer`` mirrors CLI ``roundtrip``/``harnack`` and the "many
  fields on one packing" experiments.  A reused factorization shows here.
  The capacity jobs never share a pinned set and the walks do no solves, so
  a cache that costs them shows too.  Packing runs only in set-up.
- ``disc_capacity`` mirrors CLI ``capacity``/``douglas``: the continuum grid
  solve does almost all the work here and none elsewhere, and its ``splu``
  fill-in dominates memory.
- ``map_build`` covers the combinatorics layers: the {p,q} generators and the
  polyhedrality check, with no numerics.
"""

import cmath
import math
from collections import Counter

import numpy as np
from scipy.spatial import Delaunay

import doublepack as dp
from checks import (DISC_RTOL, EXACT_RTOL, PACKED_RTOL, PRESCRIBED_RTOL, TOL,
                    check_geometry, check_harmonic, check_layout, check_planar,
                    check_radii, check_union_capacity, close,
                    disc_capacity_exact, grid_unknowns, map_summary, require,
                    sorted_ranks)


# Work counters, computed from the sizes and arguments of the calls each job
# makes (``packing.newton_steps`` is read from the returned solutions).
COUNTERS = ("packing.newton_steps", "packing.sausage_pairs", "maps.n_darts",
            "continuum.grid_unknowns", "potential.walk_samples")


class Context:
    """Accounting for one worker run: jobs attempted and failed, per-pass
    work counters, recorded-value checks, and the tracer while a traced pass
    runs.  In smoke mode one output is perturbed on purpose, once."""

    def __init__(self, seed, refs, perturb=False):
        self.seed = seed
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.counts = Counter()
        self.tracer = None
        self._perturb = perturb
        self._perturbed_now = False
        self.perturbed_caught = False

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def run(self, name, fn):
        self.attempted += 1
        self._perturbed_now = False
        try:
            if self.tracer is not None:
                self.tracer.run_job(name, self.attempted, fn)
            else:
                fn()
        except Exception as exc:  # one failed operation; keep measuring
            self.failed += 1
            self.perturbed_caught |= self._perturbed_now
            self.failures[f"{name}: {type(exc).__name__}: {exc}"] += 1

    def take_perturbation(self):
        """True exactly once in smoke mode: the caller corrupts its output."""
        perturb, self._perturb = self._perturb, False
        self._perturbed_now |= perturb
        return perturb


def _ball(radius):
    return dp.truncate(dp.generate_tiling(7, 3, radius + 1), 0, radius)


def _grid(n):
    return dp.boundary_truncation(dp.generate_grid(n, n))


def _pack(trunc):
    """Disc-mode packing with its output checks (set-up of the workloads that
    start from a packed instance)."""
    sol = dp.solve_radii(trunc, boundary_mode="disc", tol=TOL)
    check_radii(sol, trunc)
    pk = dp.layout(trunc, sol)
    check_layout(pk, trunc)
    return pk


def delaunay_rotations(n, rng):
    """Rotation system of the Delaunay triangulation of ``n`` uniform points
    in the unit disc, and the number of hull vertices."""
    r = np.sqrt(rng.random(n))
    t = 2 * np.pi * rng.random(n)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    tri = Delaunay(pts)
    indptr, nbrs = tri.vertex_neighbor_vertices
    rotations = []
    for v in range(n):
        nb = nbrs[indptr[v]:indptr[v + 1]]
        d = pts[nb] - pts[v]
        rotations.append(nb[np.argsort(np.arctan2(d[:, 1], d[:, 0]))].tolist())
    return rotations, int(np.unique(tri.convex_hull).size)


def _trig(theta, coef):
    """sum_k a_k cos(k theta) + b_k sin(k theta) for coef = (a, b)."""
    k = np.arange(1, coef.shape[1] + 1)
    ang = np.multiply.outer(theta, k)
    return np.cos(ang) @ coef[0] + np.sin(ang) @ coef[1]


def _rotated_field(coef, frame):
    """Disc field whose boundary values are ``_trig(theta - frame, coef)``."""
    k = np.arange(1, coef.shape[1] + 1)
    c = (coef[0] - 1j * coef[1]) * np.exp(-1j * k * frame)
    return dp.HarmonicDiscField(0.0, c.real, -c.imag)


def _random_coef(rng, modes=3):
    return rng.normal(size=(2, modes)) / np.arange(1, modes + 1)


# ---------------------------------------------------------------------------
# ball_pack
# ---------------------------------------------------------------------------

class BallPack:
    """Full chain per instance: generate, truncate, disc solve, layout,
    geometry report, JSON and SVG, plus one prescribed solve."""

    def __init__(self, smoke):
        self.radii = (3,) if smoke else (4, 5, 6)
        self.grid = 7 if smoke else 21
        self.n_points = 60 if smoke else 400

    def setup(self, ctx):
        rotations, self.hull = delaunay_rotations(self.n_points, ctx.rng(0))
        self.instances = [(f"ball{r}", lambda r=r: _ball(r), False)
                          for r in self.radii]
        self.instances.append((f"grid{self.grid}", lambda: _grid(self.grid), False))
        self.instances.append(
            ("delaunay", lambda: dp.boundary_truncation(dp.build_map(rotations)), True))

    def run_pass(self, ctx, index):
        for name, build, seeded in self.instances:
            state = {}
            ctx.run(f"{name}.pack", lambda: self._pack(ctx, name, build, seeded, state))
            ctx.run(f"{name}.prescribed", lambda: self._prescribed(ctx, name, seeded, state))

    def _pack(self, ctx, name, build, seeded, state):
        refs = ctx.refs
        trunc = state["trunc"] = build()
        g = trunc.graph
        ctx.counts["maps.n_darts"] += g.n_darts
        if trunc.parent is not g:
            ctx.counts["maps.n_darts"] += trunc.parent.n_darts
        check_planar(g, trunc.faces.n_faces)
        if name == "delaunay":
            require(trunc.boundary.size == self.hull,
                    f"boundary has {trunc.boundary.size} vertices, hull {self.hull}")
        refs.check(f"{name}.map", {"V": g.n_vertices, "E": g.n_edges,
                                   "boundary": int(trunc.boundary.size)}, seeded=seeded)

        sol = dp.solve_radii(trunc, boundary_mode="disc", tol=TOL)
        ctx.counts["packing.newton_steps"] += sol.iterations
        check_radii(sol, trunc)
        pk = dp.layout(trunc, sol)
        if ctx.take_perturbation():
            pk.vertex_center[trunc.root] += 1e-3 * pk.vertex_radius[trunc.root]
        check_layout(pk, trunc)

        rep = dp.geometry_report(pk)
        ctx.counts["packing.sausage_pairs"] += g.n_edges * (g.n_edges - 1) // 2
        check_geometry(rep)
        refs.check(f"{name}.delta0", rep.delta0, seeded=seeded)

        n_circles = trunc.n_vertices + trunc.bounded_faces.size
        doc = dp.packing_to_json(pk)
        require(len(doc["circles"]) == n_circles, "packing JSON lost circles")
        svg = dp.packing_to_svg(pk)
        require(svg.count("<circle") == n_circles, "SVG lost circles")

        refs.check(f"{name}.disc.vertex_radius", sorted_ranks(pk.vertex_radius),
                   DISC_RTOL, seeded=seeded)
        refs.check(f"{name}.disc.face_radius",
                   sorted_ranks(pk.face_radius[trunc.bounded_faces]),
                   DISC_RTOL, seeded=seeded)

    def _prescribed(self, ctx, name, seeded, state):
        require("trunc" in state, "no truncation: building it failed")
        trunc = state["trunc"]
        sol = dp.solve_radii(trunc, tol=TOL)
        ctx.counts["packing.newton_steps"] += sol.iterations
        check_radii(sol, trunc)
        ctx.refs.check(f"{name}.prescribed.vertex_radius",
                       sorted_ranks(sol.vertex_radius), PRESCRIBED_RTOL, seeded=seeded)
        ctx.refs.check(f"{name}.prescribed.face_radius",
                       sorted_ranks(sol.face_radius[trunc.bounded_faces]),
                       PRESCRIBED_RTOL, seeded=seeded)


# ---------------------------------------------------------------------------
# field_transfer
# ---------------------------------------------------------------------------

class _Packed:
    """A packed instance with a rotation-invariant angular frame: boundary
    data are functions of the angle measured from the root's first
    neighbour."""

    def __init__(self, name, trunc):
        self.name = name
        self.trunc = trunc
        self.error = None
        try:
            self.pk = _pack(trunc)
        except Exception as exc:  # then every job on this instance fails
            self.pk = None
            self.error = f"{name} did not pack in set-up: {type(exc).__name__}: {exc}"
            return
        z = self.pk.vertex_center
        first = int(trunc.graph.neighbors(trunc.root)[0])
        self.frame = float(np.angle(z[first] - z[trunc.root]))
        self.theta = np.angle(z[trunc.boundary]) - self.frame
        # the walks sample this fixed function; it is solved here so the
        # walk jobs do no solves
        bv = np.cos(self.theta)
        self.walk_phi = dp.solve_dirichlet(trunc, bv).values
        check_harmonic(trunc, self.walk_phi, bv)

    def require_packed(self):
        require(self.pk is not None, self.error)


class FieldTransfer:
    """Many boundary fields, pullbacks, capacities and walks on two packed
    instances."""

    n_fields = 6
    n_harnack = 6
    n_targets = 4
    n_walks = 2
    walk_samples = 2000

    def __init__(self, smoke):
        self.radius = 3 if smoke else 5
        self.grid = 7 if smoke else 21

    def setup(self, ctx):
        self.instances = [_Packed(f"ball{self.radius}", _ball(self.radius)),
                          _Packed(f"grid{self.grid}", _grid(self.grid))]

    def run_pass(self, ctx, index):
        rng = ctx.rng(1, index)
        for inst in self.instances:
            name, interior = inst.name, inst.trunc.interior
            for i in range(self.n_fields):
                coef = _random_coef(rng)
                ctx.run(f"{name}.field", lambda: self._field(ctx, inst, coef, i))
            coefs = [_random_coef(rng) for _ in range(self.n_harnack)]
            fit_seed = int(rng.integers(2 ** 31))
            ctx.run(f"{name}.harnack", lambda: self._harnack(inst, coefs, fit_seed))
            seen = set()
            for j in range(self.n_targets):
                target = None
                while target is None or target in seen:
                    size = int(rng.integers(1, 7))
                    target = tuple(sorted(rng.choice(interior, size, replace=False).tolist()))
                seen.add(target)
                ctx.run(f"{name}.capacity", lambda: self._capacity(ctx, inst, target, j))
            for _ in range(self.n_walks):
                v = int(rng.choice(interior))
                walk_seed = int(rng.integers(2 ** 31))
                ctx.run(f"{name}.walk", lambda: self._walk(ctx, inst, v, walk_seed))

    def _field(self, ctx, inst, coef, i):
        inst.require_packed()
        bv = _trig(inst.theta, coef)
        h = dp.solve_dirichlet(inst.trunc, bv)
        check_harmonic(inst.trunc, h.values, bv)
        rep = dp.roundtrip(inst.trunc, inst.pk, h)
        res = rep.roundtrip_residual
        require(math.isfinite(res) and res <= 0.25, f"roundtrip residual {res!r}")
        for ratio in (rep.energy_ratio_A, rep.energy_ratio_R):
            require(math.isfinite(ratio) and ratio > 0, f"energy ratio {ratio!r}")
        ctx.refs.check(f"{inst.name}.roundtrip[{i}]", float(res), PACKED_RTOL,
                       seeded=True)

    def _harnack(self, inst, coefs, fit_seed):
        inst.require_packed()
        trunc, pk = inst.trunc, inst.pk
        samples = []
        for coef in coefs:
            field = _rotated_field(coef, inst.frame)
            s = dp.disc_operator(trunc, pk, field).values
            check_harmonic(trunc, s, field.evaluate(pk.vertex_center[trunc.boundary]))
            samples.append(s)
        # the sampling of acceptance criterion 09, which asserts a positive
        # exponent; with the CLI's 40 balls the fit on the r=5 ball can see
        # pairs from one narrow distance band only and return a negative one
        fit = dp.harnack_fit(trunc, pk, samples, alpha=0.5, seed=fit_seed,
                             n_balls=80, pairs_per_ball=80)
        require(fit.fitted and math.isfinite(fit.beta_hat) and fit.beta_hat > 0,
                f"Harnack fit failed: beta {fit.beta_hat!r}")

    def _capacity(self, ctx, inst, target, j):
        inst.require_packed()
        value = dp.capacity(inst.trunc, list(target)).value
        escape = dp.escape_capacity(inst.trunc, list(target))
        if ctx.take_perturbation():
            escape *= 1 + 1e-6
        require(value > 0, "capacity is not positive")
        close("escape capacity", escape, value, 1e-8)
        ctx.refs.check(f"{inst.name}.capacity[{j}]", float(value), EXACT_RTOL,
                       seeded=True)

    def _walk(self, ctx, inst, v, walk_seed):
        inst.require_packed()
        mean, stderr = dp.walk_limit_estimate(inst.trunc, inst.walk_phi, v,
                                              self.walk_samples, seed=walk_seed)
        ctx.counts["potential.walk_samples"] += self.walk_samples
        exact = inst.walk_phi[v]
        # six standard errors: a false alarm about once in 5e8 walks
        require(stderr > 0 and abs(mean - exact) <= 6 * stderr,
                f"walk mean {mean:.5f} +- {stderr:.5f} vs harmonic {exact:.5f}")


# ---------------------------------------------------------------------------
# disc_capacity
# ---------------------------------------------------------------------------

class DiscCapacity:
    """Lattice capacities at the CLI default spacing and the Douglas form."""

    def __init__(self, smoke):
        self.radius = 3 if smoke else 4
        self.h = 1.0 / 64 if smoke else 1.0 / 256
        self.n_theta = 2048 if smoke else 8192

    def setup(self, ctx):
        self.packed = _Packed(f"ball{self.radius}", _ball(self.radius))
        t = self.trunc = self.packed.trunc
        self.pk = self.packed.pk
        # vertices within two steps of the root keep their shrunk discs well
        # clear of the unit circle at every spacing used here
        self.near_root = t.interior[t.dist_from_root[t.interior] <= 2]

    def run_pass(self, ctx, index):
        rng = ctx.rng(2, index)
        size = int(rng.integers(1, 4))
        target = np.sort(rng.choice(self.near_root, size, replace=False)).tolist()
        ctx.run("capacity_comparison", lambda: self._comparison(ctx, target))
        discs = []
        for _ in range(3):
            center = cmath.rect(0.6 * math.sqrt(rng.random()), 2 * math.pi * rng.random())
            discs.append((center, float(rng.uniform(0.04, 0.1))))
        ctx.run("grid_capacity.union", lambda: self._union(ctx, discs))
        r0 = float(rng.uniform(0.2, 0.3))
        ctx.run("grid_capacity.centered", lambda: self._centered(ctx, r0))
        for k in range(1, 6):
            ctx.run("douglas_energy", lambda: self._douglas(ctx, k))

    def _comparison(self, ctx, target):
        self.packed.require_packed()
        t, pk = self.trunc, self.pk
        discrete, cont, ratio = dp.capacity_comparison(t, pk, target, grid_h=self.h)
        discs = [(pk.vertex_center[v], 0.5 * pk.vertex_radius[v]) for v in target]
        ctx.counts["continuum.grid_unknowns"] += grid_unknowns(discs, self.h)
        close("escape capacity", dp.escape_capacity(t, target), discrete, 1e-8)
        check_union_capacity(cont, discs)
        require(ratio == cont / discrete, "capacity ratio is not continuum/discrete")
        ctx.refs.check("comparison.discrete", float(discrete), EXACT_RTOL, seeded=True)
        ctx.refs.check("comparison.continuum", float(cont), PACKED_RTOL, seeded=True)

    def _union(self, ctx, discs):
        value = dp.grid_capacity(discs, self.h)
        ctx.counts["continuum.grid_unknowns"] += grid_unknowns(discs, self.h)
        check_union_capacity(value, discs)
        ctx.refs.check("union", float(value), EXACT_RTOL, seeded=True)

    def _centered(self, ctx, r0):
        value = dp.grid_capacity([(0j, r0)], self.h)
        ctx.counts["continuum.grid_unknowns"] += grid_unknowns([(0j, r0)], self.h)
        close(f"centered disc r={r0:.4f}", value, disc_capacity_exact(0j, r0), 0.05)
        ctx.refs.check("centered", float(value), EXACT_RTOL, seeded=True)

    def _douglas(self, ctx, k):
        trace = dp.BoundaryFunction(func=lambda th: np.cos(k * th))
        value = dp.douglas_energy(trace, self.n_theta)
        if ctx.take_perturbation():
            value += 1e-3
        close(f"Douglas energy of cos {k}t", value, k * math.pi, 1e-6)
        ctx.refs.check(f"douglas.k{k}", float(value), EXACT_RTOL)


# ---------------------------------------------------------------------------
# map_build
# ---------------------------------------------------------------------------

class MapBuild:
    """Generators, truncations, faces, duals and the polyhedrality check."""

    def __init__(self, smoke):
        self.tilings = ((7, 3, 4), (5, 4, 3), (4, 5, 3)) if smoke else \
            ((7, 3, 7), (5, 4, 5), (4, 5, 5))
        self.grid = 7 if smoke else 41
        self.cut = 3 if smoke else 6
        self.poly_radius = 3 if smoke else 5

    def setup(self, ctx):
        # the r=5 ball is the one input here that gets past is_polyhedral's
        # cheap early exits; the others have vertices of degree below 3
        self.ball_graph = _ball(self.poly_radius).graph

    def run_pass(self, ctx, index):
        state = {}
        for p, q, layers in self.tilings:
            name = f"tiling{p}{q}"
            ctx.run(name, lambda: self._structure(
                ctx, name, dp.generate_tiling(p, q, layers), q, state))
        name = f"grid{self.grid}"
        ctx.run(name, lambda: self._structure(
            ctx, name, dp.generate_grid(self.grid, self.grid), 4, state))
        ctx.run("truncate", lambda: self._truncate(ctx, state))
        ctx.run("boundary_truncation", lambda: self._boundary_truncation(ctx, state))
        ctx.run("is_polyhedral", lambda: self._polyhedral(state))

    def _structure(self, ctx, name, pmap, q, state):
        state[name] = pmap
        faces = dp.trace_faces(pmap)
        chi = dp.euler_characteristic(pmap, faces)
        dual = dp.dual_map(pmap, faces)
        ctx.counts["maps.n_darts"] += pmap.n_darts + dual.n_darts
        if ctx.take_perturbation():
            chi += 1
        require(chi == 2, f"Euler characteristic {chi} != 2")
        check_planar(pmap, faces.n_faces)
        require(dual.n_vertices == faces.n_faces and dual.n_edges == pmap.n_edges,
                "dual map does not swap faces and vertices")
        require(dp.euler_characteristic(dual) == 2, "dual is not planar")
        bounded = np.sort(faces.degrees)[:-1]
        require(np.all(bounded == q), f"a bounded face is not a {q}-gon")
        ctx.refs.check(f"{name}.summary", map_summary(pmap, faces.degrees))

    def _truncate(self, ctx, state):
        p, q, _ = self.tilings[0]
        trunc = dp.truncate(state[f"tiling{p}{q}"], 0, self.cut)
        g = trunc.graph
        ctx.counts["maps.n_darts"] += g.n_darts
        check_planar(g, trunc.faces.n_faces)
        require(trunc.rim_is_boundary, "boundary is not the outer face rim")
        ctx.refs.check("truncate", {"V": g.n_vertices, "E": g.n_edges,
                                    "boundary": int(trunc.boundary.size)})

    def _boundary_truncation(self, ctx, state):
        n = self.grid
        trunc = dp.boundary_truncation(state[f"grid{n}"])
        require(trunc.boundary.size == 4 * (n - 1), "grid rim has the wrong size")
        require(trunc.interior.size == (n - 2) ** 2, "grid interior has the wrong size")
        require(trunc.rim_is_boundary, "boundary is not the outer face rim")

    def _polyhedral(self, state):
        require(dp.is_polyhedral(self.ball_graph),
                "the (7,3) ball is not reported polyhedral")
        # a 3-connected graph has minimum degree >= 3
        for p, q, _ in self.tilings[1:]:
            pmap = state[f"tiling{p}{q}"]
            require(pmap.degrees.min() < 3 and not dp.is_polyhedral(pmap),
                    f"tiling ({p},{q}) reported polyhedral")
        grid = state[f"grid{self.grid}"]
        require(not dp.is_polyhedral(grid), "grid patch reported polyhedral")


WORKLOADS = {"ball_pack": BallPack, "field_transfer": FieldTransfer,
             "disc_capacity": DiscCapacity, "map_build": MapBuild}
