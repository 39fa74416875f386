"""Operators linking vertex functions on a packed map with harmonic fields
on the unit disc.

A vertex function spreads over the carrier as a piecewise-affine interpolant
(one triangle per corner of every bounded face); a disc field pulls back to
the vertices through the embedding.  ``disc_operator`` and ``cont_operator``
compose these with harmonic projection in either direction, and the rest of
the module measures what the finite packing preserves: energy comparability,
roundtrip defect, capacity matching, interpolant continuity, and an empirical
Harnack exponent.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .continuum import (BoundaryFunction, GridDiscField, HarmonicDiscField,
                        energy_continuous, grid_capacity, poisson_extend)
from .maps import Truncation
from .packing import DoublePacking, compute_delta0
from .potential import (VertexFunction, _coerce, capacity, energy,
                        royden_project)

__all__ = [
    "AffineExtension",
    "TransferReport",
    "ContinuityCheck",
    "HarnackFit",
    "extend_affine",
    "disc_average",
    "energy_of_extension",
    "disc_operator",
    "cont_operator",
    "roundtrip",
    "capacity_comparison",
    "continuity_bound_check",
    "harnack_fit",
    "transfer_report_to_json",
    "harnack_to_json",
]

# slack for the point-in-triangle test: probes that sit exactly on a shared
# edge must be accepted from both sides
_BARY_TOL = 1e-9

# Harnack ratios at or below this are rounding noise (see harnack_fit)
_RATIO_FLOOR = 1e-9


def _vertex_values(trunc: Truncation, phi) -> np.ndarray:
    return _coerce(phi, trunc.n_vertices, what="vertex function")


def _evaluate(field, z) -> np.ndarray:
    if isinstance(field, HarmonicDiscField):
        return field.evaluate(z)
    if callable(field):
        return np.asarray(field(z), dtype=float)
    raise TypeError(f"cannot evaluate field of type {type(field).__name__}")


def _bary(tri: np.ndarray, pts) -> np.ndarray:
    """Barycentric coordinates of ``pts`` with respect to triangles ``tri``
    (shape (m, 3), complex corners)."""
    a = tri[:, 0]
    v0 = tri[:, 1] - a
    v1 = tri[:, 2] - a
    v2 = pts - a
    det = v0.real * v1.imag - v0.imag * v1.real
    l1 = (v2.real * v1.imag - v2.imag * v1.real) / det
    l2 = (v0.real * v2.imag - v0.imag * v2.real) / det
    return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


@dataclass
class AffineExtension:
    """Piecewise-affine interpolant of a vertex function over the carrier.

    Nodes are the vertex centers plus one node per bounded face carrying the
    mean of the incident vertex values; every corner dart contributes the
    triangle (origin center, target center, face center).  Evaluation inside
    a triangle is the affine interpolant of its three node values, which
    agrees across shared edges because the shared nodes do.
    """

    packing: DoublePacking
    vertex_values: np.ndarray
    face_values: np.ndarray          # NaN at the outer face
    tri_nodes: np.ndarray            # (n_tri, 3) complex corners
    tri_values: np.ndarray           # (n_tri, 3) values at the corners
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        flat = pts.ravel()
        out = np.full(flat.size, np.nan)
        if flat.size == 0:
            return out.reshape(pts.shape)
        if self._tree is None:
            cent = self.tri_nodes.mean(axis=1)
            self._tree = cKDTree(np.column_stack([cent.real, cent.imag]))
        k = min(12, self.tri_nodes.shape[0])
        _, cand = self._tree.query(np.column_stack([flat.real, flat.imag]), k=k)
        cand = cand.reshape(flat.size, k)
        pending = np.arange(flat.size)
        for j in range(k):
            idx = cand[pending, j]
            lam = _bary(self.tri_nodes[idx], flat[pending])
            ok = np.min(lam, axis=1) >= -_BARY_TOL
            hit = pending[ok]
            out[hit] = np.sum(lam[ok] * self.tri_values[idx[ok]], axis=1)
            pending = pending[~ok]
            if pending.size == 0:
                break
        if pending.size:
            # nearest centroids missed; scan every triangle before giving up
            missing = []
            for i in pending:
                lam = _bary(self.tri_nodes, flat[i])
                ok = np.flatnonzero(np.min(lam, axis=1) >= -_BARY_TOL)
                if ok.size:
                    out[i] = float(np.dot(lam[ok[0]], self.tri_values[ok[0]]))
                else:
                    missing.append(int(i))
            if missing:
                raise ValueError(f"{len(missing)} evaluation point(s) fall "
                                 "outside the triangulated carrier")
        return out.reshape(pts.shape)


def extend_affine(packing: DoublePacking, phi) -> AffineExtension:
    """Spread a vertex function over the carrier of the packing."""
    t = packing.trunc
    g = t.graph
    vals = _vertex_values(t, phi)

    sums = np.zeros(t.faces.n_faces)
    np.add.at(sums, t.faces.face_of, vals[g.origin])
    face_vals = sums / t.faces.degrees
    face_vals[t.outer_face] = np.nan

    darts = t.corner_darts
    f = t.faces.face_of[darts]
    tri_nodes = np.stack([packing.vertex_center[g.origin[darts]],
                          packing.vertex_center[g.target[darts]],
                          packing.face_center[f]], axis=1)
    tri_values = np.stack([vals[g.origin[darts]], vals[g.target[darts]],
                           face_vals[f]], axis=1)

    e1 = tri_nodes[:, 1] - tri_nodes[:, 0]
    e2 = tri_nodes[:, 2] - tri_nodes[:, 0]
    det = np.abs(e1.real * e2.imag - e1.imag * e2.real)
    if det.max() == 0.0 or det.min() <= 1e-12 * det.max():
        raise ValueError("degenerate triangle in the carrier; "
                         "the layout is inconsistent")
    return AffineExtension(packing, vals.copy(), face_vals, tri_nodes, tri_values)


def energy_of_extension(packing: DoublePacking, phi) -> float:
    """Dirichlet energy of the piecewise-affine extension, summed in closed
    form triangle by triangle."""
    ext = phi if isinstance(phi, AffineExtension) else extend_affine(packing, phi)
    tri, val = ext.tri_nodes, ext.tri_values
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    u1 = val[:, 1] - val[:, 0]
    u2 = val[:, 2] - val[:, 0]
    det = e1.real * e2.imag - e1.imag * e2.real
    gx = (u1 * e2.imag - u2 * e1.imag) / det
    gy = (u2 * e1.real - u1 * e2.real) / det
    return float(0.5 * np.sum((gx * gx + gy * gy) * np.abs(det)))


def disc_average(packing: DoublePacking, field, v: int, delta: float | None = None,
                 n_r: int = 24, n_theta: int = 64) -> float:
    """Mean of a disc field over the shrunk disc around vertex ``v``.

    ``delta`` defaults to the packing's shrinkage level delta0 (computed and
    cached on first use).  For harmonic fields the result reproduces the
    field value at the center, so this is mostly a check and a fallback for
    fields that are not harmonic.
    """
    if isinstance(field, GridDiscField):
        raise TypeError("grid fields cannot be point-evaluated; pass a "
                        "harmonic field or a callable")
    v = int(v)
    if not 0 <= v < packing.trunc.n_vertices:
        raise ValueError(f"vertex {v} is not in the truncation")
    if delta is None:
        if packing.delta0 is None:
            packing.delta0 = compute_delta0(packing)
        delta = packing.delta0
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    center = packing.vertex_center[v]
    rho = delta * packing.vertex_radius[v]
    if isinstance(field, HarmonicDiscField) and abs(center) + rho > 1.0 + 1e-12:
        raise ValueError("averaging disc escapes the field's domain "
                         "(the open unit disc)")

    # Gauss-Legendre in r, uniform in theta; the r weight absorbs the area
    # element so polynomials integrate exactly
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * rho * (x + 1.0)
    wr = 0.5 * rho * w
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    vals = _evaluate(field, center + r[:, None] * np.exp(1j * theta)[None, :])
    integral = float(np.sum(vals * (r * wr)[:, None])) * (2.0 * np.pi / n_theta)
    return integral / (np.pi * rho * rho)


def _check_same_map(trunc: Truncation, packing: DoublePacking):
    if packing.trunc.n_vertices != trunc.n_vertices:
        raise ValueError("packing and truncation describe different maps")


def disc_operator(trunc: Truncation, packing: DoublePacking, field) -> VertexFunction:
    """Pull a disc field back through the embedding and keep the harmonic
    part (boundary values are retained exactly)."""
    _check_same_map(trunc, packing)
    pulled = _evaluate(field, packing.vertex_center)
    if not np.all(np.isfinite(pulled)):
        raise ValueError("field is not finite at every vertex center")
    return royden_project(trunc, pulled).harmonic_part


def _resolve_trace_params(trunc, packing, eps_trace, k_max, n_theta):
    reach = (np.abs(packing.vertex_center[trunc.boundary])
             + packing.vertex_radius[trunc.boundary])
    if reach.max() > 1.0 + 1e-6 or reach.min() < 0.9:
        raise ValueError("carrier must fill the unit disc (pack with "
                         "boundary_mode='disc') before tracing")
    if eps_trace is None:
        # keep the trace clear of the outermost circle layer
        eps_trace = 4.0 * float(np.max(packing.vertex_radius[trunc.boundary]))
    eps_trace = float(eps_trace)
    if not 0.0 < eps_trace < 1.0:
        raise ValueError("eps_trace must lie strictly between 0 and 1")
    if k_max is None:
        # keep the per-mode rescaling factor rho^-K within one decade: higher
        # modes carry more interpolation noise than signal once amplified
        k_max = min(math.floor(math.log(10.0) / -math.log1p(-eps_trace)), 64)
        k_max = max(int(k_max), 1)
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("k_max must be positive")
    amp = (1.0 - eps_trace) ** (-k_max)
    if amp > 1e4:
        raise ValueError(f"recovering mode {k_max} from radius "
                         f"{1.0 - eps_trace:.4f} would amplify trace noise by "
                         f"{amp:.1e}; lower k_max or eps_trace")
    if n_theta is None:
        n_theta = max(256, 4 * k_max)
    n_theta = int(n_theta)
    if n_theta < 4 * k_max:
        raise ValueError("n_theta must be at least 4*k_max")
    return eps_trace, k_max, n_theta


def cont_operator(trunc: Truncation, packing: DoublePacking, h,
                  eps_trace: float | None = None, k_max: int | None = None,
                  n_theta: int | None = None) -> HarmonicDiscField:
    """Turn a vertex function into a harmonic disc field.

    The affine extension is traced on the circle of radius 1 - eps_trace
    (inside the carrier, clear of the unreliable boundary layer), expanded in
    Fourier modes, and each mode is rescaled to the unit circle.  The default
    eps_trace is twice the thickness of the outermost circle layer.
    """
    _check_same_map(trunc, packing)
    vals = _vertex_values(trunc, h)
    params = _resolve_trace_params(trunc, packing, eps_trace, k_max, n_theta)
    return _trace_field(extend_affine(packing, vals), *params)


def _trace_field(ext: AffineExtension, eps_trace: float, k_max: int,
                 n_theta: int) -> HarmonicDiscField:
    """The harmonic disc field of ``cont_operator`` from a built extension
    and resolved trace parameters."""
    rho = 1.0 - eps_trace
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    try:
        trace = ext.evaluate(rho * np.exp(1j * theta))
    except ValueError as exc:
        raise ValueError(f"trace circle of radius {rho:.4f} exits the "
                         "carrier; increase eps_trace") from exc
    base = poisson_extend(BoundaryFunction(samples=trace), k_max)
    k = np.arange(1, k_max + 1)
    scale = rho ** k.astype(float)
    return HarmonicDiscField(base.a0, base.a / scale, base.b / scale)


@dataclass(frozen=True)
class TransferReport:
    """Comparability and roundtrip diagnostics for one vertex function."""

    energy_ratio_A: float        # extension energy / discrete energy
    energy_ratio_R: float        # pullback energy / continuous energy
    roundtrip_residual: float
    asymptotic_gap: float
    params: dict


def roundtrip(trunc: Truncation, packing: DoublePacking, h,
              eps_trace: float | None = None, k_max: int | None = None,
              n_theta: int | None = None) -> TransferReport:
    """Push a vertex function to the disc and pull it back.

    The residual is the relative energy norm of h - pullback; the asymptotic
    gap compares h with the field itself on the outermost interior layer,
    where the two are expected to agree best.
    """
    _check_same_map(trunc, packing)
    vals = _vertex_values(trunc, h)
    eps_trace, k_max, n_theta = _resolve_trace_params(
        trunc, packing, eps_trace, k_max, n_theta)
    ext = extend_affine(packing, vals)
    H = _trace_field(ext, eps_trace, k_max, n_theta)
    back = disc_operator(trunc, packing, H).values

    e_h = energy(trunc.graph, vals)
    if e_h > 0.0:
        residual = math.sqrt(energy(trunc.graph, vals - back) / e_h)
        ratio_a = energy_of_extension(packing, ext) / e_h
    else:
        residual = 0.0
        ratio_a = float("nan")
    e_cont = energy_continuous(H)
    ratio_r = energy(trunc.graph, back) / e_cont if e_cont > 0.0 else float("nan")

    d = trunc.dist_from_root[trunc.interior]
    layer = trunc.interior[d == d.max()]
    gap = float(np.max(np.abs(vals[layer]
                              - H.evaluate(packing.vertex_center[layer]))))
    return TransferReport(ratio_a, ratio_r, residual, gap,
                          {"eps_trace": eps_trace, "k_max": k_max,
                           "n_theta": n_theta})


def capacity_comparison(trunc: Truncation, packing: DoublePacking, target,
                        delta: float = 0.5, grid_h: float = 1.0 / 256):
    """Discrete capacity of a vertex set against the continuum capacity of
    the union of its shrunk discs.  Returns (discrete, continuum, ratio)."""
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    _check_same_map(trunc, packing)
    est = capacity(trunc, target)
    vs = np.unique(np.asarray(target, dtype=np.int64)) if len(target) else []
    discs = [(packing.vertex_center[v], delta * packing.vertex_radius[v])
             for v in vs]
    cont = grid_capacity(discs, grid_h)
    ratio = cont / est.value if est.value > 0.0 else float("nan")
    return est.value, cont, ratio


@dataclass(frozen=True)
class ContinuityCheck:
    worst_slack: float           # max deviation minus the bound; <= 0 is good
    max_deviation: float
    bound: float


def continuity_bound_check(packing: DoublePacking, phi, delta: float,
                           n_rings: int = 3, n_angles: int = 8) -> ContinuityCheck:
    """Probe the extension inside each interior vertex's delta-disc against
    the bound delta * (largest oscillation of phi over a single face)."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    t = packing.trunc
    g = t.graph
    vals = _vertex_values(t, phi)

    nf = t.faces.n_faces
    fmax = np.full(nf, -np.inf)
    fmin = np.full(nf, np.inf)
    np.maximum.at(fmax, t.faces.face_of, vals[g.origin])
    np.minimum.at(fmin, t.faces.face_of, vals[g.origin])
    bound = delta * float(np.max(fmax - fmin))

    ext = extend_affine(packing, vals)
    fractions = delta * np.arange(1, n_rings + 1) / n_rings
    rays = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    offsets = np.concatenate([[0j], np.outer(fractions, rays).ravel()])
    centers = packing.vertex_center[t.interior]
    radii = packing.vertex_radius[t.interior]
    probes = centers[:, None] + radii[:, None] * offsets[None, :]
    dev = np.abs(ext.evaluate(probes) - vals[t.interior, None])
    max_dev = float(dev.max())
    return ContinuityCheck(max_dev - bound, max_dev, bound)


@dataclass(frozen=True)
class HarnackFit:
    """Least-squares exponent for the oscillation decay of harmonic functions
    at short scaled distances.  ``pairs`` holds (scaled distance, ratio) rows;
    ``fitted`` is False when fewer than two ratios clear the noise floor
    (constant samples, for one)."""

    beta_hat: float
    C_hat: float
    fitted: bool
    pairs: np.ndarray
    alpha: float


def harnack_fit(trunc: Truncation, packing: DoublePacking, h_samples,
                alpha: float, seed: int = 0, n_balls: int = 40,
                pairs_per_ball: int = 60) -> HarnackFit:
    """Fit ratio ~ C * (scaled distance)^beta over vertex pairs in random
    interior balls, a ratio being a sample's difference over its oscillation
    in the ball.  Ratios at or below 1e-9 are left out: the samples come from
    solves good to about 1e-10, so such a ratio is zero up to rounding, and
    its logarithm (about -36 for 1e-16) would set the slope by itself.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    sample_vals = [_vertex_values(trunc, h) for h in h_samples]
    if not sample_vals:
        raise ValueError("at least one harmonic sample is required")
    _check_same_map(trunc, packing)
    z = packing.vertex_center
    rng = np.random.default_rng(seed)
    centers = trunc.interior
    if centers.size > n_balls:
        centers = np.sort(rng.choice(centers, size=n_balls, replace=False))

    xs, ys = [], []
    for w in centers:
        R = 0.9 * (1.0 - abs(z[w]))
        if R <= 0.0:
            continue
        members = np.flatnonzero(np.abs(z - z[w]) <= R)
        if members.size < 2:
            continue
        oscs = [float(vals[members].max() - vals[members].min())
                for vals in sample_vals]
        sub = members
        if sub.size > 40:
            sub = np.sort(rng.choice(sub, size=40, replace=False))
        iu, iv = np.triu_indices(sub.size, k=1)
        d = np.abs(z[sub[iu]] - z[sub[iv]])
        keep = (d > 0.0) & (d <= alpha * R)
        iu, iv, d = iu[keep], iv[keep], d[keep]
        if d.size > pairs_per_ball:
            pick = np.sort(rng.choice(d.size, size=pairs_per_ball, replace=False))
            iu, iv, d = iu[pick], iv[pick], d[pick]
        for vals, osc in zip(sample_vals, oscs):
            if osc > 0.0:
                ratio = np.abs(vals[sub[iu]] - vals[sub[iv]]) / osc
            else:
                ratio = np.zeros(d.size)
            xs.append(d / R)
            ys.append(ratio)

    x = np.concatenate(xs) if xs else np.empty(0)
    y = np.concatenate(ys) if ys else np.empty(0)
    if x.size < 8:
        raise ValueError("too few admissible vertex pairs inside the sample "
                         "balls for a fit")
    pairs = np.column_stack([x, y])
    pos = (x > 0.0) & (y > _RATIO_FLOOR)
    if int(pos.sum()) < 2:
        return HarnackFit(0.0, 0.0, False, pairs, float(alpha))
    slope, intercept = np.polyfit(np.log(x[pos]), np.log(y[pos]), 1)
    return HarnackFit(float(slope), float(math.exp(intercept)), True, pairs,
                      float(alpha))


def transfer_report_to_json(report: TransferReport) -> dict:
    return {"energy_ratio_A": float(report.energy_ratio_A),
            "energy_ratio_R": float(report.energy_ratio_R),
            "roundtrip_residual": float(report.roundtrip_residual),
            "asymptotic_gap": float(report.asymptotic_gap),
            "params": dict(report.params)}


def harnack_to_json(fit: HarnackFit) -> dict:
    return {"beta_hat": float(fit.beta_hat),
            "C_hat": float(fit.C_hat),
            "fitted": bool(fit.fitted),
            "alpha": float(fit.alpha),
            "n_pairs": int(fit.pairs.shape[0]),
            "pairs": [[float(a), float(b)] for a, b in fit.pairs]}
