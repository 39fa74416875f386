"""Operators linking vertex functions on a packed map with harmonic fields
on the unit disc.

A vertex function spreads over the carrier as a piecewise-affine interpolant
(one triangle per corner of every bounded face); a disc field pulls back to
the vertices through the embedding.  ``disc_operator`` and ``cont_operator``
compose these with harmonic projection in either direction, and the rest of
the module measures what the finite packing preserves: energy comparability,
roundtrip defect, capacity matching, and an empirical Harnack exponent.
"""

import math
from dataclasses import dataclass

import numpy as np

from .continuum import (BoundaryFunction, HarmonicDiscField, energy_continuous,
                        grid_capacity, poisson_extend)
from .errors import HALF, UNIT, integer, number
from .maps import Truncation
from .packing import DoublePacking
from .potential import (VertexFunction, _coerce, _target_set, capacity, energy,
                        solve_dirichlet)
from .textio import Records

__all__ = [
    "AffineExtension",
    "TransferReport",
    "HarnackFit",
    "extend_affine",
    "energy_of_extension",
    "disc_operator",
    "cont_operator",
    "roundtrip",
    "capacity_comparison",
    "shrunk_discs",
    "harnack_fit",
    "transfer_report_to_json",
    "harnack_to_json",
]

# slack for the point-in-triangle test: probes that sit exactly on a shared
# edge must be accepted from both sides
_BARY_TOL = 1e-9

# Harnack ratios at or below the floor are rounding noise (see harnack_fit)
_RATIO_FLOOR = 1e-9
_MIN_LOG_SPAN = math.log(1.5)


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

    The triangles and their lookup come from ``packing.carrier``, built once
    per packing.  A point is located exactly: the vertex u of least power
    |z - c_u|^2 - r_u^2 is found by one nearest-neighbour query, and only the
    triangles with a corner at c_u can hold the point.  A point in none of
    them is outside the carrier.
    """

    packing: DoublePacking
    vertex_values: np.ndarray
    face_values: np.ndarray          # NaN at the outer face
    tri_nodes: np.ndarray            # (n_tri, 3) complex corners
    tri_values: np.ndarray           # (n_tri, 3) values at the corners

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        flat = pts.ravel()
        out = np.full(flat.size, np.nan)
        carrier = self.packing.carrier
        _, u = carrier.tree.query(np.column_stack(
            [flat.real, flat.imag, np.zeros(flat.size)]))
        pending = np.arange(flat.size)
        for cand in carrier.vertex_triangles[u].T:
            idx = cand[pending]
            lam = _bary(self.tri_nodes[idx], flat[pending])
            ok = (idx >= 0) & (np.min(lam, axis=1) >= -_BARY_TOL)
            out[pending[ok]] = np.sum(lam[ok] * self.tri_values[idx[ok]], axis=1)
            pending = pending[~ok]
        if pending.size:
            raise ValueError(f"{pending.size} evaluation point(s) fall "
                             "outside the triangulated carrier")
        return out.reshape(pts.shape)


def extend_affine(packing: DoublePacking, phi) -> AffineExtension:
    """Spread a vertex function over the carrier of the packing."""
    t = packing.trunc
    g = t.graph
    vals = _coerce(phi, t.n_vertices, what="vertex function")

    sums = np.zeros(t.faces.n_faces)
    np.add.at(sums, t.faces.face_of, vals[g.origin])
    face_vals = sums / t.faces.degrees
    face_vals[t.outer_face] = np.nan

    darts = t.corner_darts
    tri_values = np.stack([vals[g.origin[darts]], vals[g.target[darts]],
                           face_vals[t.faces.face_of[darts]]], axis=1)
    return AffineExtension(packing, vals.copy(), face_vals,
                           packing.carrier.tri_nodes, tri_values)


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


def _check_same_map(trunc: Truncation, packing: DoublePacking):
    mine = packing.trunc
    if not (np.array_equal(mine.graph.offsets, trunc.graph.offsets)
            and np.array_equal(mine.graph.rotation, trunc.graph.rotation)
            and np.array_equal(mine.boundary, trunc.boundary)):
        raise ValueError("packing and truncation describe different maps")


def disc_operator(trunc: Truncation, packing: DoublePacking,
                  field: HarmonicDiscField) -> VertexFunction:
    """Pull a harmonic disc field back through the embedding and keep the
    harmonic part: the conductance-harmonic extension of its values at the
    boundary vertices.

    The field is read at the circle centres: for a harmonic field that is
    the paper's average over each shrunk vertex disc, by the mean-value
    property.  Any other kind of field raises ``TypeError``.
    """
    _check_same_map(trunc, packing)
    if not isinstance(field, HarmonicDiscField):
        raise TypeError(f"cannot evaluate field of type {type(field).__name__}")
    pulled = field.evaluate(packing.vertex_center)
    if not np.all(np.isfinite(pulled)):
        raise ValueError("field is not finite at every vertex center")
    return solve_dirichlet(trunc, pulled[trunc.boundary])


def _resolve_trace_params(trunc, packing, eps_trace, k_max, n_theta):
    reach = (np.abs(packing.vertex_center[trunc.boundary])
             + packing.vertex_radius[trunc.boundary])
    if reach.max() > 1.0 + 1e-6 or reach.min() < 0.9:
        raise ValueError("carrier must fill the unit disc (pack with "
                         "boundary_mode='disc') before tracing")
    if eps_trace is not None:
        eps_trace = number("eps_trace", eps_trace, UNIT)
    else:
        # keep the trace clear of the outermost circle layer
        r_max = float(np.max(packing.vertex_radius[trunc.boundary]))
        eps_trace = 4.0 * r_max
        if eps_trace >= 1.0:
            raise ValueError(
                f"the derived eps_trace {eps_trace:.4g} (4 times the largest "
                f"boundary circle radius, {r_max:.4g}) is not below 1; use a "
                "larger truncation radius")
    # by default, keep the per-mode rescaling factor rho^-K within one decade:
    # higher modes carry more interpolation noise than signal once amplified
    k_max = (max(min(math.floor(math.log(10.0) / -math.log1p(-eps_trace)), 64), 1)
             if k_max is None else integer("k_max", k_max, 1))
    amp = (1.0 - eps_trace) ** (-k_max)
    if amp > 1e4:
        raise ValueError(f"recovering mode {k_max} from radius "
                         f"{1.0 - eps_trace:.4f} would amplify trace noise by "
                         f"{amp:.1e}; lower k_max or eps_trace")
    n_theta = (max(256, 4 * k_max) if n_theta is None
               else integer("n_theta", n_theta, 4 * k_max))
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
    vals = _coerce(h, trunc.n_vertices, what="vertex function")
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
    vals = _coerce(h, trunc.n_vertices, what="vertex function")
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
    _check_same_map(trunc, packing)
    discs = shrunk_discs(packing, target, delta)
    est = capacity(trunc, target)
    cont = grid_capacity(discs, grid_h)
    return est.value, cont, cont / est.value if est.value > 0.0 else float("nan")


def shrunk_discs(packing: DoublePacking, target, delta: float) -> list:
    """The discs of the target vertices, interior ones, shrunk by ``delta`` in
    (0, 1/2], as (center, radius) pairs: the target of ``capacity_comparison``."""
    delta = number("delta", delta, HALF)
    return [(packing.vertex_center[v], delta * packing.vertex_radius[v])
            for v in _target_set(packing.trunc, target)]


@dataclass(frozen=True)
class HarnackFit:
    """Least-squares exponent for the oscillation decay of harmonic functions
    at short scaled distances.  ``pairs`` holds (scaled distance, ratio) rows;
    ``fitted`` is False when fewer than two ratios clear the noise floor
    (constant samples, for one) or their distances span less than a factor 1.5."""

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
    its logarithm (about -36 for 1e-16) would set the slope by itself.  Nor
    is there a fit unless the kept scaled distances span a factor of 1.5
    (``_MIN_LOG_SPAN``): one narrow band fixes no slope, and fits through
    one gave exponents from -0.52 to 0.41 for the same fields.

    The samples are stacked into one (samples, vertices) array, so each
    ball's oscillations and ratios come for all samples at once; a ball's
    rows are its pairs for sample 0, then for sample 1, and so on.  The
    generator seeded with ``seed`` is drawn in a fixed order, so the fit is
    bitwise reproducible: the ball centres, then per ball the subsample of
    at most 40 members and the subsample of at most ``pairs_per_ball``
    pairs.  Every ball's pairs come from the one 40-member pair table
    ``triu_indices(40, k=1)``, cut to the pairs within the ball's size: that
    is the pair table of its size, in the same order.
    """
    alpha, seed = number("alpha", alpha, UNIT), integer("seed", seed, 0)
    n_balls = integer("n_balls", n_balls, 1)
    pairs_per_ball = integer("pairs_per_ball", pairs_per_ball, 1)
    sample_vals = [_coerce(h, trunc.n_vertices, what="vertex function") for h in h_samples]
    if not sample_vals:
        raise ValueError("at least one harmonic sample is required")
    _check_same_map(trunc, packing)
    vals = np.stack(sample_vals)
    z = packing.vertex_center
    rng = np.random.default_rng(seed)
    centers = trunc.interior
    if centers.size > n_balls:
        centers = np.sort(rng.choice(centers, size=n_balls, replace=False))

    iu40, iv40 = np.triu_indices(40, k=1)
    xs, ys = [], []
    for w in centers:
        R = 0.9 * (1.0 - abs(z[w]))
        if R <= 0.0:
            continue
        members = np.flatnonzero(np.abs(z - z[w]) <= R)
        if members.size < 2:
            continue
        ball = vals[:, members]
        osc = ball.max(axis=1) - ball.min(axis=1)
        sub = members
        if sub.size > 40:
            sub = np.sort(rng.choice(sub, size=40, replace=False))
        keep = iv40 < sub.size
        iu, iv = iu40[keep], iv40[keep]
        d = np.abs(z[sub[iu]] - z[sub[iv]])
        keep = (d > 0.0) & (d <= alpha * R)
        iu, iv, d = iu[keep], iv[keep], d[keep]
        if d.size > pairs_per_ball:
            pick = np.sort(rng.choice(d.size, size=pairs_per_ball, replace=False))
            iu, iv, d = iu[pick], iv[pick], d[pick]
        ratio = np.zeros((osc.size, d.size))
        np.divide(np.abs(vals[:, sub[iu]] - vals[:, sub[iv]]), osc[:, None],
                  out=ratio, where=osc[:, None] > 0.0)
        xs.append(np.broadcast_to(d / R, ratio.shape).ravel())
        ys.append(ratio.ravel())

    x = np.concatenate(xs) if xs else np.empty(0)
    y = np.concatenate(ys) if ys else np.empty(0)
    if x.size < 8:
        raise ValueError("too few admissible vertex pairs inside the sample "
                         "balls for a fit")
    pairs = np.column_stack([x, y])
    pos = (x > 0.0) & (y > _RATIO_FLOOR)
    if int(pos.sum()) < 2 or math.log(x[pos].max() / x[pos].min()) < _MIN_LOG_SPAN:
        return HarnackFit(0.0, 0.0, False, pairs, alpha)
    slope, intercept = np.polyfit(np.log(x[pos]), np.log(y[pos]), 1)
    return HarnackFit(float(slope), float(math.exp(intercept)), True, pairs, alpha)


def transfer_report_to_json(report: TransferReport) -> dict:
    return {"energy_ratio_A": float(report.energy_ratio_A),
            "energy_ratio_R": float(report.energy_ratio_R),
            "roundtrip_residual": float(report.roundtrip_residual),
            "asymptotic_gap": float(report.asymptotic_gap),
            "params": dict(report.params)}


def harnack_to_json(fit: HarnackFit) -> dict:
    """The fit as a JSON document; its ``pairs`` are ``textio.Records`` of
    ``[distance, ratio]`` held as the two columns of ``fit.pairs``, which
    ``textio.json_text`` writes."""
    return {"beta_hat": float(fit.beta_hat),
            "C_hat": float(fit.C_hat),
            "fitted": bool(fit.fitted),
            "alpha": float(fit.alpha),
            "n_pairs": int(fit.pairs.shape[0]),
            "pairs": Records([fit.pairs[:, 0], fit.pairs[:, 1]])}
