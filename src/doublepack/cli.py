"""Command-line entry point.

Subcommands build a map (from a file or a generator), pack it, run one of the
analyses, and write artifacts to the output directory (``--out`` or the
``DOUBLEPACK_OUT`` environment variable).  Every JSON report embeds its fully
resolved configuration, and a fixed seed makes reruns byte-identical, so the
artifacts double as provenance.

Exit codes: 0 ok, 2 bad configuration, 3 solver non-convergence, 4 file I/O,
5 violated invariant.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import transfer
from .continuum import (BoundaryFunction, HarmonicDiscField, douglas_energy,
                        energy_continuous, load_boundary_csv, poisson_extend)
from .errors import ConfigError, ConvergenceError, InvariantViolation
from .maps import boundary_truncation, load_map_json, truncate
from .packing import geometry_report, layout, packing_to_json, solve_radii
from .potential import capacity, capacity_to_json, solve_dirichlet
from .render import packing_to_svg
from .tilings import generate_grid, generate_tiling

__all__ = ["RunConfig", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: what to build, which analysis, where to
    write.  Serialized verbatim into every report."""

    command: str
    out_dir: str
    map_file: str | None = None
    tiling: tuple[int, int] | None = None
    grid: tuple[int, int] | None = None
    layers: int = 3
    root: int = 0
    radius: int | None = None
    radii: tuple[int, int] | None = None
    boundary_mode: str = "disc"
    pack_tol: float = 1e-10
    grid_h: float = 1.0 / 256
    n_theta: int | None = None
    k_max: int | None = None
    eps_trace: float | None = None
    delta: float = 0.5
    alpha: float = 0.5
    target: tuple[int, ...] = ()
    n_fields: int = 6
    n_balls: int = 40
    pairs_per_ball: int = 60
    seed: int = 0
    svg_size: int = 720
    boundary_csv: str | None = None
    points: str | None = None

    def validate(self):
        positive = {"pack_tol": self.pack_tol, "grid_h": self.grid_h,
                    "svg_size": self.svg_size}
        for name in ("n_theta", "k_max", "eps_trace"):
            if getattr(self, name) is not None:
                positive[name] = getattr(self, name)
        for name, value in positive.items():
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly between 0 and 1")
        if self.delta <= 0.0:
            raise ConfigError("delta must be positive")
        if self.boundary_mode not in ("disc", "prescribed"):
            raise ConfigError(f"unknown boundary mode {self.boundary_mode!r}")
        if self.radii is not None and not 1 <= self.radii[0] <= self.radii[1]:
            raise ConfigError(f"bad radius sweep {self.radii}")


def _config_dict(cfg: RunConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    for key, value in doc.items():
        if isinstance(value, tuple):
            doc[key] = list(value)
    return doc


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header, rows) -> Path:
    """A header line and one line per row, floats in ``repr`` form."""
    cell = lambda v: repr(float(v)) if isinstance(v, float) else str(v)
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# map sources
# ---------------------------------------------------------------------------

def _parse_pair(text: str, sep: str, what: str) -> tuple[int, int]:
    parts = text.split(sep)
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        nums = []
    if len(nums) == 1 and sep in ("x", ":"):
        nums = nums * 2
    if len(nums) != 2:
        raise ConfigError(f"cannot parse {what} {text!r}")
    return nums[0], nums[1]


def _parent_map(cfg: RunConfig, depth: int):
    if cfg.map_file is not None:
        return load_map_json(cfg.map_file)
    if cfg.tiling is not None:
        p, q = cfg.tiling
        return generate_tiling(p, q, depth)
    nx, ny = cfg.grid
    return generate_grid(nx, ny)


def _build_truncation(cfg: RunConfig):
    if cfg.grid is not None:
        return boundary_truncation(_parent_map(cfg, 0))
    if cfg.tiling is not None:
        return truncate(_parent_map(cfg, cfg.layers + 1), cfg.root, cfg.layers)
    if cfg.radius is not None:
        return truncate(_parent_map(cfg, 0), cfg.root, cfg.radius)
    return boundary_truncation(_parent_map(cfg, 0))


def _pack(cfg: RunConfig, mode: str | None = None):
    trunc = _build_truncation(cfg)
    sol = solve_radii(trunc, boundary_mode=mode or cfg.boundary_mode,
                      tol=cfg.pack_tol)
    return trunc, sol, layout(trunc, sol)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_pack(cfg: RunConfig, out: Path):
    trunc, sol, pk = _pack(cfg)
    doc = packing_to_json(pk)
    doc["defect"] = float(sol.defect)
    doc["iterations"] = int(sol.iterations)
    doc["config"] = _config_dict(cfg)
    svg = out / "packing.svg"
    svg.write_text(packing_to_svg(pk, cfg.svg_size))
    return [_write_json(out / "packing.json", doc), svg]


def _cmd_analyze(cfg: RunConfig, out: Path):
    trunc, sol, pk = _pack(cfg)
    doc = dataclasses.asdict(geometry_report(pk))
    doc["defect"] = float(sol.defect)
    doc["layout_residual"] = float(pk.layout_residual)
    doc["config"] = _config_dict(cfg)
    return [_write_json(out / "geometry.json", doc)]


def _cmd_douglas(cfg: RunConfig, out: Path):
    k_max = cfg.k_max or 5
    n_theta = cfg.n_theta or 2048
    rows = []
    for k in range(1, k_max + 1):
        bf = BoundaryFunction(func=lambda th, k=k: np.cos(k * th))
        d = douglas_energy(bf, n_theta)
        e = energy_continuous(poisson_extend(bf, k))
        rows.append({"k": k, "douglas": float(d), "energy": float(e),
                     "ratio": float(d / e)})
    cols = ["k", "douglas", "energy", "ratio"]
    csv = _write_csv(out / "douglas.csv", cols, [[r[c] for c in cols] for r in rows])
    doc = {"rows": rows, "config": _config_dict(cfg)}
    return [csv, _write_json(out / "douglas.json", doc)]


def _cmd_capacity(cfg: RunConfig, out: Path):
    trunc, _, pk = _pack(cfg, mode="disc")
    target = list(cfg.target) if cfg.target else [trunc.root]
    est = capacity(trunc, target)
    d, c, ratio = transfer.capacity_comparison(trunc, pk, target,
                                               delta=cfg.delta,
                                               grid_h=cfg.grid_h)
    doc = {"estimate": capacity_to_json(trunc, est),
           "comparison": {"discrete": float(d), "continuum": float(c),
                          "ratio": float(ratio), "delta": cfg.delta,
                          "grid_h": cfg.grid_h},
           "target": [int(v) for v in target],
           "config": _config_dict(cfg)}
    return [_write_json(out / "capacity.json", doc)]


def _sweep_boundary_data(pk, trunc) -> np.ndarray:
    # fixed low-frequency source: high modes alias on coarse rims
    zb = pk.vertex_center[trunc.boundary]
    return zb.real + 0.5 * (zb ** 2).real


def _cmd_roundtrip(cfg: RunConfig, out: Path):
    if cfg.grid is not None:
        raise ConfigError("roundtrip sweeps truncation radii; "
                          "provide --tiling or --map")
    lo, hi = cfg.radii or (3, 6)
    if cfg.tiling is not None:
        parent = generate_tiling(*cfg.tiling, hi + 1)
    else:
        parent = load_map_json(cfg.map_file)
    rows = []
    for r in range(lo, hi + 1):
        trunc = truncate(parent, cfg.root, r)
        sol = solve_radii(trunc, boundary_mode="disc", tol=cfg.pack_tol)
        pk = layout(trunc, sol)
        h = solve_dirichlet(trunc, _sweep_boundary_data(pk, trunc))
        rep = transfer.roundtrip(trunc, pk, h, eps_trace=cfg.eps_trace,
                                 k_max=cfg.k_max, n_theta=cfg.n_theta)
        row = transfer.transfer_report_to_json(rep)
        row["radius"] = r
        row["n_vertices"] = trunc.n_vertices
        rows.append(row)
    cols = ["radius", "n_vertices", "roundtrip_residual", "asymptotic_gap",
            "energy_ratio_A", "energy_ratio_R"]
    csv = _write_csv(out / "roundtrip.csv", cols, [[r[c] for c in cols] for r in rows])
    doc = {"sweep": rows, "config": _config_dict(cfg)}
    return [csv, _write_json(out / "roundtrip.json", doc)]


def _cmd_harnack(cfg: RunConfig, out: Path):
    trunc, _, pk = _pack(cfg, mode="disc")
    rng = np.random.default_rng(cfg.seed)
    weights = 1.0 / (1.0 + np.arange(3))
    samples = []
    for _ in range(cfg.n_fields):
        f = HarmonicDiscField(0.0, rng.normal(size=3) * weights,
                              rng.normal(size=3) * weights)
        samples.append(transfer.disc_operator(trunc, pk, f).values)
    fit = transfer.harnack_fit(trunc, pk, samples, alpha=cfg.alpha,
                               seed=cfg.seed, n_balls=cfg.n_balls,
                               pairs_per_ball=cfg.pairs_per_ball)
    doc = transfer.harnack_to_json(fit)
    doc["config"] = _config_dict(cfg)
    return [_write_json(out / "harnack.json", doc)]


def _cmd_evaluate(cfg: RunConfig, out: Path):
    if cfg.boundary_csv is None or cfg.points is None:
        raise ConfigError("evaluate needs --boundary-csv and --points")
    bf = load_boundary_csv(cfg.boundary_csv)
    field = poisson_extend(bf, cfg.k_max or 16)
    pts = np.loadtxt(cfg.points, delimiter=",", ndmin=2)
    if pts.shape[1] != 2:
        raise ConfigError("points file must have rows of x,y")
    vals = field.evaluate(pts[:, 0] + 1j * pts[:, 1])
    csv = _write_csv(out / "evaluate.csv", ["x", "y", "value"],
                     zip(pts[:, 0], pts[:, 1], vals))
    doc = {"n_points": int(len(vals)), "k_max": int(cfg.k_max or 16),
           "config": _config_dict(cfg)}
    return [csv, _write_json(out / "evaluate.json", doc)]


_COMMANDS = {
    "pack": _cmd_pack,
    "analyze": _cmd_analyze,
    "douglas": _cmd_douglas,
    "capacity": _cmd_capacity,
    "roundtrip": _cmd_roundtrip,
    "harnack": _cmd_harnack,
    "evaluate": _cmd_evaluate,
}

_NEEDS_MAP = {"pack", "analyze", "capacity", "roundtrip", "harnack"}


def run(config: RunConfig) -> list:
    """Execute one command and return the artifact paths it wrote."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[config.command](config, out)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublepack",
        description="Double circle packings and harmonic analysis on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--map", help="path to a map JSON file")
        p.add_argument("--tiling", help="regular tiling as p,q (e.g. 7,3)")
        p.add_argument("--grid", help="square-lattice patch, N or NxM")
        p.add_argument("--layers", type=int, default=3,
                       help="truncation radius for --tiling (default 3)")
        p.add_argument("--root", type=int, default=0)
        p.add_argument("--radius", type=int,
                       help="truncation radius for --map (rim-bounded if omitted)")

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="output directory (default $DOUBLEPACK_OUT or .)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pack-tol", type=float, default=1e-10)

    p = sub.add_parser("pack", help="solve radii, lay out circles, draw SVG")
    add_source(p)
    add_common(p)
    p.add_argument("--boundary-mode", default="disc",
                   choices=["disc", "prescribed"])
    p.add_argument("--svg-size", type=int, default=720)

    p = sub.add_parser("analyze", help="pack and report geometry diagnostics")
    add_source(p)
    add_common(p)
    p.add_argument("--boundary-mode", default="disc",
                   choices=["disc", "prescribed"])

    p = sub.add_parser("douglas", help="boundary-energy table for cos(k theta)")
    add_common(p)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--ntheta", type=int, default=2048)

    p = sub.add_parser("capacity", help="discrete capacity and continuum comparison")
    add_source(p)
    add_common(p)
    p.add_argument("--target", type=int, nargs="*", default=[],
                   help="target vertex ids (default: the root)")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--grid-h", type=float, default=1.0 / 256)

    p = sub.add_parser("roundtrip", help="disc/map isomorphism residual sweep")
    add_source(p)
    add_common(p)
    p.add_argument("--radii", default="3:6", help="radius sweep lo:hi")
    p.add_argument("--eps-trace", type=float, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--ntheta", type=int, default=None)

    p = sub.add_parser("harnack", help="empirical Harnack exponent fit")
    add_source(p)
    add_common(p)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--n-fields", type=int, default=6)
    p.add_argument("--n-balls", type=int, default=40)
    p.add_argument("--pairs-per-ball", type=int, default=60)

    p = sub.add_parser("evaluate", help="evaluate a harmonic extension at points")
    add_common(p)
    p.add_argument("--boundary-csv", required=True)
    p.add_argument("--points", required=True,
                   help="CSV file with one x,y row per point")
    p.add_argument("--kmax", type=int, default=16)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    sources = [s for s in (get("map"), get("tiling"), get("grid"))
               if s is not None]
    if args.command in _NEEDS_MAP:
        if len(sources) == 0:
            raise ConfigError("provide a map source: --map, --tiling, or --grid")
        if len(sources) > 1:
            raise ConfigError("provide exactly one of --map, --tiling, --grid")
    tiling = grid = None
    if get("tiling"):
        tiling = _parse_pair(args.tiling, ",", "tiling")
    if get("grid"):
        grid = _parse_pair(args.grid, "x", "grid size")
    radii = None
    if get("radii"):
        radii = _parse_pair(args.radii, ":", "radius sweep")
    out_dir = args.out or os.environ.get("DOUBLEPACK_OUT") or "."
    return RunConfig(
        command=args.command,
        out_dir=out_dir,
        map_file=get("map"),
        tiling=tiling,
        grid=grid,
        layers=get("layers", 3),
        root=get("root", 0),
        radius=get("radius"),
        radii=radii,
        boundary_mode=get("boundary_mode", "disc"),
        pack_tol=get("pack_tol", 1e-10),
        grid_h=get("grid_h", 1.0 / 256),
        n_theta=get("ntheta"),
        k_max=get("kmax"),
        eps_trace=get("eps_trace"),
        delta=get("delta", 0.5),
        alpha=get("alpha", 0.5),
        target=tuple(get("target") or ()),
        n_fields=get("n_fields", 6),
        n_balls=get("n_balls", 40),
        pairs_per_ball=get("pairs_per_ball", 60),
        seed=get("seed", 0),
        svg_size=get("svg_size", 720),
        boundary_csv=get("boundary_csv"),
        points=get("points"),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        paths = run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
