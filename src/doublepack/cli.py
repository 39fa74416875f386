"""Command-line entry point.

Subcommands build a map (from a file or a generator), pack it, run one of the
analyses, and return their artifacts; ``run`` alone writes them to the output
directory (``--out`` or the ``DOUBLEPACK_OUT`` environment variable).  Every
JSON report records its request (the command, the output directory and the
options the command reads, defaults filled in), and that block replays
through ``run(RunConfig(**block))``; a fixed seed makes reruns byte-identical,
so the artifacts double as provenance.

``run`` judges every request, from argv or a library call, by one gate,
``RunConfig.validate``, which reads each option's type and range from its
row of ``_OPTIONS``, the table that also configures argparse.  Only once
every artifact is rendered does ``run`` touch the output directory, and each
artifact replaces its file whole once all are written: every failed request
leaves ``--out`` as it was, and ``main`` prints the error as one ``error:``
line.

Exit codes: 0 ok, 2 bad input, 3 solver non-convergence, 4 file I/O,
5 violated invariant.
"""

import argparse
import dataclasses
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import transfer
from .continuum import (BoundaryFunction, HarmonicDiscField, douglas_energy,
                        energy_continuous, grid_capacity, load_boundary_csv,
                        poisson_extend)
from .errors import (HALF, POSITIVE, QUARTER, UNIT, ConfigError, ConvergenceError,
                     InvariantViolation, integer)
from .maps import boundary_truncation, load_map_json, truncate
from .packing import geometry_report, layout, packing_to_json, solve_radii
from .potential import capacity, capacity_to_json, solve_dirichlet
from .render import packing_to_svg
from .textio import csv_text, json_text, read_csv
from .tilings import generate_grid, generate_tiling

__all__ = ["RunConfig", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    """One invocation: what to build, which analysis, where to write.

    ``run`` judges the config as given (``validate``) before it fills in any
    default.  A field left None takes a default only where it is read: the
    command's own (``_COMMANDS``), ``layers`` 3 for a ``--tiling`` ball, and
    ``root`` 0 where a ``--map`` is cut around it (``--radius``, or the radii
    of ``roundtrip``).  A tiling ball is centred at vertex 0: the tilings are
    vertex-transitive.  A field that holds a tuple takes a list too, as
    ``json.load`` gives a recorded request."""

    command: str
    out_dir: str
    map_file: str | None = None
    tiling: tuple[int, int] | None = None
    grid: tuple[int, int] | None = None
    layers: int | None = None
    root: int | None = None
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
        """Raise ``ConfigError`` naming why this request cannot run: the one
        judge of a request, from argv and from a library call alike."""
        if not isinstance(self.command, str) or self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        reads = _COMMANDS[self.command][2]
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "command" or value is None and field.default is None:
                continue
            flag, kind, bound, _ = _OPTIONS[field.name]
            if field.name not in ("out_dir", *reads):
                # a value of another type than the default is given, whatever
                # ``!=`` would make of it (an array compares elementwise)
                if type(value) is not type(field.default) or value != field.default:
                    raise ConfigError(f"{self.command} does not read {flag}")
            elif not kind.test(value):
                raise ConfigError(f"{flag} must be {kind.what}, got {value!r}")
            elif bound is not None and not bound[0](value):
                raise ConfigError(f"{field.name} {bound[1]}, got {value}")
        source = [s for s in ("map_file", "tiling", "grid") if getattr(self, s) is not None]
        if "map_file" in reads:
            if not source:
                raise ConfigError("provide a map source: --map, --tiling, or --grid")
            if len(source) > 1:
                raise ConfigError("provide exactly one of --map, --tiling, --grid")
            if self.command == "roundtrip" and self.grid is not None:
                raise ConfigError("roundtrip sweeps truncation radii; "
                                  "provide --tiling or --map")
            for name, owner in _SOURCE_OF.items():
                if getattr(self, name) is not None and owner != source[0]:
                    raise ConfigError(f"{_OPTIONS[name][0]} applies to "
                                      f"{_OPTIONS[owner][0]} only, not to "
                                      f"{_OPTIONS[source[0]][0]}")
            if self.root is not None and "radius" in reads and self.radius is None:
                raise ConfigError("--root applies to --map only with --radius: "
                                  "without it the map is cut at its outer face")
        if "points" in reads and None in (self.boundary_csv, self.points):
            raise ConfigError("evaluate needs --boundary-csv and --points")
        if self.radii is not None and not 1 <= self.radii[0] <= self.radii[1]:
            raise ConfigError(f"bad radius sweep {self.radii}")
        if self.n_theta is not None:
            # the library's floor, in its words: douglas_energy's 64, and the
            # trace's 4 k_max for roundtrip, where no derived k_max is below 1
            # (a derived one above 1 is the library's to judge)
            low = 64 if self.command == "douglas" else 4 * (self.k_max or 1)
            try:
                integer("n_theta", self.n_theta, low)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None


# option -> the one map source it applies to.  The {p,q} tilings are
# vertex-transitive, so a root other than 0 would add nothing to --tiling.
_SOURCE_OF = {"layers": "tiling", "radius": "map_file", "root": "map_file"}


# ---------------------------------------------------------------------------
# map sources
# ---------------------------------------------------------------------------

def _truncations(cfg: RunConfig):
    """Yield the truncations a request asks for, all cut from one parent
    map: a ball per radius of ``roundtrip``'s sweep, else the ball of
    ``--layers`` or ``--radius``, else the map cut at its outer face.  A
    tiling is grown once, exactly as deep as its largest ball."""
    radius = cfg.layers if cfg.tiling is not None else cfg.radius
    radii = [radius] if cfg.radii is None else range(cfg.radii[0], cfg.radii[1] + 1)
    if cfg.tiling is not None:
        parent, root = generate_tiling(*cfg.tiling, max(radii)), 0
    elif cfg.map_file is not None:
        parent, root = load_map_json(cfg.map_file), cfg.root
    else:
        parent = generate_grid(*cfg.grid)
    if radii == [None]:
        yield boundary_truncation(parent)
    else:
        for r in radii:
            yield truncate(parent, root, r)


def _pack(cfg: RunConfig, mode: str | None = None):
    trunc = next(_truncations(cfg))
    sol = solve_radii(trunc, boundary_mode=mode or cfg.boundary_mode,
                      tol=cfg.pack_tol)
    return trunc, sol, layout(trunc, sol)


# ---------------------------------------------------------------------------
# subcommands: each returns its artifacts as {file name: JSON doc or text}
# ---------------------------------------------------------------------------

def _cmd_pack(cfg: RunConfig):
    trunc, sol, pk = _pack(cfg)
    doc = {**packing_to_json(pk), "defect": float(sol.defect),
           "iterations": int(sol.iterations)}
    return {"packing.json": doc, "packing.svg": packing_to_svg(pk, cfg.svg_size)}


def _cmd_analyze(cfg: RunConfig):
    trunc, sol, pk = _pack(cfg)
    return {"geometry.json": {**dataclasses.asdict(geometry_report(pk)),
                              "defect": float(sol.defect),
                              "layout_residual": float(pk.layout_residual)}}


def _cmd_douglas(cfg: RunConfig):
    rows = []
    for k in range(1, cfg.k_max + 1):
        bf = BoundaryFunction(func=lambda th, k=k: np.cos(k * th))
        d = douglas_energy(bf, cfg.n_theta)
        e = energy_continuous(poisson_extend(bf, k))
        rows.append({"k": k, "douglas": float(d), "energy": float(e),
                     "ratio": float(d / e)})
    cols = ["k", "douglas", "energy", "ratio"]
    return {"douglas.csv": csv_text(cols, [[r[c] for c in cols] for r in rows]),
            "douglas.json": {"rows": rows}}


def _cmd_capacity(cfg: RunConfig):
    trunc, _, pk = _pack(cfg, mode="disc")
    target = list(cfg.target) if cfg.target else [trunc.root]
    # capacity_comparison would solve the discrete capacity a second time
    est = capacity(trunc, target)
    c = grid_capacity(transfer.shrunk_discs(pk, target, cfg.delta), cfg.grid_h)
    ratio = c / est.value if est.value > 0.0 else float("nan")
    doc = {"estimate": capacity_to_json(trunc, est),
           "comparison": {"discrete": est.value, "continuum": float(c),
                          "ratio": float(ratio), "delta": cfg.delta,
                          "grid_h": cfg.grid_h},
           "target": [int(v) for v in target]}
    return {"capacity.json": doc}


def _cmd_roundtrip(cfg: RunConfig):
    rows = []
    for trunc in _truncations(cfg):
        sol = solve_radii(trunc, boundary_mode="disc", tol=cfg.pack_tol)
        pk = layout(trunc, sol)
        # fixed low-frequency source: high modes alias on coarse rims
        zb = pk.vertex_center[trunc.boundary]
        h = solve_dirichlet(trunc, zb.real + 0.5 * (zb ** 2).real)
        rep = transfer.roundtrip(trunc, pk, h, eps_trace=cfg.eps_trace,
                                 k_max=cfg.k_max, n_theta=cfg.n_theta)
        row = transfer.transfer_report_to_json(rep)
        row["radius"] = trunc.radius
        row["n_vertices"] = trunc.n_vertices
        rows.append(row)
    cols = ["radius", "n_vertices", "roundtrip_residual", "asymptotic_gap",
            "energy_ratio_A", "energy_ratio_R"]
    return {"roundtrip.csv": csv_text(cols, [[r[c] for c in cols] for r in rows]),
            "roundtrip.json": {"sweep": rows}}


def _cmd_harnack(cfg: RunConfig):
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
    return {"harnack.json": transfer.harnack_to_json(fit)}


def _cmd_evaluate(cfg: RunConfig):
    bf = load_boundary_csv(cfg.boundary_csv)
    field = poisson_extend(bf, cfg.k_max)
    rows, lines = read_csv(cfg.points, ["x", "y"], "points", headed=False)
    if not rows:
        raise ConfigError(f"points file {cfg.points} holds no x,y rows")
    x, y = np.array(rows).T
    # the Poisson extension is defined on the closed disc only
    far = np.flatnonzero(~(np.hypot(x, y) <= 1.0 + 1e-12))
    if far.size:
        raise ConfigError(f"points CSV line {lines[far[0]]}: {tuple(rows[far[0]])} "
                          "lies outside the closed unit disc")
    vals = field.evaluate(x + 1j * y)
    return {"evaluate.csv": csv_text(["x", "y", "value"], zip(x, y, vals)),
            "evaluate.json": {"n_points": int(len(vals)), "k_max": int(cfg.k_max)}}


# command -> (handler, help, the RunConfig fields it reads, and its defaults
# where they differ from RunConfig's).  Each field read is one option of the
# command, and every other field must keep RunConfig's default.
_SOURCE = ("map_file", "tiling", "grid", "layers", "root", "radius")
_COMMANDS = {
    "pack": (_cmd_pack, "solve radii, lay out circles, draw SVG",
             (*_SOURCE, "pack_tol", "boundary_mode", "svg_size"), {}),
    "analyze": (_cmd_analyze, "pack and report geometry diagnostics",
                (*_SOURCE, "pack_tol", "boundary_mode"), {}),
    "douglas": (_cmd_douglas, "boundary-energy table for cos(k theta)",
                ("k_max", "n_theta"), {"k_max": 5, "n_theta": 2048}),
    "capacity": (_cmd_capacity, "discrete capacity and continuum comparison",
                 (*_SOURCE, "pack_tol", "target", "delta", "grid_h"), {}),
    "roundtrip": (_cmd_roundtrip, "disc/map isomorphism residual sweep",
                  ("map_file", "tiling", "grid", "root", "pack_tol", "radii",
                   "eps_trace", "k_max", "n_theta"), {"radii": (3, 6)}),
    "harnack": (_cmd_harnack, "empirical Harnack exponent fit",
                (*_SOURCE, "pack_tol", "seed", "alpha", "n_fields", "n_balls",
                 "pairs_per_ball"), {}),
    "evaluate": (_cmd_evaluate, "evaluate a harmonic extension at points",
                 ("boundary_csv", "points", "k_max"), {"k_max": 16}),
}


def run(config: RunConfig) -> list:
    """Execute one command and return the artifact paths it wrote: validate
    the config as given, fill in the defaults of the fields the command
    reads, render every artifact, then write each under a temporary name and
    rename them over their files once all are written."""
    config.validate()
    handler, _, reads, defaults = _COMMANDS[config.command]
    defaults = dict(defaults)
    if config.tiling is not None and "layers" in reads:
        defaults["layers"] = 3
    if config.map_file is not None and (config.radius is not None or "radii" in reads):
        defaults["root"] = 0
    config = dataclasses.replace(config, **{
        name: value for name, value in defaults.items() if getattr(config, name) is None})
    request = {name: getattr(config, name) for name in ("command", "out_dir", *reads)}
    # tuples in the config become lists
    texts = {name: json_text({**artifact, "config": request})
             if isinstance(artifact, dict) else artifact
             for name, artifact in handler(config).items()}
    out = Path(config.out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    temps = {out / name: out / f".{name}.{os.getpid()}.tmp" for name in texts}
    for path in temps:  # a rename onto a directory fails: refuse it before any write
        if path.is_dir():
            raise IsADirectoryError(f"the artifact name {path} is taken by a directory")
    out.mkdir(parents=True, exist_ok=True)
    try:
        for temp, text in zip(temps.values(), texts.values()):
            temp.write_text(text, encoding="utf-8")
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    return list(temps)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# An option's kind: what the gate asks of a library call, its test, and the
# add_argument keywords that parse it from argv.  A tuple may be a list.
_Kind = namedtuple("_Kind", "what test keywords")
_INT = _Kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool),
             {"type": int})
_NUMBER = _Kind("a number", lambda v: _INT.test(v) or isinstance(v, float), {"type": float})
_STRING = _Kind("a string", lambda v: isinstance(v, str), {})
_INTS = _Kind("a list of integers",
              lambda v: isinstance(v, (tuple, list)) and all(map(_INT.test, v)),
              {"type": int, "nargs": "*"})


def _pair(sep: str, what: str):
    """Two integers joined by ``sep``; one alone is doubled unless ``sep`` is ","."""
    def parse(text: str) -> tuple[int, int]:
        parts = text.split(sep)
        try:
            p, q = parts * 2 if len(parts) == 1 and sep != "," else parts
            return int(p), int(q)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {what} {text!r}") from None
    return _Kind("a pair of integers", lambda v: _INTS.test(v) and len(v) == 2,
                 {"type": parse})


def _choice(*names: str):
    return _Kind(" or ".join(map(repr, names)),
                 lambda v: isinstance(v, str) and v in names, {"choices": names})


# integer bounds, (test, what a value that fails it must be) like errors.POSITIVE
_NATURAL = (lambda v: v >= 0, "must be at least 0")
_COUNT = (lambda v: v >= 1, "must be at least 1")


# RunConfig field -> (flag, kind, bound, help): one row gives argparse its
# type=, choices= or nargs=, and the gate (RunConfig.validate) its type and
# range rules.  No option has a default: an option not given is absent from
# the namespace and RunConfig supplies it.
_OPTIONS = {
    "out_dir": ("--out", _STRING, None, "output directory (default $DOUBLEPACK_OUT or .)"),
    "map_file": ("--map", _STRING, None, "path to a map JSON file"),
    "tiling": ("--tiling", _pair(",", "tiling"), None, "regular tiling p,q"),
    "grid": ("--grid", _pair("x", "grid size"), None, "square patch, N or NxM"),
    "layers": ("--layers", _INT, _COUNT, "truncation radius for --tiling"),
    "root": ("--root", _INT, _NATURAL, None),
    "radius": ("--radius", _INT, _COUNT,
               "truncation radius for --map (rim-bounded if omitted)"),
    "radii": ("--radii", _pair(":", "radius sweep"), None, "sweep lo:hi"),
    "boundary_mode": ("--boundary-mode", _choice("disc", "prescribed"), None, None),
    "pack_tol": ("--pack-tol", _NUMBER, POSITIVE, None),
    "grid_h": ("--grid-h", _NUMBER, QUARTER, None),
    "n_theta": ("--ntheta", _INT, None, None),  # bounded by RunConfig.validate
    "k_max": ("--kmax", _INT, POSITIVE, None),
    "eps_trace": ("--eps-trace", _NUMBER, UNIT, None),
    "delta": ("--delta", _NUMBER, HALF, None),
    "alpha": ("--alpha", _NUMBER, UNIT, None),
    "target": ("--target", _INTS, None, "target vertex ids (default: the root)"),
    "n_fields": ("--n-fields", _INT, _COUNT, None),
    "n_balls": ("--n-balls", _INT, _COUNT, None),
    "pairs_per_ball": ("--pairs-per-ball", _INT, _COUNT, None),
    "seed": ("--seed", _INT, _NATURAL, None),
    "svg_size": ("--svg-size", _INT, POSITIVE, None),
    "boundary_csv": ("--boundary-csv", _STRING, None, "boundary samples CSV (required)"),
    "points": ("--points", _STRING, None, "CSV file with one x,y row per point (required)"),
}


class _Parser(argparse.ArgumentParser):
    """An argparse error is a ``ConfigError`` like any other bad input, so
    ``main`` prints it as one line; ``--help`` still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="doublepack",
        description="Double circle packings and harmonic analysis on them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, fields, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text,
                           argument_default=argparse.SUPPRESS)
        for field in ("out_dir", *fields):
            flag, kind, _, help_text = _OPTIONS[field]
            p.add_argument(flag, dest=field, help=help_text, **kind.keywords)
    return parser


# Exit code per failure, in match order: ConfigError is a ValueError.  A
# request too large for the memory it finds is bad input too.
_EXIT_CODES = {ValueError: 2, MemoryError: 2, ConvergenceError: 3,
               InvariantViolation: 5, OSError: 4}


def main(argv=None) -> int:
    try:
        given = vars(_build_parser().parse_args(argv))
        given["out_dir"] = given.get("out_dir") or os.environ.get("DOUBLEPACK_OUT") or "."
        paths = run(RunConfig(**given))
    except tuple(_EXIT_CODES) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):
            message = "the request ran out of memory" + (f": {message}" if message else "")
        print(f"error: {message}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
