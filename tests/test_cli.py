"""End-to-end checks of the command-line interface: artifacts, determinism,
and the exit-code contract."""

import errno
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import PINCHED_WHEEL, TWO_WHEELS
from doublepack import cli, potential, transfer
from doublepack.continuum import BoundaryFunction, boundary_function_to_csv
from doublepack.errors import ConfigError
from doublepack.maps import map_to_json
from doublepack.tilings import generate_tiling


def run(tmp_path, *args):
    return cli.main([*args, "--out", str(tmp_path)])


def refused(capsys, out, entry, argv, config, cause):
    """A refused request ends the same way from either entry point: a
    ConfigError naming ``cause``, raised before ``out`` exists; ``main``
    returns 2 and prints it as one ``error:`` line."""
    if entry == "main":
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and cause in err[0]
    else:
        with pytest.raises(ConfigError, match=re.escape(cause)):
            cli.run(cli.RunConfig(out_dir=str(out), **config))
    assert not out.exists()


ENTRIES = ["main", "run"]


def both_entries(cases):
    """Each (id, argv, the same request as RunConfig fields, cause) once per
    entry point; the argv case keeps the bare id."""
    return [pytest.param(entry, args, config, cause,
                         id=name if entry == "main" else f"{name}-run")
            for entry in ENTRIES for name, args, config, cause in cases]


# for both_entries; MAP stands for the path of a (7,3) ball's map file
MAP_SOURCE_CASES = [
    ("grid-layers", ("pack", "--grid", "5", "--layers", "9", "--root", "3", "--radius", "1"),
     {"command": "pack", "grid": (5, 5), "layers": 9, "root": 3, "radius": 1},
     "--layers applies to --tiling only, not to --grid"),
    ("grid-root", ("pack", "--grid", "5", "--root", "100"),
     {"command": "pack", "grid": (5, 5), "root": 100},
     "--root applies to --map only, not to --grid"),
    ("grid-radius", ("pack", "--grid", "5", "--radius", "1"),
     {"command": "pack", "grid": (5, 5), "radius": 1},
     "--radius applies to --map only, not to --grid"),
    ("map-root", ("pack", "--map", "MAP", "--root", "5"),
     {"command": "pack", "map_file": "MAP", "root": 5},
     "--root applies to --map only with --radius"),
    ("map-far-root", ("pack", "--map", "MAP", "--root", "999"),
     {"command": "pack", "map_file": "MAP", "root": 999},
     "--root applies to --map only with --radius"),
    ("map-layers", ("pack", "--map", "MAP", "--layers", "2"),
     {"command": "pack", "map_file": "MAP", "layers": 2},
     "--layers applies to --tiling only, not to --map"),
    ("tiling-root", ("pack", "--tiling", "7,3", "--layers", "2", "--root", "8"),
     {"command": "pack", "tiling": (7, 3), "layers": 2, "root": 8},
     "--root applies to --map only, not to --tiling"),
    ("tiling-radius", ("capacity", "--tiling", "7,3", "--radius", "2"),
     {"command": "capacity", "tiling": (7, 3), "radius": 2},
     "--radius applies to --map only, not to --tiling"),
    ("roundtrip-tiling-root", ("roundtrip", "--tiling", "7,3", "--root", "3"),
     {"command": "roundtrip", "tiling": (7, 3), "root": 3},
     "--root applies to --map only, not to --tiling"),
]


class TestPack:
    def test_grid_artifacts(self, tmp_path):
        assert run(tmp_path, "pack", "--grid", "5") == 0
        doc = json.loads((tmp_path / "packing.json").read_text())
        assert "circles" in doc and "config" in doc
        assert doc["config"]["command"] == "pack"
        svg = (tmp_path / "packing.svg").read_text()
        assert "stroke-dasharray" in svg        # dual circles dashed
        assert svg.count("<circle") > 25

    def test_tiling(self, tmp_path):
        assert run(tmp_path, "pack", "--tiling", "7,3", "--layers", "2") == 0
        doc = json.loads((tmp_path / "packing.json").read_text())
        assert doc["config"]["tiling"] == [7, 3]
        assert doc["defect"] <= 1e-8

    def test_analyze(self, tmp_path):
        assert run(tmp_path, "analyze", "--grid", "5") == 0
        doc = json.loads((tmp_path / "geometry.json").read_text())
        for key in ("max_tangency_residual", "max_orthogonality_residual",
                    "ring_ratio_max", "sausage_ok", "delta0", "config"):
            assert key in doc
        assert doc["max_tangency_residual"] < 1e-6


class TestDouglas:
    def test_table(self, tmp_path):
        assert run(tmp_path, "douglas", "--kmax", "3", "--ntheta", "512") == 0
        lines = (tmp_path / "douglas.csv").read_text().strip().splitlines()
        assert lines[0] == "k,douglas,energy,ratio"
        assert len(lines) == 4
        for row in lines[1:]:
            ratio = float(row.split(",")[3])
            assert ratio == pytest.approx(1.0, abs=1e-2)
        doc = json.loads((tmp_path / "douglas.json").read_text())
        assert len(doc["rows"]) == 3

    def test_fewer_samples_than_four_per_mode_run(self, tmp_path):
        # the 4 k_max floor is the trace's (roundtrip); douglas needs 64
        # samples, and 64 resolve cos(20 theta)
        assert run(tmp_path, "douglas", "--kmax", "20", "--ntheta", "64") == 0
        assert len((tmp_path / "douglas.csv").read_text().strip().splitlines()) == 21

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert run(d, "douglas", "--kmax", "2", "--ntheta", "256") == 0
        assert (a / "douglas.csv").read_bytes() == (b / "douglas.csv").read_bytes()
        ja = json.loads((a / "douglas.json").read_text())
        jb = json.loads((b / "douglas.json").read_text())
        assert {k: v for k, v in ja.items() if k != "config"} == \
            {k: v for k, v in jb.items() if k != "config"}


class TestCapacity:
    def test_report(self, tmp_path):
        code = run(tmp_path, "capacity", "--grid", "5", "--grid-h", "0.015625")
        assert code == 0
        doc = json.loads((tmp_path / "capacity.json").read_text())
        assert doc["estimate"]["value"] > 0
        assert doc["comparison"]["continuum"] > 0
        assert doc["comparison"]["ratio"] == pytest.approx(
            doc["comparison"]["continuum"] / doc["estimate"]["value"])
        assert doc["config"]["grid_h"] == 0.015625

    def test_one_discrete_solve_per_command(self, tmp_path, monkeypatch):
        calls = []

        def counting(trunc, target):
            calls.append(list(target))
            return potential.capacity(trunc, target)

        monkeypatch.setattr(cli, "capacity", counting)
        monkeypatch.setattr(transfer, "capacity", counting)
        assert run(tmp_path, "capacity", "--grid", "5", "--grid-h", "0.015625") == 0
        assert len(calls) == 1
        # the shared shrunk discs give capacity_comparison's numbers exactly
        doc = json.loads((tmp_path / "capacity.json").read_text())
        cfg = cli.RunConfig(command="capacity", out_dir=str(tmp_path), grid=(5, 5))
        trunc, _, pk = cli._pack(cfg, mode="disc")
        d, c, ratio = transfer.capacity_comparison(trunc, pk, calls[0], grid_h=0.015625)
        assert doc["comparison"] == {"discrete": d, "continuum": c, "ratio": ratio,
                                     "delta": 0.5, "grid_h": 0.015625}


class TestRoundtrip:
    def test_sweep(self, tmp_path):
        code = run(tmp_path, "roundtrip", "--tiling", "7,3", "--radii", "3:4")
        assert code == 0
        doc = json.loads((tmp_path / "roundtrip.json").read_text())
        assert [row["radius"] for row in doc["sweep"]] == [3, 4]
        for row in doc["sweep"]:
            assert 0 <= row["roundtrip_residual"] < 1
        lines = (tmp_path / "roundtrip.csv").read_text().strip().splitlines()
        assert lines[0].startswith("radius,")
        assert len(lines) == 3


class TestHarnack:
    def test_fit_report(self, tmp_path):
        code = run(tmp_path, "harnack", "--tiling", "7,3", "--layers", "3",
                   "--seed", "1")
        assert code == 0
        doc = json.loads((tmp_path / "harnack.json").read_text())
        assert doc["fitted"] is True
        assert doc["beta_hat"] > 0
        assert doc["n_pairs"] == len(doc["pairs"])

    def test_seeded_rerun_identical(self, tmp_path):
        args = ("harnack", "--tiling", "7,3", "--layers", "3", "--seed", "7")
        assert run(tmp_path, *args) == 0
        first = (tmp_path / "harnack.json").read_bytes()
        assert run(tmp_path, *args) == 0
        assert (tmp_path / "harnack.json").read_bytes() == first


class TestEvaluate:
    def test_field_values(self, tmp_path):
        bf = BoundaryFunction(func=np.cos)
        (tmp_path / "bdry.csv").write_text(boundary_function_to_csv(bf, 64))
        (tmp_path / "pts.csv").write_text("0.3,0.0\n0.0,0.25\n-0.5,0.0\n")
        code = run(tmp_path, "evaluate", "--boundary-csv",
                   str(tmp_path / "bdry.csv"), "--kmax", "4",
                   "--points", str(tmp_path / "pts.csv"))
        assert code == 0
        rows = (tmp_path / "evaluate.csv").read_text().strip().splitlines()
        assert rows[0] == "x,y,value"
        got = [float(r.split(",")[2]) for r in rows[1:]]
        # the extension of cos(theta) is Re z
        assert got == pytest.approx([0.3, 0.0, -0.5], abs=1e-9)

    def test_boundary_file_named_like_its_header(self, tmp_path, monkeypatch):
        # a file name is never read as CSV text, whatever it starts with
        monkeypatch.chdir(tmp_path)
        bf = BoundaryFunction(func=np.cos)
        (tmp_path / "theta_samples.csv").write_text(boundary_function_to_csv(bf, 64))
        (tmp_path / "pts.csv").write_text("0.3,0.0\n")
        assert run(tmp_path, "evaluate", "--boundary-csv", "theta_samples.csv",
                   "--points", "pts.csv") == 0

    def test_short_boundary_row_is_bad_input(self, tmp_path, capsys):
        (tmp_path / "bdry.csv").write_text("theta,value\n0.0\n")
        (tmp_path / "pts.csv").write_text("0.3,0.0\n")
        assert run(tmp_path, "evaluate", "--boundary-csv", str(tmp_path / "bdry.csv"),
                   "--points", str(tmp_path / "pts.csv")) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "line 2" in err[0]

    @pytest.mark.parametrize("points, cause", [
        ("0.3,0.0\n2,2\n", "line 2: (2.0, 2.0) lies outside the closed unit disc"),
        ("0.3,0.0\nnan,0\n", "line 2: could not convert string to float: 'nan'"),
        ("0.3,0.0\n0.1,abc\n", "line 2: could not convert string to float: 'abc'"),
        ("", "holds no x,y rows"),
        ("0.3,0.0\n0.1,inf\n", "line 2: could not convert string to float: 'inf'"),
        ("1_000,0\n", "line 1: could not convert string to float: '1_000'"),
    ], ids=["outside-disc", "nan", "not-a-number", "empty", "inf", "underscore"])
    def test_bad_points_are_bad_input(self, tmp_path, capsys, points, cause):
        bf = BoundaryFunction(func=np.cos)
        (tmp_path / "bdry.csv").write_text(boundary_function_to_csv(bf, 64))
        (tmp_path / "pts.csv").write_text(points)
        out = tmp_path / "out"
        assert cli.main(["evaluate", "--boundary-csv", str(tmp_path / "bdry.csv"),
                         "--points", str(tmp_path / "pts.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and cause in err[0]
        assert not out.exists()


# RunConfig's defaults; a report's config block holds command, out_dir and
# the fields the command reads, each case below naming those that differ.
BASE_CONFIG = {
    "alpha": 0.5, "boundary_csv": None, "boundary_mode": "disc", "delta": 0.5,
    "eps_trace": None, "grid": None, "grid_h": 0.00390625, "k_max": None,
    "layers": None, "map_file": None, "n_balls": 40, "n_fields": 6,
    "n_theta": None, "pack_tol": 1e-10, "pairs_per_ball": 60, "points": None,
    "radii": None, "radius": None, "root": None, "seed": 0, "svg_size": 720,
    "target": [], "tiling": None,
}


def request_block(command, **fields):
    return {**{name: BASE_CONFIG[name] for name in cli._COMMANDS[command][2]},
            "command": command, **fields}


# the commands of CI's rerun step, run where write_inputs left their files
RERUN_COMMANDS = [
    ("pack", "--grid", "5"),
    ("pack", "--tiling", "7,3", "--layers", "3"),
    ("pack", "--tiling", "6,3", "--layers", "4"),
    ("pack", "--tiling", "8,3", "--layers", "4"),
    ("pack", "--map", "map.json"),
    ("analyze", "--grid", "5"),
    ("analyze", "--tiling", "7,3", "--layers", "6"),
    ("capacity", "--tiling", "7,3", "--layers", "4"),
    ("capacity", "--tiling", "7,3", "--layers", "4", "--grid-h", "0.0244"),
    ("douglas", "--kmax", "5", "--ntheta", "2048"),
    ("roundtrip", "--tiling", "7,3", "--radii", "3:8"),
    ("harnack", "--tiling", "7,3", "--seed", "7"),
    ("harnack", "--grid", "9", "--seed", "3"),
    ("evaluate", "--boundary-csv", "theta_samples.csv", "--points", "pts.csv"),
]


def write_inputs(directory):
    """The input files of RERUN_COMMANDS: a (7,3) ball's map, boundary
    samples and points."""
    (directory / "map.json").write_text(json.dumps(map_to_json(generate_tiling(7, 3, 3))))
    bf = BoundaryFunction(func=np.cos)
    (directory / "theta_samples.csv").write_text(boundary_function_to_csv(bf, 64))
    (directory / "pts.csv").write_text("0.3,0.0\n0.0,0.25\n-0.5,0.0\n")


class TestConfig:
    @pytest.mark.parametrize("args, artifact, block", [
        (("pack", "--grid", "5"), "packing.json",
         {"command": "pack", "map_file": None, "tiling": None, "grid": [5, 5],
          "layers": None, "root": None, "radius": None, "pack_tol": 1e-10,
          "boundary_mode": "disc", "svg_size": 720}),
        (("pack", "--tiling", "7,3"), "packing.json",
         {"command": "pack", "map_file": None, "tiling": [7, 3], "grid": None,
          "layers": 3, "root": None, "radius": None, "pack_tol": 1e-10,
          "boundary_mode": "disc", "svg_size": 720}),
        (("pack", "--map", "map.json", "--radius", "2"), "packing.json",
         {"command": "pack", "map_file": "map.json", "tiling": None, "grid": None,
          "layers": None, "root": 0, "radius": 2, "pack_tol": 1e-10,
          "boundary_mode": "disc", "svg_size": 720}),
        (("douglas", "--kmax", "2", "--ntheta", "256"), "douglas.json",
         {"command": "douglas", "k_max": 2, "n_theta": 256}),
        (("roundtrip", "--tiling", "7,3", "--radii", "3:4"), "roundtrip.json",
         {"command": "roundtrip", "map_file": None, "tiling": [7, 3], "grid": None,
          "root": None, "pack_tol": 1e-10, "radii": [3, 4], "eps_trace": None,
          "k_max": None, "n_theta": None}),
    ], ids=["pack", "pack-tiling", "pack-map-radius", "douglas", "roundtrip"])
    def test_config_block(self, tmp_path, monkeypatch, args, artifact, block):
        # layers resolves to 3 for a tiling alone, root to 0 for a map cut
        # around it; a grid is cut at its rim, so neither is recorded
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        assert run(tmp_path, *args) == 0
        doc = json.loads((tmp_path / artifact).read_text())
        assert doc["config"] == {**block, "out_dir": str(tmp_path)}

    @pytest.mark.parametrize("args, fields", [
        (("pack", "--grid", "5"), {"grid": [5, 5]}),
        (("analyze", "--grid", "5"), {"grid": [5, 5]}),
        (("douglas", "--kmax", "2", "--ntheta", "256"), {"k_max": 2, "n_theta": 256}),
        (("capacity", "--grid", "5", "--grid-h", "0.015625"),
         {"grid": [5, 5], "grid_h": 0.015625}),
        (("roundtrip", "--tiling", "7,3", "--radii", "3:4"),
         {"tiling": [7, 3], "radii": [3, 4]}),
        (("harnack", "--tiling", "7,3", "--seed", "1"),
         {"tiling": [7, 3], "layers": 3, "seed": 1}),
        (("evaluate", "--boundary-csv", "theta_samples.csv", "--points", "pts.csv"),
         {"boundary_csv": "theta_samples.csv", "points": "pts.csv", "k_max": 16}),
    ], ids=["pack", "analyze", "douglas", "capacity", "roundtrip", "harnack",
            "evaluate"])
    def test_every_json_artifact_records_the_config(self, tmp_path, monkeypatch,
                                                    args, fields):
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        out = tmp_path / "out"
        assert run(out, *args) == 0
        expected = {**request_block(args[0], **fields), "out_dir": str(out)}
        docs = sorted(out.glob("*.json"))
        assert docs
        for path in docs:
            assert json.loads(path.read_text())["config"] == expected, path.name

    def test_run_applies_command_defaults(self, tmp_path):
        cli.run(cli.RunConfig(command="douglas", out_dir=str(tmp_path)))
        doc = json.loads((tmp_path / "douglas.json").read_text())
        assert len(doc["rows"]) == 5
        assert doc["config"] == {"command": "douglas", "k_max": 5, "n_theta": 2048,
                                 "out_dir": str(tmp_path)}

    @pytest.mark.parametrize("args", RERUN_COMMANDS, ids=" ".join)
    def test_recorded_config_replays(self, tmp_path, monkeypatch, args):
        # the block alone, as json.load gives it, rewrites every artifact
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        out = tmp_path / "out"
        assert run(out, *args) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        doc = next(name for name in sorted(first) if name.endswith(".json"))
        paths = cli.run(cli.RunConfig(**json.loads(first[doc])["config"]))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first
        # no temporary name is left beside the artifacts
        assert sorted(first) == sorted(path.name for path in paths)


class TestTilingBall:
    @pytest.mark.parametrize("args, depth", [
        (("pack", "--tiling", "7,3", "--layers", "4"), 4),
        (("analyze", "--tiling", "6,3", "--layers", "3"), 3),
        (("capacity", "--tiling", "7,3", "--layers", "3", "--grid-h", "0.03125"), 3),
        (("harnack", "--tiling", "7,3"), 3),
        (("roundtrip", "--tiling", "7,3", "--radii", "3:5"), 5),
    ], ids=["pack", "analyze", "capacity", "harnack", "roundtrip"])
    def test_grown_once_to_the_largest_radius(self, tmp_path, monkeypatch, args, depth):
        depths = []

        def recording(p, q, layers):
            depths.append(layers)
            return generate_tiling(p, q, layers)

        monkeypatch.setattr(cli, "generate_tiling", recording)
        assert run(tmp_path, *args) == 0
        assert depths == [depth]


# for both_entries: a sample count below the library's floor, in its words:
# 4 k_max for roundtrip's trace (4 when k_max is derived, since no derived
# k_max is below 1) and 64 for douglas
NTHETA_CASES = [
    ("roundtrip-ntheta-kmax",
     ("roundtrip", "--tiling", "7,3", "--radii", "8:8", "--kmax", "5", "--ntheta", "8"),
     {"command": "roundtrip", "tiling": (7, 3), "radii": (8, 8), "k_max": 5, "n_theta": 8},
     "n_theta must be an integer of at least 20, got 8"),
    ("roundtrip-ntheta", ("roundtrip", "--tiling", "7,3", "--radii", "8:8", "--ntheta", "2"),
     {"command": "roundtrip", "tiling": (7, 3), "radii": (8, 8), "n_theta": 2},
     "n_theta must be an integer of at least 4, got 2"),
    ("douglas-ntheta", ("douglas", "--kmax", "2", "--ntheta", "8"),
     {"command": "douglas", "k_max": 2, "n_theta": 8},
     "n_theta must be an integer of at least 64, got 8"),
]


class TestExitCodes:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_missing_source_is_config_error(self, tmp_path, capsys, entry):
        refused(capsys, tmp_path / "out", entry, ["pack"], {"command": "pack"},
                "provide a map source: --map, --tiling, or --grid")

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_two_sources_is_config_error(self, tmp_path, capsys, entry):
        refused(capsys, tmp_path / "out", entry,
                ["pack", "--grid", "4", "--tiling", "7,3"],
                {"command": "pack", "grid": (4, 4), "tiling": (7, 3)},
                "provide exactly one of --map, --tiling, --grid")

    def test_bad_tolerance_is_config_error(self, tmp_path):
        assert run(tmp_path, "pack", "--grid", "4", "--pack-tol", "-1") == 2

    @pytest.mark.parametrize("args,cause", [
        (("pack", "--grid", "5", "--pack-tol", "inf"), "pack_tol must be finite and positive"),
        (("pack", "--grid", "5", "--pack-tol", "nan"), "pack_tol must be finite and positive"),
        (("capacity", "--grid", "5", "--delta", "inf"), "delta must lie in (0, 1/2], got inf"),
        (("capacity", "--grid", "5", "--grid-h", "inf"),
         "grid_h must lie in (0, 1/4], got inf"),
        (("roundtrip", "--tiling", "7,3", "--eps-trace", "inf"),
         "eps_trace must lie strictly between 0 and 1, got inf"),
    ], ids=["pack-tol-inf", "pack-tol-nan", "delta-inf", "grid-h-inf", "eps-trace-inf"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, args, cause):
        # an infinite tolerance would pass a packing that does not pack
        assert run(tmp_path, *args) == 2
        assert cause in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_malformed_tiling_is_config_error(self, tmp_path, capsys):
        assert run(tmp_path, "pack", "--tiling", "7") == 2
        assert "cannot parse tiling" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("pack", "--grid", "5", "--seed", "1"),
        ("analyze", "--grid", "5", "--seed", "1"),
        ("douglas", "--seed", "1"),
        ("capacity", "--grid", "5", "--seed", "1"),
        ("roundtrip", "--tiling", "7,3", "--seed", "1"),
        ("evaluate", "--boundary-csv", "b.csv", "--points", "p.csv", "--seed", "1"),
        ("douglas", "--pack-tol", "1e-9"),
        ("evaluate", "--boundary-csv", "b.csv", "--points", "p.csv",
         "--pack-tol", "1e-9"),
        ("roundtrip", "--tiling", "7,3", "--layers", "2"),
        ("roundtrip", "--tiling", "7,3", "--radius", "2"),
    ], ids=lambda args: f"{args[0]}{args[-2]}")
    def test_option_the_command_ignores_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(out, *args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: unrecognized arguments: {' '.join(args[-2:])}"]
        assert not out.exists()

    @pytest.mark.parametrize("args, cause", [
        (("pack", "--tiling", "7,3", "--layers", "abc"),
         "argument --layers: invalid int value: 'abc'"),
        (("pack", "--grid", "5", "--boundary-mode", "flat"),
         "argument --boundary-mode: invalid choice: 'flat'"),
        (("pack", "--tiling"), "argument --tiling: expected one argument"),
        (("bend", "--grid", "5"), "argument command: invalid choice: 'bend'"),
    ], ids=["bad-int", "bad-choice", "no-value", "bad-command"])
    def test_argparse_error_is_one_line(self, tmp_path, capsys, args, cause):
        refused(capsys, tmp_path / "out", "main", args, None, cause)

    @pytest.mark.parametrize("args", [("--help",), ("pack", "--help")])
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(args))
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: doublepack")

    def test_missing_map_file_is_io_error(self, tmp_path):
        assert run(tmp_path, "pack", "--map",
                   str(tmp_path / "nothing.json")) == 4

    def test_pendant_vertices_are_bad_input(self, tmp_path):
        # the (4,4) ball of depth 2 has pendant vertices that no face corner
        # places; rejected before solving, not by layout (exit 3)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(generate_tiling(4, 4, 2))))
        assert run(tmp_path, "pack", "--map", str(path)) == 2

    @pytest.mark.parametrize("payload", [
        {"vertices": 2, "rotations": [1, [0]]},
        {"vertices": 3, "rotations": [[1, 2], [2, 0], [0, 1.5]]},
        {"vertices": 3, "rotations": [[1, 2], [2, 0], [0, 1]], "conductances": [[0, 1]]},
    ], ids=["rotation-not-a-list", "non-integer-neighbor", "short-conductance"])
    def test_malformed_map_file_is_bad_input(self, tmp_path, payload, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        assert run(tmp_path, "pack", "--map", str(path)) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_rim_that_splits_the_interior_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "wheels.json"
        path.write_text(json.dumps({"vertices": 9, "rotations": TWO_WHEELS}))
        assert run(tmp_path, "pack", "--map", str(path)) == 2
        assert "interior of the truncation is not connected" in capsys.readouterr().err

    def test_pinched_rim_is_bad_input(self, tmp_path, capsys):
        # the outer face visits vertex 1 twice; refused before any solve
        path = tmp_path / "pinched.json"
        path.write_text(json.dumps({"vertices": 8, "rotations": PINCHED_WHEEL}))
        assert run(tmp_path, "pack", "--map", str(path)) == 2
        assert "outer face visits rim vertex 1 twice" in capsys.readouterr().err

    @pytest.mark.parametrize("tiling, layers", [("4,4", "3"), ("3,7", "1")])
    def test_ball_whose_rim_is_not_its_boundary_is_bad_input(self, tmp_path, capsys,
                                                             tiling, layers):
        out = tmp_path / "out"
        assert cli.main(["pack", "--tiling", tiling, "--layers", layers,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "outer face rim" in err[0]
        assert not out.exists()

    def test_non_planar_map_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "k5.json"
        path.write_text(json.dumps({"vertices": 5, "rotations": [
            [u for u in range(5) if u != v] for v in range(5)]}))
        assert run(tmp_path, "pack", "--map", str(path)) == 2
        assert "genus 2" in capsys.readouterr().err

    def test_root_outside_the_map_is_bad_input(self, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(generate_tiling(7, 3, 3))))
        assert run(tmp_path, "pack", "--map", str(path), "--root", "999",
                   "--radius", "2") == 2
        assert "root 999 is not a vertex of the map" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, args, config, cause", both_entries(MAP_SOURCE_CASES))
    def test_option_the_map_source_ignores_is_bad_input(self, tmp_path, capsys, entry,
                                                        args, config, cause):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(generate_tiling(7, 3, 3))))
        argv = [str(path) if a == "MAP" else a for a in args]
        config = {k: str(path) if v == "MAP" else v for k, v in config.items()}
        refused(capsys, tmp_path / "out", entry, argv, config, cause)

    @pytest.mark.parametrize("entry, args, config, cause", both_entries([
        ("roundtrip-grid", ("roundtrip", "--grid", "5"),
         {"command": "roundtrip", "grid": (5, 5)},
         "roundtrip sweeps truncation radii; provide --tiling or --map"),
        ("evaluate-no-files", ("evaluate",), {"command": "evaluate"},
         "evaluate needs --boundary-csv and --points"),
        ("evaluate-no-points", ("evaluate", "--boundary-csv", "b.csv"),
         {"command": "evaluate", "boundary_csv": "b.csv"},
         "evaluate needs --boundary-csv and --points"),
        ("harnack-n-fields", ("harnack", "--tiling", "7,3", "--n-fields", "0"),
         {"command": "harnack", "tiling": (7, 3), "n_fields": 0},
         "n_fields must be at least 1, got 0"),
        ("harnack-n-balls", ("harnack", "--tiling", "7,3", "--n-balls", "-3"),
         {"command": "harnack", "tiling": (7, 3), "n_balls": -3},
         "n_balls must be at least 1, got -3"),
        ("harnack-pairs", ("harnack", "--tiling", "7,3", "--pairs-per-ball", "-2"),
         {"command": "harnack", "tiling": (7, 3), "pairs_per_ball": -2},
         "pairs_per_ball must be at least 1, got -2"),
        ("harnack-seed", ("harnack", "--tiling", "7,3", "--seed", "-1"),
         {"command": "harnack", "tiling": (7, 3), "seed": -1},
         "seed must be at least 0, got -1"),
    ]) + [
        # argparse refuses these on argv: a field the command does not read
        # keeps RunConfig's default, None for layers and root included
        pytest.param("run", None, {"command": "douglas", "tiling": (7, 3)},
                     "douglas does not read --tiling", id="douglas-tiling-run"),
        pytest.param("run", None, {"command": "douglas", "layers": 3},
                     "douglas does not read --layers", id="douglas-layers-run"),
        pytest.param("run", None, {"command": "roundtrip", "tiling": (7, 3), "seed": 1},
                     "roundtrip does not read --seed", id="roundtrip-seed-run"),
        pytest.param("run", None, {"command": "douglas", "target": np.array([1, 2])},
                     "douglas does not read --target", id="douglas-array-target-run"),
        pytest.param("run", None, {"command": "bend", "grid": (5, 5)},
                     "unknown command 'bend'", id="unknown-command-run"),
        pytest.param("run", None, {"command": ["pack"], "grid": (5, 5)},
                     "unknown command ['pack']", id="list-command-run"),
        # a field the command reads takes its option's type, a list for a tuple
        pytest.param("run", None, {"command": "capacity", "tiling": (7, 3),
                                   "target": np.array([0, 1])},
                     "--target must be a list of integers, got array([0, 1])",
                     id="capacity-array-target-run"),
        pytest.param("run", None, {"command": "pack", "grid": "5"},
                     "--grid must be a pair of integers, got '5'", id="pack-str-grid-run"),
        pytest.param("run", None, {"command": "pack", "tiling": (7, 3), "layers": 2.5},
                     "--layers must be an integer, got 2.5", id="pack-float-layers-run"),
    ] + both_entries([
        # a ball of radius 0 is no truncation, and a root below 0 no vertex;
        # both are refused before the map file is read
        ("layers-0", ("pack", "--tiling", "7,3", "--layers", "0"),
         {"command": "pack", "tiling": (7, 3), "layers": 0},
         "layers must be at least 1, got 0"),
        ("radius-0", ("pack", "--map", "m.json", "--radius", "0"),
         {"command": "pack", "map_file": "m.json", "radius": 0},
         "radius must be at least 1, got 0"),
        ("root-negative", ("pack", "--map", "m.json", "--radius", "2", "--root", "-1"),
         {"command": "pack", "map_file": "m.json", "radius": 2, "root": -1},
         "root must be at least 0, got -1"),
        # the library's own ranges and wording, before the ball is packed
        ("capacity-delta", ("capacity", "--tiling", "7,3", "--delta", "0.7"),
         {"command": "capacity", "tiling": (7, 3), "delta": 0.7},
         "delta must lie in (0, 1/2], got 0.7"),
        ("capacity-grid-h", ("capacity", "--tiling", "7,3", "--grid-h", "0.3"),
         {"command": "capacity", "tiling": (7, 3), "grid_h": 0.3},
         "grid_h must lie in (0, 1/4], got 0.3"),
        ("roundtrip-eps-trace", ("roundtrip", "--tiling", "7,3", "--eps-trace", "1.5"),
         {"command": "roundtrip", "tiling": (7, 3), "eps_trace": 1.5},
         "eps_trace must lie strictly between 0 and 1, got 1.5"),
    ] + NTHETA_CASES))
    def test_request_the_command_cannot_run_is_refused(self, tmp_path, capsys, monkeypatch,
                                                       entry, args, config, cause):
        # the gate refuses before any map is built: building one would fail here
        monkeypatch.setattr(cli, "_truncations", None)
        refused(capsys, tmp_path / "out", entry, args, config, cause)

    @pytest.mark.parametrize("entry, args, config, cause", both_entries(NTHETA_CASES))
    def test_sample_count_below_the_floor_is_refused_before_the_tiling(
            self, tmp_path, capsys, monkeypatch, entry, args, config, cause):
        # the r=8 ball would take a fraction of a second to grow and pack
        def unreachable(*args):
            raise AssertionError("the tiling was generated")

        monkeypatch.setattr(cli, "generate_tiling", unreachable)
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_text("kept")
        if entry == "main":
            assert cli.main([*args, "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0] == f"error: {cause}"
        else:
            with pytest.raises(ConfigError, match=re.escape(cause)):
                cli.run(cli.RunConfig(out_dir=str(out), **config))
        assert [(p.name, p.read_text()) for p in out.iterdir()] == [("kept.txt", "kept")]

    @pytest.mark.parametrize("args, code", [
        (("pack", "--tiling", "4,4", "--layers", "3"), 2),
        (("roundtrip", "--map", "MAP", "--radii", "5:5"), 2),
        (("pack", "--grid", "31", "--pack-tol", "1e-14"), 3),
        (("evaluate", "--boundary-csv", "missing.csv", "--points", "missing.csv"), 4),
    ], ids=["rim-not-boundary", "radius-past-the-map", "stall", "missing-file"])
    def test_failed_handler_leaves_no_output_directory(self, tmp_path, capsys, args,
                                                       code):
        # the handler runs before --out is made, so its failure leaves none
        path = tmp_path / "map.json"
        path.write_text(json.dumps(map_to_json(generate_tiling(7, 3, 3))))
        out = tmp_path / "out"
        assert run(out, *[str(path) if a == "MAP" else a for a in args]) == code
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    def test_failed_write_leaves_the_output_directory_as_it_was(self, tmp_path, capsys,
                                                                 monkeypatch):
        out = tmp_path / "out"
        assert run(out, "douglas", "--kmax", "2", "--ntheta", "256") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        write_text, written = Path.write_text, []

        def full_disk(path, *args, **kwargs):
            written.append(path)
            if len(written) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert run(out, "douglas", "--kmax", "3", "--ntheta", "256") == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        # both artifacts as the first run left them, and no temporary name
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # an output directory the failed request made, parents included, is gone
        written.clear()
        assert run(tmp_path / "new" / "out", "douglas", "--kmax", "3") == 4
        assert not (tmp_path / "new").exists()

    def test_artifact_name_taken_by_a_directory_leaves_the_output_as_it_was(self, tmp_path,
                                                                           capsys):
        out = tmp_path / "out"
        assert run(out, "pack", "--grid", "5") == 0
        before = (out / "packing.json").read_bytes()
        (out / "packing.svg").unlink()
        (out / "packing.svg").mkdir()
        capsys.readouterr()
        assert run(out, "pack", "--grid", "6") == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "packing.svg" in err[0]
        # nothing replaced, and no temporary name left
        assert (out / "packing.json").read_bytes() == before
        assert sorted(path.name for path in out.iterdir()) == ["packing.json", "packing.svg"]

    def test_derived_trace_depth_too_deep_is_bad_input(self, tmp_path, capsys):
        # no --eps-trace: on the radius-1 ball the default, four boundary
        # radii, is past the unit circle, and the message says where it came from
        assert run(tmp_path, "roundtrip", "--tiling", "7,3", "--radii", "1:1") == 2
        err = capsys.readouterr().err
        assert "derived eps_trace" in err
        assert "larger truncation radius" in err

    @pytest.mark.parametrize("args, cause", [
        (("capacity", "--tiling", "7,3", "--layers", "3", "--grid-h", "0.00002"),
         "grid_h = 2e-05 asks for a lattice of 1e+10 nodes"),
        (("douglas", "--ntheta", "1000000000"),
         "n_theta = 1000000000 samples exceed the size budget 8388608"),
        (("pack", "--grid", "100000"),
         "a 100000x100000 grid patch has 10000000000 vertices; "
         "the size budget is 8388608"),
    ], ids=["lattice", "douglas", "grid"])
    def test_oversized_request_is_bad_input(self, tmp_path, capsys, args, cause):
        out = tmp_path / "out"
        assert cli.main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and cause in err[0]
        assert not out.exists()

    def test_out_of_memory_is_bad_input(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        _, *entry = cli._COMMANDS["douglas"]
        monkeypatch.setitem(cli._COMMANDS, "douglas", (exhausted, *entry))
        assert run(tmp_path, "douglas") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the request ran out of memory: "
                       "Unable to allocate 74.5 GiB for an array"]

    def test_stall_below_the_walk_floor_quotes_the_walked_defect(self, tmp_path, capsys):
        # the hyperbolic iterates reach 1e-14, the radii walked from them do
        # not, and the solve stops once the walked defects stop falling
        assert run(tmp_path, "pack", "--grid", "31", "--pack-tol", "1e-14") == 3
        err = capsys.readouterr().err
        walked = re.search(r"walked Euclidean defect (\S+), above tol 1\.000e-14 "
                           r"\(hyperbolic \S+\), after (\d+) steps", err)
        assert walked and float(walked.group(1)) > 1e-14
        assert int(walked.group(2)) <= 15

    def test_unreachable_tolerance_is_convergence_error(self, tmp_path):
        assert run(tmp_path, "pack", "--tiling", "7,3", "--layers", "2",
                   "--pack-tol", "1e-30") == 3

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DOUBLEPACK_OUT", str(tmp_path))
        assert cli.main(["douglas", "--kmax", "1", "--ntheta", "256"]) == 0
        assert (tmp_path / "douglas.csv").exists()
