"""The package namespace is the union of the library modules' export lists,
and it holds every function the benchmark times."""

import json
import types
from pathlib import Path

import doublepack
from doublepack import (continuum, errors, maps, packing, potential, render,
                        tilings, transfer)

# cli, linalg and textio are not re-exported
LIBRARY = (continuum, errors, maps, packing, potential, render, tilings, transfer)


def test_every_module_export_is_a_package_name():
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(doublepack, name, None) is getattr(module, name), \
                f"{module.__name__}.{name}"


def test_every_package_name_is_some_module_export():
    exported = {name for module in LIBRARY for name in module.__all__}
    public = {name for name, value in vars(doublepack).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - exported == set()
    assert set(doublepack.__all__) == exported


def test_every_timed_function_is_a_library_callable():
    # BENCHMARK.json times each function <module>.<function> it lists as
    # <module>.<function>.calls, and the benchmark stops if one is missing
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    timed = sorted(row["name"].removesuffix(".calls").split(".")
                   for row in spec["per_layer"] if row["name"].endswith(".calls"))
    assert len(timed) > 20
    missing = [f"{module}.{name}" for module, name in timed
               if not callable(getattr(getattr(doublepack, module, None), name, None))]
    assert missing == []


def test_deleted_names_are_gone():
    deleted = {"canonical_encoding", "vertex_function_to_csv", "load_vertex_function_csv"}
    assert deleted.isdisjoint(dir(doublepack))
    assert not hasattr(maps.PlanarMap, "copy_with_conductance")
    assert not hasattr(potential.VertexFunction, "__array__")
