"""The package namespace is the union of the library modules' export lists."""

import types

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
