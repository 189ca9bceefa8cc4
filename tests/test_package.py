"""The package namespace republishes exactly the modules' public names."""

import types

import bctlab
from bctlab import families, gf2n, sbox, tables, verify, walsh

MODULES = (gf2n, sbox, tables, walsh, families, verify)


def test_package_names_are_the_union_of_module_all():
    public = {
        name
        for name, value in vars(bctlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(m.__all__ for m in MODULES))


def test_every_listed_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bctlab, name) is getattr(module, name), f"{module.__name__}.{name}"
