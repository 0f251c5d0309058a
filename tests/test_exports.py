"""Every export resolves, so removing a function cannot leave a stale name behind.

Each module's ``__all__`` names only what the module binds.  The package has
no ``__all__``: each public name it binds is one that a module lists in its
own ``__all__``, bound to the same object.
"""

import importlib
import pkgutil
import types

import pytest

import inkchannel

MODULES = {info.name: importlib.import_module(f"inkchannel.{info.name}") for info in pkgutil.iter_modules(inkchannel.__path__)}


@pytest.mark.parametrize("name", sorted(n for n, module in MODULES.items() if hasattr(module, "__all__")))
def test_every_name_in_a_module_all_resolves(name):
    module = MODULES[name]
    assert len(set(module.__all__)) == len(module.__all__), name
    for export in module.__all__:
        getattr(module, export)
    namespace = {}
    exec(f"from inkchannel.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_package_name_is_a_module_export():
    public = {n: v for n, v in vars(inkchannel).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public
    for name, value in public.items():
        owners = [m for m, module in MODULES.items() if name in getattr(module, "__all__", ()) and getattr(module, name) is value]
        assert owners, name


def test_halftone_exports_one_name_per_concept():
    assert sorted(MODULES["halftone"].__all__) == ["ALGORITHMS", "HalftoneSpec", "halftone", "screen_catalog"]
