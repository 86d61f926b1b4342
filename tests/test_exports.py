"""Every name a minmaps module exports in ``__all__`` must exist, and every
name the package re-exports must be in its defining module's ``__all__``."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import minmaps

MODULES = sorted(m.name for m in pkgutil.iter_modules(minmaps.__path__)
                 if m.name != "__main__")


def test_modules_found():
    assert {"graph_geometry", "pointwise", "surface", "flow"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"minmaps.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_are_exported_by_their_modules():
    tree = ast.parse(inspect.getsource(minmaps))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    unlisted = []
    for node in imports:
        module = importlib.import_module(f"minmaps.{node.module}")
        listed = getattr(module, "__all__", ())
        unlisted += [f"{node.module}.{a.name}" for a in node.names
                     if a.name not in listed]
    assert unlisted == []
