"""Every name a minmaps module exports in ``__all__`` must exist."""

import importlib
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
