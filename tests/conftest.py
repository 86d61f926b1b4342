import os
from pathlib import Path

import pytest

import minmaps
from minmaps import presets


@pytest.fixture(scope="session", autouse=True)
def _children_import_this_checkout():
    """Interpreters that tests start import minmaps from the same sources,
    also when pytest found them through its own pythonpath setting."""
    src = str(Path(minmaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(scope="session")
def z2_33():
    return presets.z_squared_field(n=33)


@pytest.fixture(scope="session")
def z2_65():
    return presets.z_squared_field(n=65)


@pytest.fixture(scope="session")
def z2_mixed_33():
    return presets.z_squared_mixed_field(n=33)


@pytest.fixture(scope="session")
def paper_33():
    return presets.paper_example_field(n=33)


@pytest.fixture(scope="session")
def identity_33():
    return presets.identity_hyperbolic_field()


@pytest.fixture(scope="session")
def constant_33():
    return presets.constant_field()


@pytest.fixture(scope="session")
def mobius_33():
    return presets.mobius_field()


@pytest.fixture(scope="session")
def affine_33():
    return presets.affine_field()
