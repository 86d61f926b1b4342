"""The preset table: SCENARIOS and the seven builders come from the rows of
SCENARIO_SPECS, and each builder builds exactly its row."""

import pytest

from minmaps import GridChart, presets


def test_scenarios_are_the_rows():
    assert list(presets.SCENARIOS) == list(presets.SCENARIO_SPECS)


@pytest.mark.parametrize("name", sorted(presets.SCENARIO_SPECS))
def test_builder_is_the_scenario(name):
    assert getattr(presets, f"{name}_field") is presets.SCENARIOS[name]


@pytest.mark.parametrize("n", [None, 17])
@pytest.mark.parametrize("name", sorted(presets.SCENARIO_SPECS))
def test_builder_builds_its_row(name, n):
    source, target, spec, chart, default_n = presets.SCENARIO_SPECS[name]
    size = default_n if n is None else n
    want = presets.scenario_field(source, target, spec,
                                  GridChart(*chart, size, size))
    got = getattr(presets, f"{name}_field")(n=n)
    assert got.grid == want.grid
    assert got.values.tobytes() == want.values.tobytes()
    assert got.df_field.tobytes() == want.df_field.tobytes()
