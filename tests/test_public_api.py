"""The package's public names: `segsym.__all__` is sorted, has no
duplicates, and every name in it resolves; removed names stay removed."""

import pytest

import segsym
from segsym import diagnostics, elliptic2d


def test_all_is_sorted_without_duplicates():
    assert segsym.__all__ == sorted(set(segsym.__all__))


@pytest.mark.parametrize("name", segsym.__all__)
def test_every_public_name_resolves(name):
    assert getattr(segsym, name) is not None


@pytest.mark.parametrize(
    "module, name",
    [(elliptic2d, "solve_harmonic"), (diagnostics, "almgren_D"), (diagnostics, "almgren_H_rate")],
)
def test_removed_names_do_not_resolve(module, name):
    assert name not in segsym.__all__
    assert not hasattr(segsym, name)
    assert not hasattr(module, name)
