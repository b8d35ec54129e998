"""Negative controls: the degree-d harmonic pairs (Re z^d)^±.

For d >= 2 these pairs are not one-dimensional, so a diagnostic that
certifies one-dimensionality must reject them; d = 1 is the half-plane
pair and must pass.  None of this is one of the thirteen acceptance
criteria.
"""

import pytest

from segsym.diagnostics import flatness_direction
from segsym.grid import square_grid
from segsym.presets import harmonic_pair, linear_pair


@pytest.fixture(scope="module")
def g513():
    return square_grid(1.0, 513)


def test_harmonic_pair_degree_one_is_the_half_plane_pair(g513):
    u, v = harmonic_pair(g513, 1)
    lu, lv = linear_pair(g513)
    assert (u.values == lu.values).all() and (v.values == lv.values).all()


@pytest.mark.parametrize("d", [0, -2])
def test_harmonic_pair_rejects_low_degree(g513, d):
    with pytest.raises(ValueError):
        harmonic_pair(g513, d)


def test_harmonic_pair_rejects_fractional_degree(g513):
    with pytest.raises(TypeError):
        harmonic_pair(g513, 1.5)


def test_flatness_half_plane_pair_is_flat(g513):
    fit = flatness_direction(*harmonic_pair(g513, 1), (0.0, 0.0), 0.9)
    assert fit.h_flat <= 1e-12
    assert fit.magnitude == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d, h_flat", [(2, 0.8969), (3, 0.8170)])
def test_flatness_saddle_pairs_are_not_flat(g513, d, h_flat):
    # the ball average of grad Re z^d vanishes by symmetry, so the fit is
    # the zero model up to the stencil: the central difference of x^3 is
    # 3x^2 + h^2, which leaves h^2 e1 for d = 3.  Its direction is set by
    # that and by rounding, so only h_flat and the magnitude are checked.
    fit = flatness_direction(*harmonic_pair(g513, d), (0.0, 0.0), 0.9)
    assert fit.h_flat == pytest.approx(h_flat, abs=1e-3)
    assert fit.magnitude <= 1.01 * g513.h**2
