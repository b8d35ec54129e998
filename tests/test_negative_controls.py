"""Negative controls: the degree-d harmonic pairs (Re z^d)^±.

For d >= 2 these pairs are not one-dimensional, so a diagnostic that
certifies one-dimensionality must reject them; d = 1 is the half-plane
pair and must pass.  Their closed forms H = pi r^{2d}, N = d,
J = (d pi/2)^2 r^{4d-4} and L = sqrt(pi) r^d are the exact oracles for
d = 2 and 3.  None of this is one of the thirteen acceptance criteria.
"""

import math

import pytest

from segsym.blowdown import compute_L
from segsym.diagnostics import (
    acf_J,
    almgren_H,
    almgren_N,
    cone_monotonicity,
    flatness_direction,
    gradient_bounds,
    product_bounds,
)
from segsym.grid import square_grid
from segsym.presets import harmonic_pair, linear_pair


@pytest.fixture(scope="module")
def g513():
    return square_grid(1.0, 513)


@pytest.fixture(scope="module")
def pairs(g513):
    """degree -> the harmonic pair on g513, built once."""
    return {d: harmonic_pair(g513, d) for d in (1, 2, 3)}


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


# ---------------------------------------------------------------------------
# exact oracles: the closed forms of the degree-d pair, within criterion
# 2's relative tolerance 5h


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("r", [0.3, 0.9])
def test_harmonic_pair_oracles(g513, pairs, d, r):
    u, v = pairs[d]
    tol = 5.0 * g513.h
    exact = {
        "H": math.pi * r ** (2 * d),
        "N": float(d),
        "J": (d * math.pi / 2.0) ** 2 * r ** (4 * d - 4),
        "L": math.sqrt(math.pi) * r**d,
    }
    # the pair is segregated (uv = 0), so kappa does not enter
    got = {
        "H": almgren_H(u, v, (0.0, 0.0), r),
        "N": almgren_N(u, v, 1.0, (0.0, 0.0), r),
        "J": acf_J(u, v, 1.0, (0.0, 0.0), r),
        "L": compute_L(u, v, r),
    }
    for name, value in exact.items():
        assert abs(got[name] - value) <= tol * value, name


# ---------------------------------------------------------------------------
# rejection: each inequality that tells d >= 2 from the 1D pair holds
# with a margin of at least 10x its tolerance


def test_cone_monotonicity_rejects_saddle_pairs(g513, pairs):
    # measured: 0 / 2.8067 / 3.9688 for d = 1 / 2 / 3
    tol = 5.0 * g513.h
    assert cone_monotonicity(*pairs[1], (1.0, 0.0), 0.75) <= tol
    for d in (2, 3):
        assert cone_monotonicity(*pairs[d], (1.0, 0.0), 0.75) >= 10.0 * tol


def test_gradient_bound_grows_with_degree(g513, pairs):
    # measured: 1.000 / 2.541 / 4.843; |grad Re z^d| = d |z|^{d-1} peaks
    # at the corners of the margin-shrunk square, d (0.9 sqrt 2)^{d-1}
    tol = 5.0 * g513.h
    sups = [gradient_bounds(*pairs[d], 0.1) for d in (1, 2, 3)]
    assert sups[0] == pytest.approx(1.0, abs=tol)
    assert sups[1] - sups[0] >= 10.0 * tol
    assert sups[2] - sups[1] >= 10.0 * tol


@pytest.mark.parametrize("d", [2, 3])
def test_saddle_pairs_are_segregated(pairs, d):
    # (Re z^d)^+ and (Re z^d)^- never overlap, so every product is 0.0
    assert product_bounds(*pairs[d]).sup_uv == 0.0
