"""Tests for the monotonicity functionals and geometry diagnostics.

The half-plane pair u = x⁺, v = x⁻ is the exact reference: closed-form
polar integrals give H(r) = πr², D(r) = πr², N(r) = 1, J(r) = π²/4, and
u − v = x is already harmonic, so every deficit must vanish to
quadrature accuracy.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segsym import diagnostics as dg
from segsym import grid
from segsym.blowdown import direction_convergence
from segsym.diagnostics import (
    DoublingCheck,
    FlatnessFit,
    MonotonicityTrace,
    acf_J,
    acf_trace_and_fit,
    almgren_H,
    almgren_N,
    check_doubling,
    cone_monotonicity,
    correction_constant,
    eps_mono,
    flatness_direction,
    frequency_trace,
    functional_trace,
    gradient_bounds,
    harmonic_deficit,
    nondegeneracy_exponent,
    product_bounds,
)
from segsym.elliptic2d import _disk_dirichlet_solve
from segsym.errors import NumericalBreakdown, ZeroDenominator
from segsym.grid import Field, Window, ball_integral, gradient, square_grid
from segsym.presets import linear_pair

J_LINEAR = math.pi**2 / 4


@pytest.fixture(scope="module")
def lin257():
    g = square_grid(1.0, 257)
    u, v = linear_pair(g)
    return g, u, v


# ---------------------------------------------------------------------------
# trace container


def test_trace_validation():
    r = np.array([0.1, 0.2, 0.3])
    tr = MonotonicityTrace("N", (0.0, 0.0), r, np.array([1.0, 2.0, 4.0]), 1.0)
    assert tr.min_pairwise_slope() == pytest.approx(10.0)
    with pytest.raises(ValueError):
        MonotonicityTrace("N", (0.0, 0.0), r[::-1], np.ones(3), 1.0)
    with pytest.raises(ValueError):
        MonotonicityTrace("N", (0.0, 0.0), np.array([-0.1, 0.2]), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        MonotonicityTrace("N", (0.0, 0.0), r, np.ones(2), 1.0)
    with pytest.raises(NumericalBreakdown):
        MonotonicityTrace("N", (0.0, 0.0), r, np.array([1.0, np.nan, 1.0]), 1.0)
    with pytest.raises(ValueError):
        MonotonicityTrace("N", (0.0, 0.0), np.array([0.5]), np.array([1.0]), 1.0).min_pairwise_slope()


def test_eps_mono_is_five_h():
    g = square_grid(1.0, 129)
    assert eps_mono(g) == pytest.approx(5.0 * g.h)


def test_pair_must_share_grid():
    u = Field.zeros(square_grid(1.0, 17))
    v = Field.zeros(square_grid(1.0, 33))
    with pytest.raises(ValueError):
        functional_trace("D", u, v, 1.0, (0.0, 0.0), [0.5])


# ---------------------------------------------------------------------------
# closed forms on the half-plane pair


def test_H_oracle(lin513):
    g, u, v = lin513
    for r in (0.3, 0.5, 0.7, 0.9):
        H = almgren_H(u, v, (0.0, 0.0), r)
        assert H == pytest.approx(math.pi * r * r, rel=1e-4)


def test_D_oracle(lin513):
    # |grad u|^2 + |grad v|^2 == 1 a.e., so D(r) is the disk area
    g, u, v = lin513
    for r in (0.3, 0.5, 0.9):
        D = functional_trace("D", u, v, 7.0, (0.0, 0.0), [r]).values[0]
        assert D == pytest.approx(math.pi * r * r, rel=5e-3)


def test_N_oracle(lin513):
    g, u, v = lin513
    for r in (0.3, 0.5, 0.7, 0.9):
        N = almgren_N(u, v, 1.0, (0.0, 0.0), r)
        assert abs(N - 1.0) < 5e-3


def test_J_oracle(lin513):
    g, u, v = lin513
    for r in (0.3, 0.5, 0.7, 0.9):
        J = acf_J(u, v, 1.0, (0.0, 0.0), r)
        assert J == pytest.approx(J_LINEAR, rel=1e-2)


def test_N_zero_denominator():
    g = square_grid(1.0, 33)
    z = Field.zeros(g)
    with pytest.raises(ZeroDenominator):
        almgren_N(z, z, 1.0, (0.0, 0.0), 0.5)


def test_frequency_trace_flat_on_linear(lin513):
    g, u, v = lin513
    tr = frequency_trace(u, v, 1.0, (0.0, 0.0), np.linspace(0.1, 0.9, 9))
    assert tr.name == "N" and tr.x == (0.0, 0.0)
    assert np.max(np.abs(tr.values - 1.0)) < 0.02
    assert tr.min_pairwise_slope() > -1e-3


def test_functional_trace_matches_pointwise(lin257):
    g, u, v = lin257
    radii = np.array([0.3, 0.6])
    trD = functional_trace("D", u, v, 2.0, (0.0, 0.0), radii)
    trH = functional_trace("H", u, v, 2.0, (0.0, 0.0), radii)
    trJ = functional_trace("J", u, v, 2.0, (0.0, 0.0), radii)
    for i, r in enumerate(radii):
        trD1 = functional_trace("D", u, v, 2.0, (0.0, 0.0), [r])
        assert trD.values[i] == pytest.approx(trD1.values[0], abs=1e-14)
        assert trH.values[i] == pytest.approx(almgren_H(u, v, (0.0, 0.0), r), abs=1e-14)
        assert trJ.values[i] == pytest.approx(acf_J(u, v, 2.0, (0.0, 0.0), r), abs=1e-14)
    with pytest.raises(ValueError):
        functional_trace("Q", u, v, 2.0, (0.0, 0.0), radii)


def test_J_trace_builds_ball_weights_once_per_radius(lin257, monkeypatch):
    # both ball integrals of J(r) share one set of weights
    _, u, v = lin257
    calls = []
    real = grid.ball_weights

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(grid, "ball_weights", counting)
    monkeypatch.setattr(dg, "ball_weights", counting)
    radii = np.array([0.2, 0.4, 0.6])
    tr = functional_trace("J", u, v, 2.0, (0.0, 0.0), radii)
    assert len(calls) == radii.size
    for i, r in enumerate(radii):
        assert tr.values[i] == pytest.approx(acf_J(u, v, 2.0, (0.0, 0.0), r), abs=1e-14)


def test_rotation_equivariance():
    # quarter-turn rotations map the lattice and both quadratures onto
    # themselves, so the functionals of the rotated pair are identical
    g = square_grid(1.0, 257)
    u1, v1 = linear_pair(g, (1.0, 0.0))
    u2, v2 = linear_pair(g, (0.0, 1.0))
    for r in (0.3, 0.7):
        assert abs(
            almgren_N(u1, v1, 1.0, (0.0, 0.0), r) - almgren_N(u2, v2, 1.0, (0.0, 0.0), r)
        ) < 1e-12
        assert abs(
            acf_J(u1, v1, 1.0, (0.0, 0.0), r) - acf_J(u2, v2, 1.0, (0.0, 0.0), r)
        ) < 1e-12


# ---------------------------------------------------------------------------
# doubling


def test_doubling_linear_pass(lin513):
    g, u, v = lin513
    tr = functional_trace("H", u, v, 1.0, (0.0, 0.0), np.linspace(0.1, 0.9, 17))
    for r1 in (0.1, 0.2, 0.45):
        chk = check_doubling(tr, 1.0, r1, 2.0 * r1)
        assert isinstance(chk, DoublingCheck)
        assert chk.passed
        # H ~ r^2 gives ratio 4, bound e * 4
        assert chk.ratio == pytest.approx(4.0, rel=1e-3)
        assert chk.bound == pytest.approx(4.0 * math.e, rel=1e-12)


def test_doubling_equal_radii_passes(lin513):
    g, u, v = lin513
    tr = functional_trace("H", u, v, 1.0, (0.0, 0.0), np.array([0.3, 0.6]))
    chk = check_doubling(tr, 1.0, 0.4, 0.4)
    assert chk.passed and chk.ratio == pytest.approx(1.0)


def test_doubling_rejects_fast_growth():
    # H ~ r^6 corresponds to frequency 3; the d=1 bound must fail
    radii = np.linspace(0.1, 0.9, 9)
    tr = MonotonicityTrace("H", (0.0, 0.0), radii, 2 * math.pi * radii**6, 0.0)
    chk = check_doubling(tr, 1.0, 0.2, 0.4)
    assert not chk.passed
    assert chk.ratio == pytest.approx(64.0, rel=1e-9)


def test_doubling_validation():
    radii = np.linspace(0.1, 0.9, 5)
    tr = MonotonicityTrace("H", (0.0, 0.0), radii, radii**2, 0.0)
    with pytest.raises(ValueError):
        check_doubling(tr, 1.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        check_doubling(tr, 1.0, 0.05, 0.2)
    zero = MonotonicityTrace("H", (0.0, 0.0), radii, np.zeros(5), 0.0)
    with pytest.raises(ZeroDenominator):
        check_doubling(zero, 1.0, 0.2, 0.4)


@pytest.mark.parametrize(
    "d, r1, r2",
    [
        (1.0, math.nan, 0.5),
        (1.0, 0.2, math.nan),
        (math.nan, 0.2, 0.4),
        (math.inf, 0.2, 0.4),
        (1.0, -math.inf, 0.4),
    ],
)
def test_doubling_rejects_non_finite(d, r1, r2):
    # every comparison with NaN is false, so the range checks alone let
    # a NaN radius through to ratio = nan
    radii = np.linspace(0.1, 0.9, 5)
    tr = MonotonicityTrace("H", (0.0, 0.0), radii, radii**2, 0.0)
    with pytest.raises(ValueError, match="finite"):
        check_doubling(tr, d, r1, r2)


# ---------------------------------------------------------------------------
# ACF correction fit


def test_correction_zero_on_linear(lin513):
    g, u, v = lin513
    tr, c = acf_trace_and_fit(u, v, 1.0, (0.0, 0.0), np.linspace(0.3, 0.9, 7))
    assert c == 0.0
    assert np.max(np.abs(tr.values - J_LINEAR)) < 0.07


def test_correction_constant_fits_dip():
    radii = np.array([1.0, 2.0, 3.0])
    values = np.array([1.0, 0.5, 1.0])
    c = correction_constant(radii, values)
    assert math.isfinite(c) and c > 0.0
    corrected = np.exp(-c * radii**-0.5) * values
    assert np.all(np.diff(corrected) >= -1e-9)
    # any smaller constant must leave the dip uncorrected
    half = np.exp(-0.5 * c * radii**-0.5) * values
    assert np.min(np.diff(half)) < 0.0


def test_correction_constant_sentinel_and_errors():
    assert correction_constant([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert correction_constant([100.0, 400.0], [1.0, 1e-30]) == math.inf
    with pytest.raises(ZeroDenominator):
        correction_constant([1.0, 2.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        correction_constant([1.0, 2.0], [1.0, 2.0, 3.0])


def assert_least_correction(radii, values, c):
    """c meets every pairwise constraint up to rounding, and
    c (1 - 1e-13) breaks one."""
    dlog = np.diff(np.log(values))
    ds = np.diff(np.asarray(radii) ** -0.5)
    rounding = 8.0 * np.finfo(float).eps * (np.abs(dlog) + np.abs(c * ds))
    assert np.all(dlog - c * ds >= -dg._CFIT_SLACK - rounding)
    if c > 0.0:
        assert np.any(dlog - c * (1.0 - 1e-13) * ds < -dg._CFIT_SLACK)


def test_correction_constant_is_least_on_dip():
    radii = np.array([1.0, 2.0, 3.0])
    values = np.array([1.0, 0.5, 1.0])
    assert_least_correction(radii, values, correction_constant(radii, values))


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(0.01, 10.0),
    steps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=12),
    logs=st.lists(st.floats(-3.0, 3.0), min_size=13, max_size=13),
)
def test_correction_constant_is_least(start, steps, logs):
    radii = start + np.concatenate(([0.0], np.cumsum(steps)))
    assume(np.all(np.diff(radii) > 0.0))
    values = np.exp(np.array(logs[: radii.size]))
    # a log step within rounding of the 1e-12 slack cannot resolve a
    # 1e-13 relative change of C
    assume(np.all(np.abs(np.diff(np.log(values))) > 1e-9))
    c = correction_constant(radii, values)
    assume(math.isfinite(c))
    assert_least_correction(radii, values, c)


def test_correction_constant_flat_step():
    # r^{-1/2} rounds to the same float at 1000 and the next float above,
    # so a drop between them is uncorrectable, and a rise needs no C
    radii = [1000.0, np.nextafter(1000.0, 2000.0)]
    assert np.diff(np.asarray(radii) ** -0.5)[0] == 0.0
    assert correction_constant(radii, [2.0, 1.0]) == math.inf
    assert correction_constant(radii, [1.0, 2.0]) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correction_constant_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="values must be finite"):
        correction_constant([1.0, 2.0, 3.0], [1.0, bad, 2.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda u, v, r: MonotonicityTrace("N", (0.0, 0.0), r, np.ones(r.size), 1.0),
        lambda u, v, r: functional_trace("N", u, v, 1.0, (0.0, 0.0), r),
        lambda u, v, r: correction_constant(r, np.ones(r.size)),
        lambda u, v, r: nondegeneracy_exponent(u, v, (0.0, 0.0), r),
        lambda u, v, r: direction_convergence(u, v, r),
    ],
    ids=["MonotonicityTrace", "functional_trace", "correction_constant",
         "nondegeneracy_exponent", "direction_convergence"],
)
@pytest.mark.parametrize("bad", [[0.1, 0.2, np.nan], [0.1, 0.2, np.inf], [np.nan, 0.1, 0.2]])
def test_non_finite_radii_rejected(lin257, call, bad):
    g, u, v = lin257
    with pytest.raises(ValueError, match="radii must be finite"):
        call(u, v, np.array(bad))


def test_two_dimensional_radii_rejected(lin257):
    g, u, v = lin257
    radii = np.array([[0.1, 0.2, 0.3]])
    for call in (
        lambda: functional_trace("N", u, v, 1.0, (0.0, 0.0), radii),
        lambda: nondegeneracy_exponent(u, v, (0.0, 0.0), radii),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "radii must be a nonempty 1D array"


def test_acf_zero_pair_raises():
    g = square_grid(1.0, 33)
    z = Field.zeros(g)
    with pytest.raises(ZeroDenominator):
        acf_trace_and_fit(z, z, 1.0, (0.0, 0.0), np.array([0.3, 0.6]))


# ---------------------------------------------------------------------------
# growth and segregation measurements


def test_nondegeneracy_exponent_linear(lin513):
    # int_{dB_r} (u + v) = 4 r^2 exactly, slope 2 in log-log
    g, u, v = lin513
    expo = nondegeneracy_exponent(u, v, (0.0, 0.0), np.array([0.2, 0.4, 0.8]))
    assert expo == pytest.approx(2.0, abs=1e-3)
    z = Field.zeros(g)
    with pytest.raises(ZeroDenominator):
        nondegeneracy_exponent(z, z, (0.0, 0.0), np.array([0.2, 0.4, 0.8]))
    with pytest.raises(ValueError):
        nondegeneracy_exponent(u, v, (0.0, 0.0), np.array([0.2, 0.4]))


def test_product_bounds_segregated(lin257):
    g, u, v = lin257
    pb = product_bounds(u, v)
    assert pb.sup_uv == 0.0
    assert pb.sup_mixed == 0.0
    assert pb.mass_exponent == 0.0


def test_product_bounds_overlapping():
    g = square_grid(1.0, 129)
    one = Field(g, np.ones((129, 129)))
    pb = product_bounds(one, one)
    assert pb.sup_uv == pytest.approx(1.0)
    assert pb.sup_mixed == pytest.approx(0.0, abs=1e-12)
    # int_{B_R} 1 = pi R^2, so the mass exponent is the area power
    assert pb.mass_exponent == pytest.approx(2.0, abs=1e-6)


def test_gradient_bounds_linear(lin257):
    g, u, v = lin257
    assert gradient_bounds(u, v, 0.1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gradient_bounds(u, v, 0.5 * g.h)
    with pytest.raises(ValueError):
        gradient_bounds(u, v, 3.0)


def test_overflowing_sums_raise_value_error():
    # u and v are finite, but u - v, and u + v on the shells, overflow:
    # a ValueError, as when the sum was a full-grid Field, not inf or NaN
    g = square_grid(1.0, 33)
    big = np.full((33, 33), 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="u - v overflows"):
            harmonic_deficit(Field(g, big), Field(g, -big), (0.0, 0.0), 0.5)
        with pytest.raises(ValueError, match="u \\+ v overflows"):
            nondegeneracy_exponent(Field(g, big), Field(g, big), (0.0, 0.0), [0.1, 0.2, 0.3])


@pytest.mark.parametrize("margin", [math.nan, math.inf])
def test_gradient_bounds_rejects_non_finite_margin(lin257, margin):
    # inf used to raise OverflowError and nan a float-to-int ValueError
    _, u, v = lin257
    with pytest.raises(ValueError, match="margin must be finite"):
        gradient_bounds(u, v, margin)


def test_cone_monotonicity_linear(lin257):
    g, u, v = lin257
    assert cone_monotonicity(u, v, (1.0, 0.0), 0.75) < 1e-10
    assert cone_monotonicity(u, v, (1.0, 0.0), 1.0) < 1e-10
    # swapped roles reverse both signs; the worst direction is e itself
    viol = cone_monotonicity(v, u, (1.0, 0.0), 0.75)
    assert viol == pytest.approx(1.0, abs=0.1)


def test_cone_monotonicity_validation(lin257):
    g, u, v = lin257
    with pytest.raises(ValueError):
        cone_monotonicity(u, v, (1.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        cone_monotonicity(u, v, (0.0, 0.0), 0.5)


@pytest.mark.parametrize("e", [(np.nan, 0.0), (np.inf, 0.0), (0.0, -np.inf)])
def test_cone_monotonicity_rejects_non_finite_direction(lin257, e):
    g, u, v = lin257
    with pytest.raises(ValueError, match="finite"):
        cone_monotonicity(u, v, e, 0.5)


# ---------------------------------------------------------------------------
# harmonic replacement


def test_harmonic_deficit_vanishes_on_linear(lin257):
    # u - v = x is discrete harmonic, so the replacement is itself
    g, u, v = lin257
    assert harmonic_deficit(u, v, (0.0, 0.0), 0.5) < 1e-20


def test_harmonic_deficit_pythagoras():
    # deficit = energy(w) - energy(phi) up to the rim discretization
    g = square_grid(1.0, 257)
    u = Field.from_function(g, lambda x, y: x * x)
    v = Field.zeros(g)
    R = 0.8
    d = harmonic_deficit(u, v, (0.0, 0.0), R)
    assert d > 0.1
    w = Field(g, u.values - v.values)
    win = Window.ball(g, (0.0, 0.0), R)
    phi = Field(g, w.values.copy())
    box = win.isl, win.jsl
    phi.values[box] = _disk_dirichlet_solve(win, (0.0, 0.0), R, w.values[box], 0.0)

    def dirichlet(f):
        gr = gradient(f)
        return ball_integral(Field(g, gr.magnitude_squared()), (0.0, 0.0), R)

    gap = dirichlet(w) - dirichlet(phi) - d
    assert abs(gap) < 5e-3 * dirichlet(w)


# ---------------------------------------------------------------------------
# flatness extraction


def test_flatness_linear_pair(lin257):
    g, u, v = lin257
    fit = flatness_direction(u, v, (0.0, 0.0), 0.8)
    assert isinstance(fit, FlatnessFit)
    assert abs(fit.e[0] - 1.0) < 1e-6 and abs(fit.e[1]) < 1e-6
    assert fit.h_flat < 1e-6
    assert fit.magnitude == pytest.approx(1.0, abs=1e-6)


def test_flatness_recovers_rotation():
    g = square_grid(1.0, 257)
    th = math.radians(30.0)
    u, v = linear_pair(g, (math.cos(th), math.sin(th)))
    fit = flatness_direction(u, v, (0.0, 0.0), 0.8)
    ang = math.atan2(fit.e[1], fit.e[0])
    assert ang == pytest.approx(th, abs=1e-6)
    assert fit.h_flat < 1e-6


def test_flatness_recovers_amplitude():
    g = square_grid(1.0, 257)
    u, v = linear_pair(g, (1.0, 0.0), amplitude=2.5)
    fit = flatness_direction(u, v, (0.0, 0.0), 0.8)
    assert fit.magnitude == pytest.approx(2.5, abs=1e-5)
    assert fit.h_flat < 1e-6


def test_flatness_zero_pair():
    g = square_grid(1.0, 65)
    z = Field.zeros(g)
    fit = flatness_direction(z, z, (0.0, 0.0), 0.5)
    assert fit.h_flat == 0.0 and fit.magnitude == 0.0
    assert fit.e.tolist() == [1.0, 0.0]


def test_flatness_zero_mean_gradient():
    # u = v: grad(u - v) is exactly 0, so the model is zero, e = (1, 0),
    # and h_flat is the sup of u + v over the ball nodes, over R
    g = square_grid(1.0, 65)
    f = Field(g, np.random.default_rng(3).uniform(0.0, 1.0, (65, 65)))
    fit = flatness_direction(f, f, (0.1, -0.2), 0.5)
    assert fit.e.tolist() == [1.0, 0.0]
    assert fit.magnitude == 0.0
    isl, jsl, w = grid.ball_weights(g, (0.1, -0.2), 0.5)
    assert fit.h_flat == float(np.max((2.0 * f.values[isl, jsl])[w > 0.0])) / 0.5


def test_flatness_fit_validation():
    with pytest.raises(ValueError):
        FlatnessFit(np.array([2.0, 0.0]), 0.1, 1.0)
    with pytest.raises(ValueError):
        FlatnessFit(np.array([1.0, 0.0]), -0.1, 1.0)


# ---------------------------------------------------------------------------
# a NaN in a sup scan must not read as a clean pass


def overflowing_pair(axis):
    """A 17² pair whose u has a line of 1e308 next to one of -1e308, so
    its differences overflow to ±inf and their products to NaN."""
    g = square_grid(1.0, 17)
    a = np.zeros((17, 17))
    if axis == 0:
        a[8, :], a[9, :] = 1e308, -1e308
    else:
        a[:, 8], a[:, 9] = 1e308, -1e308
    return Field(g, a), Field(g, np.zeros((17, 17)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("axis", [0, 1])
def test_nan_in_sup_scans_raises(axis):
    # Python's max(best, nan) keeps best: cone_monotonicity read 0.0 and
    # product_bounds sup_mixed -inf on this pair
    u, v = overflowing_pair(axis)
    with pytest.raises(NumericalBreakdown, match="cone scan") as exc:
        dg.cone_monotonicity(u, v, (1.0, 0.0), 0.5)
    assert exc.value.exit_code == 3
    for first, second in ((u, v), (v, u)):
        with pytest.raises(NumericalBreakdown, match="sup mixed scan"):
            dg.product_bounds(first, second)


@pytest.mark.parametrize(
    "half_width, scale, match",
    [
        # u^2 v^2 = 1e320 overflows on every node
        (1.0, 1e160, "u\\^2 v\\^2 overflows"),
        # u^2 v^2 = 1e306 is finite, its products with cells of area
        # h^2 = 977 are not
        (1000.0, 1e153, "mass sum overflows"),
    ],
)
def test_product_bounds_overflowing_mass_raises(half_width, scale, match):
    # inf times the zero weights off the disk gave NaN masses, and the
    # exponent fell to 0.0, a segregated pair's value, with no error
    g = square_grid(half_width, 65)
    u, v = Field(g, np.full((65, 65), scale)), Field(g, np.ones((65, 65)))
    with pytest.raises(NumericalBreakdown, match=match):
        product_bounds(u, v)
    # the same pair scaled down has a finite mass and the area power
    pb = product_bounds(Field(g, u.values / scale), v)
    assert pb.mass_exponent == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_ball_functionals_reject_bad_kappa(kappa):
    # every kappa-weighted ball functional shares _ball_terms, which checks
    # kappa once; a nan or inf kappa used to come back as a silent nan
    u, v = linear_pair(square_grid(1.0, 17))
    for fn in (almgren_N, acf_J):
        with pytest.raises(ValueError, match="kappa must be finite"):
            fn(u, v, kappa, (0.0, 0.0), 0.5)
    for functional in ("N", "D", "J"):
        with pytest.raises(ValueError, match="kappa must be finite"):
            functional_trace(functional, u, v, kappa, (0.0, 0.0), [0.25, 0.5])


BALL_CALLS = {
    "ball_integral": lambda u, v, c: grid.ball_integral(u, c, 0.5),
    "shell_integral": lambda u, v, c: grid.shell_integral(u, c, 0.5),
    "ball_weights": lambda u, v, c: grid.ball_weights(u.grid, c, 0.5),
    "almgren_H": lambda u, v, c: almgren_H(u, v, c, 0.5),
    "almgren_N": lambda u, v, c: almgren_N(u, v, 1.0, c, 0.5),
    "acf_J": lambda u, v, c: acf_J(u, v, 1.0, c, 0.5),
    "functional_trace": lambda u, v, c: functional_trace("D", u, v, 1.0, c, [0.25, 0.5]),
    "frequency_trace": lambda u, v, c: frequency_trace(u, v, 1.0, c, [0.25, 0.5]),
    "acf_trace_and_fit": lambda u, v, c: acf_trace_and_fit(u, v, 1.0, c, [0.25, 0.5]),
    "flatness_direction": lambda u, v, c: flatness_direction(u, v, c, 0.5),
    "harmonic_deficit": lambda u, v, c: harmonic_deficit(u, v, c, 0.5),
    "nondegeneracy_exponent": lambda u, v, c: nondegeneracy_exponent(u, v, c, [0.2, 0.3, 0.5]),
}


@pytest.mark.parametrize("center", [(0.1, 0.2, 99.0), (0.1,), (math.nan, 0.0), (math.inf, 0.0)])
@pytest.mark.parametrize("name", list(BALL_CALLS))
def test_bad_center_raises_one_value_error(name, center):
    # every function that takes a center checks it in grid._require_ball_inside:
    # a third coordinate was ignored, a lone one raised IndexError, and an
    # infinite one read as a ball outside the grid
    u, v = linear_pair(square_grid(1.0, 17))
    with pytest.raises(ValueError) as exc:
        BALL_CALLS[name](u, v, center)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"ball center must be two finite coordinates, got {center!r}"


def test_nan_center_is_rejected_before_the_shell_stencil():
    u, v = linear_pair(square_grid(1.0, 17))
    with pytest.raises(ValueError, match="finite"):
        dg.almgren_H(u, v, (math.nan, 0.0), 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_product_is_not_nan():
    # an infinite sup is a value, not a NaN: the sup scans run first and
    # pass it, so product_bounds stops at the overflowing mass sum, not
    # at a NaN in a scan
    g = square_grid(1.0, 17)
    u = Field(g, np.full((17, 17), 1e200))
    with pytest.raises(NumericalBreakdown, match="u\\^2 v\\^2 overflows"):
        dg.product_bounds(u, u)
    assert dg.cone_monotonicity(u, u, (1.0, 0.0), 0.5) == 0.0
