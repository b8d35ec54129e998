"""Tests for the rescaling u^R = u(R·)/L(R) and direction extraction.

On the half-plane pair the closed forms are L(R) = sqrt(pi) R and
u^R = x1^+ / sqrt(pi); the rescaled shell mass at radius 1 is 1 by
construction.  The rotated profile extension checks that the fitted
direction recovers a known interface orientation.
"""

import math

import numpy as np
import pytest

from segsym.blowdown import BlowdownRecord, compute_L, direction_convergence, rescale
from segsym.diagnostics import almgren_N
from segsym.errors import (
    BallOutsideDomain,
    DomainTooLarge,
    NumericalBreakdown,
    ZeroDenominator,
)
from segsym.grid import Field, shell_integral, square_grid
from segsym.profile1d import extend_to_2d, solve_profile

SQRT_PI = math.sqrt(math.pi)


def test_record_validation():
    e = np.array([1.0, 0.0])
    BlowdownRecord(1.0, 2.0, e, 0.1, 0.2)
    with pytest.raises(ValueError):
        BlowdownRecord(0.0, 2.0, e, 0.1, 0.2)
    with pytest.raises(ValueError):
        BlowdownRecord(1.0, 0.0, e, 0.1, 0.2)
    with pytest.raises(ValueError):
        BlowdownRecord(1.0, 2.0, np.array([1.0, 1.0]), 0.1, 0.2)
    with pytest.raises(ValueError):
        BlowdownRecord(1.0, 2.0, e, -0.1, 0.2)


# ---------------------------------------------------------------------------
# L(R)


def test_L_linear_oracle(lin513):
    g, u, v = lin513
    for r in (0.3, 0.5, 0.7, 0.9):
        assert compute_L(u, v, r) == pytest.approx(SQRT_PI * r, rel=1e-4)


def test_L_doubling_ratio(lin513):
    # frequency 1 growth doubles L; the d=1 doubling cap is 2 e^{1/2}
    g, u, v = lin513
    ratio = compute_L(u, v, 0.8) / compute_L(u, v, 0.4)
    assert ratio == pytest.approx(2.0, rel=1e-4)
    assert ratio <= 2.0 * math.exp(0.5)


def test_L_errors(lin513):
    g, u, v = lin513
    z = Field.zeros(g)
    with pytest.raises(ZeroDenominator):
        compute_L(z, z, 0.5)
    with pytest.raises(BallOutsideDomain):
        compute_L(u, v, 2.0)
    with pytest.raises(ValueError):
        compute_L(u, Field.zeros(square_grid(1.0, 33)), 0.5)


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_linear_closed_form(lin513):
    g, u, v = lin513
    target = square_grid(1.2, 385)
    u_r, v_r, L = rescale(u, v, 0.5, target)
    assert L == pytest.approx(SQRT_PI * 0.5, rel=1e-4)
    X, Y = target.meshgrid()
    assert np.max(np.abs(u_r.values - np.maximum(X, 0.0) / SQRT_PI)) < 1e-4
    assert np.max(np.abs(v_r.values - np.maximum(-X, 0.0) / SQRT_PI)) < 1e-4


def test_rescale_identity(lin513):
    # R=1 with L forced to 1 on already-normalized data resamples nodes
    g, u, v = lin513
    nu = Field(g, u.values / SQRT_PI)
    nv = Field(g, v.values / SQRT_PI)
    u_r, v_r, L = rescale(nu, nv, 1.0, g, L=1.0)
    assert L == 1.0
    assert np.max(np.abs(u_r.values - nu.values)) < 1e-12
    assert np.max(np.abs(v_r.values - nv.values)) < 1e-12


def test_rescale_shell_mass_is_one(lin513):
    g, u, v = lin513
    target = square_grid(1.2, 385)
    for R in (0.3, 0.5, 0.8):
        u_r, v_r, L = rescale(u, v, R, target)
        sq = Field(target, u_r.values**2 + v_r.values**2)
        mass = shell_integral(sq, (0.0, 0.0), 1.0)
        assert mass == pytest.approx(1.0, abs=5.0 * target.h)


def test_rescale_rejects_oversized_target(lin513):
    g, u, v = lin513
    with pytest.raises(DomainTooLarge):
        rescale(u, v, 0.9, square_grid(1.2, 129))


@pytest.mark.parametrize("R, L, message", [
    (0.0, None, "R must be positive, got 0.0"),
    (-0.5, 1.0, "R must be positive, got -0.5"),
    (0.5, 0.0, "L must be positive, got 0.0"),
    (0.5, -1.0, "L must be positive, got -1.0"),
])
def test_rescale_rejects_nonpositive_R_and_L(lin513, R, L, message):
    g, u, v = lin513
    with pytest.raises(ValueError) as exc:
        rescale(u, v, R, square_grid(0.5, 17), L=L)
    assert str(exc.value) == message


def test_rescale_rejects_inconsistent_L(lin513):
    g, u, v = lin513
    # a numerical failure, not a bad argument: the CLI maps it to exit 3
    with pytest.raises(NumericalBreakdown, match="shell mass"):
        rescale(u, v, 0.5, square_grid(1.2, 385), L=5.0)
    # no unit circle in the target, so the mass check cannot run
    u_r, v_r, L = rescale(u, v, 0.5, square_grid(0.5, 129), L=5.0)
    assert L == 5.0


def test_rescale_scale_consistency():
    # N(r; u^R, v^R, kappa L^2 R^2) = N(Rr; u, v, kappa) is a pure
    # change of variables and holds for arbitrary smooth pairs
    g = square_grid(1.0, 257)
    u = Field.from_function(g, lambda x, y: 1.0 + 0.5 * x * x + 0.25 * y)
    v = Field.from_function(g, lambda x, y: 1.0 + 0.3 * y * y + 0.1 * x)
    kappa = 3.0
    R, r = 0.5, 0.8
    u_r, v_r, L = rescale(u, v, R, square_grid(1.2, 385))
    left = almgren_N(u_r, v_r, kappa * L**2 * R**2, (0.0, 0.0), r)
    right = almgren_N(u, v, kappa, (0.0, 0.0), R * r)
    assert left == pytest.approx(right, abs=1e-3)


# ---------------------------------------------------------------------------
# direction convergence


def test_direction_convergence_linear(lin513):
    g, u, v = lin513
    records, gap = direction_convergence(u, v, [0.3, 0.5, 0.7])
    assert len(records) == 3
    assert gap < 1e-6
    for rec in records:
        assert abs(rec.e[0] - 1.0) < 1e-6
        assert rec.flatness < 1e-6
        assert rec.deficit < 1e-10
        assert rec.L == pytest.approx(SQRT_PI * rec.R, rel=1e-4)


def test_direction_convergence_validation(lin513):
    g, u, v = lin513
    with pytest.raises(ValueError):
        direction_convergence(u, v, [0.3, 0.5])
    with pytest.raises(ValueError):
        direction_convergence(u, v, [0.5, 0.3, 0.7])
    with pytest.raises(ValueError):
        direction_convergence(u, v, [-0.1, 0.3, 0.5])


@pytest.fixture(scope="module")
def prof46():
    return solve_profile(46.0, 0.05)


def test_direction_convergence_recovers_rotation(prof46):
    # interface tilted 30 degrees; the fitted e must follow it and stay
    # Cauchy across radii
    g = square_grid(32.0, 513)
    th = math.radians(30.0)
    u, v = extend_to_2d(prof46, g, (math.cos(th), math.sin(th)))
    records, gap = direction_convergence(u, v, [4.0, 6.0, 8.0])
    ang = math.atan2(records[-1].e[1], records[-1].e[0])
    assert abs(math.degrees(ang) - 30.0) < 2.0
    assert math.degrees(gap) < 2.0
    flats = [rec.flatness for rec in records]
    assert flats == sorted(flats, reverse=True)
    Ls = [rec.L for rec in records]
    assert Ls == sorted(Ls)


def test_L_growth_window_profile_extension(prof46):
    # sublinear growth floor over a full decade of radii, plus the
    # doubling cap 2 e^{1/2} that L inherits from H-doubling with d = 1
    g = square_grid(32.0, 513)
    u, v = extend_to_2d(prof46, g, (1.0, 0.0))
    records, _ = direction_convergence(u, v, [3.0, 6.0, 15.0, 30.0])
    Rs = np.array([rec.R for rec in records])
    Ls = np.array([rec.L for rec in records])
    slope = np.polyfit(np.log(Rs), np.log(Ls), 1)[0]
    assert slope >= 0.8
    cap = 2.0 * math.exp(0.5)
    assert Ls[1] / Ls[0] <= cap
    assert Ls[3] / Ls[2] <= cap
