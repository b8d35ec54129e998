"""1D profile: convergence, symmetry, monotonicity, growth, extension."""

import numpy as np
import pytest

import segsym.profile1d as p1d
from segsym import square_grid
from segsym.config import SolveConfig
from segsym.errors import (
    DomainTooLarge,
    MultipleSignChanges,
    NoConvergence,
    NoSignChange,
)
from segsym.profile1d import (
    Profile1D,
    asymptotic_slope,
    crossing_point,
    extend_to_2d,
    solve_profile,
)


@pytest.fixture(scope="module")
def profile():
    return solve_profile(20.0, 0.05)


def test_preconditions():
    with pytest.raises(ValueError):
        solve_profile(5.0, 0.05)
    with pytest.raises(ValueError):
        solve_profile(20.0, 0.2)
    with pytest.raises(ValueError):
        solve_profile(20.0, -0.1)


def test_non_finite_residual_raises(monkeypatch):
    monkeypatch.setattr(p1d, "_sup_residual", lambda *args: float("nan"))
    with pytest.raises(NoConvergence) as exc:
        solve_profile(20.0, 0.05)
    assert exc.value.iterations == 0


def test_singular_jacobian_raises(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(p1d, "solve_banded", singular)
    with pytest.raises(NoConvergence, match="singular") as exc:
        solve_profile(20.0, 0.05)
    assert exc.value.iterations == 0


def test_newton_steps_recorded(profile):
    # the full Newton step is accepted every time from the linear start
    assert profile.newton_steps == 7


def test_residual_floor_stops_newton_early():
    # at L / h^2 = 1e6 the sup residual has a round-off floor near
    # L / h^2 * eps ~ 1.4e-10, above the 1e-10 target: the first step
    # that cannot lower it ends the solve, long before _NEWTON_MAX
    with pytest.raises(NoConvergence) as exc:
        solve_profile(100.0, 0.01)
    assert exc.value.iterations <= 10
    assert exc.value.residual > 1e-10


def test_residual_independent_recheck(profile):
    p = profile
    h = p.spacing
    ru = (p.u[:-2] - 2 * p.u[1:-1] + p.u[2:]) / h**2 - p.u[1:-1] * p.v[1:-1] ** 2
    rv = (p.v[:-2] - 2 * p.v[1:-1] + p.v[2:]) / h**2 - p.v[1:-1] * p.u[1:-1] ** 2
    assert max(np.abs(ru).max(), np.abs(rv).max()) <= 1e-10
    assert p.residual <= 1e-10


def test_positivity_and_monotonicity(profile):
    p = profile
    assert p.u[1:-1].min() > 0.0
    assert p.v[1:-1].min() > 0.0
    assert np.diff(p.u).min() >= -1e-10
    assert np.diff(p.v).max() <= 1e-10


def test_reflection_symmetry(profile):
    p = profile
    x0 = crossing_point(p)
    assert abs(x0) <= 2 * p.spacing
    mirrored = np.interp(2 * x0 - p.x, p.x, p.u)
    assert np.max(np.abs(mirrored - p.v)) <= 1e-3


def test_asymptotic_slopes(profile):
    sp, sm = asymptotic_slope(profile)
    assert 0.95 <= sp <= 1.05
    assert -1.05 <= sm <= -0.95
    # the pair is symmetric, so the two slopes mirror each other
    assert abs(sp + sm) < 1e-6


def test_slope_approaches_one_on_doubled_interval(profile):
    sp20, _ = asymptotic_slope(profile)
    p40 = solve_profile(40.0, 0.1)
    sp40, _ = asymptotic_slope(p40)
    assert abs(sp40 - 1.0) < abs(sp20 - 1.0)


def test_growth_floor(profile):
    p = profile
    x0 = crossing_point(p)
    c = np.min((p.u + p.v) / (1.0 + np.abs(p.x - x0)))
    assert c > 0.5


def test_product_decays_exponentially(profile):
    p = profile
    x0 = crossing_point(p)
    mask = (np.abs(p.x - x0) >= 1.0) & (np.abs(p.x - x0) <= 10.0)
    rate = np.polyfit(np.abs(p.x[mask] - x0), np.log(p.u[mask] * p.v[mask]), 1)[0]
    assert rate < 0.0


def test_boundary_floor_respected():
    p = solve_profile(10.0, 0.1, SolveConfig(tol=1e-10))
    assert p.u[0] == 1e-12
    assert p.v[-1] == 1e-12


def _synthetic(u, v):
    x = np.linspace(-10, 10, u.size)
    return Profile1D(x, u, v, 0.0, 10.0, x[1] - x[0])


def test_crossing_errors():
    n = 21
    with pytest.raises(NoSignChange):
        crossing_point(_synthetic(np.full(n, 2.0), np.ones(n)))
    osc = np.ones(n)
    osc[5] = -1.0
    osc[15] = -1.0
    with pytest.raises(MultipleSignChanges):
        crossing_point(_synthetic(osc, np.zeros(n)))


# ---------------------------------------------------------------------------
# planar extension


def _residual_2d(u, v, h):
    lap = (
        u.values[:-2, 1:-1]
        + u.values[2:, 1:-1]
        + u.values[1:-1, :-2]
        + u.values[1:-1, 2:]
        - 4 * u.values[1:-1, 1:-1]
    ) / h**2
    ru = lap - u.values[1:-1, 1:-1] * v.values[1:-1, 1:-1] ** 2
    lap = (
        v.values[:-2, 1:-1]
        + v.values[2:, 1:-1]
        + v.values[1:-1, :-2]
        + v.values[1:-1, 2:]
        - 4 * v.values[1:-1, 1:-1]
    ) / h**2
    rv = lap - v.values[1:-1, 1:-1] * u.values[1:-1, 1:-1] ** 2
    return max(np.max(np.abs(ru)), np.max(np.abs(rv)))


def test_extension_residual_aligned(profile):
    # grid nodes fall on profile nodes: the 5-point stencil reduces to the
    # 1D stencil and the extension inherits the 1D residual
    g = square_grid(2.0, 81)
    u2, v2 = extend_to_2d(profile, g, (1.0, 0.0))
    assert _residual_2d(u2, v2, g.h) <= profile.residual + 1e-10


def test_extension_residual_coarsened(profile):
    # doubled grid spacing: second-order penalty with a small constant
    for n, h in ((41, 0.1), (21, 0.2)):
        g = square_grid(2.0, n)
        u2, v2 = extend_to_2d(profile, g, (1.0, 0.0))
        assert _residual_2d(u2, v2, g.h) <= profile.residual + 0.2 * h * h


def test_extension_level_sets(profile):
    # axis direction: constant along y columns, exactly
    g = square_grid(2.0, 41)
    u2, _ = extend_to_2d(profile, g, (1.0, 0.0))
    assert np.all(u2.values == u2.values[:, :1])
    # diagonal direction: constant along the perpendicular lattice diagonal
    ud, _ = extend_to_2d(profile, g, (1.0, 1.0))
    assert np.allclose(ud.values[1:, :-1], ud.values[:-1, 1:], atol=1e-14)


def test_extension_domain_too_large():
    p = solve_profile(10.0, 0.1)
    g = square_grid(11.0, 45)
    with pytest.raises(DomainTooLarge):
        extend_to_2d(p, g, (1.0, 0.0))
