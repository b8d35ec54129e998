"""1D profile: convergence, symmetry, monotonicity, growth, extension."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import segsym.profile1d as p1d
from segsym import Grid2D, gradient, square_grid
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
    for length in (math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="half_length"):
            solve_profile(length, 0.05)


def test_spacing_must_divide_the_interval():
    with pytest.raises(ValueError) as exc:
        solve_profile(10.0, 0.03)
    assert str(exc.value) == "spacing 0.03 does not divide [-10.0, 10.0] evenly"


def test_node_count_bounded_before_any_allocation(monkeypatch):
    # 3.2e10 intervals divide evenly: the bound, not numpy, must refuse them
    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice was allocated for a rejected node count")

    monkeypatch.setattr(p1d.np, "arange", no_lattice)
    with pytest.raises(ValueError, match="half_length .* spacing"):
        solve_profile(1e9, 0.0625)


def test_non_finite_residual_raises(monkeypatch):
    monkeypatch.setattr(p1d, "_sup_residual", lambda *args: float("nan"))
    with pytest.raises(NoConvergence) as exc:
        solve_profile(20.0, 0.05)
    assert exc.value.iterations == 0


def test_singular_jacobian_raises(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    # _newton_step imports solve_banded from scipy.linalg at call time
    monkeypatch.setattr(scipy.linalg, "solve_banded", singular)
    with pytest.raises(NoConvergence, match="singular") as exc:
        solve_profile(20.0, 0.05)
    assert exc.value.iterations == 0


def test_newton_steps_recorded(profile):
    # the full Newton step is accepted every time from the linear start
    assert profile.newton_steps == 7


def test_residual_floor_stops_newton_early():
    # at L / h^2 = 1e6 the sup residual has a round-off floor near
    # L / h^2 * eps ~ 1.4e-10, above the 1e-10 target: two residuals in a
    # row that set no new best near it end the solve, long before
    # _NEWTON_MAX
    with pytest.raises(NoConvergence) as exc:
        solve_profile(100.0, 0.01)
    assert exc.value.iterations <= 10
    assert exc.value.residual > 1e-10


def test_residual_floor_named_in_message():
    # the stall message puts the floor L/h^2 * eps = 2.22e-10 next to tol,
    # so a caller sees that tol, not the solver, is out of reach
    with pytest.raises(NoConvergence) as exc:
        solve_profile(100.0, 0.01)
    floor = 100.0 / 0.01**2 * np.finfo(float).eps
    assert exc.value.residual < 2.0 * floor
    msg = str(exc.value)
    assert "tol 1.000e-10" in msg
    assert f"round-off floor L/h²·ε ≈ {floor:.3e}" in msg


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


def test_extension_equals_meshgrid_formula(profile):
    # oblique and x-axis directions; x and y cross 0 between nodes (a
    # non-square grid with non-dyadic spacing) and at a node, where the
    # x-axis rows meet t = +-0.0
    for g in (Grid2D(37, 53, 0.07, origin=(-1.3, -1.8)), square_grid(1.0, 33)):
        X, Y = g.meshgrid()
        for direction in ((0.6, -1.7), (1.0, 0.0), (-2.5, 0.0)):
            d = np.asarray(direction) / np.hypot(*direction)
            u2, v2 = extend_to_2d(profile, g, direction)
            t = X * d[0] + Y * d[1]
            assert u2.values.tobytes() == np.interp(t, profile.x, profile.u).tobytes()
            assert v2.values.tobytes() == np.interp(t, profile.x, profile.v).tobytes()


def test_extension_peak_memory(profile128):
    # t, u and v: 3 field sizes; a meshgrid X, Y and their products
    # peaked at 5.13
    g = square_grid(90.0, 1025)  # its diagonal fits the profile's [-128, 128]
    tracemalloc.start()
    try:
        extend_to_2d(profile128, g, (0.6, 0.8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * g.nx * g.ny * 8


def _root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def test_axis_extension_is_a_read_only_row_view(profile):
    g = square_grid(2.0, 41)
    for f in extend_to_2d(profile, g, (1.0, 0.0)):
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0
        # one row's floats, broadcast across the columns
        assert _root(f.values).size == g.nx
        assert f.values.strides == (8, 0)


def test_tilted_extension_is_owned(profile):
    g = square_grid(2.0, 41)
    for f in extend_to_2d(profile, g, (0.6, 0.8)):
        assert f.values.flags.writeable
        assert f.values.flags.c_contiguous
        assert f.values.flags.owndata


def test_axis_extension_peak_memory(profile128):
    # the 2049^2 pair of criteria 10-12: two interpolated rows and the
    # grid's coordinates, no field-sized array (a full copy of each
    # field peaked at 68 MB)
    g = square_grid(128.0, 2049)
    tracemalloc.start()
    try:
        u, v = extend_to_2d(profile128, g, (1.0, 0.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert u.values.nbytes == v.values.nbytes == g.nx * g.ny * 8


def test_axis_extension_gradient_peak_memory(profile128):
    # d/dx of the broadcast rows differences each row once (nx floats,
    # broadcast back); d/dy along the rows is a broadcast view of nx
    # zeros: 0.001 field sizes traced, 1.01 when d/dy was a full field
    # and 2.01 when every copy of a row was differenced
    u, _ = extend_to_2d(profile128, square_grid(128.0, 2049), (1.0, 0.0))
    tracemalloc.start()
    try:
        gu = gradient(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for d in (gu.vx, gu.vy):
        assert _root(d).size == u.grid.nx
        assert not d.flags.writeable
    assert not np.any(gu.vy)
