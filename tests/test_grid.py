"""Grid, quadrature, interpolation, and snapshot round-trip checks.

Closed-form oracles: areas and moments of disks, circle integrals of
trig polynomials, and one adaptive-quadrature value frozen below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segsym import (
    Field,
    Grid2D,
    ball_integral,
    field_from_csv,
    field_to_csv,
    gradient,
    interpolate,
    shell_integral,
    square_grid,
)
from segsym.errors import BallOutsideDomain, PointOutsideDomain
from segsym.grid import Window, _diff_axis, ball_weights, disk_rect_area

# integral of e^x over the unit disk, adaptive polar quadrature (scipy
# dblquad, epsabs 1e-14), frozen:
EXP_DISK_ORACLE = 3.5509993784243608


def test_grid_invariants():
    g = Grid2D(5, 4, 0.25, (-0.5, 0.0))
    assert g.extent == (-0.5, 0.5, 0.0, 0.75)
    assert np.allclose(g.x, [-0.5, -0.25, 0.0, 0.25, 0.5])
    with pytest.raises(ValueError):
        Grid2D(2, 5, 0.1)
    with pytest.raises(ValueError):
        Grid2D(5, 5, -0.1)


def test_square_grid_centered():
    g = square_grid(1.0, 9)
    assert g.extent == (-1.0, 1.0, -1.0, 1.0)
    assert g.h == 0.25
    assert 0.0 in g.x and 0.0 in g.y


# ---------------------------------------------------------------------------
# gradient


def test_gradient_exact_on_quadratics():
    # centered and one-sided 3-point stencils are both exact on x^2 + y^2
    g = square_grid(1.0, 33)
    f = Field.from_function(g, lambda x, y: x * x + y * y)
    gr = gradient(f)
    X, Y = g.meshgrid()
    assert np.max(np.abs(gr.vx - 2 * X)) < 1e-12
    assert np.max(np.abs(gr.vy - 2 * Y)) < 1e-12


def test_gradient_second_order_under_refinement():
    def worst_error(n):
        g = square_grid(1.0, n)
        f = Field.from_function(g, lambda x, y: np.sin(2 * x) * np.cos(y))
        gr = gradient(f)
        X, Y = g.meshgrid()
        ex = 2 * np.cos(2 * X) * np.cos(Y)
        ey = -np.sin(2 * X) * np.sin(Y)
        return max(np.max(np.abs(gr.vx - ex)), np.max(np.abs(gr.vy - ey)))

    e1, e2 = worst_error(65), worst_error(129)
    order = math.log2(e1 / e2)
    assert order >= 1.9


def test_gradient_linearity():
    g = square_grid(1.0, 17)
    rng = np.random.default_rng(7)
    a = Field(g, rng.normal(size=(17, 17)))
    b = Field(g, rng.normal(size=(17, 17)))
    combo = Field(g, 2.5 * a.values - 0.75 * b.values)
    ga, gb, gc = gradient(a), gradient(b), gradient(combo)
    assert np.allclose(gc.vx, 2.5 * ga.vx - 0.75 * gb.vx, atol=1e-12)
    assert np.allclose(gc.vy, 2.5 * ga.vy - 0.75 * gb.vy, atol=1e-12)


def ref_diff_axis(a, h, axis):
    """The difference stencil on a copy moved to axis 0 and back."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h)
    out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape, window", [
    ((3, 7), (slice(None), slice(None))),
    ((7, 3), (slice(None), slice(None))),
    ((3, 3), (slice(None), slice(None))),
    ((65, 97), (slice(None), slice(None))),
    ((1025, 1031), (slice(None), slice(None))),
    ((2049, 2049), (slice(0, 18), slice(None))),        # row block at the edge
    ((2049, 2049), (slice(1000, 1018), slice(None))),   # interior row block
    ((300, 300), (slice(250, 300), slice(0, 41))),      # window at two edges
    ((300, 300), (slice(17, 120), slice(33, 290))),     # strided interior window
])
def test_diff_axis_equals_moveaxis_stencil(shape, window):
    a = np.random.default_rng(11).uniform(-1.0, 1.0, shape)[window]
    h = 2.6 / 32  # not dyadic, so the division by 2h rounds
    for axis in (0, 1):
        got = _diff_axis(a, h, axis)
        assert np.array_equal(got, ref_diff_axis(a, h, axis))
        assert got.flags.c_contiguous


# ---------------------------------------------------------------------------
# ball quadrature


def test_disk_rect_area_against_subdivision():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0.3, 1.5)
        ax = rng.uniform(-2, 1.8)
        ay = rng.uniform(-2, 1.8)
        bx = ax + rng.uniform(0.05, 0.8)
        by = ay + rng.uniform(0.05, 0.8)
        xs = np.linspace(ax, bx, 801)
        ys = np.linspace(ay, by, 801)
        xm = 0.5 * (xs[:-1] + xs[1:])
        ym = 0.5 * (ys[:-1] + ys[1:])
        inside = (xm[:, None] ** 2 + ym[None, :] ** 2) <= r * r
        approx = inside.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
        exact = disk_rect_area(r, ax, bx, ay, by)
        assert abs(exact - approx) < 5e-4 * max(r, 1.0)


def test_ball_area_is_exact():
    # rim cells carry exact intersection areas, so 1 integrates to pi*r^2
    g = square_grid(1.0, 129)
    one = Field.from_function(g, lambda x, y: np.ones_like(x))
    for r in (0.3, 0.52, 0.97):
        assert abs(ball_integral(one, (0.0, 0.0), r) - math.pi * r * r) < 1e-12


def test_ball_area_exact_when_circle_is_tangent_to_cell_edges():
    # a node-centered radius of (k + 1/2) h touches cell edge lines
    # without crossing them; those cells once counted as full squares
    g = Grid2D(7, 7, 0.5, (0.0, 0.0))
    for r in (0.25, 0.75, 1.25):
        _, _, w = ball_weights(g, (1.5, 1.5), r)
        assert abs(float(np.sum(w)) - math.pi * r * r) < 1e-12
    # the center cell of a radius h/2 disk holds the whole disk
    assert disk_rect_area(0.25, -0.25, 0.25, -0.25, 0.25) == pytest.approx(math.pi / 16, abs=1e-15)


@pytest.mark.parametrize("isl, jsl", [
    (slice(0, 3), slice(0, 17)),      # clipped at both grid edges
    (slice(4, 9), slice(1, 16)),      # interior window, halo on every side
    (slice(10, 17), slice(13, 17)),   # clipped at the far edges
    (slice(8, 9), slice(15, 17)),     # one row, two nodes on the edge
])
def test_window_gradient_equals_full_gradient(isl, jsl):
    g = Grid2D(17, 17, 0.1, (-0.3, 0.2))
    a = np.random.default_rng(5).uniform(-1.0, 1.0, (17, 17))
    full = gradient(Field(g, a))
    gx, gy = Window(g, isl, jsl).grad(a)
    assert np.array_equal(gx, full.vx[isl, jsl])
    assert np.array_equal(gy, full.vy[isl, jsl])


def test_ball_second_moment():
    # oracle: integral of x^2 over B_1 = pi/4
    g = square_grid(1.2, 241)
    f = Field.from_function(g, lambda x, y: x * x)
    got = ball_integral(f, (0.0, 0.0), 1.0)
    assert abs(got - math.pi / 4) < 2 * g.h


def test_ball_integral_frozen_oracle_and_refinement():
    errs = []
    for n in (121, 241):
        g = square_grid(1.2, n)
        f = Field.from_function(g, lambda x, y: np.exp(x))
        errs.append(abs(ball_integral(f, (0.0, 0.0), 1.0) - EXP_DISK_ORACLE))
    assert math.log2(errs[0] / errs[1]) >= 1.8


def test_ball_integral_monotone_in_radius():
    g = square_grid(1.0, 65)
    rng = np.random.default_rng(11)
    f = Field(g, rng.uniform(0.0, 1.0, size=(65, 65)))
    radii = np.linspace(0.1, 0.9, 33)
    vals = [ball_integral(f, (0.0, 0.0), r) for r in radii]
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_ball_outside_domain():
    g = square_grid(1.0, 33)
    f = Field.zeros(g)
    with pytest.raises(BallOutsideDomain):
        ball_integral(f, (0.5, 0.0), 0.75)


# ---------------------------------------------------------------------------
# shell quadrature


def test_shell_constant():
    g = square_grid(2.5, 101)
    one = Field.from_function(g, lambda x, y: np.ones_like(x))
    got = shell_integral(one, (0.0, 0.0), 2.0)
    assert abs(got - 4 * math.pi) < 1e-6


def test_shell_second_moment():
    # integral of x^2 over the unit circle = pi; trapezoid is exact on
    # cos^2, the rest is bilinear interpolation error
    g = square_grid(1.5, 601)
    f = Field.from_function(g, lambda x, y: x * x)
    got = shell_integral(f, (0.0, 0.0), 1.0)
    assert abs(got - math.pi) < 1e-4


def test_shell_outside_domain():
    g = square_grid(1.0, 33)
    f = Field.zeros(g)
    with pytest.raises(BallOutsideDomain):
        shell_integral(f, (0.0, 0.0), 1.5)


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_nodes_exact():
    g = square_grid(1.0, 17)
    rng = np.random.default_rng(5)
    f = Field(g, rng.normal(size=(17, 17)))
    X, Y = g.meshgrid()
    pts = np.column_stack((X.ravel(), Y.ravel()))
    assert np.array_equal(interpolate(f, pts), f.values.ravel())


def test_interpolate_bilinear_exact_on_xy():
    g = square_grid(1.0, 17)
    f = Field.from_function(g, lambda x, y: x * y)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(200, 2))
    assert np.max(np.abs(interpolate(f, pts) - pts[:, 0] * pts[:, 1])) < 1e-12


def test_interpolate_cell_center_average():
    g = square_grid(1.0, 17)
    f = Field.from_function(g, lambda x, y: x + y)
    p = (g.x[3] + g.h / 2, g.y[7] + g.h / 2)
    corners = [f.values[3, 7], f.values[4, 7], f.values[3, 8], f.values[4, 8]]
    assert abs(interpolate(f, p) - np.mean(corners)) < 1e-14


def test_interpolate_outside():
    g = square_grid(1.0, 17)
    f = Field.zeros(g)
    with pytest.raises(PointOutsideDomain):
        interpolate(f, (1.2, 0.0))


def test_interpolate_rejects_nonfinite_points():
    # a NaN passes every extent comparison; it must not reach the index cast
    f = Field.zeros(square_grid(1.0, 17))
    for p in ([[math.nan, 0.0]], (0.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            interpolate(f, p)


# ---------------------------------------------------------------------------
# snapshots


_FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_snapshot_roundtrip_bit_exact(data):
    nx = data.draw(st.integers(3, 12), label="nx")
    ny = data.draw(st.integers(3, 12), label="ny")
    h = data.draw(st.floats(0.0, 1e300, exclude_min=True, allow_subnormal=True), label="h")
    origin = (data.draw(_FINITE, label="ox"), data.draw(_FINITE, label="oy"))
    values = data.draw(st.lists(_FINITE, min_size=nx * ny, max_size=nx * ny), label="values")
    f = Field(Grid2D(nx, ny, h, origin), np.array(values).reshape(nx, ny))
    back = field_from_csv(field_to_csv(f))
    assert back.grid == f.grid
    assert np.array([back.grid.h, *back.grid.origin]).tobytes() == np.array([h, *origin]).tobytes()
    assert back.values.tobytes() == f.values.tobytes()


def test_snapshot_header_shape():
    g = Grid2D(4, 3, 0.5, (0.0, 0.0))
    text = field_to_csv(Field.zeros(g))
    lines = text.strip().split("\n")
    assert lines[0] == "# nx,ny,h,ox,oy"
    assert lines[1].startswith("# 4,3,")
    assert len(lines) == 2 + 4
    with pytest.raises(ValueError):
        field_from_csv("\n".join(lines[:-1]) + "\n")
