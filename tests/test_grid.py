"""Grid, quadrature, interpolation, and snapshot round-trip checks.

Closed-form oracles: areas and moments of disks, circle integrals of
trig polynomials, and one adaptive-quadrature value frozen below.
"""

import math
import warnings

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
from segsym.diagnostics import cone_monotonicity
from segsym.errors import BallOutsideDomain, PointOutsideDomain
from segsym.grid import Window, _diff_axis, ball_weights, disk_rect_area
from segsym.presets import linear_pair, linear_pair_bdata
from segsym.profile1d import extend_to_2d, solve_profile

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


def test_grid_rejects_fractional_node_counts():
    # Grid2D(4.5, 4, 0.5) once built x with 5 nodes but reported the
    # extent (0, 1.75, ...), and Field.zeros on it died on a bare TypeError
    for args, name in (((4.5, 4, 0.5), "4.5"), ((4, 7.0, 0.5), "7.0")):
        with pytest.raises(TypeError, match=rf"nx, ny must be integers.*{name}"):
            Grid2D(*args)
    with pytest.raises(TypeError, match="nx, ny must be integers"):
        square_grid(1.0, 4.5)
    g = Grid2D(np.int64(5), np.int32(4), 0.25)
    assert g.extent == (0.0, 1.0, 0.0, 0.75)
    assert Field.zeros(g).values.shape == (5, 4)


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
    """The difference stencil on a copy moved to axis 0 and back, with
    the one-sided ends in difference form."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    out[0] = (4.0 * (a[1] - a[0]) - (a[2] - a[0])) / (2.0 * h)
    out[-1] = ((a[-3] - a[-1]) - 4.0 * (a[-2] - a[-1])) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def old_ends(a, h):
    """The one-sided ends along axis 0 in the expanded form
    -3 t0 + 4 t1 - t2 that _diff_axis once used, which can round
    constant data to a nonzero float."""
    return (
        (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * h),
        (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * h),
    )


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
    ((3, 2049), (slice(None), slice(None))),            # three long rows
    ((2049, 3), (slice(None), slice(None))),            # many three-node rows
])
def test_diff_axis_equals_moveaxis_stencil(shape, window):
    # owned arrays and windows of them: both axes are differenced in
    # full into an owned, C-contiguous result
    a = np.random.default_rng(11).uniform(-1.0, 1.0, shape)[window]
    h = 2.6 / 32  # not dyadic, so the division by 2h rounds
    for axis in (0, 1):
        got = _diff_axis(a, h, axis)
        assert np.array_equal(got, ref_diff_axis(a, h, axis))
        assert got.flags.c_contiguous


@pytest.mark.parametrize("shape", [(3, 5), (3, 2049), (2049, 3), (65, 97)])
def test_diff_axis_row_ends_raise_no_overflow_warning(shape):
    # rows of ±4e307: every stencil along a row is finite, so differencing
    # along the rows warns of no overflow; a difference across a row end,
    # +4e307 - -4e307, would overflow
    a = np.where(np.arange(shape[0]) % 2 == 0, 4e307, -4e307)[:, None] * np.ones(shape[1])
    h = 2.6 / 32
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _diff_axis(a, h, 1)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got, ref_diff_axis(a, h, 1))


def _root(x):
    """The array that owns x's memory."""
    while x.base is not None:
        x = x.base
    return x


@pytest.mark.parametrize("kind", ["row", "column", "scalar", "row window"])
def test_diff_axis_differences_broadcast_entries_once(kind):
    # across a broadcast axis the derivative of the distinct entries is
    # broadcast back, read-only; along it, the zeros of the distinct
    # entries are, so the result owns only the distinct entries either way
    rng = np.random.default_rng(13)
    a = {
        "row": np.broadcast_to(rng.uniform(-1.0, 1.0, (37, 1)), (37, 53)),
        "column": np.broadcast_to(rng.uniform(-1.0, 1.0, 53), (37, 53)),
        "scalar": np.broadcast_to(rng.uniform(-1.0, 1.0), (37, 53)),
        "row window": np.broadcast_to(rng.uniform(-1.0, 1.0, (101, 1)), (101, 80))[5:90:3, 7:60],
    }[kind]
    h = 2.6 / 32
    for axis in (0, 1):
        got = _diff_axis(a, h, axis)
        assert np.array_equal(got, ref_diff_axis(np.ascontiguousarray(a), h, axis))
        kept = [n for k, n in enumerate(a.shape) if a.strides[k]]
        cut = len(kept) < a.ndim
        assert got.flags.writeable != cut
        assert _root(got).size == (math.prod(kept) if cut else a.size)


def _layouts(a):
    """a as an owned array, a row, a column and a scalar broadcast of its
    first column, row and entry, and a strided window of each."""
    nx, ny = a.shape
    whole = {
        "owned": a,
        "row": np.broadcast_to(a[:, :1], (nx, ny)),
        "column": np.broadcast_to(a[0], (nx, ny)),
        "scalar": np.broadcast_to(a[0, 0], (nx, ny)),
    }
    return {**whole, **{f"{k} window": v[3:40:4, 2:35:3] for k, v in whole.items()}}


@pytest.mark.parametrize("c", [0.1, -0.7310585786300049, 1e6 / 3, 3.0])
def test_diff_axis_is_exactly_zero_on_constants(c):
    # the ends in difference form give +0.0 on constant data, as the
    # centred difference does; -3c + 4c - c rounds to a nonzero float
    # for three of these constants
    for name, a in _layouts(np.full((41, 37), c)).items():
        for axis in (0, 1):
            got = _diff_axis(a, 2.6 / 32, axis)
            assert np.all(got == 0.0) and not np.any(np.signbit(got)), (name, axis)


def test_diff_axis_ends_move_by_rounding_only():
    # the difference form is the same stencil as -3 t0 + 4 t1 - t2: on
    # random data at a non-dyadic h the two differ by a few eps times
    # the entries' size over h, the scale at which the expanded form rounds
    rng = np.random.default_rng(17)
    h = 2.6 / 32
    eps = np.finfo(float).eps
    for scale in (1.0, 1e-3, 1e5):
        a = scale * rng.uniform(-1.0, 1.0, (30, 41))
        for axis in (0, 1):
            t = np.moveaxis(a, axis, 0)
            got = np.moveaxis(_diff_axis(a, h, axis), axis, 0)
            for new, old, near in zip((got[0], got[-1]), old_ends(t, h), (t[:3], t[-3:])):
                size = np.max(np.abs(near), axis=0)
                assert np.all(np.abs(new - old) <= 8.0 * eps * size / h)
                assert np.any(new != old)


# ---------------------------------------------------------------------------
# directions


@pytest.fixture(scope="module")
def direction_callers():
    """Every public call that takes a direction, on small inputs."""
    g = square_grid(1.0, 9)
    prof = solve_profile(10.0, 0.1)
    u, v = linear_pair(g)
    return {
        "extend_to_2d": lambda d: extend_to_2d(prof, g, d),
        "linear_pair_bdata": lambda d: linear_pair_bdata(d)[0](g.x, g.y),
        "linear_pair": lambda d: linear_pair(g, d)[0].values,
        "cone_monotonicity": lambda d: cone_monotonicity(u, v, d, 0.5),
    }


CALLERS = ["extend_to_2d", "linear_pair_bdata", "linear_pair", "cone_monotonicity"]


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("direction", [
    (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
    (math.inf, math.nan), (0.0, 0.0), (-0.0, 0.0),
], ids=["nan,0", "0,nan", "inf,0", "0,-inf", "inf,nan", "0,0", "-0,0"])
def test_bad_directions_raise_naming_the_direction(direction_callers, caller, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="direction"):
            direction_callers[caller](direction)


@pytest.mark.parametrize("caller", CALLERS)
def test_huge_direction_still_normalizes(direction_callers, caller):
    # |(1e308, 1e308)| overflows as a sum of squares but not by math.hypot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = direction_callers[caller]((1e308, 1e308))
    want = direction_callers[caller]((1.0, 1.0))
    if caller == "extend_to_2d":
        got, want = got[0].values, want[0].values
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


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


def test_interpolate_empty_point_set():
    # an empty (0, 2) array used to reach numpy's min() of nothing
    out = interpolate(Field.zeros(square_grid(1.0, 17)), np.zeros((0, 2)))
    assert out.dtype == float and out.shape == (0,)


def test_square_grid_needs_three_nodes():
    with pytest.raises(ValueError, match=r"^need n >= 3, got 2$"):
        square_grid(1.0, 2)


def test_field_shape_must_match_its_grid():
    with pytest.raises(ValueError, match=r"^values shape \(17, 16\) does not match grid \(17, 17\)$"):
        Field(square_grid(1.0, 17), np.zeros((17, 16)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,3\n1,2,3\n", "field snapshot must start with the two '#' header lines"),
        ("# nx,ny,h,ox,oy\n# 3,3,0.5\n1,2,3\n", "malformed field header: '# 3,3,0.5'"),
        (
            "# nx,ny,h,ox,oy\n# 3,3,0.5,0,0\n1,2\n1,2\n1,2\n",
            "expected 3 columns per row, got shape (3, 2)",
        ),
    ],
)
def test_malformed_snapshot_raises_value_error(text, message):
    with pytest.raises(ValueError) as exc:
        field_from_csv(text)
    assert str(exc.value) == message


def test_interpolate_rejects_points_not_in_the_plane():
    # a third coordinate was once dropped: (0.5, 0.25, 99.0) read as (0.5, 0.25)
    f = Field.from_function(square_grid(1.0, 17), lambda x, y: x + 2.0 * y)
    for p, shape in (
        ((0.5, 0.25, 99.0), r"\(3,\)"),
        (np.zeros((4, 3)), r"\(4, 3\)"),
        (np.zeros((4, 1)), r"\(4, 1\)"),
        (np.zeros((2, 4, 2)), r"\(2, 4, 2\)"),
        (0.5, r"\(\)"),
    ):
        with pytest.raises(ValueError, match=shape):
            interpolate(f, p)
    assert interpolate(f, (0.5, 0.25)) == pytest.approx(1.0, abs=1e-14)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [0, 3, 6])
def test_field_rejects_non_finite_values_in_views(bad, k):
    # a broadcast axis is checked once; every distinct entry still is
    g = Grid2D(7, 7, 0.5)
    line = np.ones(7)
    line[k] = bad
    for values in (
        np.broadcast_to(line[:, None], (7, 7)),
        np.broadcast_to(line[None, :], (7, 7)),
        np.broadcast_to(np.float64(bad), (7, 7)),
        np.outer(line, np.ones(7)).T[::-1],
    ):
        with pytest.raises(ValueError, match="values must be finite"):
            Field(g, values)
    assert Field(g, np.broadcast_to(np.ones(7)[:, None], (7, 7))).values.strides == (8, 0)


def test_snapshot_header_shape():
    g = Grid2D(4, 3, 0.5, (0.0, 0.0))
    text = field_to_csv(Field.zeros(g))
    lines = text.strip().split("\n")
    assert lines[0] == "# nx,ny,h,ox,oy"
    assert lines[1].startswith("# 4,3,")
    assert len(lines) == 2 + 4
    with pytest.raises(ValueError):
        field_from_csv("\n".join(lines[:-1]) + "\n")
