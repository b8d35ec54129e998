"""Ball functionals evaluated on the ball's own window equal the
full-grid formulas bit for bit.

Each reference below builds its density on the whole grid, as the
diagnostics did before they read only the ball window plus a one-node
halo; the flatness reference is the gradient fit on the full-grid
gradient, and the cone reference is the same closed form on the
full-grid gradient that the scan applies to row blocks.  These
comparisons are `==`, not approx: the windowed code must repeat the
same floats.  The cone scan's closed form is checked against its
definition, a sup over the directions of the cone, with a stated
tolerance.

The ball weights evaluate only the cells that can set their answer;
the large cases below are sized so that the pruned path runs.
"""

import math

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from segsym import diagnostics as dg_module
from segsym import grid as grid_module
from segsym.blowdown import compute_L, direction_convergence
from segsym.diagnostics import (
    _BLOCK_ROWS,
    _MASS_ROWS,
    _row_blocks,
    acf_J,
    almgren_H,
    almgren_N,
    cone_monotonicity,
    flatness_direction,
    functional_trace,
    gradient_bounds,
    harmonic_deficit,
    nondegeneracy_exponent,
    product_bounds,
)
from segsym.elliptic2d import _disk_dirichlet_solve, _mg_pcg, solve_linear_decay, solve_system
from segsym.grid import (
    Field,
    Grid2D,
    Window,
    _ball_slices,
    _ball_weights,
    ball_integral,
    ball_weights,
    field_to_csv,
    gradient,
    shell_integral,
    square_grid,
)
from segsym.presets import harmonic_pair, linear_pair
from segsym.profile1d import extend_to_2d, solve_profile

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# full-grid references


def full_terms(u, v, kappa):
    gu, gv = gradient(u), gradient(v)
    return gu.magnitude_squared(), gv.magnitude_squared(), kappa * (u.values * v.values) ** 2


def ref_D(u, v, kappa, x, r):
    gu2, gv2, inter = full_terms(u, v, kappa)
    return ball_integral(Field(u.grid, gu2 + gv2 + inter), x, r)


def ref_shell_sq(u, v, x, r):
    return shell_integral(Field(u.grid, u.values**2 + v.values**2), x, r)


def ref_N(u, v, kappa, x, r):
    return r * ref_D(u, v, kappa, x, r) / ref_shell_sq(u, v, x, r)


def ref_H(u, v, kappa, x, r):
    return ref_shell_sq(u, v, x, r) / r


def ref_J(u, v, kappa, x, r):
    gu2, gv2, inter = full_terms(u, v, kappa)
    g = u.grid
    return ball_integral(Field(g, gu2 + inter), x, r) * ball_integral(Field(g, gv2 + inter), x, r) / r**4


def ref_gradient_fit(u, v, x, R):
    """The w-weighted mean of the full-grid gradient(u - v) on B_R(x),
    and the full-grid sup distance over the ball nodes to the model
    ((mean . y)^+, (mean . y)^-), y = node - x."""
    g = u.grid
    isl, jsl, w = ball_weights(g, x, R)
    grad = gradient(Field(g, u.values - v.values))
    mean = np.array([np.sum(grad.vx[isl, jsl] * w), np.sum(grad.vy[isl, jsl] * w)]) / np.sum(w)
    X, Y = g.meshgrid()
    t = mean[0] * (X - float(x[0])) + mean[1] * (Y - float(x[1]))
    err = np.abs(u.values - np.maximum(t, 0.0)) + np.abs(v.values - np.maximum(-t, 0.0))
    return mean, float(np.max(err[isl, jsl][w > 0.0])) / R


def deficit_at(u, v, R, c):
    """Criterion 10's gradient deficit on B_R(0) against the vector c."""
    g = u.grid
    grad = gradient(Field(g, u.values - v.values))
    return ball_integral(Field(g, (grad.vx - c[0]) ** 2 + (grad.vy - c[1]) ** 2), (0.0, 0.0), R) / R**2


def ref_cone(u, v, e, aperture):
    """The scan's closed form applied to the full-grid gradient."""
    ex, ey = float(e[0]), float(e[1])
    norm = math.hypot(ex, ey)
    ex, ey = ex / norm, ey / norm
    a = aperture
    s = math.sqrt((1.0 - a) * (1.0 + a))
    worst = 0.0
    for f, sign in ((u, -1.0), (v, 1.0)):
        gr = gradient(f)
        gx, gy = gr.vx[1:-1, 1:-1], gr.vy[1:-1, 1:-1]
        along = sign * (ex * gx + ey * gy)
        across = np.abs(ex * gy - ey * gx)
        inside = (along >= 0.0) & (s * along >= a * across)
        excess = np.where(inside, np.hypot(along, across), a * along + s * across)
        worst = max(worst, float(np.max(excess)))
    return worst


def ref_cone_sampled(u, v, e, aperture, count=4097):
    """max(0, sup of -tau . grad u and tau . grad v) over `count` evenly
    spaced directions tau of the cone's arc, both edges included, on
    the full-grid interior; also returns max |grad| there."""
    base = math.atan2(float(e[1]), float(e[0]))
    t = base + np.linspace(-1.0, 1.0, count) * math.acos(aperture)
    taus = np.column_stack((np.cos(t), np.sin(t)))
    gu, gv = gradient(u), gradient(v)
    # rows: the signed gradients -grad u and grad v at every interior node
    gs = np.concatenate(
        (
            -np.column_stack((gu.vx[1:-1, 1:-1].ravel(), gu.vy[1:-1, 1:-1].ravel())),
            np.column_stack((gv.vx[1:-1, 1:-1].ravel(), gv.vy[1:-1, 1:-1].ravel())),
        )
    )
    worst = 0.0
    for chunk in np.array_split(taus, 16):
        worst = max(worst, float(np.max(gs @ chunk.T)))
    return worst, float(np.max(np.hypot(gs[:, 0], gs[:, 1])))


def ref_arc_antideriv(r, x):
    x = min(max(x, -r), r)
    s = math.sqrt((r - x) * (r + x))
    return 0.5 * (x * s + r * r * math.atan2(x, s))


def ref_disk_rect_area(r, ax, bx, ay, by):
    ax = max(ax, -r)
    bx = min(bx, r)
    if bx <= ax or by <= ay or by <= -r or ay >= r:
        return 0.0
    cuts = [ax, bx]
    for yy in (ay, by):
        t = r * r - yy * yy
        if t >= 0.0:
            s = math.sqrt(t)
            if ax < -s < bx:
                cuts.append(-s)
            if ax < s < bx:
                cuts.append(s)
    cuts.sort()
    area = 0.0
    for p, q in zip(cuts[:-1], cuts[1:]):
        if q - p <= 0.0:
            continue
        xm = 0.5 * (p + q)
        gm = math.sqrt(max(r * r - xm * xm, 0.0))
        if min(by, gm) <= max(ay, -gm):
            continue
        arc = ref_arc_antideriv(r, q) - ref_arc_antideriv(r, p)
        piece_top = arc if gm < by else by * (q - p)
        piece_bot = -arc if -gm > ay else ay * (q - p)
        area += piece_top - piece_bot
    return area


def ref_ball_weights(g, center, r):
    """The per-cell rim loop that the vectorised rim kernel replaces."""
    _, isl, jsl = _ball_slices(g, center, r)
    h = g.h
    xs = g.x[isl] - float(center[0])
    ys = g.y[jsl] - float(center[1])
    d = np.hypot(xs[:, None], ys[None, :])
    half_diag = h * math.sqrt(0.5)
    w = np.zeros(d.shape)
    w[d <= r - half_diag] = h * h
    for i, j in np.argwhere((d > r - half_diag) & (d < r + half_diag)):
        dx, dy = xs[i], ys[j]
        w[i, j] = ref_disk_rect_area(r, dx - h / 2, dx + h / 2, dy - h / 2, dy + h / 2)
    return isl, jsl, w


def ref_product_bounds(u, v):
    """(sup uv, sup mixed, exponent) from full-grid arrays."""
    g = u.grid
    uv = u.values * v.values
    gu, gv = gradient(u), gradient(v)
    mixed = u.values * np.hypot(gv.vx, gv.vy) + v.values * np.hypot(gu.vx, gu.vy)
    xmin, xmax, ymin, ymax = g.extent
    r_max = 0.5 * min(xmax - xmin, ymax - ymin)
    radii = np.array([0.25, 0.5, 1.0]) * r_max
    prod_sq = Field(g, uv**2)
    masses = np.array([ball_integral(prod_sq, g.center, r) for r in radii])
    exponent = 0.0
    if np.all(masses > 0.0):
        exponent = float(np.polyfit(np.log(radii), np.log(masses), 1)[0])
    return float(np.max(uv)), float(np.max(mixed)), exponent


@pytest.fixture(scope="module")
def profile48():
    """A 1D profile long enough to extend onto square_grid(34.0, n) in
    any direction."""
    return solve_profile(48.0, 0.0625)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def pairs(draw, min_n=5, max_n=40):
    """A random grid, a random nonnegative pair on it, and its rng."""
    nx = draw(st.integers(min_n, max_n))
    ny = draw(st.integers(min_n, max_n))
    h = draw(st.floats(0.01, 0.5))
    origin = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    g = Grid2D(nx, ny, h, origin)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = Field(g, rng.uniform(0.0, 2.0, (nx, ny)))
    v = Field(g, rng.uniform(0.0, 2.0, (nx, ny)))
    return g, u, v, rng


@st.composite
def balls(draw, g, count=1):
    """A center in the grid and `count` increasing radii whose balls fit.

    Half the draws snap the center to a node, and the largest radius
    often touches the nearest grid edge, so the window is clipped there
    and the one-sided boundary stencil is in play."""
    xmin, xmax, ymin, ymax = g.extent
    fx, fy = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    cx, cy = xmin + fx * (xmax - xmin), ymin + fy * (ymax - ymin)
    if draw(st.booleans()):
        cx = g.x[int(round(fx * (g.nx - 1)))]
        cy = g.y[int(round(fy * (g.ny - 1)))]
    room = min(cx - xmin, xmax - cx, cy - ymin, ymax - cy)
    assume(room > 0.05 * g.h)
    top = draw(st.sampled_from([1.0, 1.0, 0.999]) | st.floats(0.05, 1.0))
    fracs = sorted(set(draw(st.lists(st.floats(0.02, 1.0), min_size=count - 1, max_size=count - 1))))
    radii = [room * top * f for f in fracs if f < 1.0] + [room * top]
    radii = np.unique(np.array(radii))
    assume(radii[0] > 0.0)
    return (cx, cy), radii


# ---------------------------------------------------------------------------
# single-ball functionals and traces


@SETTINGS
@given(data=st.data())
def test_ball_functionals_equal_full_grid(data):
    g, u, v, rng = data.draw(pairs())
    x, (r,) = data.draw(balls(g))
    kappa = float(rng.uniform(0.0, 100.0))
    assert functional_trace("D", u, v, kappa, x, [r]).values[0] == ref_D(u, v, kappa, x, r)
    assert almgren_N(u, v, kappa, x, r) == ref_N(u, v, kappa, x, r)
    assert almgren_H(u, v, x, r) == ref_H(u, v, kappa, x, r)
    assert acf_J(u, v, kappa, x, r) == ref_J(u, v, kappa, x, r)


@SETTINGS
@given(data=st.data())
def test_traces_equal_full_grid(data):
    g, u, v, rng = data.draw(pairs())
    x, radii = data.draw(balls(g, count=4))
    kappa = float(rng.uniform(0.0, 100.0))
    refs = {"N": ref_N, "H": ref_H, "D": ref_D, "J": ref_J}
    for name, ref in refs.items():
        tr = functional_trace(name, u, v, kappa, x, radii)
        assert tr.values.tolist() == [ref(u, v, kappa, x, r) for r in tr.radii]


@SETTINGS
@given(data=st.data())
def test_compute_L_equals_full_grid(data):
    g, u, v, _ = data.draw(pairs())
    x, (r,) = data.draw(balls(g))
    # compute_L reads the circle about the origin: move the grid so x is there
    gx = Grid2D(g.nx, g.ny, g.h, (g.origin[0] - x[0], g.origin[1] - x[1]))
    ux, vx = Field(gx, u.values), Field(gx, v.values)
    assert compute_L(ux, vx, r) == math.sqrt(ref_shell_sq(ux, vx, (0.0, 0.0), r) / r)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_harmonic_deficit_equals_full_grid(data):
    g, u, v, _ = data.draw(pairs(min_n=9, max_n=30))
    x, (R,) = data.draw(balls(g))
    w = u.values - v.values
    gd = gradient(Field(g, w - full_disk_solve(g, x, R, w, 0.0)))
    ref = ball_integral(Field(g, gd.magnitude_squared()), x, R)
    assert harmonic_deficit(u, v, x, R) == ref


# ---------------------------------------------------------------------------
# flatness fit, gradient deficit and cone scan


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_flatness_equals_full_grid_gradient_fit(data):
    g, u, v, rng = data.draw(pairs(min_n=9, max_n=30))
    x, (R,) = data.draw(balls(g))
    if data.draw(st.booleans()):
        # a noisy one-plane pair, the shape the fit is built for
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        X, Y = g.meshgrid()
        p = math.cos(t) * (X - x[0]) + math.sin(t) * (Y - x[1])
        u = Field(g, np.maximum(p, 0.0) + 0.01 * u.values)
        v = Field(g, np.maximum(-p, 0.0) + 0.01 * v.values)
    fit = flatness_direction(u, v, x, R)
    mean, h_flat = ref_gradient_fit(u, v, x, R)
    assert np.hypot(*(fit.magnitude * fit.e - mean)) <= 1e-12 * np.hypot(*mean)
    assert fit.h_flat == h_flat


def test_flatness_angle_on_rotated_profile_pair(profile48):
    # 53.1301 degrees to four places at every radius: the angle misses
    # atan2(0.8, 0.6) by at most 7.5e-6 degrees at h = 1/16 (R = 8)
    # and by 1.2e-4 at h = 1/4, falling like h^2
    g = square_grid(34.0, 1089)
    u, v = extend_to_2d(profile48, g, (0.6, 0.8))
    records, gap = direction_convergence(u, v, [8.0, 16.0, 32.0])
    exact = math.degrees(math.atan2(0.8, 0.6))
    for rec in records:
        assert math.degrees(math.atan2(rec.e[1], rec.e[0])) == pytest.approx(exact, abs=5e-5)
    assert gap < 1e-6


def test_top_fit_minimizes_the_deficit(profile48):
    # the deficit is a quadratic in the vector c with its minimum at the
    # ball mean of grad(u - v): moving c by d raises it by |d|^2 |B_R| / R^2
    g = square_grid(34.0, 273)
    u, v = extend_to_2d(profile48, g, (0.96, 0.28))
    top = flatness_direction(u, v, (0.0, 0.0), 32.0)
    c = top.magnitude * top.e
    best = deficit_at(u, v, 32.0, c)
    for d in ((1e-3, 0.0), (0.0, 1e-3), (-1e-3, 0.0), (0.0, -1e-3), (7e-4, -7e-4)):
        assert deficit_at(u, v, 32.0, c + np.array(d)) > best


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.0, 2.0 * math.pi))
def test_direction_convergence_deficit_equals_full_grid(seed, angle):
    g = Grid2D(41, 37, 0.1, (-2.0, -1.8))
    rng = np.random.default_rng(seed)
    X, Y = g.meshgrid()
    p = math.cos(angle) * X + math.sin(angle) * Y
    u = Field(g, np.maximum(p, 0.0) + 0.01 * rng.uniform(0.0, 1.0, (41, 37)))
    v = Field(g, np.maximum(-p, 0.0) + 0.01 * rng.uniform(0.0, 1.0, (41, 37)))
    records, _ = direction_convergence(u, v, [0.5, 1.0, 1.8])
    top = flatness_direction(u, v, (0.0, 0.0), 1.8)
    w = gradient(Field(g, u.values - v.values))
    misfit = Field(
        g, (w.vx - top.magnitude * top.e[0]) ** 2 + (w.vy - top.magnitude * top.e[1]) ** 2
    )
    assert [rec.deficit for rec in records] == [
        ball_integral(misfit, (0.0, 0.0), R) / R**2 for R in (0.5, 1.0, 1.8)
    ]


@SETTINGS
@given(
    data=st.data(),
    e=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda t: math.hypot(*t) > 1e-3),
    aperture=st.floats(0.0, 1.0),
)
def test_cone_scan_matches_sampled_arc(data, e, aperture):
    # grids from 3 to 60 rows cover a single block and up to four uneven
    # ones; 4097 directions over an arc of at most 180 degrees sample the
    # sup to within |g| (1 - cos(pi / 8192)) < 7.4e-8 |g|, and the lower
    # bound allows for rounding in the sampled edge directions
    g, u, v, _ = data.draw(pairs(min_n=3, max_n=60))
    ref, top = ref_cone_sampled(u, v, e, aperture)
    gap = cone_monotonicity(u, v, e, aperture) - ref
    assert -1e-12 * top <= gap <= 1e-7 * top


@st.composite
def banded_pairs(draw, e):
    """A 3..60-node grid and a pair laid out in bands of rows, each of u
    and v per band random, constant, linear along e or a staircase
    along e.  Row blocks then mix nodes inside and outside the cone,
    lie wholly outside it (along < 0 on the linear bands), or have a
    largest along of exactly +0.0 or -0.0 (the plateaus, whose zero
    differences times the signed (ex, ey) give either zero).  Half the
    pairs are scaled by 1e-6, so that inside nodes with a small
    positive along are common."""
    g, _, _, rng = draw(pairs(min_n=3, max_n=60))
    X, Y = g.meshgrid()
    t = (e[0] * X + e[1] * Y) / g.h
    shapes = {
        "random": lambda sign: rng.uniform(0.0, 2.0, t.shape),
        "constant": lambda sign: np.full(t.shape, 1.5),
        "linear": lambda sign: 100.0 + sign * t,
        "stairs": lambda sign: 100.0 + sign * np.floor(t / 3.0),
    }
    u, v = np.empty(t.shape), np.empty(t.shape)
    start = 0
    while start < g.nx:
        stop = min(g.nx, start + draw(st.integers(1, 40)))
        for f, sign in ((u, 1.0), (v, -1.0)):
            f[start:stop] = shapes[draw(st.sampled_from(sorted(shapes)))](sign)[start:stop]
        start = stop
    assume(np.ptp(u) + np.ptp(v) > 0.0)
    scale = draw(st.sampled_from([1.0, 1e-6]))
    return Field(g, scale * u), Field(g, scale * v)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    angle=st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0),
    aperture=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
)
def test_cone_scan_equals_full_grid_on_banded_pairs(data, angle, aperture):
    # angles in half turns; the four axis directions have a zero
    # component, so along and across meet signed zeros
    e = (math.cos(math.pi * angle), math.sin(math.pi * angle))
    if angle in (0.0, 0.5, 1.0, 1.5):
        e = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)][int(2 * angle)]
    u, v = data.draw(banded_pairs(e))
    assert cone_monotonicity(u, v, e, aperture) == ref_cone(u, v, e, aperture)


@pytest.mark.parametrize("aperture", [0.0, 6.964040764117498e-17, 0.25, 1.0])
def test_cone_scan_on_blocks_whose_along_tops_at_zero(aperture):
    # u rises along y only: along = -0.0 and across = 3.2e-308 at every
    # node, v is zero.  At aperture 6.96e-17, a across underflows to 0,
    # so every node is inside the cone, and s across, with s one ulp
    # below 1, is one ulp below hypot(along, across) = across: an inside
    # node whose along is 0 must still take the hypot
    g = Grid2D(20, 9, 0.5)
    u = Field(g, np.repeat(1.6e-308 * np.arange(9.0)[None, :], 20, axis=0))
    v = Field(g, np.zeros((20, 9)))
    got = cone_monotonicity(u, v, (1.0, 0.0), aperture)
    assert got == ref_cone(u, v, (1.0, 0.0), aperture)
    if aperture < 1e-16:
        # inside: the sup is the gradient's length
        assert got == float(np.max(gradient(u).vy[1:-1, 1:-1]))


@pytest.mark.parametrize("e", [(1.0, 0.0), (0.6, -0.8)])
@pytest.mark.parametrize("aperture", [0.0, 0.3, 0.75, 1.0])
def test_cone_scan_on_affine_pairs(e, aperture):
    # u = 3 + x . d, v = 3 - x . d: the excess is -tau . d at every node,
    # whose sup over the cone is cos(max(0, theta - acos(aperture))), with
    # theta the angle between -d and e
    g = Grid2D(37, 23, 0.05, (-1.0, -0.6))
    X, Y = g.meshgrid()
    for k in range(48):
        t = 2.0 * math.pi * k / 48.0
        d = (math.cos(t), math.sin(t))
        p = d[0] * X + d[1] * Y
        u, v = Field(g, 3.0 + p), Field(g, 3.0 - p)
        theta = math.acos(max(-1.0, min(1.0, -(d[0] * e[0] + d[1] * e[1]))))
        exact = max(0.0, math.cos(max(0.0, theta - math.acos(aperture))))
        assert cone_monotonicity(u, v, e, aperture) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("e", [(1.0, 0.0), (-1.0, 0.0), (0.6, -0.8)])
@pytest.mark.parametrize("aperture", [0.0, 0.75, 1.0])
def test_cone_scan_equals_full_grid_on_noisy_flat_pair(e, aperture):
    # a half-plane pair carrying 1e-12 noise, as the solved and extended
    # pairs do, on a grid of many row blocks
    g = Grid2D(301, 203, 0.01, (-1.5, -1.0))
    u, v = linear_pair(g)
    rng = np.random.default_rng(12)
    u = Field(g, u.values + 1e-12 * rng.uniform(0.0, 1.0, u.values.shape))
    v = Field(g, v.values + 1e-12 * rng.uniform(0.0, 1.0, v.values.shape))
    assert cone_monotonicity(u, v, e, aperture) == ref_cone(u, v, e, aperture)


def test_cone_scan_equals_full_grid_on_profile_pair():
    g = square_grid(8.0, 257)
    u, v = extend_to_2d(solve_profile(12.0, 0.05), g, (1.0, 0.0))
    for e in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)):
        assert cone_monotonicity(u, v, e, 0.75) == ref_cone(u, v, e, 0.75)


# ---------------------------------------------------------------------------
# ball weights


@SETTINGS
@given(data=st.data())
def test_ball_weights_area_and_monotone(data):
    g, _, _, _ = data.draw(pairs(min_n=5, max_n=60))
    x, radii = data.draw(balls(g, count=3))
    h2 = g.h * g.h
    prev = None
    for r in radii:
        isl, jsl, w = ball_weights(g, x, r)
        # rim cells carry exact intersection areas; only rounding is left
        assert float(np.sum(w)) == pytest.approx(math.pi * r * r, rel=1e-9, abs=1e-12 * h2)
        if prev is not None:
            pisl, pjsl, pw = prev
            i, j = pisl.start - isl.start, pjsl.start - jsl.start
            assert i >= 0 and j >= 0
            assert pisl.stop <= isl.stop and pjsl.stop <= jsl.stop
            # cell by cell, up to the rounding of a rim area near h^2
            assert np.all(pw <= w[i : i + pw.shape[0], j : j + pw.shape[1]] + 1e-12 * h2)
        prev = (isl, jsl, w)


def test_ball_weights_tangent_circle():
    # r = 4.5 h about a node: the circle is tangent to four cell-edge
    # lines, where an asin(x / r) arc antiderivative missed the area by
    # 3.7e-9 relative and a 1e-13 larger radius shrank some cells
    g = Grid2D(21, 21, 0.01)
    x = (0.11, 0.11)
    r = 0.045
    prev = None
    for rr in (r, r * (1.0 + 1e-13)):
        isl, jsl, w = ball_weights(g, x, rr)
        assert float(np.sum(w)) == pytest.approx(math.pi * rr * rr, rel=1e-13)
        if prev is not None:
            pisl, pjsl, pw = prev
            i, j = pisl.start - isl.start, pjsl.start - jsl.start
            assert np.all(pw <= w[i : i + pw.shape[0], j : j + pw.shape[1]])
        prev = (isl, jsl, w)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ball_weights_equal_per_cell_loop(data):
    g, _, _, _ = data.draw(pairs(min_n=5, max_n=60))
    x, radii = data.draw(balls(g, count=3))
    # a node-centered radius of (k + 1/2) h is tangent to cell edge lines
    node = (g.x[data.draw(st.integers(1, g.nx - 2))], g.y[data.draw(st.integers(1, g.ny - 2))])
    xmin, xmax, ymin, ymax = g.extent
    room = min(node[0] - xmin, xmax - node[0], node[1] - ymin, ymax - node[1])
    k = data.draw(st.integers(0, max(0, int(room / g.h - 0.5))))
    cases = [(x, r) for r in radii]
    if (k + 0.5) * g.h <= room:
        cases.append((node, (k + 0.5) * g.h))
    for center, r in cases:
        isl, jsl, w = ball_weights(g, center, r)
        risl, rjsl, rw = ref_ball_weights(g, center, r)
        assert (isl, jsl) == (risl, rjsl)
        assert np.array_equal(w, rw)


@pytest.mark.parametrize(
    "center, r",
    [
        ((0.0123, -0.0071), 1.3),  # off-node, 257^2+ window
        ((0.3117, 0.34), 1.7 - 1e-12),  # off-node, touching the top edge
        ((0.0, 0.0), 130.5 * 0.01),  # node-centered, tangent to cell edges
        ((-0.005, 0.005), 1.6),  # cell corner
    ],
)
def test_ball_weights_equal_per_cell_loop_large(center, r):
    # windows of 257^2 and more, where whole rows of cells are filled
    # without computing their distance
    g = Grid2D(421, 405, 0.01, (-2.1, -2.0))
    isl, jsl, w = ball_weights(g, center, r)
    assert min(w.shape) >= 257
    risl, rjsl, rw = ref_ball_weights(g, center, r)
    assert (isl, jsl) == (risl, rjsl)
    assert np.array_equal(w, rw)


@pytest.mark.parametrize(
    "center, r",
    [
        ((0.0123, -0.0071), 0.43),  # off-node
        ((0.0, 0.0), 40.5 * 0.01),  # node-centered, tangent to cell edges
        ((-0.005, 0.005), 0.48),  # cell corner
    ],
)
def test_ball_weights_row_range_repeats_full_rows(center, r):
    g = Grid2D(121, 101, 0.01, (-0.6, -0.5))
    isl, jsl, w = ball_weights(g, center, r)
    a, b = isl.start, isl.stop
    mid = (a + b) // 2
    ranges = [
        (a - 3, a + 4), (b - 4, b + 3), (a + 1, b - 1),  # cut the rim
        (a + 20, b - 20), (0, g.nx), (a, b),  # wholly inside, full
        (a, a + 1), (mid, mid + 1), (b - 1, b),  # one row
        (0, a), (b, g.nx), (a - 1, a), (b, b + 1), (mid, mid),  # empty
    ]
    for start, stop in ranges:
        pisl, pjsl, pw = _ball_weights(g, center, r, slice(start, stop))
        lo, hi = max(start, a), min(stop, b)
        assert pjsl == jsl
        assert pisl.stop - pisl.start == pw.shape[0] == max(hi - lo, 0)
        if hi > lo:
            assert pisl == slice(lo, hi)
        assert pw.shape[1] == w.shape[1]
        assert pw.tobytes() == w[max(lo - a, 0) : max(hi - a, 0)].tobytes()


@SETTINGS
@given(data=st.data())
def test_ball_weights_any_row_range_repeats_full_rows(data):
    g, _, _, _ = data.draw(pairs(min_n=5, max_n=60))
    x, radii = data.draw(balls(g, count=3))
    start = data.draw(st.integers(0, g.nx))
    stop = data.draw(st.integers(start, g.nx))
    for r in radii:
        isl, jsl, w = ball_weights(g, x, r)
        pisl, pjsl, pw = _ball_weights(g, x, r, slice(start, stop))
        lo, hi = max(start, isl.start), min(stop, isl.stop)
        assert pjsl == jsl
        assert pw.shape == (max(hi - lo, 0), w.shape[1])
        assert pw.tobytes() == w[max(lo - isl.start, 0) : max(hi - isl.start, 0)].tobytes()


def distinct_clipped_cuts(r, ax, bx, ay, by):
    """The distinct abscissas, clipped to [-r, r], at which the rim
    kernel cuts the rectangles: both clipped x-ends of every rectangle
    and every crossing of the circle with y = ay or y = by strictly
    between them."""
    ax, bx = np.maximum(ax, -r), np.minimum(bx, r)
    cuts = [ax, bx]
    for yy in (ay, by):
        t = r * r - yy * yy
        s = np.sqrt(np.maximum(t, 0.0))
        cuts += [c[(t >= 0.0) & (ax < c) & (c < bx)] for c in (-s, s)]
    return np.unique(np.minimum(np.maximum(np.concatenate(cuts), -r), r))


@pytest.mark.parametrize(
    "center, r",
    [
        ((0.0123, -0.0071), 0.43),  # off-node
        ((0.0, 0.0), 40.5 * 0.01),  # node-centered, tangent to cell edges
        ((-0.005, 0.005), 0.48),  # cell corner
    ],
)
def test_rim_arc_antiderivative_once_per_distinct_cut(monkeypatch, center, r):
    seen, expected = [], []
    atan2, areas = grid_module._atan2, grid_module._disk_rect_areas

    def counting_atan2(x, s):
        seen.append(np.array(x, dtype=float))
        return atan2(x, s)

    def recording_areas(r, ax, bx, ay, by):
        expected.append(distinct_clipped_cuts(r, ax, bx, ay, by))
        return areas(r, ax, bx, ay, by)

    monkeypatch.setattr(grid_module, "_atan2", counting_atan2)
    monkeypatch.setattr(grid_module, "_disk_rect_areas", recording_areas)
    g = Grid2D(121, 101, 0.01, (-0.6, -0.5))
    isl, jsl, w = ball_weights(g, center, r)
    assert len(seen) == len(expected) == 1
    # every distinct cut once, in increasing order
    assert np.array_equal(seen[0], expected[0])
    risl, rjsl, rw = ref_ball_weights(g, center, r)
    assert (isl, jsl) == (risl, rjsl)
    assert np.array_equal(w, rw)


@pytest.mark.parametrize("nx, ny", [(3, 3), (4, 5), (17, 9), (129, 7), (130, 33), (50, 3)])
def test_product_bounds_equal_full_grid(nx, ny):
    # 17 and 129 rows leave one row after a stride of 16
    g = Grid2D(nx, ny, 0.05, (-0.4, 0.7))
    rng = np.random.default_rng(nx * 1000 + ny)
    u = Field(g, rng.uniform(0.0, 2.0, (nx, ny)))
    v = Field(g, rng.uniform(0.0, 2.0, (nx, ny)))
    pb = product_bounds(u, v)
    assert (pb.sup_uv, pb.sup_mixed, pb.mass_exponent) == ref_product_bounds(u, v)


def test_product_bounds_mass_over_several_blocks():
    # the largest ball's window, all 601 rows, is summed in three row
    # blocks, which cut the rims of all three balls: the sups are the
    # same floats, and the exponent moves by the order of the summation
    # only
    g = Grid2D(601, 611, 0.01, (-3.0, -3.1))
    assert _MASS_ROWS < 601 // 2
    rng = np.random.default_rng(7)
    u = Field(g, rng.uniform(0.0, 2.0, (g.nx, g.ny)))
    v = Field(g, rng.uniform(0.0, 2.0, (g.nx, g.ny)))
    pb = product_bounds(u, v)
    sup_uv, sup_mixed, exponent = ref_product_bounds(u, v)
    assert (pb.sup_uv, pb.sup_mixed) == (sup_uv, sup_mixed)
    assert pb.mass_exponent == pytest.approx(exponent, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("rows", [1, 2, 5, 16])
@pytest.mark.parametrize("nx, ny", [(700, 40), (40, 700), (61, 57)])
def test_product_bounds_mass_in_small_blocks(monkeypatch, rows, nx, ny):
    # blocks far smaller than the windows, down to one row each
    monkeypatch.setattr(dg_module, "_MASS_ROWS", rows)
    g = Grid2D(nx, ny, 0.05, (-0.4, 0.7))
    rng = np.random.default_rng(nx * 1000 + ny)
    u = Field(g, rng.uniform(0.0, 2.0, (nx, ny)))
    v = Field(g, rng.uniform(0.0, 2.0, (nx, ny)))
    pb = product_bounds(u, v)
    sup_uv, sup_mixed, exponent = ref_product_bounds(u, v)
    assert (pb.sup_uv, pb.sup_mixed) == (sup_uv, sup_mixed)
    assert pb.mass_exponent == pytest.approx(exponent, rel=1e-13, abs=0.0)


def test_product_bounds_peak_memory():
    # full-grid temporaries peaked at 9.25 field sizes, and u^2 v^2 with
    # the ball weights on the whole window at 2.21; a row block of each
    # takes 0.47
    g = square_grid(1.0, 1025)
    rng = np.random.default_rng(0)
    u = Field(g, rng.uniform(0.0, 1.0, (1025, 1025)))
    v = Field(g, rng.uniform(0.0, 1.0, (1025, 1025)))
    _, peak = traced_peak(product_bounds, u, v)
    assert peak <= 1.0 * u.values.nbytes


def test_product_bounds_peak_memory_on_profile_pair(profile128):
    # criterion 11's 2049^2 pair, whose values are broadcast rows: u^2 v^2
    # on the largest ball's window and that ball's weights took 2.10
    # field sizes, a product temporary on top of them 3.0; a row block's
    # weights and one u^2 v^2 entry per row take 0.13
    u, v = extend_to_2d(profile128, square_grid(128.0, 2049), (1.0, 0.0))
    _, peak = traced_peak(product_bounds, u, v)
    assert peak <= 0.3 * u.values.nbytes


# ---------------------------------------------------------------------------
# the product_bounds sup scans: every row block is differenced, an
# x-axis extension in one block, and both sups stay the same floats


def _differenced_blocks(monkeypatch) -> set:
    """Spy on Window.grad; returns the set of row ranges it differences."""
    rows = set()
    grad = Window.grad

    def spy(self, *args, **kwargs):
        rows.add((self.isl.start, self.isl.stop))
        return grad(self, *args, **kwargs)

    monkeypatch.setattr(Window, "grad", spy)
    return rows


def _row_field(g, col):
    """The field whose row i holds col[i] in every column."""
    return Field(g, np.repeat(np.asarray(col, dtype=float)[:, None], g.ny, axis=1))


def _edge_pair(g):
    """v = 1 and a u whose first rows zigzag 0, 1, 0, and whose first
    row does so along y too: the one-sided stencils give d_x u = d_y u =
    2/h at the corner, where |grad u| = 2 sqrt(2)/h is more than a bound
    of 2/h or 1/h per unit range allows.  A ramp of 2.5/h in a middle
    block sets a running sup below it."""
    i = np.arange(g.nx)
    col = 2.5 * np.clip(i - g.nx // 2, 0, 6).astype(float)
    col[:3] = (0.0, 1.0, 0.0)
    u = _row_field(g, col)
    u.values[0, 1] = 1.0
    return u, _row_field(g, np.ones(g.nx))


def _pb_case(name, g, profile):
    if name == "e1":
        return extend_to_2d(profile, g, (1.0, 0.0))
    if name == "oblique":
        return extend_to_2d(profile, g, (0.6, 0.8))
    if name == "signed":
        u, v = extend_to_2d(profile, g, (0.96, 0.28))
        return Field(g, u.values - 0.5 * np.max(u.values)), Field(g, -v.values)
    if name in ("tiny", "huge"):
        scale = 1e-8 if name == "tiny" else 1e5
        u, v = extend_to_2d(profile, g, (1.0, 0.0))
        return Field(g, scale * u.values), Field(g, scale * v.values)
    if name == "edge":
        return _edge_pair(g)
    if name == "step":
        # u, v step from 1, 1 to 2, 3 where the last row block starts,
        # and u has a bump to 1.5 on row 1.  The sup, 7/(2h), sits on the
        # last block's first row, whose derivative reads the halo row
        below = np.arange(g.nx) < _row_blocks(0, g.nx, _BLOCK_ROWS)[-1].start
        col_u, col_v = np.where(below, 1.0, 2.0), np.where(below, 1.0, 3.0)
        if below[1]:
            col_u[1] = 1.5
        return _row_field(g, col_u), _row_field(g, col_v)
    return harmonic_pair(g, 2)


PB_CASES = ["e1", "oblique", "signed", "tiny", "huge", "edge", "step", "harmonic"]


@pytest.mark.parametrize("nx", [3, 17, 129])
@pytest.mark.parametrize("name", PB_CASES)
def test_bounded_product_scan_equals_full_grid(monkeypatch, profile48, name, nx):
    # x crosses the interface at 0; the y extent keeps the oblique
    # extension inside the profile
    g = Grid2D(nx, 41, 0.25, (-0.125 * (nx - 1), -5.0))
    u, v = _pb_case(name, g, profile48)
    blocks = _differenced_blocks(monkeypatch)
    pb = product_bounds(u, v)
    assert (pb.sup_uv, pb.sup_mixed, pb.mass_exponent) == ref_product_bounds(u, v)
    if name == "edge":
        assert pb.sup_mixed == np.hypot(2.0 / g.h, 2.0 / g.h)
    # an x-axis extension has one distinct entry per row and takes one
    # block; an owned pair takes blocks of 16 rows, 9 of them at nx = 129
    assert len(blocks) == (1 if name == "e1" else -(-nx // _BLOCK_ROWS))


def test_bounded_product_scan_sees_stencil_rounding():
    # v = 1, and u is 0.1 on rows 0..63 and 0.1 + 1 ulp on rows
    # 64..128.  On u's constant rows the one-sided stencil's terms cancel to
    # 2 ulp of 0.1 where u = 0.1 and to 1 ulp where u = 0.1 + 1 ulp,
    # against the 1 ulp of the centred difference across the step.  So
    # the sup sits at the grid corners of the 0.1 rows, where both
    # derivatives are one-sided: 2 sqrt(2) ulp/(2h).
    g = Grid2D(129, 9, 0.125, (-8.0, -0.5))
    high = np.nextafter(0.1, 1.0)
    col = np.where(np.arange(129) < 64, 0.1, high)
    u, v = _row_field(g, col), _row_field(g, np.ones(129))
    pb = product_bounds(u, v)
    assert (pb.sup_uv, pb.sup_mixed, pb.mass_exponent) == ref_product_bounds(u, v)
    step = (high - 0.1) / (2.0 * g.h)
    assert pb.sup_mixed == pytest.approx(2.0 * math.sqrt(2.0) * step, rel=1e-12)


def test_bounded_product_scan_skips_flat_blocks(monkeypatch, profile128):
    # the 2049^2 profile pair of criterion 11, one distinct entry per
    # row: both sups are scanned in one block of all 2049 rows
    u, v = extend_to_2d(profile128, square_grid(128.0, 2049), (1.0, 0.0))
    blocks = _differenced_blocks(monkeypatch)
    pb = product_bounds(u, v)
    assert blocks == {(0, 2049)}
    assert (pb.sup_uv, pb.sup_mixed, pb.mass_exponent) == ref_product_bounds(u, v)


def _broadcast_pairs(g, rng):
    """Pairs on g whose u is broadcast along axis 0 (every row the same,
    a zero row stride): with v broadcast along axis 0 too, along axis 1
    (every column the same), or owned."""
    u = Field(g, np.broadcast_to(rng.uniform(0.0, 2.0, g.ny)[None, :], (g.nx, g.ny)))
    row = Field(g, np.broadcast_to(rng.uniform(0.0, 2.0, g.ny)[None, :], (g.nx, g.ny)))
    col = Field(g, np.broadcast_to(rng.uniform(0.0, 2.0, g.nx)[:, None], (g.nx, g.ny)))
    owned = Field(g, rng.uniform(0.0, 2.0, (g.nx, g.ny)))
    return {"rows": (u, row), "rows and columns": (u, col), "mixed": (u, owned)}


@pytest.mark.parametrize("case", ["rows", "rows and columns", "mixed"])
@pytest.mark.parametrize("nx, ny", [(3, 3), (17, 9), (129, 37), (40, 700)])
def test_sup_scans_equal_full_grid_on_broadcast_pairs(case, nx, ny):
    # every array a block reads is cut to its distinct entries, so a
    # broadcast u meets a v of another layout only through numpy's
    # broadcasting; both orders of each pair
    g = Grid2D(nx, ny, 0.05, (-0.4, 0.7))
    u, v = _broadcast_pairs(g, np.random.default_rng(nx * 1000 + ny))[case]
    for first, second in ((u, v), (v, u)):
        pb = product_bounds(first, second)
        assert (pb.sup_uv, pb.sup_mixed, pb.mass_exponent) == ref_product_bounds(first, second)
        for e, aperture in (((1.0, 0.0), 0.75), ((0.6, -0.8), 0.3), ((0.0, 1.0), 0.0)):
            got = cone_monotonicity(first, second, e, aperture)
            assert got == ref_cone(first, second, e, aperture)


def test_cone_peak_memory_on_profile_pair(profile128):
    # criterion 12's 2049^2 pair: five 16-row block buffers and their
    # masks traced 1.46 MiB; one block of one distinct entry per row
    # takes 0.13
    u, v = extend_to_2d(profile128, square_grid(128.0, 2049), (1.0, 0.0))
    _, peak = traced_peak(cone_monotonicity, u, v, (1.0, 0.0), 0.75)
    assert peak < 2**20


def test_direction_convergence_peak_memory(profile128):
    # the largest ball's u - v is formed on its window plus halo: 0.61
    # field sizes on the 2049^2 profile pair, 1.28 with the full-grid
    # difference
    u, v = extend_to_2d(profile128, square_grid(128.0, 2049), (1.0, 0.0))
    _, peak = traced_peak(direction_convergence, u, v, [8.0, 16.0, 32.0])
    assert peak <= 0.8 * u.values.nbytes


def test_direction_convergence_takes_one_gradient(monkeypatch, profile48):
    # every radius's flatness fit and deficit read the largest ball's
    # gradient of u - v
    g = square_grid(34.0, 273)
    u, v = extend_to_2d(profile48, g, (1.0, 0.0))
    calls = []
    grad = Window.grad

    def counting(self, *args, **kwargs):
        calls.append(self)
        return grad(self, *args, **kwargs)

    monkeypatch.setattr(Window, "grad", counting)
    direction_convergence(u, v, [8.0, 16.0, 32.0])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the disk solves, harmonic replacement, the growth and gradient bounds,
# the shell-mass denominators and ball_integral, each against the
# full-grid formula it replaced: a meshgrid disk mask, full-grid
# gradients and Fields, and a product-then-sum ball quadrature


def full_disk_solve(g, center, R, frozen, shift):
    """The disk solve on the whole grid: the full-grid mask, with the
    grid's outermost ring cleared, and frozen values everywhere else."""
    X, Y = g.meshgrid()
    inside = np.hypot(X - center[0], Y - center[1]) < R
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    return _mg_pcg(frozen, inside, shift, g.h)[0]


def full_ball_integral(values, g, x, r):
    isl, jsl, w = ball_weights(g, x, r)
    return float(np.sum(values[isl, jsl] * w))


def full_harmonic_deficit(u, v, x, R):
    g = u.grid
    w = u.values - v.values
    gd = gradient(Field(g, w - full_disk_solve(g, x, R, w, 0.0)))
    return full_ball_integral(gd.magnitude_squared(), g, x, R)


def full_nondegeneracy(u, v, x, radii):
    f = Field(u.grid, u.values + v.values)
    shells = np.array([shell_integral(f, x, r) for r in radii])
    return float(np.polyfit(np.log(radii), np.log(shells), 1)[0])


def full_gradient_bounds(u, v, margin):
    k = int(math.ceil(margin / u.grid.h - 1e-9))
    gu, gv = gradient(u), gradient(v)
    mag = np.hypot(gu.vx, gu.vy) + np.hypot(gv.vx, gv.vy)
    return float(np.max(mag[k:-k, k:-k]))


def full_N(u, v, kappa, x, r):
    gu2, gv2, inter = full_terms(u, v, kappa)
    return r * full_ball_integral(gu2 + gv2 + inter, u.grid, x, r) / ref_shell_sq(u, v, x, r)


# (center, radius) per case: about the origin, off it, and three balls
# whose window is clipped at the grid edge (at x = 1, y = -1 and x = -1)
UNIT_BALLS = [
    ((0.0, 0.0), 0.5),
    ((0.13, -0.27), 0.41),
    ((0.52, 0.1), 0.48 - 1e-12),
    ((-0.2, -0.7), 0.3),
    ((-0.6, 0.25), 0.4),
]
PROFILE_BALLS = [
    ((0.0, 0.0), 9.7),
    ((1.3, -2.1), 9.7),
    ((20.0, 5.0), 14.0 - 1e-12),
    ((-3.0, -24.0), 10.0),
    ((-25.0, 3.0), 9.0),
]


@pytest.fixture(scope="module")
def window_path_cases(profile48):
    g = square_grid(1.0, 129)
    cases = {
        name: (harmonic_pair(g, d), UNIT_BALLS) for name, d in (("half-plane", 1), ("z2", 2), ("z3", 3))
    }
    # a pair solved from (Re z^2)^+- border data
    sol = solve_system(g, *harmonic_pair(g, 2), 1e3)
    cases["solved"] = ((sol.u, sol.v), UNIT_BALLS)
    g = square_grid(34.0, 257)
    for name, e in (("x-axis", (1.0, 0.0)), ("tilted", (0.6, 0.8))):
        cases[name] = (extend_to_2d(profile48, g, e), PROFILE_BALLS)
    return cases


@pytest.mark.parametrize("name", ["half-plane", "z2", "z3", "solved", "x-axis", "tilted"])
def test_window_paths_equal_full_grid(window_path_cases, name):
    (u, v), balls = window_path_cases[name]
    g = u.grid
    clipped = []
    for x, R in balls:
        win = Window.ball(g, x, R)
        box = win.isl, win.jsl
        clipped.append(win.isl.start == 0 or win.isl.stop == g.nx or win.jsl.start == 0)
        assert harmonic_deficit(u, v, x, R) == full_harmonic_deficit(u, v, x, R)
        w = u.values - v.values
        phi = _disk_dirichlet_solve(win, x, R, w[box], 0.0)
        assert np.array_equal(phi, full_disk_solve(g, x, R, w, 0.0)[box])
        radii = R * np.array([0.25, 0.5, 1.0])
        assert nondegeneracy_exponent(u, v, x, radii) == full_nondegeneracy(u, v, x, radii)
        for kappa in (0.0, 1e3):
            assert almgren_N(u, v, kappa, x, R) == full_N(u, v, kappa, x, R)
        for f in (u, v):
            assert ball_integral(f, x, R) == full_ball_integral(f.values, g, x, R)
        # compute_L reads the circle about the origin
        r0 = min(R, 0.9 * (g.extent[1] - g.extent[0]) / 2)
        assert compute_L(u, v, r0) == math.sqrt(ref_shell_sq(u, v, (0.0, 0.0), r0) / r0)
    assert clipped == [False, False, True, True, True]
    for margin in (2.0 * g.h, 2.5 * g.h, 0.2 * (g.extent[1] - g.extent[0])):
        assert gradient_bounds(u, v, margin) == full_gradient_bounds(u, v, margin)


@pytest.mark.parametrize("M", [10.0, 100.0, 1000.0])
def test_linear_decay_equals_full_grid(M):
    # criterion 5's decay solves, and a disk touching the grid edge,
    # whose window is clipped there
    for g, R in ((square_grid(1.6, 321), 1.5), (square_grid(1.0, 129), 1.0 - 1e-12)):
        ref = full_disk_solve(g, (0.0, 0.0), R, np.full((g.nx, g.ny), 1.0), M)
        assert np.array_equal(solve_linear_decay(M, 1.0, R, g).values, ref)


@st.composite
def edge_balls(draw, g):
    """A center off the origin and a radius whose ball reaches one grid
    edge (its window clipped there), within _EDGE_EPS h inside or past
    it, or no edge (a window inside the grid)."""
    xmin, xmax, ymin, ymax = g.extent
    cx = xmin + draw(st.floats(0.05, 0.95)) * (xmax - xmin)
    cy = ymin + draw(st.floats(0.05, 0.95)) * (ymax - ymin)
    gaps = {"left": cx - xmin, "right": xmax - cx, "bottom": cy - ymin, "top": ymax - cy}
    edge = draw(st.sampled_from([None, *gaps]))
    slack = grid_module._EDGE_EPS * g.h
    if edge is None:
        R = min(gaps.values()) * draw(st.floats(0.05, 0.99))
    else:
        # 0.9, not 1: the rounding of cx - R must not carry it past the slack
        R = gaps[edge] + draw(st.sampled_from([-1.0, 0.0, 0.5, 0.9])) * slack
        assume(all(R <= gap + 0.9 * slack for gap in gaps.values()))
    return (cx, cy), R, edge


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_disk_solve_window_equals_full_grid(data):
    g, u, _, _ = data.draw(pairs(min_n=5, max_n=30))
    x, R, edge = data.draw(edge_balls(g))
    win = Window.ball(g, x, R)
    box = win.isl, win.jsl
    clipped = {
        "left": win.isl.start == 0,
        "right": win.isl.stop == g.nx,
        "bottom": win.jsl.start == 0,
        "top": win.jsl.stop == g.ny,
    }
    assert edge is None or clipped[edge]
    shift = data.draw(st.sampled_from([0.0, 1.0, 100.0]))
    frozen = u.values - 1.0
    ref = full_disk_solve(g, x, R, frozen, shift)
    assert np.array_equal(_disk_dirichlet_solve(win, x, R, frozen[box], shift), ref[box])
    # off the window the full-grid solve keeps every frozen value
    off = np.ones(frozen.shape, dtype=bool)
    off[box] = False
    assert np.array_equal(ref[off], frozen[off])


def test_harmonic_deficit_peak_memory(lin513):
    # the 513^2 half-plane pair at R = 0.5, whose window is about a
    # quarter of the grid: window-sized arrays only, 3.54 field sizes; a
    # full-grid u - v and the solve's full-grid copy peaked at 5.13, and
    # a meshgrid mask and full-grid Fields of w and w - phi at 8.13
    g, u, v = lin513
    _, peak = traced_peak(harmonic_deficit, u, v, (0.0, 0.0), 0.5)
    assert peak <= 4.0 * u.values.nbytes


def test_nondegeneracy_exponent_peak_memory(lin513):
    # u + v at the shells' stencil nodes only: 0.51 field sizes on the
    # 513^2 half-plane pair, 1.43 with a full-grid Field of u + v
    g, u, v = lin513
    _, peak = traced_peak(nondegeneracy_exponent, u, v, (0.0, 0.0), [0.2, 0.4, 0.8])
    assert peak <= 0.6 * u.values.nbytes


# ---------------------------------------------------------------------------
# one-shot quadrature multiplies the density into its own weights, and
# an x-axis profile extension is a read-only broadcast view: both give
# the floats of the owned, temporary-making code


@SETTINGS
@given(data=st.data())
def test_one_shot_quadrature_equals_product_sum(data):
    g, u, v, rng = data.draw(pairs())
    x, radii = data.draw(balls(g, count=3))
    win = Window.ball(g, x, radii[-1])
    dens = u.values[win.isl, win.jsl]
    before = u.values.copy()
    for r in radii:
        isl, jsl, w = ball_weights(g, x, r)
        ref = float(np.sum(u.values[isl, jsl] * w))
        assert ball_integral(u, x, r) == ref
        assert win.integral(dens, x, r) == ref
        kept = w.copy()
        # weights a caller passes in are reused, so they stay as given
        assert win.weighted_sum(dens, (isl, jsl, w)) == ref
        assert w.tobytes() == kept.tobytes()
    assert u.values.tobytes() == before.tobytes()


def _record_floats(records):
    return [(r.R, r.L, *r.e, r.flatness, r.deficit) for r in records]


def test_consumers_equal_on_broadcast_and_owned_pair(profile48):
    g = square_grid(34.0, 257)
    u, v = extend_to_2d(profile48, g, (1.0, 0.0))
    assert u.values.strides == v.values.strides == (8, 0)
    uc, vc = (Field(g, np.ascontiguousarray(f.values)) for f in (u, v))
    assert uc.values.flags.c_contiguous and vc.values.flags.c_contiguous
    for a, b in ((u, uc), (v, vc)):
        ga, gb = gradient(a), gradient(b)
        assert ga.vx.tobytes() == gb.vx.tobytes()
        assert ga.vy.tobytes() == gb.vy.tobytes()
        for x, r in (((0.0, 0.0), 8.0), ((1.3, -2.1), 9.7), ((0.0, 0.0), 33.9)):
            assert ball_integral(a, x, r) == ball_integral(b, x, r)
        assert field_to_csv(a) == field_to_csv(b)
    assert product_bounds(u, v) == product_bounds(uc, vc)
    for e in ((1.0, 0.0), (0.6, -0.8)):
        assert cone_monotonicity(u, v, e, 0.75) == cone_monotonicity(uc, vc, e, 0.75)
    recs, gap = direction_convergence(u, v, [4.0, 8.0, 16.0])
    recs_c, gap_c = direction_convergence(uc, vc, [4.0, 8.0, 16.0])
    assert _record_floats(recs) == _record_floats(recs_c) and gap == gap_c
    for x in ((0.0, -12.0), (0.0, 0.0), (0.37, 5.0)):
        for r in (2.0, 4.5):
            assert almgren_H(u, v, x, r) == almgren_H(uc, vc, x, r)
            assert almgren_N(u, v, 1.0, x, r) == almgren_N(uc, vc, 1.0, x, r)
            assert acf_J(u, v, 1.0, x, r) == acf_J(uc, vc, 1.0, x, r)
        fit, fit_c = flatness_direction(u, v, x, 6.0), flatness_direction(uc, vc, x, 6.0)
        assert fit.e.tobytes() == fit_c.e.tobytes()
        assert (fit.h_flat, fit.magnitude) == (fit_c.h_flat, fit_c.magnitude)
