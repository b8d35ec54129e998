"""Monotonicity functionals and inequality checks on 2D field pairs.

Everything here is a pure measurement: given (u, v) on a grid, compute
the frequency, height, energy, and product functionals whose
monotonicity (or boundedness) characterizes segregated pairs, plus the
flatness / cone / harmonic-replacement diagnostics used to certify
asymptotic one-dimensionality.  Nothing in this module mutates fields
or solves equations, except harmonic_deficit which delegates one
Dirichlet solve.

Ball functionals, harmonic replacement and the growth and gradient
bounds read only their node window plus one node of halo (grid.Window)
or the nodes their shells' stencils touch, so their cost follows the
ball, not the grid (harmonic replacement's Dirichlet solve included);
the values are the same floats as full-grid arrays would give.  Every
center passes grid._require_ball_inside, which rejects one that is not
two finite coordinates with a ValueError naming it.

Conventions (n = 2 throughout, so the scaling prefactors r^{2-n} and
r^{1-n} reduce to 1 and 1/r):

    D(r; x) = int_{B_r(x)} |grad u|^2 + |grad v|^2 + kappa u^2 v^2
    H(r; x) = r^{-1} int_{dB_r(x)} u^2 + v^2
    N(r; x) = r * (D numerator) / int_{dB_r(x)} u^2 + v^2
    J(r; x) = r^{-4} * int_{B_r(x)} (|grad u|^2 + kappa u^2 v^2)
                    * int_{B_r(x)} (|grad v|^2 + kappa u^2 v^2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_nonnegative
from .config import SolveConfig
from .elliptic2d import _disk_dirichlet_solve
from .errors import NumericalBreakdown, ZeroDenominator
from .grid import (
    Field,
    Window,
    _distinct,
    _require_ball_inside,
    _shell,
    _unit,
    ball_weights,
    shell_sq_integral,
)

# shell integrals at or below this are treated as vanishing
_ZERO_SHELL = 1e-14

# rows' worth of distinct entries per block of the cone and
# product-bound sup scans: 16 rows of an owned 2049-column pair
_BLOCK_ROWS = 16

# rows per block of product_bounds' interaction-mass sum: a block's
# weights on 2049 columns take 4.2 MB; each block builds the weights of
# all three balls, so blocks far larger than _BLOCK_ROWS keep that
# per-block cost small
_MASS_ROWS = 256

# largest finite ACF correction constant, and the slack of its constraints
_CFIT_MAX = 1e3
_CFIT_SLACK = 1e-12


def eps_mono(grid) -> float:
    """Discretization allowance for monotonicity assertions.

    First-order rim quadrature dominates the error budget; the factor
    is calibrated on the linear pair where the truth is known."""
    return 5.0 * grid.h


@dataclass(frozen=True)
class MonotonicityTrace:
    """One functional sampled over increasing radii at a base point."""

    name: str
    x: tuple
    radii: np.ndarray
    values: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "radii", _check_radii(self.radii))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != self.radii.shape:
            raise ValueError("values must match radii in shape")
        if not np.all(np.isfinite(self.values)):
            # overflowed or NaN fields: a numerical failure, not bad config
            raise NumericalBreakdown(f"{self.name} trace values must be finite")

    def min_pairwise_slope(self) -> float:
        """Smallest (value[i+1]-value[i])/(r[i+1]-r[i]); >= 0 means monotone."""
        _check_radii(self.radii, 2)
        return float(np.min(np.diff(self.values) / np.diff(self.radii)))


@dataclass(frozen=True)
class DoublingCheck:
    """Outcome of one H-doubling comparison."""

    passed: bool
    ratio: float
    bound: float
    r1: float
    r2: float
    d: float


@dataclass(frozen=True)
class FlatnessFit:
    """One-plane model (magnitude * e . y)^{+/-} on a ball, by the L^2
    gradient fit of flatness_direction.

    e is the unit direction and magnitude the slope: magnitude * e is
    the ball average of grad(u - v).  h_flat is the sup distance to
    that model divided by the ball radius, an upper bound on the
    minimax distance to any one-plane model."""

    e: np.ndarray
    h_flat: float
    magnitude: float

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        if abs(float(np.hypot(self.e[0], self.e[1])) - 1.0) > 1e-10:
            raise ValueError("direction must be a unit vector")
        if self.h_flat < 0.0 or self.magnitude < 0.0:
            raise ValueError("h_flat and magnitude must be nonnegative")


@dataclass(frozen=True)
class ProductBounds:
    """Segregation bounds: sup uv, sup (u|grad v| + v|grad u|), and the
    log-log growth exponent of R -> int_{B_R} u^2 v^2."""

    sup_uv: float
    sup_mixed: float
    mass_exponent: float


def _check_pair(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise ValueError("u and v must share one grid")


def _check_radii(radii, min_count: int = 1) -> np.ndarray:
    """radii as floats: at least min_count, finite, positive, increasing."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii must be a nonempty 1D array")
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    if radii[0] <= 0.0:
        raise ValueError("radii must be positive")
    if radii.size < min_count:
        raise ValueError(f"need at least {min_count} radii, got {radii.size}")
    return radii


def _shell_mass(u: Field, v: Field, x, r: float) -> float:
    """int_{dB_r(x)} u^2 + v^2, the denominator of N and L; zero raises ZeroDenominator."""
    mass = shell_sq_integral(u, v, x, r)
    if mass <= _ZERO_SHELL:
        raise ZeroDenominator(f"shell mass {mass:.3e} at r={r} is numerically zero")
    return mass


def _ball_terms(u: Field, v: Field, kappa: float, x, r: float):
    """The window of B_r(x) and, on it, |grad u|^2, |grad v|^2 and
    kappa u^2 v^2; every ball functional integrates sums of these."""
    check_nonnegative("kappa", kappa)
    win = Window.ball(u.grid, x, r)
    ux, uy = win.grad(u.values)
    vx, vy = win.grad(v.values)
    inter = kappa * (u.values[win.isl, win.jsl] * v.values[win.isl, win.jsl]) ** 2
    return win, ux * ux + uy * uy, vx * vx + vy * vy, inter


# ---------------------------------------------------------------------------
# Almgren functionals


def _ball_values(functional: str, u: Field, v: Field, kappa: float, x, radii) -> list:
    """N, H, D or J at each of the increasing radii about x.

    Densities are built once, on the window of the largest ball (which
    must lie inside the grid); shell integrals square u and v only at
    the nodes they read."""
    if functional == "H":

        def value(r):
            return shell_sq_integral(u, v, x, r) / r

    elif functional == "J":
        win, gu2, gv2, inter = _ball_terms(u, v, kappa, x, radii[-1])
        du, dv = gu2 + inter, gv2 + inter

        def value(r):
            w = ball_weights(u.grid, x, r)
            return win.weighted_sum(du, w) * win.weighted_sum(dv, w) / r**4

    elif functional in ("N", "D"):
        win, gu2, gv2, inter = _ball_terms(u, v, kappa, x, radii[-1])
        dens = gu2 + gv2 + inter

        def value(r):
            num = win.integral(dens, x, r)
            return num if functional == "D" else r * num / _shell_mass(u, v, x, r)

    else:
        raise ValueError(f"unknown functional {functional!r}, expected N, H, D, or J")
    return [value(r) for r in radii]


def almgren_H(u: Field, v: Field, x, r: float) -> float:
    """Average height r^{-1} * int_{dB_r(x)} (u^2 + v^2)."""
    _check_pair(u, v)
    return _ball_values("H", u, v, 0.0, x, (r,))[0]


def almgren_N(u: Field, v: Field, kappa: float, x, r: float) -> float:
    """Frequency r * int_{B_r}(|grad u|^2+|grad v|^2+kappa u^2v^2)
    / int_{dB_r}(u^2+v^2)."""
    _check_pair(u, v)
    return _ball_values("N", u, v, kappa, x, (r,))[0]


def functional_trace(
    functional: str, u: Field, v: Field, kappa: float, x, radii
) -> MonotonicityTrace:
    """Sample one of the functionals N, H, D, J over increasing radii.

    Densities are built once, on the window of the largest ball (which
    must lie inside the grid), then each radius is evaluated in order."""
    _check_pair(u, v)
    radii = _check_radii(radii)
    values = np.array(_ball_values(functional, u, v, kappa, x, radii))
    return MonotonicityTrace(functional, tuple(x), radii, values, kappa)


def frequency_trace(u: Field, v: Field, kappa: float, x, radii) -> MonotonicityTrace:
    """Almgren frequency N over increasing radii."""
    return functional_trace("N", u, v, kappa, x, radii)


def check_doubling(trace_H: MonotonicityTrace, d: float, r1: float, r2: float) -> DoublingCheck:
    """Compare H(r2)/H(r1) against the doubling bound e^d (r2/r1)^{2d}.

    H is interpolated log-log between sampled radii, so r1 and r2 only
    need to lie inside the trace range.  d, r1 and r2 must be finite."""
    if not all(math.isfinite(t) for t in (d, r1, r2)):
        raise ValueError(f"d, r1 and r2 must be finite, got {d}, {r1}, {r2}")
    if r1 > r2:
        raise ValueError(f"need r1 <= r2, got {r1} > {r2}")
    radii = trace_H.radii
    if r1 < radii[0] or r2 > radii[-1]:
        raise ValueError(
            f"[{r1}, {r2}] outside sampled range [{radii[0]}, {radii[-1]}]"
        )
    if np.any(trace_H.values <= 0.0):
        raise ZeroDenominator("H trace touches zero; ratio undefined")
    logH = np.log(trace_H.values)
    h1, h2 = np.exp(np.interp(np.log([r1, r2]), np.log(radii), logH))
    ratio = float(h2 / h1)
    bound = math.exp(d) * (r2 / r1) ** (2.0 * d)
    return DoublingCheck(ratio <= bound * (1.0 + 1e-12), ratio, bound, r1, r2, d)


# ---------------------------------------------------------------------------
# ACF product functional


def acf_J(u: Field, v: Field, kappa: float, x, r: float) -> float:
    """Two-factor product functional; the n=2 kernel is identically 1."""
    _check_pair(u, v)
    return _ball_values("J", u, v, kappa, x, (r,))[0]


def correction_constant(radii, values) -> float:
    """Smallest C >= 0 making e^{-C r^{-1/2}} * values pairwise
    nondecreasing over the radii (up to a 1e-12 slack in the logs).

    Consecutive pairs must satisfy dlog - C ds >= -slack, with dlog the
    step of log(values) and ds <= 0 the step of r^{-1/2}.  A pair with
    dlog + slack >= 0 holds at every C >= 0; any other holds exactly
    when C >= (dlog + slack) / ds, which is +inf where r^{-1/2} rounds
    flat.  So the smallest feasible C is the largest of these bounds,
    or 0.  math.inf is the sentinel for a C above 1e3.  Values must be
    finite and positive."""
    radii = _check_radii(radii)
    values = np.asarray(values, dtype=float)
    if values.shape != radii.shape:
        raise ValueError("values must match radii in shape")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if np.any(values <= 0.0):
        raise ZeroDenominator("trace touches zero; correction fit undefined")
    shortfall = -(np.diff(np.log(values)) + _CFIT_SLACK)
    drop = np.abs(np.diff(radii ** -0.5))
    binding = shortfall > 0.0
    with np.errstate(divide="ignore"):
        c = float(np.max(shortfall[binding] / drop[binding], initial=0.0))
    return math.inf if c > _CFIT_MAX else c


def acf_trace_and_fit(u: Field, v: Field, kappa: float, x, radii):
    """J-trace plus the smallest C >= 0 making e^{-C r^{-1/2}} J(r)
    pairwise nondecreasing (math.inf when no C <= 1e3 works)."""
    trace = functional_trace("J", u, v, kappa, x, radii)
    return trace, correction_constant(trace.radii, trace.values)


# ---------------------------------------------------------------------------
# growth and segregation measurements


def nondegeneracy_exponent(u: Field, v: Field, x, radii) -> float:
    """Log-log slope of r -> int_{dB_r(x)} (u + v); degenerate inputs
    (vanishing shell mass) raise ZeroDenominator."""
    _check_pair(u, v)
    radii = _check_radii(radii, 3)
    uu, vv = u.values, v.values
    shells = np.array([_shell(u.grid, lambda i, j: uu[i, j] + vv[i, j], x, r) for r in radii])
    if not np.all(np.isfinite(shells)):
        raise ValueError("field values must be finite: u + v overflows on a shell")
    if np.any(shells <= _ZERO_SHELL):
        raise ZeroDenominator("shell integral of u+v is numerically zero")
    return float(np.polyfit(np.log(radii), np.log(shells), 1)[0])


def _row_blocks(start: int, stop: int, size: int) -> list[slice]:
    """Split rows start..stop-1 into the fewest near-equal consecutive
    blocks of at most size rows.

    Unlike a fixed stride, this never leaves a one-row last block: with
    size >= 2 and 3 or more rows, every block has at least two, which a
    Window needs where it touches the grid edge."""
    n = stop - start
    k = -(-n // size)
    return [slice(start + b * n // k, start + (b + 1) * n // k) for b in range(k)]


def _scan_blocks(u: Field, v: Field, start: int, stop: int) -> list[slice]:
    """Row blocks of rows start..stop-1 for the sup scans, each holding
    _BLOCK_ROWS rows' worth of the pair's distinct entries: an owned
    pair takes _BLOCK_ROWS rows a block, and an x-axis extension, one
    distinct entry per row, a single block."""
    width = max(_distinct(u.values).shape[1], _distinct(v.values).shape[1])
    return _row_blocks(start, stop, max(2, _BLOCK_ROWS * u.grid.ny // width))


def _scan_max(block: float, best: float, name: str) -> float:
    """max(best, block), raising NumericalBreakdown naming the scan on a
    NaN block, which Python's max would drop and read as a clean pass."""
    if math.isnan(block):
        raise NumericalBreakdown(f"{name} scan hit a NaN")
    return max(best, block)


def product_bounds(u: Field, v: Field) -> ProductBounds:
    """Segregation bounds on the pair.

    sup uv and sup (u|grad v| + v|grad u|) are scanned over blocks of
    whole rows (_scan_blocks), each block differenced through
    grid.Window, so the temporaries stay block-sized.  Every array a
    block reads, u, v and each gradient component, is cut to its
    distinct entries (grid._distinct) and combined by broadcasting: the
    same floats as full-grid arrays, one entry per row on an x-axis
    extension, whose rows take a single block.  A NaN in either scan
    (say, from an overflowing gradient) raises NumericalBreakdown.

    The interaction-mass exponent is fitted over the balls
    R_max * {1/4, 1/2, 1} around the grid center, R_max the inscribed
    radius; identically segregated pairs (zero product) report 0.0, and
    a u^2 v^2 or a mass that overflows raises NumericalBreakdown.
    The masses are summed over blocks of _MASS_ROWS rows of the largest
    ball's window, each ball's partial sums added in block order, so
    one block's u^2 v^2 and weights are held at a time.  A block's
    u^2 v^2 is formed on the distinct entries of u and v and broadcast
    back read-only.  Window.integral on the block takes the ball's
    weights on its rows alone, those rows of ball_weights bit for bit.
    So a ball whose window lies in one block gets the one-shot
    integral's float, and one that spans several differs from it only
    in the order of the summation."""
    _check_pair(u, v)
    g = u.grid
    sup_uv = sup_mixed = -math.inf
    for rows in _scan_blocks(u, v, 0, g.nx):
        win = Window(g, rows, slice(0, g.ny))
        ub, vb = _distinct(u.values[rows]), _distinct(v.values[rows])
        ux, uy = map(_distinct, win.grad(u.values))
        vx, vy = map(_distinct, win.grad(v.values))
        mixed = ub * np.hypot(vx, vy) + vb * np.hypot(ux, uy)
        sup_uv = _scan_max(float(np.max(ub * vb)), sup_uv, "product_bounds: the sup uv")
        sup_mixed = _scan_max(float(np.max(mixed)), sup_mixed, "product_bounds: the sup mixed")
    xmin, xmax, ymin, ymax = g.extent
    r_max = 0.5 * min(xmax - xmin, ymax - ymin)
    center = g.center
    win = Window.ball(g, center, r_max)
    radii = np.array([0.25, 0.5, 1.0]) * r_max
    masses = np.zeros(radii.size)
    # an overflow is caught below: inf u^2 v^2 times a zero weight is a
    # NaN mass, which would read as a segregated pair's 0.0
    with np.errstate(over="ignore"):
        for rows in _row_blocks(win.isl.start, win.isl.stop, _MASS_ROWS):
            ub, vb = u.values[rows, win.jsl], v.values[rows, win.jsl]
            prod_sq = _distinct(ub) * _distinct(vb)
            np.multiply(prod_sq, prod_sq, out=prod_sq)
            if not np.all(np.isfinite(prod_sq)):
                raise NumericalBreakdown("product_bounds: u^2 v^2 overflows in the mass sum")
            dens = np.broadcast_to(prod_sq, ub.shape)
            block = Window(g, rows, win.jsl)
            for k, r in enumerate(radii):
                masses[k] += block.integral(dens, center, r)
    if not np.all(np.isfinite(masses)):
        raise NumericalBreakdown("product_bounds: the interaction mass sum overflows")
    if np.all(masses > 0.0):
        exponent = float(np.polyfit(np.log(radii), np.log(masses), 1)[0])
    else:
        exponent = 0.0
    return ProductBounds(sup_uv, sup_mixed, exponent)


def gradient_bounds(u: Field, v: Field, margin: float) -> float:
    """sup(|grad u| + |grad v|) over the margin-shrunk interior."""
    _check_pair(u, v)
    g = u.grid
    if not (math.isfinite(margin) and margin >= 2.0 * g.h):
        raise ValueError(f"margin must be finite and >= 2h = {2.0 * g.h}, got {margin}")
    k = int(math.ceil(margin / g.h - 1e-9))
    if g.nx - 2 * k < 2 or g.ny - 2 * k < 2:
        raise ValueError("margin leaves no interior window")
    win = Window(g, slice(k, g.nx - k), slice(k, g.ny - k))
    ux, uy = win.grad(u.values)
    vx, vy = win.grad(v.values)
    return float(np.max(np.hypot(ux, uy) + np.hypot(vx, vy)))


def cone_monotonicity(u: Field, v: Field, e, aperture: float) -> float:
    """Violation of directional monotonicity over the cone tau . e >= aperture.

    For every unit tau in the cone the pair should satisfy
    tau . grad u >= 0 and tau . grad v <= 0 on the interior; the
    violation is the largest excess -tau . grad u or tau . grad v over
    the cone and the interior nodes, 0 when the cone property holds.

    The sup over the cone has a closed form per node.  With a the
    aperture and s = sqrt(1 - a^2), the cone is the arc of unit
    vectors within acos(a) <= 90 degrees of e.  Write the node's
    gradient g, signed so that the excess is tau . g (g = -grad u, or
    grad v), as along = e . g and across = |e x g|.  On the arc,
    tau . g = |g| cos of the angle from g, which is largest at tau =
    g/|g| when g points into the arc (along >= 0 and
    s along >= a across) and otherwise at the arc edge nearer g, where
    it is a along + s across.

    The interior is scanned in row blocks (_scan_blocks), each block's
    gradient taken through grid.Window and cut to its distinct entries,
    as product_bounds does: one entry per row on an x-axis extension.
    The sign is folded into (ex, ey); negation is exact, so along and
    across are the same floats up to the sign of a zero, which no
    excess depends on.  The excess is a along + s across, overwritten
    by the hypot on the inside nodes.  A NaN (say, from an overflowing
    gradient) is never inside, and raises NumericalBreakdown."""
    _check_pair(u, v)
    if not (0.0 <= aperture <= 1.0):
        raise ValueError(f"aperture must be in [0, 1], got {aperture}")
    ex, ey = _unit(e, "direction e")
    a = aperture
    s = math.sqrt((1.0 - a) * (1.0 + a))
    g = u.grid
    worst = 0.0
    for rows in _scan_blocks(u, v, 1, g.nx - 1):
        win = Window(g, rows, slice(1, g.ny - 1))
        for f, sx, sy in ((u.values, -ex, -ey), (v.values, ex, ey)):
            gx, gy = map(_distinct, win.grad(f))
            along = gx * sx + gy * sy
            across = np.abs(gy * sx - gx * sy)
            excess = along * a + across * s
            inside = (along >= 0.0) & (along * s >= across * a)
            excess[inside] = np.hypot(along[inside], across[inside])
            worst = _scan_max(float(np.max(excess)), worst, "cone_monotonicity: the cone")
    return worst


def harmonic_deficit(
    u: Field, v: Field, x, R: float, cfg: SolveConfig | None = None
) -> float:
    """Energy distance from u - v to its harmonic replacement on B_R(x):
    solve the Dirichlet problem with boundary data (u - v)|_{dB_R}, then
    ball-integrate |grad(u - v - phi)|^2.

    cfg is accepted and unread: the Dirichlet solve stops on the linear
    core's own relative residual."""
    _check_pair(u, v)
    win = Window.ball(u.grid, x, R)
    w = u.values[win.isl, win.jsl] - v.values[win.isl, win.jsl]
    if not np.all(np.isfinite(w)):
        raise ValueError("field values must be finite: u - v overflows")
    # off the window the full-grid w - phi is 0: the solve keeps w off the disk
    gx, gy = win.grad_zero_off(w, _disk_dirichlet_solve(win, x, R, w, 0.0))
    return win.integral(gx * gx + gy * gy, x, R)


# ---------------------------------------------------------------------------
# flatness extraction


def flatness_direction(u: Field, v: Field, x, R: float) -> FlatnessFit:
    """L^2 gradient fit of a one-plane model on B_R(x).

    The model pair ((s e.y)^+, (s e.y)^-), y = node - x, has
    u - v = s e.y, so its gradient is the constant s e.  The fit takes
    s e = the ball average of grad(u - v): the unique constant vector
    closest to grad(u - v) in L^2(B_R(x)).  h_flat is the sup over the
    ball nodes of |u - (s e.y)^+| + |v - (s e.y)^-|, divided by R: the
    sup distance to that model, an upper bound on the minimax distance
    to any one-plane model.  Where the ball average is exactly zero,
    as for the zero pair or u = v, the model is zero: e = (1, 0) and
    magnitude 0."""
    _check_pair(u, v)
    win = Window.ball(u.grid, x, R)
    grad = win.grad(u.values, minus=v.values)
    return _flatness_fit(u, v, x, R, win, grad, ball_weights(u.grid, x, R))


def _flatness_fit(u: Field, v: Field, x, R: float, win: Window, grad, weights) -> FlatnessFit:
    """flatness_direction from grad = win.grad(u.values, minus=v.values)
    on a window holding B_R(x) and the ball_weights(g, x, R) triple
    `weights`, for callers that fit several balls of one window."""
    g = u.grid
    cx, cy = _require_ball_inside(g, x, R)
    isl, jsl, w = weights
    mask = w > 0.0
    uu = u.values[isl, jsl][mask]
    vv = v.values[isl, jsl][mask]
    if max(np.max(np.abs(uu)), np.max(np.abs(vv))) == 0.0:
        return FlatnessFit(np.array([1.0, 0.0]), 0.0, 0.0)
    area = float(np.sum(w))
    gx = win.weighted_sum(grad[0], weights) / area
    gy = win.weighted_sum(grad[1], weights) / area
    dx = np.broadcast_to((g.x[isl] - cx)[:, None], mask.shape)[mask]
    dy = np.broadcast_to((g.y[jsl] - cy)[None, :], mask.shape)[mask]
    t = gx * dx + gy * dy
    err = np.abs(uu - np.maximum(t, 0.0)) + np.abs(vv - np.maximum(-t, 0.0))
    s = math.hypot(gx, gy)
    e = np.array(_unit((gx, gy)) if s > 0.0 else (1.0, 0.0))
    return FlatnessFit(e, float(np.max(err)) / R, s)
