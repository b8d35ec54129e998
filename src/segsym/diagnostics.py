"""Monotonicity functionals and inequality checks on 2D field pairs.

Everything here is a pure measurement: given (u, v) on a grid, compute
the frequency, height, energy, and product functionals whose
monotonicity (or boundedness) characterizes segregated pairs, plus the
flatness / cone / harmonic-replacement diagnostics used to certify
asymptotic one-dimensionality.  Nothing in this module mutates fields
or solves equations, except harmonic_deficit which delegates one
Dirichlet solve.

Ball functionals read only the ball's node window plus one node of
halo (grid.Window), so their cost follows the ball, not the grid; the
values are the same floats as full-grid densities would give.

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

from .config import SolveConfig
from .elliptic2d import solve_harmonic
from .errors import NumericalBreakdown, ZeroDenominator
from .grid import (
    Field,
    Window,
    ball_integral,
    ball_weights,
    gradient,
    shell_integral,
    shell_sq_integral,
)

# shell integrals at or below this are treated as vanishing
_ZERO_SHELL = 1e-14

# rows per block of the cone scan
_CONE_ROWS = 16

# bisection bracket and depth for the ACF correction constant
_CFIT_MAX = 1e3
_CFIT_ITERS = 48
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
        if self.radii.size < 2:
            raise ValueError("need at least 2 radii for a slope")
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
    """Best one-plane model (magnitude * e . y)^{+/-} on a ball.

    e is the unit direction, magnitude the fitted slope, h_flat the
    sup-distance to the model divided by the ball radius."""

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


def _check_radii(radii) -> np.ndarray:
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii must be a nonempty 1D array")
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be strictly increasing")
    if radii[0] <= 0.0:
        raise ValueError("radii must be positive")
    return radii


def _ball_terms(u: Field, v: Field, kappa: float, x, r: float):
    """The window of B_r(x) and, on it, |grad u|^2, |grad v|^2 and
    kappa u^2 v^2; every ball functional integrates sums of these."""
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
            return win.integral(du, x, r) * win.integral(dv, x, r) / r**4

    elif functional in ("N", "D"):
        win, gu2, gv2, inter = _ball_terms(u, v, kappa, x, radii[-1])
        dens = gu2 + gv2 + inter

        def value(r):
            num = win.integral(dens, x, r)
            if functional == "D":
                return num
            den = shell_sq_integral(u, v, x, r)
            if den <= _ZERO_SHELL:
                raise ZeroDenominator(
                    f"shell integral {den:.3e} at r={r} is numerically zero"
                )
            return r * num / den

    else:
        raise ValueError(f"unknown functional {functional!r}, expected N, H, D, or J")
    return [value(r) for r in radii]


def almgren_D(u: Field, v: Field, kappa: float, x, r: float) -> float:
    """Scaled energy of the pair on B_r(x); nondecreasing in r on
    solutions (n = 2, so the r^{2-n} prefactor is 1)."""
    _check_pair(u, v)
    return _ball_values("D", u, v, kappa, x, (r,))[0]


def almgren_H(u: Field, v: Field, x, r: float) -> float:
    """Average height r^{-1} * int_{dB_r(x)} (u^2 + v^2)."""
    _check_pair(u, v)
    return _ball_values("H", u, v, 0.0, x, (r,))[0]


def almgren_H_rate(u: Field, v: Field, kappa: float, x, r: float) -> float:
    """dH/dr through the identity
    H'(r) = 2 r^{1-n} int_{B_r} |grad u|^2 + |grad v|^2 + 2 kappa u^2 v^2."""
    _check_pair(u, v)
    win, gu2, gv2, inter = _ball_terms(u, v, kappa, x, r)
    return 2.0 * win.integral(gu2 + gv2 + 2.0 * inter, x, r) / r


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
    need to lie inside the trace range."""
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
    nondecreasing over the radii.

    Bisection on [0, 1e3] against the pairwise constraints; math.inf is
    the sentinel for an insufficient bracket.  Values must be positive.
    """
    radii = _check_radii(radii)
    values = np.asarray(values, dtype=float)
    if values.shape != radii.shape:
        raise ValueError("values must match radii in shape")
    if np.any(values <= 0.0):
        raise ZeroDenominator("trace touches zero; correction fit undefined")
    dlog = np.diff(np.log(values))
    ds = np.diff(radii ** -0.5)  # negative: r^{-1/2} decreases

    def feasible(c):
        return bool(np.all(dlog - c * ds >= -_CFIT_SLACK))

    if feasible(0.0):
        return 0.0
    if not feasible(_CFIT_MAX):
        return math.inf
    lo, hi = 0.0, _CFIT_MAX
    for _ in range(_CFIT_ITERS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


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
    radii = _check_radii(radii)
    if radii.size < 3:
        raise ValueError("need at least 3 radii for a trend")
    f = Field(u.grid, u.values + v.values)
    shells = np.array([shell_integral(f, x, r) for r in radii])
    if np.any(shells <= _ZERO_SHELL):
        raise ZeroDenominator("shell integral of u+v is numerically zero")
    return float(np.polyfit(np.log(radii), np.log(shells), 1)[0])


def product_bounds(u: Field, v: Field) -> ProductBounds:
    """Segregation bounds on the pair.

    The interaction-mass exponent is fitted over the windows
    R_max * {1/4, 1/2, 1} around the grid center, R_max the inscribed
    radius; identically segregated pairs (zero product) report 0.0."""
    _check_pair(u, v)
    g = u.grid
    uv = u.values * v.values
    gu = gradient(u)
    gv = gradient(v)
    mixed = u.values * np.hypot(gv.vx, gv.vy) + v.values * np.hypot(gu.vx, gu.vy)
    xmin, xmax, ymin, ymax = g.extent
    r_max = 0.5 * min(xmax - xmin, ymax - ymin)
    center = g.center
    prod_sq = Field(g, uv**2)
    radii = np.array([0.25, 0.5, 1.0]) * r_max
    masses = np.array([ball_integral(prod_sq, center, r) for r in radii])
    if np.all(masses > 0.0):
        exponent = float(np.polyfit(np.log(radii), np.log(masses), 1)[0])
    else:
        exponent = 0.0
    return ProductBounds(float(np.max(uv)), float(np.max(mixed)), exponent)


def gradient_bounds(u: Field, v: Field, margin: float) -> float:
    """sup(|grad u| + |grad v|) over the margin-shrunk interior."""
    _check_pair(u, v)
    g = u.grid
    if margin < 2.0 * g.h:
        raise ValueError(f"margin must be >= 2h = {2.0 * g.h}, got {margin}")
    k = int(math.ceil(margin / g.h - 1e-9))
    if g.nx - 2 * k < 2 or g.ny - 2 * k < 2:
        raise ValueError("margin leaves no interior window")
    gu = gradient(u)
    gv = gradient(v)
    mag = np.hypot(gu.vx, gu.vy) + np.hypot(gv.vx, gv.vy)
    return float(np.max(mag[k:-k, k:-k]))


def cone_monotonicity(u: Field, v: Field, e, aperture: float) -> float:
    """Violation of directional monotonicity over the cone tau . e >= aperture.

    Scans a 64-direction fan anchored at e; for each admissible tau the
    pair should satisfy tau . grad u >= 0 and tau . grad v <= 0 on the
    interior, and the violation is the worst signed excess (0 when the
    cone property holds).  The interior is scanned in blocks of rows, so
    the temporaries stay cache-sized on large grids."""
    _check_pair(u, v)
    if not (0.0 <= aperture <= 1.0):
        raise ValueError(f"aperture must be in [0, 1], got {aperture}")
    ex, ey = float(e[0]), float(e[1])
    norm = math.hypot(ex, ey)
    if norm <= 0.0:
        raise ValueError("direction e must be nonzero")
    ex, ey = ex / norm, ey / norm
    base = math.atan2(ey, ex)
    fan = []
    for k in range(64):
        t = base + 2.0 * math.pi * k / 64.0
        tx, ty = math.cos(t), math.sin(t)
        if tx * ex + ty * ey >= aperture - 1e-12:
            fan.append((tx, ty))
    g = u.grid
    worst = 0.0
    for i in range(1, g.nx - 1, _CONE_ROWS):
        win = Window(g, slice(i, min(i + _CONE_ROWS, g.nx - 1)), slice(1, g.ny - 1))
        ux, uy = win.grad(u.values)
        vx, vy = win.grad(v.values)
        for tx, ty in fan:
            du = tx * ux + ty * uy
            dv = tx * vx + ty * vy
            worst = max(worst, -float(np.min(du)), float(np.max(dv)))
    return max(0.0, worst)


def harmonic_deficit(
    u: Field, v: Field, x, R: float, cfg: SolveConfig | None = None
) -> float:
    """Energy distance from u - v to its harmonic replacement on B_R(x):
    solve the Dirichlet problem with boundary data (u - v)|_{dB_R}, then
    ball-integrate |grad(u - v - phi)|^2."""
    _check_pair(u, v)
    w = Field(u.grid, u.values - v.values)
    phi = solve_harmonic(u.grid, x, R, w, cfg)
    diff = Field(u.grid, w.values - phi.values)
    win = Window.ball(u.grid, x, R)
    gx, gy = win.grad(diff.values)
    return win.integral(gx * gx + gy * gy, x, R)


# ---------------------------------------------------------------------------
# flatness extraction


def _model_errors(uu, vv, proj):
    """Sup-distance from (uu, vv) to the one-plane model
    ((s proj)^+, (s proj)^-), as a function of the slope s > 0.

    For s > 0, s proj has the sign of proj, so the nodes are split once
    per direction: the error is |uu - s proj| + |vv| where proj >= 0 and
    |uu| + |vv + s proj| where proj < 0.  These are the floats of the
    unsplit formula, since x - 0 = x and a - (-b) = a + b exactly."""
    pos = proj >= 0.0
    neg = ~pos
    up, vp, pp = uu[pos], np.abs(vv[pos]), proj[pos]
    un, vn, pn = np.abs(uu[neg]), vv[neg], proj[neg]
    bp, bn = np.empty_like(pp), np.empty_like(pn)

    def err(s):
        np.multiply(pp, s, out=bp)
        np.subtract(up, bp, out=bp)
        np.abs(bp, out=bp)
        np.add(bp, vp, out=bp)
        np.multiply(pn, s, out=bn)
        np.add(vn, bn, out=bn)
        np.abs(bn, out=bn)
        np.add(un, bn, out=bn)
        # errors are nonnegative, so initial=0.0 only covers an empty side
        return float(max(bp.max(initial=0.0), bn.max(initial=0.0)))

    return err


def _best_magnitude(err, s_lo, s_hi):
    # the sup-error is convex piecewise-linear in s: golden-section is safe
    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = s_lo, s_hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = err(c)
    fd = err(d)
    for _ in range(40):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = err(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = err(d)
    s = 0.5 * (a + b)
    return err(s), s


def flatness_direction(u: Field, v: Field, x, R: float) -> FlatnessFit:
    """Best-fit one-plane model on B_R(x).

    Coarse scan over a 256-direction fan and 16 magnitudes on a
    subsampled lattice, then golden-section refinement of the angle
    (with a nested magnitude search) on the full set of ball nodes."""
    _check_pair(u, v)
    g = u.grid
    isl, jsl, w = ball_weights(g, x, R)
    mask = w > 0.0
    xs = g.x[isl] - float(x[0])
    ys = g.y[jsl] - float(x[1])
    DX, DY = np.meshgrid(xs, ys, indexing="ij")
    dx = DX[mask]
    dy = DY[mask]
    uu = u.values[isl, jsl][mask]
    vv = v.values[isl, jsl][mask]
    sup = float(max(np.max(np.abs(uu)), np.max(np.abs(vv))))
    if sup == 0.0:
        return FlatnessFit(np.array([1.0, 0.0]), 0.0, 0.0)
    s0 = sup / R
    # coarse stage on a stride-thinned subset (at most ~4096 nodes)
    stride = max(1, dx.size // 4096)
    cdx, cdy, cu, cv = dx[::stride], dy[::stride], uu[::stride], vv[::stride]
    thetas = 2.0 * math.pi * np.arange(256) / 256.0
    mags = s0 * np.geomspace(0.125, 8.0, 16)
    best = (math.inf, 0.0, s0)
    for t in thetas:
        tx, ty = math.cos(t), math.sin(t)
        err = _model_errors(cu, cv, tx * cdx + ty * cdy)
        for s in mags:
            e = err(s)
            if e < best[0]:
                best = (e, t, s)
    _, t_best, s_best = best
    # golden-section on the angle, one coarse fan step to each side
    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    span = 2.0 * math.pi / 256.0
    a, b = t_best - span, t_best + span
    s_lo, s_hi = s_best / 8.0, s_best * 8.0

    def angle_err(t):
        proj = math.cos(t) * dx + math.sin(t) * dy
        return _best_magnitude(_model_errors(uu, vv, proj), s_lo, s_hi)

    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, sc = angle_err(c)
    fd, sd = angle_err(d)
    for _ in range(24):
        if fc <= fd:
            b, d, fd, sd = d, c, fc, sc
            c = b - gr * (b - a)
            fc, sc = angle_err(c)
        else:
            a, c, fc, sc = c, d, fd, sd
            d = a + gr * (b - a)
            fd, sd = angle_err(d)
    if fc <= fd:
        err, t_fin, s_fin = fc, c, sc
    else:
        err, t_fin, s_fin = fd, d, sd
    return FlatnessFit(np.array([math.cos(t_fin), math.sin(t_fin)]), err / R, s_fin)
