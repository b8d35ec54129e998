"""Blow-down rescaling and direction-convergence measurements.

The rescaled pair u^R(x) = u(Rx)/L(R), with the normalization
L(R)² = R^{1-n} ∫_{∂B_R(0)} (u² + v²), keeps unit shell mass at radius 1
while zooming out.  For segregated pairs with linear growth the
rescalings flatten onto a one-plane profile (s(e·x)^+, s(e·x)^-), and
the per-radius direction e(R) should be Cauchy.  Each radius's s·e is
the L² gradient fit, the ball average of ∇(u - v); its flatness is the
sup distance to that model, an upper bound on the minimax distance to
any one-plane pair.  Everything here is n = 2 and anchored at the
origin: translate the pair first if the base point sits elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _check_pair, _check_radii, _flatness_fit, _shell_mass
from .errors import DomainTooLarge, NumericalBreakdown
from .grid import Field, Grid2D, Window, _box_inside, ball_weights, interpolate, shell_sq_integral

_ORIGIN = (0.0, 0.0)


@dataclass(frozen=True)
class BlowdownRecord:
    """One rescaling radius.

    e and s come from the L² gradient fit on B_R: s·e is the ball
    average of ∇(u - v).  flatness is the sup distance on B_1 between
    (u^R, v^R) and the rescaled model (s(e·x)^+, s(e·x)^-) over L, an
    upper bound on the minimax distance to any one-plane pair; deficit
    is the gradient misfit R^{-2} ∫_{B_R} |∇(u-v) - m e*|² against the
    direction e* and slope m fitted at the largest radius of the batch,
    which minimize that misfit on the largest ball."""

    R: float
    L: float
    e: np.ndarray
    flatness: float
    deficit: float

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        if not (self.R > 0.0):
            raise ValueError(f"R must be positive, got {self.R}")
        if not (self.L > 0.0):
            raise ValueError(f"L must be positive, got {self.L}")
        if abs(float(np.hypot(self.e[0], self.e[1])) - 1.0) > 1e-10:
            raise ValueError("direction must be a unit vector")
        if self.flatness < 0.0 or self.deficit < 0.0:
            raise ValueError("flatness and deficit must be nonnegative")


def compute_L(u: Field, v: Field, R: float) -> float:
    """Normalization L(R) = sqrt(R^{-1} ∫_{∂B_R(0)} u² + v²).

    The circle must fit inside the grid; vanishing shell mass raises
    ZeroDenominator."""
    _check_pair(u, v)
    return math.sqrt(_shell_mass(u, v, _ORIGIN, R) / R)


def rescale(
    u: Field, v: Field, R: float, target: Grid2D, L: float | None = None
) -> tuple[Field, Field, float]:
    """Sample (u(R·)/L, v(R·)/L) onto the target unit-scale grid.

    L defaults to compute_L(u, v, R); pass it explicitly to reuse a
    precomputed value (R=1, L=1 is then an identity resample on matching
    nodes).  The scaled target extent must fit inside the source grid.
    When the unit circle fits inside the target, the shell mass of the
    result is verified to be 1 within interpolation tolerance."""
    _check_pair(u, v)
    if not (R > 0.0):
        raise ValueError(f"R must be positive, got {R}")
    g = u.grid
    txmin, txmax, tymin, tymax = target.extent
    sxmin, sxmax, symin, symax = g.extent
    if not _box_inside(g, R * txmin, R * txmax, R * tymin, R * tymax):
        raise DomainTooLarge(
            f"scaled target [{R * txmin:.6g}, {R * txmax:.6g}] x "
            f"[{R * tymin:.6g}, {R * tymax:.6g}] exceeds source extent "
            f"[{sxmin:.6g}, {sxmax:.6g}] x [{symin:.6g}, {symax:.6g}]"
        )
    if L is None:
        L = compute_L(u, v, R)
    if not (L > 0.0):
        raise ValueError(f"L must be positive, got {L}")
    X, Y = target.meshgrid()
    pts = np.column_stack((R * X.ravel(), R * Y.ravel()))
    shape = (target.nx, target.ny)
    u_r = Field(target, np.asarray(interpolate(u, pts)).reshape(shape) / L)
    v_r = Field(target, np.asarray(interpolate(v, pts)).reshape(shape) / L)
    if txmin <= -1.0 and txmax >= 1.0 and tymin <= -1.0 and tymax >= 1.0:
        mass = shell_sq_integral(u_r, v_r, _ORIGIN, 1.0)
        # two interpolation stages: target sampling plus source spacing seen at scale R
        tol = 5.0 * (target.h + g.h / R)
        if abs(mass - 1.0) > tol:
            raise NumericalBreakdown(
                f"rescaled shell mass {mass:.6g} differs from 1 beyond "
                f"tolerance {tol:.3g}; L or the inputs are inconsistent"
            )
    return u_r, v_r, float(L)


def direction_convergence(
    u: Field, v: Field, radii
) -> tuple[list[BlowdownRecord], float]:
    """Per-radius flatness fits and the worst angular jump between them.

    Needs at least 3 strictly increasing radii, each circle inside the
    grid.  Records carry the gradient deficit measured against the
    direction and slope fitted at the largest radius; cauchy_gap is the
    maximum angle (radians) between consecutive e(R)."""
    _check_pair(u, v)
    radii = _check_radii(radii, 3)
    # one gradient of u - v on the largest ball's window, and each
    # radius's weights, serve every flatness fit and every deficit
    win = Window.ball(u.grid, _ORIGIN, float(radii[-1]))
    grad = win.grad(u.values, minus=v.values)
    fits = []
    for R in radii:
        R = float(R)
        L = compute_L(u, v, R)
        weights = ball_weights(u.grid, _ORIGIN, R)
        fit = _flatness_fit(u, v, _ORIGIN, R, win, grad, weights)
        fits.append((R, L, fit, weights))
    fit_top = fits[-1][2]
    gx0 = fit_top.magnitude * fit_top.e[0]
    gy0 = fit_top.magnitude * fit_top.e[1]
    wx, wy = grad
    misfit = (wx - gx0) ** 2 + (wy - gy0) ** 2
    records = []
    for R, L, fit, weights in fits:
        deficit = win.weighted_sum(misfit, weights) / R**2
        # sup-misfit of the rescaled pair is the original misfit over L
        records.append(
            BlowdownRecord(R, L, fit.e, fit.h_flat * R / L, deficit)
        )
    gap = 0.0
    for a, b in zip(records[:-1], records[1:]):
        dot = float(np.clip(np.dot(a.e, b.e), -1.0, 1.0))
        gap = max(gap, math.acos(dot))
    return records, gap
