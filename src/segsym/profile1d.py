"""The 1D entire profile: u'' = u v², v'' = v u² on [-L, L].

Boundary data pins linear growth on one side of each component
(u(L) = L, v(-L) = L) and a floor of 1e-12 on the other, which
normalizes the profile to unit asymptotic slopes.

The solver is plain Newton on the centered-difference residual.  With
the interior unknowns interleaved as (u₁, v₁, u₂, v₂, …) the Jacobian
is pentadiagonal: each component's second difference sits at offsets
±2 and the coupling −2uᵢvᵢ at ±1.  It is symmetric but indefinite, so
each step is one banded LU solve (scipy.linalg.solve_banded, imported
on the first step, so `import segsym` loads no scipy).  The full
step is taken, clamped at a tiny positive floor, until the sup residual
is ≤ tol; _util.Progress stops the loop, with the cap _NEWTON_MAX and
the residual's round-off floor L/h²·ε.  From the piecewise-linear start
every converging solve measured (L up to 400, h down to 0.01) takes 6–8
steps; one whose tol is below the floor stalls after 9–12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import Progress
from .config import SolveConfig
from .errors import DomainTooLarge, MultipleSignChanges, NoConvergence, NoSignChange
from .grid import Field, Grid2D, _unit

# keeps iterates strictly positive where the true values underflow
_POS_FLOOR = 1e-300

# value pinned on the decaying side of each component: keeps the
# Jacobian nonsingular without visibly denting monotonicity
_BOUNDARY_FLOOR = 1e-12

_NEWTON_MAX = 60

# bound on the interval count 2L/h: at 10^6 the banded Jacobian takes
# 80 MB; the largest solve measured (L = 400, h = 0.01) has 8e4
_MAX_INTERVALS = 10**6


@dataclass
class Profile1D:
    """Converged 1D pair on the symmetric interval [-L, L]."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    residual: float
    half_length: float
    spacing: float
    newton_steps: int = 0

    def interp_u(self, t) -> np.ndarray:
        return np.interp(t, self.x, self.u)



def _residual(u, v, h):
    ru = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h) - u[1:-1] * v[1:-1] ** 2
    rv = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h) - v[1:-1] * u[1:-1] ** 2
    return ru, rv


def _sup_residual(u, v, h) -> float:
    ru, rv = _residual(u, v, h)
    return max(np.max(np.abs(ru)), np.max(np.abs(rv)))


def _newton_step(u, v, h):
    """Newton correction (du, dv) of the interior values: one banded LU
    solve on the interleaved unknowns."""
    from scipy.linalg import solve_banded  # loaded on first use, not by `import segsym`

    ui, vi = u[1:-1], v[1:-1]
    ru, rv = _residual(u, v, h)
    h2 = h * h
    ab = np.zeros((5, 2 * ui.size))  # ab[2 + i - j, j] = J[i, j]
    ab[0, 2:] = 1.0 / h2
    ab[4, :-2] = 1.0 / h2
    ab[1, 1::2] = ab[3, 0::2] = -2.0 * ui * vi
    ab[2, 0::2] = -2.0 / h2 - vi * vi
    ab[2, 1::2] = -2.0 / h2 - ui * ui
    rhs = np.empty(2 * ui.size)
    rhs[0::2], rhs[1::2] = -ru, -rv
    delta = solve_banded((2, 2), ab, rhs, overwrite_ab=True, overwrite_b=True)
    return delta[0::2], delta[1::2]


def solve_profile(
    half_length: float, spacing: float, cfg: SolveConfig | None = None
) -> Profile1D:
    """Solve the two-point boundary value problem on [-L, L] to a sup
    residual of cfg.tol (default 1e-10).

    Requires a finite half_length >= 10 (so the linear regime is
    visible) and 0 < spacing <= 0.1 dividing the interval evenly into at
    most _MAX_INTERVALS = 10^6 intervals.  Raises NoConvergence on a
    non-finite residual, a singular Jacobian, a stall at the round-off
    floor, or after _NEWTON_MAX steps.
    """
    cfg = cfg or SolveConfig(tol=1e-10)
    L, h = float(half_length), float(spacing)
    if not (math.isfinite(L) and L >= 10.0):
        raise ValueError(f"half_length must be finite and >= 10, got {L}")
    if not (0.0 < h <= 0.1):
        raise ValueError(f"spacing must be in (0, 0.1], got {h}")
    if not 2.0 * L / h <= _MAX_INTERVALS:
        raise ValueError(
            f"half_length {L} over spacing {h} gives {2.0 * L / h:.6g} intervals,"
            f" more than {_MAX_INTERVALS}"
        )
    n = int(round(2.0 * L / h))
    if abs(n * h - 2.0 * L) > 1e-8:
        raise ValueError(f"spacing {h} does not divide [-{L}, {L}] evenly")

    x = -L + h * np.arange(n + 1)
    u = np.maximum(x, _BOUNDARY_FLOOR)
    v = np.maximum(-x, _BOUNDARY_FLOOR)
    u[0], u[-1] = _BOUNDARY_FLOOR, L
    v[0], v[-1] = L, _BOUNDARY_FLOOR

    # second differences of values up to L, divided by h², carry a
    # rounding error near L/h²·ε that no Newton step removes
    floor = L / (h * h) * np.finfo(float).eps
    progress = Progress("profile Newton iteration", cfg.tol, _NEWTON_MAX, floor, "L/h²·ε")
    res = _sup_residual(u, v, h)
    newton_steps = 0
    while not progress.done(res, newton_steps):
        try:
            du, dv = _newton_step(u, v, h)
        except np.linalg.LinAlgError:
            raise NoConvergence(
                newton_steps, res, "profile Newton step hit a singular Jacobian"
            ) from None
        u[1:-1] = np.maximum(u[1:-1] + du, _POS_FLOOR)
        v[1:-1] = np.maximum(v[1:-1] + dv, _POS_FLOOR)
        res = _sup_residual(u, v, h)
        newton_steps += 1
    return Profile1D(x, u, v, res, L, h, newton_steps)


def crossing_point(p: Profile1D) -> float:
    """Linearly interpolated root of u - v; must be unique."""
    d = p.u - p.v
    sign = np.sign(d)
    nz = sign != 0
    flips = np.where(np.diff(sign[nz]) != 0)[0]
    idx_nz = np.where(nz)[0]
    if flips.size == 0:
        raise NoSignChange("u - v does not change sign on the interval")
    if flips.size > 1:
        raise MultipleSignChanges(f"u - v changes sign {flips.size} times")
    i = idx_nz[flips[0]]
    j = idx_nz[flips[0] + 1]
    # linear interpolation between the two bracketing nodes
    return float(p.x[i] - d[i] * (p.x[j] - p.x[i]) / (d[j] - d[i]))


def asymptotic_slope(p: Profile1D) -> tuple[float, float]:
    """Least-squares slopes: u on [L/2, 9L/10], v on the mirror interval."""
    L = p.half_length
    right = (p.x >= L / 2) & (p.x <= 0.9 * L)
    left = (p.x >= -0.9 * L) & (p.x <= -L / 2)
    slope_plus = float(np.polyfit(p.x[right], p.u[right], 1)[0])
    slope_minus = float(np.polyfit(p.x[left], p.v[left], 1)[0])
    return slope_plus, slope_minus


def extend_to_2d(p: Profile1D, g: Grid2D, direction) -> tuple[Field, Field]:
    """Planar extension u2(x) = u(x . d), d the unit direction (grid._unit),
    linear in between nodes.

    Along an x-axis direction (unit d with d[1] == 0.0) every row i holds
    one value: x_i d[0] + y_j d[1] is x_i d[0] + y_0 d[1] for every j,
    since each y term is +-0.0.  So that row is interpolated once and
    each field's values are a read-only np.broadcast_to view of it
    across the ny columns: the same floats as interpolating the whole
    grid, held in nx floats.  A caller that needs to write into them
    copies first (np.array(f.values)).  Any other direction returns
    full, writeable arrays."""
    dx, dy = _unit(direction)
    if dy == 0.0:
        t = g.x * dx + g.y[0] * dy
    else:
        t = g.x[:, None] * dx + g.y[None, :] * dy
    lo, hi = float(t.min()), float(t.max())
    if lo < p.x[0] - 1e-12 or hi > p.x[-1] + 1e-12:
        raise DomainTooLarge(
            f"grid needs profile values on [{lo:.6g}, {hi:.6g}] but the "
            f"profile covers [{p.x[0]:.6g}, {p.x[-1]:.6g}]"
        )

    def extend(f):
        vals = np.interp(t, p.x, f)
        if vals.ndim == 1:
            vals = np.broadcast_to(vals[:, None], (g.nx, g.ny))
        return Field(g, vals)

    return extend(p.u), extend(p.v)
