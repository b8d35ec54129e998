"""The 1D entire profile: u'' = u v², v'' = v u² on [-L, L].

Boundary data pins linear growth on one side of each component
(u(L) = L, v(-L) = L) and a tiny positive floor on the other, which
normalizes the profile to unit asymptotic slopes.  The solver is a
damped Newton iteration on the centered-difference residual with a
Gauss-Seidel fallback if a Newton step refuses to shrink the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import bmat, csr_matrix, diags
from scipy.sparse.linalg import spsolve

from .config import SolveConfig
from .errors import DomainTooLarge, MultipleSignChanges, NoConvergence, NoSignChange
from .grid import Field, Grid2D

# keeps iterates strictly positive where the true values underflow
_POS_FLOOR = 1e-300

_NEWTON_MAX = 60
_GS_FALLBACK_SWEEPS = 500


@dataclass
class Profile1D:
    """Converged 1D pair on the symmetric interval [-L, L]."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    residual: float
    half_length: float
    spacing: float

    def interp_u(self, t) -> np.ndarray:
        return np.interp(t, self.x, self.u)

    def interp_v(self, t) -> np.ndarray:
        return np.interp(t, self.x, self.v)


def _residual(u, v, h):
    ru = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h) - u[1:-1] * v[1:-1] ** 2
    rv = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h) - v[1:-1] * u[1:-1] ** 2
    return ru, rv


def _sup_residual(u, v, h) -> float:
    ru, rv = _residual(u, v, h)
    return max(np.max(np.abs(ru)), np.max(np.abs(rv)))


def _gauss_seidel(u, v, h, sweeps):
    # pointwise exact solves of the linearized scalar equations, in place
    h2 = h * h
    for _ in range(sweeps):
        for arr, other in ((u, v), (v, u)):
            for parity in (1, 2):
                sl = slice(parity, arr.size - 1, 2)
                lo = slice(parity - 1, arr.size - 2, 2)
                hi = slice(parity + 1, arr.size, 2)
                arr[sl] = (arr[lo] + arr[hi]) / (2.0 + h2 * other[sl] ** 2)
    return u, v


def solve_profile(
    half_length: float, spacing: float, cfg: SolveConfig | None = None
) -> Profile1D:
    """Solve the two-point boundary value problem on [-L, L].

    Requires half_length >= 10 (so the linear regime is visible) and
    0 < spacing <= 0.1 dividing the interval evenly.
    """
    cfg = cfg or SolveConfig(tol=1e-10)
    L, h = float(half_length), float(spacing)
    if L < 10.0:
        raise ValueError(f"half_length must be >= 10, got {L}")
    if not (0.0 < h <= 0.1):
        raise ValueError(f"spacing must be in (0, 0.1], got {h}")
    n = int(round(2.0 * L / h))
    if abs(n * h - 2.0 * L) > 1e-8:
        raise ValueError(f"spacing {h} does not divide [-{L}, {L}] evenly")

    x = -L + h * np.arange(n + 1)
    floor = max(cfg.boundary_floor, _POS_FLOOR)
    u = np.maximum(x, floor)
    v = np.maximum(-x, floor)
    u[0], u[-1] = floor, L
    v[0], v[-1] = L, floor

    m = n - 1  # interior count
    h2 = h * h
    off = np.ones(m - 1) / h2
    res = _sup_residual(u, v, h)
    for newton_steps in range(_NEWTON_MAX):
        # NaN fails every comparison, so it must never reach `res <= tol`
        if not np.isfinite(res):
            raise NoConvergence(
                newton_steps, res, "profile Newton iteration hit a non-finite residual"
            )
        if res <= cfg.tol:
            break
        ui, vi = u[1:-1], v[1:-1]
        ru, rv = _residual(u, v, h)
        J = csr_matrix(
            diags(
                [off, -2.0 / h2 - vi * vi, off], [-1, 0, 1], shape=(m, m)
            )
        )
        Jv = csr_matrix(
            diags([off, -2.0 / h2 - ui * ui, off], [-1, 0, 1], shape=(m, m))
        )
        full = bmat(
            [
                [J, diags(-2.0 * ui * vi)],
                [diags(-2.0 * vi * ui), Jv],
            ],
            format="csc",
        )
        delta = spsolve(full, -np.concatenate([ru, rv]))
        du, dv = delta[:m], delta[m:]

        step = cfg.damping
        improved = False
        for _ in range(40):
            u_try = u.copy()
            v_try = v.copy()
            u_try[1:-1] = np.maximum(ui + step * du, _POS_FLOOR)
            v_try[1:-1] = np.maximum(vi + step * dv, _POS_FLOOR)
            res_try = _sup_residual(u_try, v_try, h)
            if res_try < res:
                u, v, res = u_try, v_try, res_try
                improved = True
                break
            step *= 0.5
        if not improved:
            # Newton refused; relax and try again
            _gauss_seidel(u, v, h, _GS_FALLBACK_SWEEPS)
            res = _sup_residual(u, v, h)
    else:
        raise NoConvergence(_NEWTON_MAX, res, "profile Newton iteration")
    return Profile1D(x, u, v, res, L, h)


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
    """Planar extension u2(x) = u(x . direction), linear in between nodes."""
    d = np.asarray(direction, dtype=float)
    norm = float(np.hypot(d[0], d[1]))
    if norm == 0.0:
        raise ValueError("direction must be a nonzero vector")
    d = d / norm
    X, Y = g.meshgrid()
    t = X * d[0] + Y * d[1]
    lo, hi = float(t.min()), float(t.max())
    if lo < p.x[0] - 1e-12 or hi > p.x[-1] + 1e-12:
        raise DomainTooLarge(
            f"grid needs profile values on [{lo:.6g}, {hi:.6g}] but the "
            f"profile covers [{p.x[0]:.6g}, {p.x[-1]:.6g}]"
        )
    return (
        Field(g, np.interp(t, p.x, p.u)),
        Field(g, np.interp(t, p.x, p.v)),
    )
