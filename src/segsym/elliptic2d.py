"""2D boundary-value solves for Δu = κ u v², Δv = κ v u².

The coupled system is relaxed by projected red-black successive
over-relaxation, i.e. over-relaxed coordinate descent on the discrete
energy

    E = Σ_edges (Δu)² + Σ_edges (Δv)² + κ h² Σ_nodes u² v²

restricted to u, v ≥ 0.  Each point update computes the exact scalar
minimizer a* = (sum of the four neighbours) / (4 + κ h² b²) and moves to
max(a + ω (a* − a), 0), with ω = 2 / (1 + √(1 − ρ²)) and
ρ = (cos(π/(nx−1)) + cos(π/(ny−1))) / 2 the Jacobi spectral radius of
the 5-point Laplacian on the grid (Young's optimal factor), so sweeps
grow like N rather than N².

The energy trace is still nonincreasing.  Restricted to one node, E is
a convex quadratic with minimizer a* ≥ 0; nodes of one colour are not
neighbours, so a colour update is a set of independent 1D moves.  For
ω in (0, 2) the move a + ω (a* − a) does not raise that quadratic, and
the projection onto [0, ∞) does not raise it either, because 0 lies
between a negative candidate and a* ≥ 0.

The iteration starts from the harmonic extension of the boundary data
(κ = 0) and continues in κ by factors of 10.  The linear problems
(harmonic extension, Δw = M w on a disk) go to a sparse direct solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .config import SolveConfig
from .errors import NoConvergence
from .grid import Field, Grid2D, _require_ball_inside, gradient

_CHECK_EVERY = 50  # sweeps between residual/energy checks


@dataclass
class SolutionPair:
    """Converged pair plus the solve's bookkeeping."""

    u: Field
    v: Field
    kappa: float
    residual: float
    sweeps: int = 0
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _boundary_values(g: Grid2D, bdata) -> np.ndarray:
    """Evaluate boundary data on the full lattice (only the border is used)."""
    if isinstance(bdata, Field):
        if bdata.grid != g:
            raise ValueError("boundary data field must live on the same grid")
        return bdata.values.copy()
    X, Y = g.meshgrid()
    return np.asarray(bdata(X, Y), dtype=float)


def discrete_energy(u: np.ndarray, v: np.ndarray, kappa: float, h: float) -> float:
    """The edge-based energy the sweeps descend on."""
    e = (
        np.sum(np.diff(u, axis=0) ** 2)
        + np.sum(np.diff(u, axis=1) ** 2)
        + np.sum(np.diff(v, axis=0) ** 2)
        + np.sum(np.diff(v, axis=1) ** 2)
    )
    return float(e + kappa * h * h * np.sum(u * u * v * v))


def _sup_residual(u, v, kappa, h) -> float:
    lap_u = (
        u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4 * u[1:-1, 1:-1]
    ) / (h * h)
    lap_v = (
        v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:] - 4 * v[1:-1, 1:-1]
    ) / (h * h)
    ru = lap_u - kappa * u[1:-1, 1:-1] * v[1:-1, 1:-1] ** 2
    rv = lap_v - kappa * v[1:-1, 1:-1] * u[1:-1, 1:-1] ** 2
    return max(np.max(np.abs(ru)), np.max(np.abs(rv)))


def _laplace_rectangle(g: Grid2D, border: np.ndarray) -> np.ndarray:
    """Direct 5-point Laplace solve on the full rectangle, Dirichlet border."""
    nx, ny = g.nx, g.ny
    m, n = nx - 2, ny - 2
    idx = np.arange(m * n).reshape(m, n)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [np.full(m * n, -4.0)]
    rhs = np.zeros(m * n)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ii = np.arange(m)[:, None] + di
        jj = np.arange(n)[None, :] + dj
        inside = (0 <= ii) & (ii < m) & (0 <= jj) & (jj < n)
        src = np.broadcast_to(idx, (m, n))[inside]
        dst = idx[np.clip(ii, 0, m - 1), np.clip(jj, 0, n - 1)][
            np.broadcast_to(inside, (m, n))
        ]
        rows.append(src)
        cols.append(dst)
        vals.append(np.ones(src.size))
        outside = ~inside
        bi = (np.broadcast_to(np.arange(m)[:, None] + di, (m, n)) + 1)[outside]
        bj = (np.broadcast_to(np.arange(n)[None, :] + dj, (m, n)) + 1)[outside]
        np.subtract.at(rhs, idx[outside], border[bi, bj])
    A = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m * n, m * n),
    ).tocsc()
    out = border.copy()
    out[1:-1, 1:-1] = spsolve(A, rhs).reshape(m, n)
    return out


def _continuation_ladder(kappa: float) -> list[float]:
    if kappa <= 10.0:
        return [kappa]
    ladder = [kappa]
    while ladder[-1] > 10.0:
        ladder.append(ladder[-1] / 10.0)
    return ladder[::-1]


def solve_system(
    g: Grid2D, bdata_u, bdata_v, kappa: float, cfg: SolveConfig | None = None
) -> SolutionPair:
    """Relax the coupled system to sup-norm residual <= cfg.tol.

    bdata_u / bdata_v: vectorized callables (x, y) -> values, or Fields
    on the same grid; only the border values are read, and they must be
    finite and nonnegative.
    """
    cfg = cfg or SolveConfig()
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
    bu = _boundary_values(g, bdata_u)
    bv = _boundary_values(g, bdata_v)
    border_mask = np.zeros((g.nx, g.ny), dtype=bool)
    border_mask[0, :] = border_mask[-1, :] = True
    border_mask[:, 0] = border_mask[:, -1] = True
    for name, b in (("bdata_u", bu), ("bdata_v", bv)):
        if not np.all(np.isfinite(b[border_mask])):
            raise ValueError(f"{name} has non-finite boundary values")
        if np.min(b[border_mask]) < 0.0:
            raise ValueError(f"{name} has negative boundary values")

    u = _laplace_rectangle(g, bu)
    v = _laplace_rectangle(g, bv)
    if kappa == 0.0:
        res = _sup_residual(u, v, 0.0, g.h)
        return SolutionPair(Field(g, u), Field(g, v), 0.0, res)

    h = g.h
    h2 = h * h
    # Young's optimal over-relaxation factor from the Jacobi spectral
    # radius of the 5-point Laplacian on this grid
    rho = 0.5 * (math.cos(math.pi / (g.nx - 1)) + math.cos(math.pi / (g.ny - 1)))
    omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    # red = (i+j) even, black = odd; each color splits into two strided blocks
    red = ((1, 1), (2, 2))
    black = ((1, 2), (2, 1))
    total_sweeps = 0
    energies: list[float] = []
    for stage_kappa in _continuation_ladder(kappa):
        final = stage_kappa == kappa
        tol = cfg.tol if final else max(cfg.tol, 1e-6)
        res = _sup_residual(u, v, stage_kappa, h)
        # NaN fails every comparison, so it must never reach `res <= tol`
        while not res <= tol:
            if not math.isfinite(res):
                raise NoConvergence(
                    total_sweeps, res, "red-black relaxation hit a non-finite residual"
                )
            for _ in range(_CHECK_EVERY):
                for a, b in ((u, v), (v, u)):
                    for color in (red, black):
                        for i0, j0 in color:
                            nb = (
                                a[i0 - 1 : -2 : 2, j0:-1:2]
                                + a[i0 + 1 :: 2, j0:-1:2]
                                + a[i0:-1:2, j0 - 1 : -2 : 2]
                                + a[i0:-1:2, j0 + 1 :: 2]
                            )
                            cur = a[i0:-1:2, j0:-1:2]
                            star = nb / (4.0 + stage_kappa * h2 * b[i0:-1:2, j0:-1:2] ** 2)
                            a[i0:-1:2, j0:-1:2] = np.maximum(cur + omega * (star - cur), 0.0)
            total_sweeps += _CHECK_EVERY
            res = _sup_residual(u, v, stage_kappa, h)
            if final:
                energies.append(discrete_energy(u, v, stage_kappa, h))
            if total_sweeps >= cfg.max_iter:
                raise NoConvergence(total_sweeps, res, "red-black relaxation")
    return SolutionPair(
        Field(g, u), Field(g, v), kappa, res, total_sweeps, np.asarray(energies)
    )


def energy(u: Field, v: Field, kappa: float, center=None, r: float | None = None) -> float:
    """Quadrature of |∇u|² + |∇v|² + κ u² v², over a ball or the whole grid.

    Over a ball (center defaults to the grid center) this is almgren_D."""
    if r is not None:
        from .diagnostics import almgren_D  # diagnostics imports this module

        return almgren_D(u, v, kappa, u.grid.center if center is None else center, r)
    gu = gradient(u)
    gv = gradient(v)
    integrand = (
        gu.magnitude_squared() + gv.magnitude_squared() + kappa * (u.values * v.values) ** 2
    )
    return float(np.sum(integrand) * u.grid.h**2)


def _disk_dirichlet_solve(
    g: Grid2D, center, R: float, frozen_values: np.ndarray, shift: float
) -> np.ndarray:
    """Solve (Δ - shift) w = 0 on lattice nodes strictly inside the disk;
    nodes at distance >= R keep frozen_values (first-order rim treatment)."""
    X, Y = g.meshgrid()
    d = np.hypot(X - center[0], Y - center[1])
    inside = d < R
    # nodes on the outermost lattice ring cannot be unknowns
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    n_in = int(inside.sum())
    if n_in == 0:
        return frozen_values.copy()
    num = -np.ones((g.nx, g.ny), dtype=np.int64)
    num[inside] = np.arange(n_in)
    h2 = g.h * g.h
    rows = [np.arange(n_in)]
    cols = [np.arange(n_in)]
    vals = [np.full(n_in, -4.0 - shift * h2)]
    rhs = np.zeros(n_in)
    ii, jj = np.nonzero(inside)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = ii + di, jj + dj
        nb = num[ni, nj]
        known = nb < 0
        rows.append(num[ii, jj][~known])
        cols.append(nb[~known])
        vals.append(np.ones(int((~known).sum())))
        np.subtract.at(rhs, num[ii, jj][known], frozen_values[ni[known], nj[known]])
    A = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_in, n_in),
    ).tocsc()
    out = frozen_values.copy()
    out[inside] = spsolve(A, rhs)
    return out


def solve_harmonic(
    g: Grid2D, center, R: float, bdata, cfg: SolveConfig | None = None
) -> Field:
    """Discrete harmonic function in B_R(center) matching bdata on the rim.

    bdata is a vectorized callable (x, y) -> values or a Field on the
    same grid; lattice nodes at distance >= R are frozen to it.
    """
    _require_ball_inside(g, center, R)
    frozen = _boundary_values(g, bdata)
    return Field(g, _disk_dirichlet_solve(g, center, R, frozen, 0.0))


def solve_linear_decay(
    M: float, A: float, R_outer: float, g: Grid2D, center=(0.0, 0.0)
) -> Field:
    """Solve Δw = M w in B_{R_outer}(center) with w = A on the rim."""
    if M < 0.0:
        raise ValueError(f"M must be nonnegative, got {M}")
    if A < 0.0:
        raise ValueError(f"A must be nonnegative, got {A}")
    _require_ball_inside(g, center, R_outer)
    frozen = np.full((g.nx, g.ny), float(A))
    return Field(g, _disk_dirichlet_solve(g, center, R_outer, frozen, float(M)))
