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

The iteration starts from the boundary data with a zero interior and
relaxes at the target κ alone, so the pair solve runs no linear solve.
At 129² a harmonic (κ = 0) start saved at most one check interval on 1D
data and cost sweeps on non-1D data; from 257² up it saves 5–15% of the
sweeps, about what its own two linear solves cost in time.

While it relaxes, u and v are held as their four parity planes
a[p::2, q::2], each a contiguous array, so a colour block and its four
neighbours are plain slices of planes.  Each block's views and two
scratch buffers are built once, before the first sweep; a sweep then
runs the update's eleven ufunc calls per block, each with out=, adding
the neighbours in the order up + down, left, right.  These are the
operations, in the order, of the same update on strided views of the
full arrays, so every float is bit-identical to it.  Every _CHECK_EVERY
sweeps (and at max_iter) the planes are copied back into u and v, and
the sup residual and the energy are taken on the full arrays.

Both linear problems (harmonic replacement on a disk, Δw = M w on a
disk) go through one core, _mg_pcg: the 5-point equation
(4 + s h²) x − Σ neighbours = 0 on a node mask, with the nodes off the
mask frozen as Dirichlet data.  It is conjugate gradients
preconditioned by one symmetric geometric V-cycle (red-black
Gauss-Seidel smoothing, bilinear transfer, coarse masks taken at even
nodes, an exact solve on the coarsest level), so its cost is O(N) in
the nodes of the mask's bounding box.  It stops when the residual's
2-norm falls to 1e-13 times the right-hand side's, and raises
NoConvergence on a non-finite residual or after 100 iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .config import SolveConfig
from .errors import NoConvergence
from .grid import Field, Grid2D, _require_ball_inside

_CHECK_EVERY = 50  # sweeps between residual/energy checks

# red = (i+j) even, black = odd; each colour splits into two strided blocks
_RED = ((1, 1), (2, 2))
_BLACK = ((1, 2), (2, 1))


def _blocks(a: np.ndarray, i0: int, j0: int):
    """The strided colour block of a's interior that starts at (i0, j0),
    as an index, and the sum of its four neighbours."""
    nb = np.add(a[i0 - 1 : -2 : 2, j0:-1:2], a[i0 + 1 :: 2, j0:-1:2])
    nb += a[i0:-1:2, j0 - 1 : -2 : 2]
    nb += a[i0:-1:2, j0 + 1 :: 2]
    return (slice(i0, -1, 2), slice(j0, -1, 2)), nb


@dataclass
class SolutionPair:
    """Converged pair plus the solve's bookkeeping."""

    u: Field
    v: Field
    kappa: float
    residual: float
    sweeps: int = 0
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    seconds: float = 0.0  # wall time of the solve


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


def _parity_planes(a: np.ndarray) -> list[list[np.ndarray]]:
    """a's four parity planes a[p::2, q::2] as contiguous copies, [p][q]."""
    return [[np.ascontiguousarray(a[p::2, q::2]) for q in (0, 1)] for p in (0, 1)]


def _join_planes(a: np.ndarray, planes) -> None:
    """Write the parity planes back into a."""
    for p in (0, 1):
        for q in (0, 1):
            a[p::2, q::2] = planes[p][q]


def _sweep_plan(pa, pb, g: Grid2D) -> list[tuple]:
    """The colour blocks of a's interior in sweep order (red, then
    black), as views into the parity planes pa of a and pb of b: the
    block, its neighbours above, below, left and right, b on the block,
    and two scratch buffers of the block's size.  The block at row
    or column 2 is empty, and left out, on a grid with 3 nodes along
    that axis."""
    plan = []
    for i0, j0 in _RED + _BLACK:
        ni = len(range(i0, g.nx - 1, 2))
        nj = len(range(j0, g.ny - 1, 2))
        if ni == 0 or nj == 0:
            continue

        def at(planes, i, j):
            # the nodes (i + 2k, j + 2l) of the block's shape
            return planes[i % 2][j % 2][i // 2 : i // 2 + ni, j // 2 : j // 2 + nj]

        plan.append(
            (
                at(pa, i0, j0),
                at(pa, i0 - 1, j0),
                at(pa, i0 + 1, j0),
                at(pa, i0, j0 - 1),
                at(pa, i0, j0 + 1),
                at(pb, i0, j0),
                np.empty((ni, nj)),
                np.empty((ni, nj)),
            )
        )
    return plan


# ---------------------------------------------------------------------------
# the linear core: multigrid-preconditioned conjugate gradients

_MG_RTOL = 1e-13  # stop when ||r||_2 <= _MG_RTOL ||b||_2
_MG_MAX_ITER = 100  # CG iterations before NoConvergence
_MG_SMOOTH = 2  # red-black Gauss-Seidel sweeps before and after each coarsening
_MG_COARSEST = 16  # coarsest level has at most this many cells per axis


class _Level:
    """One grid of the hierarchy: the node mask, the operator
    diag * x - (sum of neighbours) on it, and its smoother."""

    def __init__(self, free: np.ndarray, diag: float):
        self.free = free
        self.mask = free.astype(float)
        self.diag = diag
        self.weight = self.mask / diag  # Gauss-Seidel step, 0 off the mask

    def apply(self, x: np.ndarray) -> np.ndarray:
        q = np.zeros_like(x)
        q[1:-1, 1:-1] = self.diag * x[1:-1, 1:-1] - (
            x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:]
        )
        q *= self.mask
        return q

    def smooth(self, e: np.ndarray, r: np.ndarray, colours) -> None:
        for colour in colours:
            for i0, j0 in colour:
                blk, nb = _blocks(e, i0, j0)
                nb += r[blk]
                np.multiply(nb, self.weight[blk], out=e[blk])


class _Coarsest(_Level):
    """The last level, solved exactly through its dense inverse.

    The inverse comes from a banded Cholesky factor: unknowns are
    numbered row by row, so the bandwidth is at most the row length,
    and the narrow band keeps LAPACK on one thread."""

    def __init__(self, free: np.ndarray, diag: float):
        super().__init__(free, diag)
        ii, jj = np.nonzero(free)
        n = ii.size
        num = -np.ones(free.shape, dtype=np.intp)
        num[ii, jj] = np.arange(n)
        right, down = num[ii, jj + 1], num[ii + 1, jj]
        bw = int(np.max(down - np.arange(n), initial=1))
        # upper banded storage: ab[bw + i - j, j] = A[i, j] for i <= j
        ab = np.zeros((bw + 1, n))
        ab[bw] = diag
        for nb in (right, down):
            on = nb >= 0
            ab[bw + np.arange(n)[on] - nb[on], nb[on]] = -1.0
        eye = np.eye(n)
        self.inverse = cho_solve_banded((cholesky_banded(ab), False), eye) if n else eye

    def solve(self, r: np.ndarray) -> np.ndarray:
        e = np.zeros_like(r)
        # row sums, not a matrix product: the CG loop makes no BLAS call
        e[self.free] = np.sum(self.inverse * r[self.free], axis=1)
        return e


def _restrict(r: np.ndarray, coarse: _Level) -> np.ndarray:
    """Transpose of bilinear prolongation; r vanishes off the fine mask."""
    t = r[2:-1:2] + 0.5 * (r[1:-2:2] + r[3::2])
    rc = np.zeros(coarse.free.shape)
    rc[1:-1, 1:-1] = t[:, 2:-1:2] + 0.5 * (t[:, 1:-2:2] + t[:, 3::2])
    rc *= coarse.mask
    return rc


def _prolong(ec: np.ndarray, fine: _Level) -> np.ndarray:
    """Bilinear interpolation onto the fine grid, cut to the fine mask."""
    t = np.empty((2 * ec.shape[0] - 1, ec.shape[1]))
    t[0::2] = ec
    t[1::2] = 0.5 * (ec[:-1] + ec[1:])
    e = np.empty(fine.free.shape)
    e[:, 0::2] = t
    e[:, 1::2] = 0.5 * (t[:, :-1] + t[:, 1:])
    e *= fine.mask
    return e


def _vcycle(levels: list[_Level], r: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V-cycle for levels[k] e = r: pre-smoothing red then
    black, post-smoothing black then red, so the cycle is a symmetric
    positive definite preconditioner."""
    lv = levels[k]
    if k == len(levels) - 1:
        return lv.solve(r)
    e = np.zeros_like(r)
    lv.smooth(e, r, (_RED, _BLACK) * _MG_SMOOTH)
    ec = _vcycle(levels, _restrict(r - lv.apply(e), levels[k + 1]), k + 1)
    e += _prolong(ec, lv)
    lv.smooth(e, r, (_BLACK, _RED) * _MG_SMOOTH)
    return e


def _mg_pcg(x: np.ndarray, free: np.ndarray, shift: float, h: float) -> np.ndarray:
    """Solve (4 + shift h²) x − (sum of the four neighbours of x) = 0 at
    the nodes of the boolean mask `free`; every other node keeps its
    value in x and enters as Dirichlet data.  Returns a new array.

    The mask must not touch the outermost ring of x.  Moving the frozen
    neighbours to the right-hand side gives A x = b on the mask, A
    symmetric positive definite; it is solved by conjugate gradients
    preconditioned with one geometric V-cycle, from x = 0, until
    ||r||_2 <= _MG_RTOL ||b||_2.  The problem is cropped to the mask's
    bounding box plus the frozen ring and padded with frozen nodes to
    m 2^k + 1 nodes per axis, m <= _MG_COARSEST; the coarse masks are
    the fine mask at even nodes, each rediscretized with shift
    shift (2^l h)², and the coarsest level is solved exactly.
    """
    out = x.copy()
    ii, jj = np.nonzero(free)
    if ii.size == 0:
        return out
    crop = (slice(ii.min() - 1, ii.max() + 2), slice(jj.min() - 1, jj.max() + 2))
    cfree = free[crop]
    frozen = np.where(cfree, 0.0, x[crop])
    n = cfree.shape
    k = 0
    while max(n) - 1 > _MG_COARSEST * 2**k:
        k += 1
    size = tuple(-(-(a - 1) // 2**k) * 2**k + 1 for a in n)
    pfree = np.zeros(size, dtype=bool)
    pfree[: n[0], : n[1]] = cfree
    levels = []
    for lev in range(k + 1):
        diag = 4.0 + shift * (2**lev * h) ** 2
        sub = pfree[:: 2**lev, :: 2**lev]
        levels.append(_Coarsest(sub, diag) if lev == k else _Level(sub, diag))
    fine = levels[0]

    r = np.zeros(size)
    r[1 : n[0] - 1, 1 : n[1] - 1] = (
        frozen[:-2, 1:-1] + frozen[2:, 1:-1] + frozen[1:-1, :-2] + frozen[1:-1, 2:]
    )
    # where, not a product with the mask: frozen data the mask never
    # reads may be non-finite
    r = np.where(fine.free, r, 0.0)
    # numpy reductions, not BLAS, so the loop stays on one thread
    res = math.sqrt(np.sum(r * r))
    if not math.isfinite(res):
        raise NoConvergence(0, res, "multigrid CG hit a non-finite residual")
    if res == 0.0:
        out[free] = 0.0
        return out
    stop = _MG_RTOL * res
    sol = np.zeros(size)
    z = _vcycle(levels, r)
    p = z
    rz = np.sum(r * z)
    it = 0
    while True:
        it += 1
        q = fine.apply(p)
        alpha = rz / np.sum(p * q)
        sol += alpha * p
        r -= alpha * q
        res = math.sqrt(np.sum(r * r))
        # NaN fails every comparison, so it must never reach `res <= stop`
        if not math.isfinite(res):
            raise NoConvergence(it, res, "multigrid CG hit a non-finite residual")
        if res <= stop:
            break
        if it >= _MG_MAX_ITER:
            raise NoConvergence(it, res, "multigrid CG")
        z = _vcycle(levels, r)
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    out[crop][cfree] = sol[: n[0], : n[1]][cfree]
    return out


def solve_system(
    g: Grid2D, bdata_u, bdata_v, kappa: float, cfg: SolveConfig | None = None
) -> SolutionPair:
    """Relax the coupled system to sup-norm residual <= cfg.tol.

    bdata_u / bdata_v: vectorized callables (x, y) -> values, or Fields
    on the same grid; only the border values are read, and they must be
    finite and nonnegative.
    """
    t0 = time.perf_counter()
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

    # fresh arrays: a callable's own array must not be written or returned
    u = np.where(border_mask, bu, 0.0)
    v = np.where(border_mask, bv, 0.0)
    h = g.h
    kh2 = kappa * (h * h)
    # Young's optimal over-relaxation factor from the Jacobi spectral
    # radius of the 5-point Laplacian on this grid
    rho = 0.5 * (math.cos(math.pi / (g.nx - 1)) + math.cos(math.pi / (g.ny - 1)))
    omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    pu, pv = _parity_planes(u), _parity_planes(v)
    plan = _sweep_plan(pu, pv, g) + _sweep_plan(pv, pu, g)
    sweeps = 0
    energies: list[float] = []
    res = _sup_residual(u, v, kappa, h)
    # NaN fails every comparison, so it must never reach `res <= cfg.tol`
    while not res <= cfg.tol:
        if not math.isfinite(res):
            raise NoConvergence(
                sweeps, res, "red-black relaxation hit a non-finite residual"
            )
        if sweeps >= cfg.max_iter:
            raise NoConvergence(sweeps, res, "red-black relaxation")
        chunk = min(_CHECK_EVERY, cfg.max_iter - sweeps)
        for _ in range(chunk):
            for cur, up, down, left, right, b, nb, d in plan:
                # max(cur + omega (nb / (4 + kappa h² b²) - cur), 0),
                # the same operations in the same order, in place
                np.add(up, down, out=nb)
                nb += left
                nb += right
                np.square(b, out=d)
                d *= kh2
                d += 4.0
                nb /= d
                nb -= cur
                nb *= omega
                nb += cur
                np.maximum(nb, 0.0, out=cur)
        sweeps += chunk
        _join_planes(u, pu)
        _join_planes(v, pv)
        res = _sup_residual(u, v, kappa, h)
        energies.append(discrete_energy(u, v, kappa, h))
    return SolutionPair(
        Field(g, u),
        Field(g, v),
        kappa,
        res,
        sweeps,
        np.asarray(energies),
        seconds=time.perf_counter() - t0,
    )


def _disk_dirichlet_solve(
    g: Grid2D, center, R: float, frozen_values: np.ndarray, shift: float
) -> np.ndarray:
    """Solve (Δ - shift) w = 0 on lattice nodes strictly inside the disk;
    nodes at distance >= R keep frozen_values (first-order rim treatment)."""
    X, Y = g.meshgrid()
    inside = np.hypot(X - center[0], Y - center[1]) < R
    # nodes on the outermost lattice ring cannot be unknowns
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    return _mg_pcg(frozen_values, inside, shift, g.h)


def solve_harmonic(g: Grid2D, center, R: float, bdata) -> Field:
    """Discrete harmonic function in B_R(center) matching bdata on the rim.

    bdata is a vectorized callable (x, y) -> values or a Field on the
    same grid; lattice nodes at distance >= R are frozen to it.
    """
    _require_ball_inside(g, center, R)
    frozen = _boundary_values(g, bdata)
    return Field(g, _disk_dirichlet_solve(g, center, R, frozen, 0.0))


def solve_linear_decay(M: float, A: float, R_outer: float, g: Grid2D) -> Field:
    """Solve Δw = M w in B_{R_outer}(0) with w = A on the rim."""
    if M < 0.0:
        raise ValueError(f"M must be nonnegative, got {M}")
    if A < 0.0:
        raise ValueError(f"A must be nonnegative, got {A}")
    _require_ball_inside(g, (0.0, 0.0), R_outer)
    frozen = np.full((g.nx, g.ny), float(A))
    return Field(g, _disk_dirichlet_solve(g, (0.0, 0.0), R_outer, frozen, float(M)))
