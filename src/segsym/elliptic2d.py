"""2D boundary-value solves for Δu = κ u v², Δv = κ v u².

The coupled system is the stationarity condition of the discrete energy

    E = Σ_edges (Δu)² + Σ_edges (Δv)² + κ h² Σ_nodes u² v²

restricted to u, v ≥ 0, with the border values held fixed.  The pair
solve is nested.  While both node counts are odd and above _NEST_MIN,
the grid of the even nodes (spacing 2h, its border sampled from the
fine border) is solved first, its solution is interpolated bilinearly
into the fine interior, and damped inexact Newton takes it from there.
The coarsest grid, and every grid of at most _NEST_MIN nodes on an axis
or with an even node count, is solved by projected red-black SOR alone.
The Newton steps do not grow with the grid (3 or 4 per level on
half-plane and (Re z²)^± data at κ = 1e2 … 1e5, 129² to 513²), whereas
SOR's sweeps double with every halving of h.

Projected red-black SOR is over-relaxed coordinate descent on E.  Each
point update computes the exact scalar minimizer
a* = (sum of the four neighbours) / (4 + κ h² b²) and moves to
max(a + ω (a* − a), 0), with ω = 2 / (1 + √(1 − ρ²)) and
ρ = (cos(π/(nx−1)) + cos(π/(ny−1))) / 2 the Jacobi spectral radius of
the 5-point Laplacian on the grid (Young's optimal factor).  It starts
from the boundary data with a zero interior.  Its energy trace is
nonincreasing: restricted to one node, E is a convex quadratic with
minimizer a* ≥ 0; nodes of one colour are not neighbours, so a colour
update is a set of independent 1D moves.  For ω in (0, 2) the move
a + ω (a* − a) does not raise that quadratic, and the projection onto
[0, ∞) does not raise it either, because 0 lies between a negative
candidate and a* ≥ 0.

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

A Newton step solves H δ = −∇E, where, with A the 5-point matrix
(4 on the diagonal) on the interior and c = κ h²,

    H / 2 = [[A + c v²,  2 c u v],
             [2 c u v,   A + c u²]].

H need not be positive definite away from a minimizer, so the step is
truncated CG, preconditioned by one V-cycle on each diagonal block (a
5-point operator with the per-node shift κ v² or κ u²), stopped at the
relative residual η = min(0.1, √(res h²)) (an Eisenstat–Walker forcing
term, res the sup residual) or at a direction of nonpositive
curvature.  The new iterate is max(u + t δ, 0), with t halved until E
does not rise; a full step is also taken if it lowers the sup residual
and raises E by at most _NEAR_FLAT |E|, since near convergence the
energy test is at the level of rounding.  The solve stops when the sup
residual is ≤ cfg.tol and raises NoConvergence when t falls below
_MIN_STEP: a stall is not convergence.

Every linear problem, the Newton steps' diagonal blocks and the two
disk solves (harmonic replacement on a disk, Δw = M w on a disk), goes
through one multigrid hierarchy: the 5-point operator
(4 + s h²) x − Σ neighbours on a node mask, with the nodes off the
mask frozen as Dirichlet data and the shift s a scalar or an array on
the grid.  _mg_pcg solves it by conjugate gradients preconditioned by
one symmetric geometric V-cycle (red-black Gauss-Seidel smoothing,
bilinear transfer, coarse masks taken at even nodes, an exact solve on
the coarsest level), so its cost is O(N) in the nodes of the mask's
bounding box.  It stops when the residual's 2-norm falls to 1e-13
times the right-hand side's, and raises NoConvergence on a non-finite
residual or after 100 iterations.
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
_NEST_MIN = 65  # grids with more nodes than this on both axes, both odd, are nested
_NEAR_FLAT = 1e-14  # relative energy rise a full, residual-lowering step may make
_MIN_STEP = 1e-8  # Newton step length below which the solve has stalled
# cells per axis of the Newton blocks' coarsest level: its dense inverses
# are rebuilt at every step, and at _MG_COARSEST they took about 15% of
# the Newton time on 129²
_NEWTON_COARSEST = 8

# red = (i+j) even, black = odd; each colour splits into two strided blocks
_RED = ((1, 1), (2, 2))
_BLACK = ((1, 2), (2, 1))


def _blocks(a: np.ndarray, i0: int, j0: int):
    """The strided colour block of a's interior that starts at (i0, j0),
    as an index, and the sum of its four neighbours.  The grid is a's
    last two axes; leading axes stack independent grids."""
    nb = np.add(a[..., i0 - 1 : -2 : 2, j0:-1:2], a[..., i0 + 1 :: 2, j0:-1:2])
    nb += a[..., i0:-1:2, j0 - 1 : -2 : 2]
    nb += a[..., i0:-1:2, j0 + 1 :: 2]
    return (..., slice(i0, -1, 2), slice(j0, -1, 2)), nb


@dataclass(frozen=True)
class Stage:
    """One grid of a nested pair solve, coarsest first: its node counts,
    the SOR sweeps (coarsest grid) or the Newton steps and CG iterations
    (finer grids) run on it, and its wall seconds."""

    nx: int
    ny: int
    sweeps: int
    newton_steps: int
    cg_iterations: int
    seconds: float


@dataclass
class SolutionPair:
    """Converged pair plus the solve's bookkeeping: `sweeps` are the
    coarsest grid's SOR sweeps, `newton_steps` and `cg_iterations` the
    totals over the finer grids, `stages` the same per grid, and
    `energy_trace` the finest grid's energy after each SOR check or
    accepted Newton step."""

    u: Field
    v: Field
    kappa: float
    residual: float
    sweeps: int = 0
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    seconds: float = 0.0  # wall time of the solve
    newton_steps: int = 0
    cg_iterations: int = 0
    stages: tuple[Stage, ...] = ()


def _boundary_values(g: Grid2D, bdata) -> np.ndarray:
    """Evaluate boundary data on the full lattice (only the border is used)."""
    if isinstance(bdata, Field):
        if bdata.grid != g:
            raise ValueError("boundary data field must live on the same grid")
        return bdata.values.copy()
    X, Y = g.meshgrid()
    return np.asarray(bdata(X, Y), dtype=float)


def discrete_energy(u: np.ndarray, v: np.ndarray, kappa: float, h: float) -> float:
    """The edge-based energy the pair solve descends on."""
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
    # np.max, not max: a NaN in either half must come through
    return float(np.max((np.max(np.abs(ru)), np.max(np.abs(rv)))))


def _parity_planes(a: np.ndarray) -> list[list[np.ndarray]]:
    """a's four parity planes a[p::2, q::2] as contiguous copies, [p][q]."""
    return [[np.ascontiguousarray(a[p::2, q::2]) for q in (0, 1)] for p in (0, 1)]


def _join_planes(a: np.ndarray, planes) -> None:
    """Write the parity planes back into a."""
    for p in (0, 1):
        for q in (0, 1):
            a[p::2, q::2] = planes[p][q]


def _sweep_plan(pa, pb, nx: int, ny: int) -> list[tuple]:
    """The colour blocks of a's interior in sweep order (red, then
    black), as views into the parity planes pa of a and pb of b: the
    block, its neighbours above, below, left and right, b on the block,
    and two scratch buffers of the block's size.  The block at row
    or column 2 is empty, and left out, on a grid with 3 nodes along
    that axis."""
    plan = []
    for i0, j0 in _RED + _BLACK:
        ni = len(range(i0, nx - 1, 2))
        nj = len(range(j0, ny - 1, 2))
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
    diag * x - (sum of neighbours) on it, and its smoother.

    diag is a float or an array on the level's grid; an array with a
    leading axis stacks operators that share the mask, and they act on
    the same stack of vectors (the grid is always the last two axes).
    mask, free as floats, may be passed in to share it."""

    def __init__(self, free: np.ndarray, diag, mask: np.ndarray | None = None):
        self.free = free
        self.mask = free.astype(float) if mask is None else mask
        self.inner = diag[..., 1:-1, 1:-1] if np.ndim(diag) else diag
        self.weight = self.mask / diag  # Gauss-Seidel step, 0 off the mask

    def apply(self, x: np.ndarray) -> np.ndarray:
        # inner x - (((up + down) + left) + right), in place
        nb = np.add(x[..., :-2, 1:-1], x[..., 2:, 1:-1])
        nb += x[..., 1:-1, :-2]
        nb += x[..., 1:-1, 2:]
        q = np.zeros_like(x)
        inner = np.multiply(self.inner, x[..., 1:-1, 1:-1], out=q[..., 1:-1, 1:-1])
        inner -= nb
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
    and the narrow band keeps LAPACK on one thread.  A stacked diag
    gives a stack of inverses."""

    def __init__(self, free: np.ndarray, diag, mask: np.ndarray | None = None):
        super().__init__(free, diag, mask)
        ii, jj = np.nonzero(free)
        n = ii.size
        num = -np.ones(free.shape, dtype=np.intp)
        num[ii, jj] = np.arange(n)
        right, down = num[ii, jj + 1], num[ii + 1, jj]
        bw = int(np.max(down - np.arange(n), initial=1))
        # upper banded storage: ab[bw + i - j, j] = A[i, j] for i <= j
        ab = np.zeros((bw + 1, n))
        for nb in (right, down):
            on = nb >= 0
            ab[bw + np.arange(n)[on] - nb[on], nb[on]] = -1.0
        eye = np.eye(n)
        lead = np.shape(diag)[:-2]
        inverses = []
        stack = np.broadcast_to(diag, lead + free.shape)[..., ii, jj]
        for d in stack.reshape(math.prod(lead), n):
            ab[bw] = d
            inverses.append(cho_solve_banded((cholesky_banded(ab), False), eye) if n else eye)
        self.inverse = np.stack(inverses) if lead else inverses[0]

    def solve(self, r: np.ndarray) -> np.ndarray:
        e = np.zeros_like(r)
        # row sums, not a matrix product: the CG loop makes no BLAS call
        e[..., self.free] = np.sum(self.inverse * r[..., None, self.free], axis=-1)
        return e


def _restrict(r: np.ndarray, cmask: np.ndarray | None = None) -> np.ndarray:
    """Transpose of bilinear prolongation (4 times full weighting), cut
    to the coarse mask cmask if one is given."""
    t = r[..., 2:-1:2, :] + 0.5 * (r[..., 1:-2:2, :] + r[..., 3::2, :])
    rc = np.zeros(r.shape[:-2] + ((r.shape[-2] + 1) // 2, (r.shape[-1] + 1) // 2))
    rc[..., 1:-1, 1:-1] = t[..., 2:-1:2] + 0.5 * (t[..., 1:-2:2] + t[..., 3::2])
    if cmask is not None:
        rc *= cmask
    return rc


def _interpolate(ec: np.ndarray) -> np.ndarray:
    """Bilinear interpolation onto the grid of half the spacing."""
    lead, (m0, m1) = ec.shape[:-2], ec.shape[-2:]
    t = np.empty(lead + (2 * m0 - 1, m1))
    t[..., 0::2, :] = ec
    t[..., 1::2, :] = 0.5 * (ec[..., :-1, :] + ec[..., 1:, :])
    e = np.empty(lead + (2 * m0 - 1, 2 * m1 - 1))
    e[..., 0::2] = t
    e[..., 1::2] = 0.5 * (t[..., :-1] + t[..., 1:])
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
    q = lv.apply(e)
    np.subtract(r, q, out=q)
    rc = _restrict(q, levels[k + 1].mask)
    del q
    ec = _vcycle(levels, rc, k + 1)
    ec = _interpolate(ec)
    ec *= lv.mask
    e += ec
    lv.smooth(e, r, (_BLACK, _RED) * _MG_SMOOTH)
    return e


class _Hierarchy:
    """The node masks of the multigrid levels for a nonempty mask
    `free` that does not touch the outermost ring of its grid.

    The problem is cropped to the mask's bounding box plus the frozen
    ring (`crop`, of shape `n`) and padded with frozen nodes to
    m 2^k + 1 nodes per axis (`size`), m <= _MG_COARSEST; the coarse
    masks are the fine mask at even nodes."""

    def __init__(self, free: np.ndarray, coarsest: int = _MG_COARSEST):
        ii, jj = np.nonzero(free)
        self.crop = (slice(ii.min() - 1, ii.max() + 2), slice(jj.min() - 1, jj.max() + 2))
        self.cfree = free[self.crop]
        n = self.n = self.cfree.shape
        k = 0
        while max(n) - 1 > coarsest * 2**k:
            k += 1
        self.size = tuple(-(-(a - 1) // 2**k) * 2**k + 1 for a in n)
        pfree = np.zeros(self.size, dtype=bool)
        pfree[: n[0], : n[1]] = self.cfree
        self.free = [pfree[:: 2**lev, :: 2**lev] for lev in range(k + 1)]
        self.masks = [f.astype(float) for f in self.free]

    def pad(self, a: np.ndarray) -> np.ndarray:
        """a on the cropped box, zero-padded to the hierarchy's grid
        (the grid is a's last two axes)."""
        out = np.zeros(a.shape[:-2] + self.size)
        out[..., : self.n[0], : self.n[1]] = a[(..., *self.crop)]
        return out

    def levels(self, shift, h: float) -> list[_Level]:
        """The levels of (4 + shift h²) x − Σ neighbours.  A float shift
        is rediscretized on level l as shift (2^l h)²; an array shift (on
        the mask's grid, or a stack of them) enters as c = shift h² per
        node, and c is restricted to each coarser level by full
        weighting, times 4 for the doubled spacing."""
        k = len(self.free) - 1
        if np.ndim(shift) == 0:
            diags = [4.0 + shift * (2**lev * h) ** 2 for lev in range(k + 1)]
        else:
            c = self.pad(shift) * (h * h)
            diags = [4.0 + c]
            for _ in range(k):
                c = _restrict(c)
                diags.append(4.0 + c)
        return [
            (_Coarsest if lev == k else _Level)(self.free[lev], diags[lev], self.masks[lev])
            for lev in range(k + 1)
        ]


def _pcg(apply, precond, r: np.ndarray, stop: float, truncate: bool = False):
    """Conjugate gradients for A s = r from s = 0, preconditioned by
    precond, until ||r||_2 <= stop; r is overwritten with the residual.
    Returns (s, iterations, ||r||_2).

    Raises NoConvergence on a non-finite residual or after _MG_MAX_ITER
    iterations.  With `truncate` (the inner solve of inexact Newton, A
    possibly indefinite) a search direction of nonpositive curvature
    ends the loop and returns the iterate so far, or that direction if
    it is the first."""
    sol = np.zeros_like(r)
    p = precond(r)
    rz = np.sum(r * p)
    it = 0
    while True:
        it += 1
        q = apply(p)
        pq = np.sum(p * q)
        if truncate and not pq > 0.0:
            return (p if it == 1 else sol), it, math.sqrt(np.sum(r * r))
        alpha = rz / pq
        sol += alpha * p
        r -= alpha * q
        del q
        res = math.sqrt(np.sum(r * r))
        # NaN fails every comparison, so it must never reach `res <= stop`
        if not math.isfinite(res):
            raise NoConvergence(it, res, "multigrid CG hit a non-finite residual")
        if res <= stop:
            return sol, it, res
        if it >= _MG_MAX_ITER:
            raise NoConvergence(it, res, "multigrid CG")
        z = precond(r)
        rz_new = np.sum(r * z)
        # p = z + (rz_new / rz) p in place, the same floats
        p *= rz_new / rz
        p += z
        del z
        rz = rz_new


def _mg_pcg(x: np.ndarray, free: np.ndarray, shift, h: float):
    """Solve (4 + shift h²) x − (sum of the four neighbours of x) = 0 at
    the nodes of the boolean mask `free`; every other node keeps its
    value in x and enters as Dirichlet data.  shift is a float or a
    nonnegative array of x's shape.  Returns a new array, the CG
    iterations and the final relative residual ||r||_2 / ||b||_2.

    The mask must not touch the outermost ring of x.  Moving the frozen
    neighbours to the right-hand side gives A x = b on the mask, A
    symmetric positive definite; it is solved by conjugate gradients
    preconditioned with one V-cycle of the mask's _Hierarchy, from
    x = 0, until ||r||_2 <= _MG_RTOL ||b||_2.
    """
    out = x.copy()
    if not free.any():
        return out, 0, 0.0
    hier = _Hierarchy(free)
    levels = hier.levels(shift, h)
    fine = levels[0]
    crop, cfree, n = hier.crop, hier.cfree, hier.n
    frozen = np.where(cfree, 0.0, x[crop])
    r = np.zeros(hier.size)
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
        return out, 0, 0.0
    sol, it, last = _pcg(fine.apply, lambda r: _vcycle(levels, r), r, _MG_RTOL * res)
    out[crop][cfree] = sol[: n[0], : n[1]][cfree]
    return out, it, last / res


# ---------------------------------------------------------------------------
# the pair solve: SOR on the coarsest grid, damped inexact Newton above it


def _relax(u: np.ndarray, v: np.ndarray, kappa: float, h: float, cfg: SolveConfig):
    """Projected red-black SOR on u and v, in place, until the sup
    residual is <= cfg.tol.  Returns (residual, sweeps, energies)."""
    nx, ny = u.shape
    kh2 = kappa * (h * h)
    # Young's optimal over-relaxation factor from the Jacobi spectral
    # radius of the 5-point Laplacian on this grid
    rho = 0.5 * (math.cos(math.pi / (nx - 1)) + math.cos(math.pi / (ny - 1)))
    omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    pu, pv = _parity_planes(u), _parity_planes(v)
    plan = _sweep_plan(pu, pv, nx, ny) + _sweep_plan(pv, pu, nx, ny)
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
    return res, sweeps, energies


def _newton(u: np.ndarray, v: np.ndarray, kappa: float, h: float, cfg: SolveConfig):
    """Damped inexact Newton on the interior of u and v, in place,
    until the sup residual is <= cfg.tol (see the module docstring).
    Returns (residual, steps, CG iterations, energies)."""
    nx, ny = u.shape
    interior = np.zeros((nx, ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    # the masks are the same for every step; only the diagonals change
    hier = _Hierarchy(interior, _NEWTON_COARSEST)
    box = (slice(None), slice(0, nx), slice(0, ny))
    steps = iterations = 0
    energies: list[float] = []
    energy = discrete_energy(u, v, kappa, h)
    res = _sup_residual(u, v, kappa, h)
    # NaN fails every comparison, so it must never reach `res <= cfg.tol`
    while not res <= cfg.tol:
        if not math.isfinite(res):
            raise NoConvergence(steps, res, "Newton iteration hit a non-finite residual")
        if steps >= cfg.max_iter:
            raise NoConvergence(steps, res, "Newton iteration")
        # H/2's diagonal blocks A + κh²v² and A + κh²u², as one stack
        levels = hier.levels(kappa * np.stack((v * v, u * u)), h)
        fine = levels[0]
        uv = hier.pad(np.stack((u, v)))
        # -grad E / 2 = h² (Δ_h u - κ u v², Δ_h v - κ v u²) on the interior
        b = fine.apply(uv)
        b *= -1.0
        coupling = uv[0] * uv[1]
        coupling *= 2.0 * kappa * (h * h)
        coupling *= fine.mask
        del uv

        def apply(p):
            q = fine.apply(p)
            q[0] += coupling * p[1]
            q[1] += coupling * p[0]
            return q

        eta = min(0.1, math.sqrt(res * h * h))
        stop = eta * math.sqrt(np.sum(b * b))
        step, it, _ = _pcg(apply, lambda r: _vcycle(levels, r), b, stop, True)
        iterations += it
        step = step[box]
        t = 1.0
        while True:
            un, vn = t * step
            un += u
            vn += v
            np.maximum(un, 0.0, out=un)
            np.maximum(vn, 0.0, out=vn)
            en = discrete_energy(un, vn, kappa, h)
            if en <= energy:
                break
            if t == 1.0 and en - energy <= _NEAR_FLAT * abs(energy):
                if _sup_residual(un, vn, kappa, h) < res:
                    break
            t *= 0.5
            if t < _MIN_STEP:
                raise NoConvergence(steps, res, "Newton step stalled in the line search")
        u[...], v[...] = un, vn
        del un, vn, step
        energy = en
        res = _sup_residual(u, v, kappa, h)
        steps += 1
        energies.append(energy)
    return res, steps, iterations, energies


def _solve_nested(u, v, kappa: float, h: float, cfg: SolveConfig, stages: list):
    """Solve the pair on u's grid in place, nested on the grid of the
    even nodes while both node counts are odd and above _NEST_MIN;
    appends a Stage per grid.  Returns (residual, finest energies)."""
    nx, ny = u.shape
    if nx % 2 and ny % 2 and min(nx, ny) > _NEST_MIN:
        uc, vc = u[::2, ::2].copy(), v[::2, ::2].copy()
        _solve_nested(uc, vc, kappa, 2.0 * h, cfg, stages)
        t0 = time.perf_counter()
        u[1:-1, 1:-1] = _interpolate(uc)[1:-1, 1:-1]
        v[1:-1, 1:-1] = _interpolate(vc)[1:-1, 1:-1]
        res, steps, iterations, energies = _newton(u, v, kappa, h, cfg)
        stages.append(Stage(nx, ny, 0, steps, iterations, time.perf_counter() - t0))
    else:
        t0 = time.perf_counter()
        res, sweeps, energies = _relax(u, v, kappa, h, cfg)
        stages.append(Stage(nx, ny, sweeps, 0, 0, time.perf_counter() - t0))
    return res, energies


def solve_system(
    g: Grid2D, bdata_u, bdata_v, kappa: float, cfg: SolveConfig | None = None
) -> SolutionPair:
    """Solve the coupled system to sup-norm residual <= cfg.tol.

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
    stages: list[Stage] = []
    res, energies = _solve_nested(u, v, kappa, g.h, cfg, stages)
    return SolutionPair(
        Field(g, u),
        Field(g, v),
        kappa,
        res,
        stages[0].sweeps,
        np.asarray(energies),
        seconds=time.perf_counter() - t0,
        newton_steps=sum(s.newton_steps for s in stages),
        cg_iterations=sum(s.cg_iterations for s in stages),
        stages=tuple(stages),
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
    return _mg_pcg(frozen_values, inside, shift, g.h)[0]


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
