"""2D boundary-value solves for Δu = κ u v², Δv = κ v u².

The coupled system is the stationarity condition of the discrete energy

    E = Σ_edges (Δu)² + Σ_edges (Δv)² + κ h² Σ_nodes u² v²

restricted to u, v ≥ 0, with the border values held fixed.  The pair
solve is nested.  While both node counts are odd and above _NEST_MIN,
the grid of the even nodes (spacing 2h, its border sampled from the
fine border) is solved first, its solution is interpolated bilinearly
into the fine interior, and damped inexact Newton takes it from there.
The start grid (the coarsest of the nest, or the only grid when its
node counts are even or at most _NEST_MIN) is solved by the same Newton
iteration from the border data with a zero interior.  The Newton steps
do not grow with the grid (3 or 4 per level above the start grid on
half-plane and (Re z²)^± data at κ = 1e2 … 1e5, 129² to 513²).

A Newton step solves H δ = −∇E, where, with A the 5-point matrix
(4 on the diagonal) on the interior and c = κ h²,

    H / 2 = [[A + c v²,  2 c u v],
             [2 c u v,   A + c u²]].

H need not be positive definite away from a minimizer, so the step is
truncated CG, preconditioned by one V-cycle on each diagonal block (a
5-point operator with the per-node shift κ v² or κ u²), stopped at the
relative residual η = min(0.1, max(√(res h²), 0.5 tol/res)) (res the
sup residual; √(res h²) is an Eisenstat–Walker forcing term, and the
bound 0.5 tol/res is Kelley's safeguard, Iterative Methods for Linear
and Nonlinear Equations (1995) §6.3, so the last step of a grid asks CG
for no more than tol needs) or at a direction of nonpositive
curvature.  The new iterate is max(u + t δ, 0), with t halved until E
does not rise; a full step is also taken if it lowers the sup residual
and raises E by at most _NEAR_FLAT |E|, since near convergence the
energy test is at the level of rounding.  A t below _MIN_STEP raises
NoConvergence (a stall is not convergence).  Newton stops at a sup
residual ≤ cfg.tol through _util.Progress, with the per-grid cap
_NEWTON_MAX and the residual's round-off floor 5 ε max(u, v)/h², so a
tol below the floor fails fast (9–11 steps on 33² at tol 1e-14).

A critical point of E need not be a local minimizer, and energy descent
from symmetric data keeps the data's symmetry: on (Re z³)^± data at
κ ≥ 1e4 Newton from the border data converges to a swap-symmetric
saddle point.  So on the start grid a converged pair must also pass a
second-variation check, q = λ_min(H/2) / λ_min(A) ≥ −_Q_TOL, with
λ_min(A) = 4 − 2 cos(π/(nx−1)) − 2 cos(π/(ny−1)).  λ_min(H/2) comes
from block-size-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001)),
preconditioned by the Newton step's V-cycle and started from a fixed
vector that no symmetry of the square or of the data maps to ± itself.
Its Rayleigh-Ritz step solves a 3×3 symmetric-definite pencil by the
Cholesky reduction in numpy.linalg; this module imports no scipy.
A Rayleigh quotient below −_Q_TOL λ_min(A) proves negative curvature;
the pair then steps along the mode, with the sign that does not raise
E to first order and the same halving line search from a step as large
as the pair (the second-order step of Moré and Sorensen, SIAM J. Sci.
Stat. Comput. 4 (1983)), and Newton resumes.  The finer grids start
from the prolonged, certified coarse solution and only lower E.

Every linear problem, the Newton steps' diagonal blocks and the two
disk solves (harmonic replacement and Δw = M w, which take and return
the ball's window only), goes through one multigrid hierarchy: the 5-point
operator (4 + s h²) x − Σ neighbours on a node mask, with the nodes off
the mask frozen as Dirichlet data and the shift s a scalar or an array
on the grid.  _mg_pcg solves it by conjugate gradients preconditioned
by one symmetric geometric V-cycle (red-black Gauss-Seidel smoothing,
bilinear transfer, coarse masks taken at even nodes, s h² restricted by
full weighting, and on the coarsest level, at most 8 cells per axis, a
dense inverse built from that level's own operator), so its cost is
O(N) in the nodes of the mask's bounding box.  It stops when the
residual's 2-norm falls to 1e-13 times the right-hand side's, and
raises NoConvergence on a non-finite residual or after 100 iterations.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._util import Progress, check_nonnegative
from .config import SolveConfig
from .errors import NoConvergence
from .grid import Field, Grid2D, Window, _require_ball_inside

_NEST_MIN = 65  # grids with more nodes than this on both axes, both odd, are nested
_NEAR_FLAT = 1e-14  # relative energy rise a full, residual-lowering step may make
_MIN_STEP = 1e-8  # Newton step length below which the solve has stalled
# Newton steps plus escapes per grid before NoConvergence: ~5x the most
# measured, 56 (33², (Re z³)^±, κ = 1e6; over d = 1..3, κ = 1e2..1e6 on
# 33²..129²: start grids 6-56 steps, finer ones 3-6, at most 1 escape)
_NEWTON_MAX = 300
# q below -_Q_TOL is escaped; the eigen-solve stops once its residual
# puts q within _Q_TOL of an eigenvalue of H/2 / λ_min(A)
_Q_TOL = 1e-3

_RED, _BLACK = 0, 1  # the parity of i + j


@dataclass(frozen=True)
class Stage:
    """One grid of a nested pair solve, coarsest first: its node counts,
    the Newton steps and CG iterations run on it, the negative-curvature
    escapes, the certified q = λ_min(H/2) / λ_min(A) (the start grid
    only; None on the finer grids), the grid's final sup residual and
    its wall seconds."""

    nx: int
    ny: int
    newton_steps: int
    cg_iterations: int
    escapes: int
    q: float | None
    residual: float
    seconds: float


@dataclass
class SolutionPair:
    """Converged pair plus the solve's bookkeeping: `stages` per grid,
    `newton_steps` and `cg_iterations` their totals over the grids, and
    `energy_trace` the finest grid's energy after each accepted Newton
    step or escape.  `sweeps` is always 0; it stays only because the
    benchmark harness still reads it."""

    u: Field
    v: Field
    kappa: float
    residual: float
    sweeps: int = 0
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    seconds: float = 0.0  # wall time of the solve
    stages: tuple[Stage, ...] = ()

    @property
    def newton_steps(self) -> int:
        return sum(s.newton_steps for s in self.stages)

    @property
    def cg_iterations(self) -> int:
        return sum(s.cg_iterations for s in self.stages)


def _boundary_values(g: Grid2D, bdata) -> np.ndarray:
    """Evaluate boundary data on the full lattice; a Field's values are read, not copied."""
    if isinstance(bdata, Field):
        if bdata.grid != g:
            raise ValueError("boundary data field must live on the same grid")
        return bdata.values
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


def _neighbours(x: np.ndarray) -> np.ndarray:
    """((up + down) + left) + right at the interior nodes of x (the grid
    is x's last two axes)."""
    nb = np.add(x[..., :-2, 1:-1], x[..., 2:, 1:-1])
    nb += x[..., 1:-1, :-2]
    nb += x[..., 1:-1, 2:]
    return nb


def _sup_residual(u, v, kappa, h) -> float:
    lap_u = (_neighbours(u) - 4 * u[1:-1, 1:-1]) / (h * h)
    lap_v = (_neighbours(v) - 4 * v[1:-1, 1:-1]) / (h * h)
    ru = lap_u - kappa * u[1:-1, 1:-1] * v[1:-1, 1:-1] ** 2
    rv = lap_v - kappa * v[1:-1, 1:-1] * u[1:-1, 1:-1] ** 2
    # np.max, not max: a NaN in either half must come through
    return float(np.max((np.max(np.abs(ru)), np.max(np.abs(rv)))))


# ---------------------------------------------------------------------------
# the linear core: multigrid-preconditioned conjugate gradients

_MG_RTOL = 1e-13  # stop when ||r||_2 <= _MG_RTOL ||b||_2
_MG_MAX_ITER = 100  # CG iterations before NoConvergence
_MG_SMOOTH = 2  # red-black Gauss-Seidel sweeps before and after each coarsening
_MG_COARSEST = 8  # coarsest level has at most this many cells per axis


class _Level:
    """One grid of the hierarchy: the node mask `free` (and `mask`, the
    same as floats), the operator diag * x - (sum of neighbours) on it,
    and its smoother.

    diag is an array on the level's grid; one with a leading axis
    stacks operators that share the mask, and they act on the same
    stack of vectors (the grid is always the last two axes)."""

    def __init__(self, free: np.ndarray, mask: np.ndarray, diag: np.ndarray):
        self.free = free
        self.mask = mask
        self.inner = diag[..., 1:-1, 1:-1]
        self.weight = mask / diag  # Gauss-Seidel step, 0 off the mask
        rows, n = mask.shape
        self.nodes = rows * n
        self.fweight = self._flat(self.weight)
        # per colour, the flat slices of (up, down, left, right, the node)
        stop = (rows - 1) * n - 1
        self.slices = [
            tuple((..., slice(n + 1 + colour + d, stop + d, 2)) for d in (-n, n, -1, 1, 0))
            for colour in (_RED, _BLACK)
        ]

    def _flat(self, a: np.ndarray) -> np.ndarray:
        """a with the level's grid flattened; a view, a is C-contiguous."""
        return a.reshape(a.shape[:-2] + (self.nodes,))

    def apply(self, x: np.ndarray) -> np.ndarray:
        q = np.zeros_like(x)
        inner = np.multiply(self.inner, x[..., 1:-1, 1:-1], out=q[..., 1:-1, 1:-1])
        inner -= _neighbours(x)
        q *= self.mask
        return q

    def smooth(self, e: np.ndarray, r: np.ndarray, colours) -> None:
        """One Gauss-Seidel half-sweep on e, in place, per colour.  Rows
        have odd length (every level above the coarsest has m 2^k + 1
        nodes per axis, k >= 1), so on the flattened grid a node's index
        has the parity of i + j and a colour is one stride-2 slice; it
        also passes the border nodes at the row ends, where the weight
        is 0.  Each node becomes ((((up + down) + left) + right) + r)
        weight."""
        fe, fr, fw = self._flat(e), self._flat(r), self.fweight
        for colour in colours:
            up, down, left, right, at = self.slices[colour]
            nb = np.add(fe[up], fe[down])
            nb += fe[left]
            nb += fe[right]
            nb += fr[at]
            np.multiply(nb, fw[at], out=fe[at])

    def presmooth(self, r: np.ndarray) -> np.ndarray:
        """_MG_SMOOTH red-black sweeps on e from e = 0.  The first, red,
        half-sweep reads only zeros besides r, so it is the product
        r weight on the red nodes (equal to the full half-sweep's, up to
        the sign of a zero)."""
        e = np.zeros_like(r)
        at = self.slices[_RED][-1]
        np.multiply(self._flat(r)[at], self.fweight[at], out=self._flat(e)[at])
        self.smooth(e, r, (_BLACK,) + (_RED, _BLACK) * (_MG_SMOOTH - 1))
        return e


class _Coarsest(_Level):
    """The last level, solved exactly through its dense inverse.

    The matrix is the level's own apply on the unit vectors of its free
    nodes (at most (_MG_COARSEST - 1)² of them, so LAPACK stays on one
    thread).  A stacked diag gives a stack of inverses."""

    def __init__(self, free: np.ndarray, mask: np.ndarray, diag: np.ndarray):
        super().__init__(free, mask, diag)
        ii, jj = np.nonzero(free)
        n = ii.size
        units = np.zeros((n,) + diag.shape)
        units[np.arange(n), ..., ii, jj] = 1.0
        # apply(units)[k, ..., m] = A[m, k]: move k to the last axis
        self.inverse = np.linalg.inv(np.moveaxis(self.apply(units)[..., ii, jj], 0, -1))

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
    e = lv.presmooth(r)
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

    def __init__(self, free: np.ndarray):
        ii, jj = np.nonzero(free)
        self.crop = (slice(ii.min() - 1, ii.max() + 2), slice(jj.min() - 1, jj.max() + 2))
        self.cfree = free[self.crop]
        n = self.n = self.cfree.shape
        k = 0
        while max(n) - 1 > _MG_COARSEST * 2**k:
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

    def levels(self, shift: np.ndarray, h: float) -> list[_Level]:
        """The levels of (4 + shift h²) x − Σ neighbours, shift an array
        on the mask's grid (or a stack of them).  It enters as c = shift
        h² per node, and c is restricted to each coarser level by full
        weighting, times 4 for the doubled spacing: a constant c becomes
        the rediscretized 4c at every interior node of the coarse grid."""
        k = len(self.free) - 1
        c = self.pad(shift) * (h * h)
        levels = []
        for lev in range(k + 1):
            if lev:
                c = _restrict(c)
            kind = _Coarsest if lev == k else _Level
            levels.append(kind(self.free[lev], self.masks[lev], 4.0 + c))
        return levels


def _pcg(apply, precond, r: np.ndarray, rtol: float, truncate: bool = False):
    """Conjugate gradients for A s = r from s = 0, preconditioned by
    precond, until ||r||_2 <= rtol ||r_0||_2; r is overwritten with the
    residual.  Returns (s, iterations, ||r||_2 / ||r_0||_2 or 0).

    Raises NoConvergence on a non-finite residual or after _MG_MAX_ITER
    iterations.  With `truncate` (the inner solve of inexact Newton, A
    possibly indefinite) a search direction of nonpositive curvature
    ends the loop and returns the iterate so far, or that direction if
    it is the first."""
    sol = np.zeros_like(r)
    # numpy reductions, not BLAS, so the loop stays on one thread
    norm = res = math.sqrt(np.sum(r * r))
    progress = Progress("multigrid CG", rtol * norm, _MG_MAX_ITER)
    it = 0
    while not progress.done(res, it):
        z = precond(r)
        rz_new = np.sum(r * z)
        if it == 0:
            p = z
        else:
            # p = z + (rz_new / rz) p in place, the same floats
            p *= rz_new / rz
            p += z
        del z
        rz = rz_new
        it += 1
        q = apply(p)
        pq = np.sum(p * q)
        if truncate and not pq > 0.0:
            return (p if it == 1 else sol), it, res / norm
        alpha = rz / pq
        sol += alpha * p
        r -= alpha * q
        del q
        res = math.sqrt(np.sum(r * r))
    return sol, it, res / norm if norm else 0.0


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
    levels = hier.levels(np.broadcast_to(shift, x.shape), h)
    fine = levels[0]
    crop, cfree, n = hier.crop, hier.cfree, hier.n
    frozen = np.where(cfree, 0.0, x[crop])
    r = np.zeros(hier.size)
    r[1 : n[0] - 1, 1 : n[1] - 1] = _neighbours(frozen)
    # where, not a product with the mask: frozen data the mask never
    # reads may be non-finite
    r = np.where(fine.free, r, 0.0)
    sol, it, rel = _pcg(fine.apply, lambda r: _vcycle(levels, r), r, _MG_RTOL)
    out[crop][cfree] = sol[: n[0], : n[1]][cfree]
    return out, it, rel


# ---------------------------------------------------------------------------
# the pair solve: damped inexact Newton on every grid, certified on the first


def _hessian(hier: _Hierarchy, u: np.ndarray, v: np.ndarray, kappa: float, h: float):
    """H/2 at (u, v) on hier's grid: the levels of its diagonal blocks
    A + κh²v² and A + κh²u², as one stack, and its apply."""
    levels = hier.levels(kappa * np.stack((v * v, u * u)), h)
    fine = levels[0]
    coupling = hier.pad(u * v)
    coupling *= 2.0 * kappa * (h * h)
    coupling *= fine.mask

    def apply(p):
        q = fine.apply(p)
        q[0] += coupling * p[1]
        q[1] += coupling * p[0]
        return q

    return levels, apply


def _lowest_pencil_vector(ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """The eigenvector of the lowest eigenvalue of the pencil ga c = λ gb c,
    both symmetrized, normalized to c^T gb c = 1: gb = L L^T, then the
    lowest eigenvector y of L^{-1} ga L^{-T}, and c = L^{-T} y.  Raises
    numpy.linalg.LinAlgError when gb is not positive definite."""
    li = np.linalg.inv(np.linalg.cholesky(0.5 * (gb + gb.T)))
    return li.T @ np.linalg.eigh(li @ (0.5 * (ga + ga.T)) @ li.T)[1][:, 0]


def _lowest_mode(levels: list[_Level], apply, lam_a: float):
    """The lowest eigenpair of H/2 by block-size-1 LOBPCG (Knyazev 2001),
    preconditioned by one V-cycle of `levels`, from a fixed start that no
    reflection of the grid and no u <-> v swap maps to ± itself; its u
    and v parts have opposite signs, like the interface-moving
    perturbations that are the softest on a segregated pair.  Returns
    (q, mode): q = ρ / lam_a for the last Rayleigh quotient ρ, and the
    mode with unit 2-norm.  Stops at the first ρ < −_Q_TOL lam_a (a proof
    of negative curvature) or once ||H x / 2 − ρ x||_2 <= _Q_TOL lam_a,
    which puts ρ within _Q_TOL lam_a of an eigenvalue; raises
    NoConvergence on a non-finite residual or after _MG_MAX_ITER
    iterations.  One H-apply and one V-cycle per iteration: the images
    H x / 2 and H p / 2 are carried along."""
    mask = levels[0].mask
    s = np.linspace(0.0, 1.0, mask.shape[0])[:, None]
    t = np.linspace(0.0, 1.0, mask.shape[1])[None, :]
    bump = np.sin(np.pi * s) * np.sin(np.pi * t) * mask
    x = np.stack((bump * (1.0 + s / 3.0 + t * t / 5.0), -bump * (1.0 + t / 7.0 + s * s / 4.0)))
    x /= math.sqrt(np.sum(x * x))
    ax = apply(x)
    p = ap = None
    progress = Progress("second-variation eigen-solve", _Q_TOL * lam_a, _MG_MAX_ITER)
    for it in itertools.count():
        rho = float(np.sum(x * ax))
        r = ax - rho * x
        res = math.sqrt(np.sum(r * r))
        if progress.done(res, it) or rho < -_Q_TOL * lam_a:
            return rho / lam_a, x
        w = _vcycle(levels, r)
        w /= math.sqrt(np.sum(w * w))
        basis, images = [x, w], [ax, apply(w)]
        if p is not None:
            basis.append(p)
            images.append(ap)
        # Rayleigh-Ritz on span{x, w, p}: the Gram matrices' 3x3 pencil
        ga = np.array([[np.sum(a * b) for b in images] for a in basis])
        gb = np.array([[np.sum(a * b) for b in basis] for a in basis])
        try:
            c = _lowest_pencil_vector(ga, gb)
        except np.linalg.LinAlgError:
            # p has fallen into span{x, w}: restart without it
            p = ap = None
            continue
        p = sum(ci * b for ci, b in zip(c[1:], basis[1:]))
        ap = sum(ci * b for ci, b in zip(c[1:], images[1:]))
        x = c[0] * x + p
        ax = c[0] * ax + ap
        scale = math.sqrt(np.sum(x * x))
        x /= scale
        ax /= scale
        scale = math.sqrt(np.sum(p * p))
        p /= scale
        ap /= scale


def _line_search(u, v, step, energy: float, res: float, kappa: float, h: float, steps: int):
    """Move u, v in place to max(u + t step, 0) with t halved from 1 until
    E does not rise (see the module docstring); returns the new energy."""
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
    return en


def _newton(u, v, kappa: float, h: float, cfg: SolveConfig, certify: bool = False):
    """Damped inexact Newton on the interior of u and v, in place,
    until the sup residual is <= cfg.tol (see the module docstring).
    With `certify`, a converged pair must also have q >= −_Q_TOL, and
    each q below that is escaped along its mode.  Returns (residual,
    steps, CG iterations, escapes, q or None, energies)."""
    nx, ny = u.shape
    interior = np.zeros((nx, ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    # the masks are the same for every step; only the diagonals change
    hier = _Hierarchy(interior)
    box = (slice(None), slice(0, nx), slice(0, ny))
    lam_a = 4.0 - 2.0 * math.cos(math.pi / (nx - 1)) - 2.0 * math.cos(math.pi / (ny - 1))
    steps = iterations = escapes = 0
    q = None
    energies: list[float] = []
    energy = discrete_energy(u, v, kappa, h)
    # second differences of values up to max(u, v), over h², carry a
    # rounding error near 5 ε max(u, v)/h² that no step removes
    floor = 5.0 * np.finfo(float).eps * max(np.max(u), np.max(v)) / (h * h)
    progress = Progress("Newton iteration", cfg.tol, _NEWTON_MAX, floor, "5ε·max(u, v)/h²")
    res = _sup_residual(u, v, kappa, h)
    while True:
        met = progress.done(res, steps + escapes)
        if met and not certify:
            break
        levels, apply = _hessian(hier, u, v, kappa, h)
        # -grad E / 2 = h² (Δ_h u - κ u v², Δ_h v - κ v u²) on the interior
        b = levels[0].apply(hier.pad(np.stack((u, v))))
        b *= -1.0
        if met:
            q, mode = _lowest_mode(levels, apply, lam_a)
            if q >= -_Q_TOL:
                break
            progress.escape(steps + escapes, res)
            # the sign that does not raise E to first order, and a
            # first trial step as large as the pair
            scale = max(np.max(u), np.max(v)) / np.max(np.abs(mode))
            mode *= math.copysign(scale, np.sum(b * mode))
            energy = _line_search(u, v, mode[box], energy, res, kappa, h, steps)
            escapes += 1
        else:
            # Kelley's safeguard: no tighter than tol needs from here
            eta = min(0.1, max(math.sqrt(res * h * h), 0.5 * cfg.tol / res))
            step, it, _ = _pcg(apply, lambda r: _vcycle(levels, r), b, eta, True)
            iterations += it
            energy = _line_search(u, v, step[box], energy, res, kappa, h, steps)
            steps += 1
        del levels, apply, b
        res = _sup_residual(u, v, kappa, h)
        energies.append(energy)
    return res, steps, iterations, escapes, q, energies


def _solve_nested(u, v, kappa: float, h: float, cfg: SolveConfig, stages: list):
    """Solve the pair on u's grid in place, nested on the grid of the
    even nodes while both node counts are odd and above _NEST_MIN;
    appends a Stage per grid.  Returns (residual, finest energies)."""
    nx, ny = u.shape
    nest = nx % 2 and ny % 2 and min(nx, ny) > _NEST_MIN
    if nest:
        uc, vc = u[::2, ::2].copy(), v[::2, ::2].copy()
        _solve_nested(uc, vc, kappa, 2.0 * h, cfg, stages)
    t0 = time.perf_counter()
    if nest:
        u[1:-1, 1:-1] = _interpolate(uc)[1:-1, 1:-1]
        v[1:-1, 1:-1] = _interpolate(vc)[1:-1, 1:-1]
    res, steps, iterations, escapes, q, energies = _newton(u, v, kappa, h, cfg, not nest)
    stages.append(Stage(nx, ny, steps, iterations, escapes, q, res, time.perf_counter() - t0))
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
    check_nonnegative("kappa", kappa)
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
        energy_trace=np.asarray(energies),
        seconds=time.perf_counter() - t0,
        stages=tuple(stages),
    )


def _disk_dirichlet_solve(
    win: Window, center, R: float, frozen: np.ndarray, shift: float
) -> np.ndarray:
    """Solve (Δ - shift) w = 0 on the nodes strictly inside B_R(center),
    win = Window.ball(g, center, R); the other nodes keep frozen, the
    values on the window (first-order rim).  Returns the window's solution.
    The window's outer ring holds no unknown: it lies h outside the disk
    or is the grid's own ring, so the mask equals a full-grid solve's."""
    g = win.grid
    cx, cy = _require_ball_inside(g, center, R)
    inside = np.hypot(g.x[win.isl, None] - cx, g.y[None, win.jsl] - cy) < R
    inside[0, :] = inside[-1, :] = False
    inside[:, 0] = inside[:, -1] = False
    return _mg_pcg(frozen, inside, shift, g.h)[0]


def solve_linear_decay(M: float, A: float, R_outer: float, g: Grid2D) -> Field:
    """Solve Δw = M w in B_{R_outer}(0) with w = A on the rim."""
    check_nonnegative("M", M)
    check_nonnegative("A", A)
    win = Window.ball(g, (0.0, 0.0), R_outer)
    w, box = np.full((g.nx, g.ny), float(A)), (win.isl, win.jsl)
    w[box] = _disk_dirichlet_solve(win, (0.0, 0.0), R_outer, w[box], float(M))
    return Field(g, w)
