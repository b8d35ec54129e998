"""Spherical machinery: the gamma map, two-function monotone
rearrangement in the polar angle, and the constrained minimization
whose value approaches 2 from below as the coupling grows.

Functions on S^{n-1} (n = 2 or 3, azimuthally symmetric) are piecewise
constant in the polar angle alpha.  Cells are contiguous intervals of
(0, pi) carrying their exact surface measure as weight, so the
rearrangement bookkeeping (equimeasurability, mass of every level set)
is exact up to float addition.

The minimizer alternates ground-state solves.  gamma is concave, so the
tangent gamma'(x) x + gamma'(y) y at the current pair majorizes the value
up to a constant.  With v fixed it is a quadratic form in u, minimized
over unit-mass u by the lowest eigenvector of gamma'(x) S + kappa
(gamma'(x) lambda^2 + gamma'(y)) diag(w v^2) against diag(w), S the
stiffness matrix; after W^{-1/2} scaling that is the ground state of a
tridiagonal T with nonpositive off-diagonals.  v follows, with the
tangent taken at the new u.

Consecutive majorizers barely differ, so each ground state is found by
shifted inverse iteration started from the current iterate: a step
factors T - sigma with LAPACK ?pttrf and solves with ?pttrs, O(m) each
(from scipy.linalg.lapack, imported on the first ground state, so that
`import segsym` loads no scipy), and one or two steps usually reach a
residual |T y - rho y| at the rounding level of |T|.  The shift sits
below the Rayleigh quotient rho, and the factorization itself certifies
it: ?pttrf succeeds exactly when T - sigma is positive definite, i.e.
sigma < lambda_1; on failure sigma moves 16 times further down.
T - sigma is then an M-matrix whose LDL^T
factors have positive pivots and nonpositive multipliers, so the solve
only adds nonnegative terms and a nonnegative iterate stays nonnegative,
in floating point too, converging to the Perron vector.  With sigma
below the spectrum the Rayleigh quotient cannot increase, so no half
step can raise the value; since S has negative off-diagonals each
ground state is simple and strictly positive (Perron-Frobenius): no
clipping, projection or line search.  The stop rule is a relative KKT
residual at most _KKT_TOL, read off the same ground-state matrices T at
the final tangent: for f = W^{-1/2} y the gradient residual is
W^{-1/2} (T y - rho y), the Rayleigh residual the half steps drive down.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import Progress
from .config import SolveConfig
from .errors import DeficitNonpositive, NegativeInput, NumericalBreakdown

_FIBER = {2: 2.0, 3: 2.0 * math.pi}  # measure of the azimuthal fiber
_KKT_TOL = 1e-6  # relative KKT residual at which the minimizer stops
_OUTER_MAX = 20_000  # outer steps before NoConvergence: 5x the most measured (3989, kappa < 10)
_EPS = float(np.finfo(float).eps)
_RESIDUAL_ULPS = 16.0  # eigen residual, in rounding units of |T|, at which a ground state stops
_EIGEN_MAX_STEPS = 100  # inverse-iteration steps per ground state
_SHIFT_TRIES = 16  # delta >= tol grows past rho + |T| >= rho - lambda_1 within 14 tries


def surface_measure(n: int) -> float:
    return 2.0 * math.pi if n == 2 else 4.0 * math.pi


@dataclass(frozen=True)
class SphericalPair:
    """Two nonnegative piecewise-constant functions of the polar angle.

    alpha holds cell centers, w the exact cell measures (for n = 2 the
    two fibers per angle are folded in, so each uniform cell weighs
    2 pi / m).
    """

    n: int
    m: int
    alpha: np.ndarray
    w: np.ndarray
    ubar: np.ndarray
    vbar: np.ndarray

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.n}")
        for name in ("alpha", "w", "ubar", "vbar"):
            arr = getattr(self, name)
            if arr.shape != (self.m,):
                raise ValueError(f"{name} must have shape ({self.m},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if np.any(self.w <= 0.0):
            raise ValueError("weights must be positive")
        if np.any(self.ubar < 0.0) or np.any(self.vbar < 0.0):
            raise ValueError("ubar and vbar must be nonnegative")
        if np.any(np.diff(self.alpha) <= 0.0):
            raise ValueError("alpha must be strictly increasing")
        if self.alpha[0] <= 0.0 or self.alpha[-1] >= math.pi:
            raise ValueError("alpha must lie strictly inside (0, pi)")
        total = float(np.sum(self.w))
        if abs(total - surface_measure(self.n)) > 1e-10:
            raise ValueError(f"weights sum to {total}, not the sphere measure")


def uniform_pair(n: int, m: int, ubar, vbar) -> SphericalPair:
    """Pair on m >= 1 equal-angle cells with exact cell measures."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be a positive integer number of cells, got {m!r}")
    edges = np.linspace(0.0, math.pi, m + 1)
    alpha = 0.5 * (edges[:-1] + edges[1:])
    if n == 2:
        w = np.full(m, 2.0 * math.pi / m)
    else:
        w = 2.0 * math.pi * (np.cos(edges[:-1]) - np.cos(edges[1:]))
    return SphericalPair(
        n, m, alpha, w, np.asarray(ubar, dtype=float), np.asarray(vbar, dtype=float)
    )


def gamma(x, n: int = 2):
    """gamma(x) = sqrt(((n-2)/2)^2 + x) - (n-2)/2; gamma(n-1) = 1."""
    x = np.asarray(x, dtype=float)
    # a NaN passes the test x < 0.0
    if np.any(np.isnan(x)):
        raise ValueError("gamma needs x >= 0, got nan")
    if np.any(x < 0.0):
        raise NegativeInput(f"gamma needs x >= 0, got {x.min()}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    c = 0.5 * (n - 2)
    out = np.sqrt(c * c + x) - c
    return float(out) if out.ndim == 0 else out


def _gamma_prime(x: float, n: int) -> float:
    c = 0.5 * (n - 2)
    return 0.5 / math.sqrt(c * c + x)


def _cell_edges(p: SphericalPair) -> np.ndarray:
    """Cell boundaries in alpha, recovered from the cumulative measure."""
    edges = _alpha_of_measure(p.n, np.concatenate([[0.0], np.cumsum(p.w)]))
    edges[0] = 0.0
    edges[-1] = math.pi
    return edges


def _alpha_of_measure(n: int, s) -> np.ndarray:
    if n == 2:
        return np.asarray(s) / 2.0
    return np.arccos(np.clip(1.0 - np.asarray(s) / (2.0 * math.pi), -1.0, 1.0))


def rearrange_pair(p: SphericalPair) -> SphericalPair:
    """Monotone rearrangement: ubar nonincreasing from alpha = 0, vbar
    nondecreasing toward alpha = pi, both exactly equimeasurable with
    the input.

    On uniform cells this is a plain sort.  Otherwise value atoms are
    split across cell boundaries by measure, and the result lives on
    the refined partition generated by all atom boundaries, so no
    averaging ever occurs.
    """
    monotone = not np.any(np.diff(p.ubar) > 0.0) and not np.any(np.diff(p.vbar) < 0.0)
    if monotone:
        return SphericalPair(p.n, p.m, p.alpha.copy(), p.w.copy(), p.ubar.copy(), p.vbar.copy())
    if np.all(p.w == p.w[0]):
        ub = np.sort(p.ubar)[::-1].copy()
        vb = np.sort(p.vbar).copy()
        return SphericalPair(p.n, p.m, p.alpha.copy(), p.w.copy(), ub, vb)

    total = float(np.sum(p.w))
    cell_s = np.cumsum(p.w)
    order_u = np.argsort(-p.ubar, kind="stable")
    order_v = np.argsort(p.vbar, kind="stable")
    su = np.cumsum(p.w[order_u])
    sv = np.cumsum(p.w[order_v])
    edges = np.unique(np.minimum(np.concatenate([[0.0], cell_s, su, sv]), total))
    # merge slivers produced by float mismatch between the cumulative sums
    keep = np.concatenate([[True], np.diff(edges) > 1e-14 * total])
    edges = edges[keep]
    edges[-1] = total
    wts = np.diff(edges)
    mid = (edges[:-1] + edges[1:]) / 2.0
    iu = np.minimum(np.searchsorted(su, mid, side="left"), p.m - 1)
    iv = np.minimum(np.searchsorted(sv, mid, side="left"), p.m - 1)
    ub = p.ubar[order_u][iu]
    vb = p.vbar[order_v][iv]
    alpha = _alpha_of_measure(p.n, mid)
    return SphericalPair(p.n, len(wts), alpha, wts, ub, vb)


def dirichlet_energy(p: SphericalPair, which: str) -> float:
    """The Dirichlet form sum_i k_i (f_{i+1} - f_i)^2 of f = ubar or vbar
    (which = "u" or "v"), k the edge stiffness of _stiffness."""
    if which not in ("u", "v"):
        raise ValueError(f"which must be 'u' or 'v', got {which!r}")
    if p.m < 8:
        raise ValueError(f"need at least 8 cells, got {p.m}")
    return _form(_stiffness(p), p.ubar if which == "u" else p.vbar)


def product_mass(p: SphericalPair) -> float:
    """Integral of ubar^2 vbar^2 over the sphere."""
    return _product_mass(p.w, p.ubar, p.vbar)


def quotient_pair(p: SphericalPair, kappa: float, lambda_kappa: float):
    """The two energy quotients (x, y) and gamma(x) + gamma(y).

    Uses the normalized convention: vbar is the unit-mass variable and
    the coupling in x carries lambda_kappa^2.  Masses are divided out,
    so constraint-normalized pairs give the plain quotients.  The
    coupling is checked as the minimizer checks it (_check_coupling).
    """
    _check_coupling(kappa, lambda_kappa)
    mass_u = float(np.sum(p.w * p.ubar**2))
    mass_v = float(np.sum(p.w * p.vbar**2))
    if mass_u <= 0.0 or mass_v <= 0.0:
        raise NumericalBreakdown("both functions need positive mass")
    k = _stiffness(p)
    pm = product_mass(p)
    x = (_form(k, p.ubar) + kappa * lambda_kappa**2 * pm) / mass_u
    y = (_form(k, p.vbar) + kappa * pm) / mass_v
    return x, y, gamma(x, p.n) + gamma(y, p.n)


def _stiffness(p: SphericalPair) -> np.ndarray:
    """Edge stiffness k_i = fiber sin^{n-2}(boundary_i) / (alpha_{i+1} - alpha_i)
    of the Dirichlet form sum_i k_i (f_{i+1} - f_i)^2."""
    return _FIBER[p.n] * np.sin(_cell_edges(p)[1:-1]) ** (p.n - 2) / np.diff(p.alpha)


def _form(k, f) -> float:
    d = f[1:] - f[:-1]
    return float(np.dot(k, d * d))


def _product_mass(w, u, v) -> float:
    t = u * v
    return float(np.dot(w, t * t))


@dataclass
class MinimizerReport:
    """Converged constrained minimizer summary."""

    kappa: float
    lambda_kappa: float
    value: float
    x_kappa: float
    y_kappa: float
    mult1: float
    mult2: float
    seg: float
    xi: float
    iterations: int
    pair: SphericalPair
    kkt: float = math.nan  # relative KKT residual; NaN when not measured
    eigen_steps: int = 0  # inverse-iteration steps over all ground-state solves

    def __post_init__(self):
        if self.value < 0.0 or self.x_kappa < 0.0 or self.y_kappa < 0.0:
            raise ValueError("report quantities must be nonnegative")


def _value_and_quotients(u, v, w, stiff, kappa, lam2, c):
    # c = (n-2)/2 so gamma(x) = sqrt(c^2+x) - c
    pm = _product_mass(w, u, v)
    x = _form(stiff, u) + kappa * lam2 * pm
    y = _form(stiff, v) + kappa * pm
    val = math.sqrt(c * c + x) + math.sqrt(c * c + y) - 2.0 * c
    return val, x, y, pm


def _normalize(f, w):
    mass = math.sqrt(float(np.dot(w, f * f)))
    if not 0.0 < mass < math.inf:
        raise NumericalBreakdown(f"iterate lost all mass or went non-finite (norm {mass})")
    return f / mass


def _rayleigh_residual(diag, off, y):
    """rho = y . T y and T y - rho y for the tridiagonal T = (diag, off)."""
    t = diag * y
    t[:-1] += off * y[1:]
    t[1:] += off * y[:-1]
    rho = float(np.dot(y, t))
    t -= rho * y
    return rho, t


def _ground_state(diag, off, f, rs, w):
    """Positive unit-w-mass lowest eigenvector of the W^{-1/2}-scaled
    tridiagonal matrix T = (diag, off), off <= 0, rs = w^{-1/2}, and the
    number of inverse-iteration steps taken from y = W^{1/2} f.

    Each step solves (T - sigma) x = y for sigma = rho - delta.  Since
    rho - lambda_1 >= res^2 / (lambda_max - lambda_1) for res = |T y -
    rho y|, delta starts at res^2 / (2 |T|) (|T| = max |diag| + 2 max
    |off| bounds the spectrum), but no closer than the stop tolerance, the
    rounding level of rho; it grows 16-fold until ?pttrf certifies
    sigma < lambda_1.  Stops once res <= _RESIDUAL_ULPS eps |T|; raises
    NumericalBreakdown when no shift is certified, a solve is not finite,
    or _EIGEN_MAX_STEPS steps do not reach that residual.

    No _util.Progress guard: the stop test already is the round-off
    floor, and each failure is a breakdown of the descent.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs  # loaded on first use, not by `import segsym`

    norm = float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off)))
    tol = _RESIDUAL_ULPS * _EPS * norm
    y = f / rs
    y /= math.sqrt(float(np.dot(y, y)))
    steps = 0
    while True:
        rho, t = _rayleigh_residual(diag, off, y)
        res = math.sqrt(float(np.dot(t, t)))
        if res <= tol:
            return _normalize(np.abs(y) * rs, w), steps
        if steps == _EIGEN_MAX_STEPS:
            raise NumericalBreakdown(
                f"spherical descent inverse iteration left residual {res:.3g} > {tol:.3g}"
                f" after {steps} steps"
            )
        delta = max(res * res / (2.0 * norm), tol)
        for _ in range(_SHIFT_TRIES):
            d, e, info = dpttrf(diag - (rho - delta), off)
            if info == 0:
                break
            delta *= 16.0
        else:
            raise NumericalBreakdown(
                f"spherical descent found no shift below the spectrum in {_SHIFT_TRIES} tries"
            )
        x, _ = dpttrs(d, e, y)
        steps += 1
        scale = math.sqrt(float(np.dot(x, x)))
        if not 0.0 < scale < math.inf:
            raise NumericalBreakdown(
                f"spherical descent inverse iteration went non-finite at step {steps}"
            )
        y = x / scale


def _tangent(state, n, kappa, lam2):
    """gamma'(x), gamma'(y) and kappa (gamma'(x) lambda^2 + gamma'(y)) at
    state = (value, x, y, product mass)."""
    gpx, gpy = _gamma_prime(state[1], n), _gamma_prime(state[2], n)
    return gpx, gpy, kappa * (gpx * lam2 + gpy)


def _kkt_residual(u, v, s_diag, s_off, rs, gpx, gpy, mix):
    """max over f = u, v of sup_i |g_i / w_i - mu f_i| / mu, mu = g . f,
    g half the value's gradient in f; iterates are positive, so there is
    no off-support term.  With y = W^{1/2} f and T the ground-state
    matrix of f's half step at this tangent, g = W^{1/2} T y, so mu = rho
    and g / w - mu f = W^{-1/2} (T y - rho y): the Rayleigh residual."""
    worst = 0.0
    for f, gp, other in ((u, gpx, v), (v, gpy, u)):
        rho, t = _rayleigh_residual(gp * s_diag + mix * other * other, gp * s_off, f / rs)
        worst = max(worst, float(np.max(np.abs(t * rs))) / rho)
    return worst


def _checked_value(prev, it, u, v, *args):
    state = _value_and_quotients(u, v, *args)
    # no half step may raise the value; written so that a NaN fails too
    if not state[0] - prev <= 1e-14:
        raise NumericalBreakdown(
            f"spherical descent value rose or went non-finite at step {it}"
        )
    return state


def _descent(u, v, pair0, kappa, lam2):
    """Alternating ground-state iteration; returns the pair, its value,
    quotients and product mass, the outer steps, the KKT residual and the
    inverse-iteration steps."""
    n, w = pair0.n, pair0.w
    stiff = _stiffness(pair0)
    args = (w, stiff, kappa, lam2, 0.5 * (n - 2))
    # W^{-1/2} S W^{-1/2} for the stiffness matrix S: diagonal, off-diagonal
    rs = 1.0 / np.sqrt(w)
    s_diag = (np.append(stiff, 0.0) + np.insert(stiff, 0, 0.0)) / w
    s_off = -stiff * rs[:-1] * rs[1:]
    u, v = _normalize(u, w), _normalize(v, w)
    state = _checked_value(math.inf, 0, u, v, *args)
    eigen_steps = 0
    progress = Progress("spherical descent", _KKT_TOL, _OUTER_MAX)
    for it in itertools.count(1):
        gpx, _, mix = _tangent(state, n, kappa, lam2)
        u, steps = _ground_state(gpx * s_diag + mix * v * v, gpx * s_off, u, rs, w)
        eigen_steps += steps
        state = _checked_value(state[0], it, u, v, *args)
        _, gpy, mix = _tangent(state, n, kappa, lam2)
        v, steps = _ground_state(gpy * s_diag + mix * u * u, gpy * s_off, v, rs, w)
        eigen_steps += steps
        state = _checked_value(state[0], it, u, v, *args)
        kkt = _kkt_residual(u, v, s_diag, s_off, rs, *_tangent(state, n, kappa, lam2))
        if progress.done(kkt, it):
            return u, v, *state, it, kkt, eigen_steps


def _check_coupling(kappa: float, lambda_kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if not (math.isfinite(lambda_kappa) and lambda_kappa > 0.0):
        raise ValueError(f"lambda_kappa must be finite and positive, got {lambda_kappa}")
    # kappa >= 1, so this also keeps lambda^2 finite
    if not math.isfinite(kappa * lambda_kappa * lambda_kappa):
        raise ValueError(f"kappa lambda_kappa^2 overflows at lambda_kappa {lambda_kappa}")


def minimize_spherical(
    kappa: float,
    lambda_kappa: float,
    m: int,
    cfg: SolveConfig | None = None,
    n: int = 2,
) -> MinimizerReport:
    """Minimize gamma(x) + gamma(y) over nonnegative unit-mass pairs.

    x and y are the Dirichlet-plus-coupling quotients of the normalized
    problem (vbar rescaled to unit mass, coupling lambda_kappa^2 kappa
    in x).  Alternating ground-state solves (see the module docstring)
    from one start, the cap pair u ~ (cos alpha)^+, v ~ (cos alpha)^-,
    each lifted by 0.02, until the relative KKT residual is at most
    _KKT_TOL = 1e-6; the report carries that residual as `kkt`, the
    outer steps (one u and one v ground state each) as `iterations` and
    the inverse-iteration steps of all ground states as `eigen_steps`.
    Each ground state starts from the current iterate.  Raises
    NoConvergence on a non-finite KKT residual or after _OUTER_MAX outer
    steps, and NumericalBreakdown if the value rises or goes non-finite
    or a ground state breaks down (see _ground_state).  Multipliers are
    evaluated from the stationarity identities.  cfg is accepted and
    unread.
    """
    _check_coupling(kappa, lambda_kappa)
    if m < 16:
        raise ValueError(f"need at least 16 cells, got {m}")
    pair0 = uniform_pair(n, m, np.zeros(m), np.zeros(m))
    lam2 = lambda_kappa**2
    t = np.cos(pair0.alpha)
    u0, v0 = np.maximum(t, 0.0) + 0.02, np.maximum(-t, 0.0) + 0.02
    u, v, val, x, y, pm, its, kkt, eigen_steps = _descent(u0, v0, pair0, kappa, lam2)
    gpx = _gamma_prime(x, n)
    gpy = _gamma_prime(y, n)
    coupling = kappa * pm
    return MinimizerReport(
        kappa=kappa,
        lambda_kappa=lambda_kappa,
        value=val,
        x_kappa=x,
        y_kappa=y,
        mult1=x + (gpy / gpx) * coupling,
        mult2=y + (lam2 * gpx / gpy) * coupling,
        seg=float(np.max(u * v)),
        xi=math.sqrt((lam2 + gpy / gpx) / (1.0 + lam2 * gpx / gpy)),
        iterations=its,
        pair=SphericalPair(n, m, pair0.alpha, pair0.w, u, v),
        kkt=kkt,
        eigen_steps=eigen_steps,
    )


@dataclass
class SweepFit:
    """Power-law fit of the gap 2 - value against kappa."""

    C: float
    exponent: float
    kappas: np.ndarray
    values: np.ndarray
    deficits: np.ndarray
    clipped: bool
    reports: list


def fit_deficit(kappas, values) -> SweepFit:
    """Least-squares log-log fit of 2 - value; deficits that are not
    positive are clipped to 1e-15 and flagged.  Raises ValueError on
    unequal lengths, a non-finite value, a non-finite or nonpositive
    kappa or fewer than two distinct kappas (a line needs two abscissae),
    and DeficitNonpositive when every value sits at or above 2, leaving
    nothing to fit."""
    kappas = np.asarray(kappas, dtype=float)
    values = np.asarray(values, dtype=float)
    if kappas.ndim != 1 or values.shape != kappas.shape:
        raise ValueError(f"kappas {kappas.shape} and values {values.shape} must be 1-D of one length")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if not (np.all(np.isfinite(kappas)) and np.all(kappas > 0.0)):
        raise ValueError("kappas must be finite and positive")
    distinct = np.unique(kappas).size
    if distinct < 2:
        raise ValueError(f"need at least two distinct kappas to fit a line, got {distinct}")
    deficits = 2.0 - values
    clipped = bool(np.any(deficits <= 0.0))
    if np.all(deficits <= 0.0):
        raise DeficitNonpositive("every minimization value is >= 2")
    deficits = np.maximum(deficits, 1e-15)
    slope, intercept = np.polyfit(np.log(kappas), np.log(deficits), 1)
    return SweepFit(
        C=math.exp(intercept),
        exponent=float(slope),
        kappas=kappas,
        values=values,
        deficits=deficits,
        clipped=clipped,
        reports=[],
    )


def kappa_sweep(kappas, lambda_kappa, m, cfg: SolveConfig | None = None) -> SweepFit:
    """Run minimize_spherical across kappas and fit 2 - value ~ C kappa^p.

    Needs at least 3 kappas spanning two decades; every kappa and
    lambda_kappa is checked before the first minimization runs.  cfg is
    accepted and unread.
    """
    kappas = [float(k) for k in kappas]
    if len(kappas) < 3:
        raise ValueError("need at least 3 kappa values")
    for k in kappas:
        _check_coupling(k, lambda_kappa)
    if max(kappas) < 100.0 * min(kappas):
        raise ValueError("kappa values must span at least two decades")
    reports = [minimize_spherical(k, lambda_kappa, m) for k in kappas]
    fit = fit_deficit(kappas, [r.value for r in reports])
    fit.reports = reports
    return fit
