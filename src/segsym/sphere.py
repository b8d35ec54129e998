"""Spherical machinery: the gamma map, two-function monotone
rearrangement in the polar angle, and the constrained minimization
whose value approaches 2 from below as the coupling grows.

Functions on S^{n-1} (n = 2 or 3, azimuthally symmetric) are piecewise
constant in the polar angle alpha.  Cells are contiguous intervals of
(0, pi) carrying their exact surface measure as weight, so the
rearrangement bookkeeping (equimeasurability, mass of every level set)
is exact up to float addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SolveConfig
from .errors import DeficitNonpositive, NegativeInput, NoConvergence, NumericalBreakdown

_FIBER = {2: 2.0, 3: 2.0 * math.pi}  # measure of the azimuthal fiber


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
    """Pair on m equal-angle cells with exact cell measures."""
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
    s = np.concatenate([[0.0], np.cumsum(p.w)])
    if p.n == 2:
        edges = s / 2.0
    else:
        edges = np.arccos(np.clip(1.0 - s / (2.0 * math.pi), -1.0, 1.0))
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
    """Sum over interior cell boundaries of w_edge ((f_{i+1}-f_i)/dalpha)^2,
    with the sin^{n-2} surface factor evaluated at the shared boundary."""
    if p.m < 8:
        raise ValueError(f"need at least 8 cells, got {p.m}")
    f = p.ubar if which == "u" else p.vbar
    edges = _cell_edges(p)[1:-1]
    dalpha = np.diff(p.alpha)
    w_edge = _FIBER[p.n] * np.sin(edges) ** (p.n - 2) * dalpha
    return float(np.sum(w_edge * (np.diff(f) / dalpha) ** 2))


def product_mass(p: SphericalPair) -> float:
    """Integral of ubar^2 vbar^2 over the sphere."""
    return float(np.sum(p.w * (p.ubar * p.vbar) ** 2))


def quotient_pair(p: SphericalPair, kappa: float, lambda_kappa: float):
    """The two energy quotients (x, y) and gamma(x) + gamma(y).

    Uses the normalized convention: vbar is the unit-mass variable and
    the coupling in x carries lambda_kappa^2.  Masses are divided out,
    so constraint-normalized pairs give the plain quotients.
    """
    mass_u = float(np.sum(p.w * p.ubar**2))
    mass_v = float(np.sum(p.w * p.vbar**2))
    if mass_u <= 0.0 or mass_v <= 0.0:
        raise ValueError("both functions need positive mass")
    pm = product_mass(p)
    x = (dirichlet_energy(p, "u") + kappa * lambda_kappa**2 * pm) / mass_u
    y = (dirichlet_energy(p, "v") + kappa * pm) / mass_v
    return x, y, gamma(x, p.n) + gamma(y, p.n)


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

    def __post_init__(self):
        if self.value < 0.0 or self.x_kappa < 0.0 or self.y_kappa < 0.0:
            raise ValueError("report quantities must be nonnegative")


def _edge_data(p: SphericalPair):
    edges = _cell_edges(p)[1:-1]
    dalpha = np.diff(p.alpha)
    w_edge = _FIBER[p.n] * np.sin(edges) ** (p.n - 2) * dalpha
    return w_edge, dalpha


def _value_and_quotients(u, v, w, stiff, kappa, lam2, c):
    # stiff = w_edge / dalpha^2; c = (n-2)/2 so gamma(x) = sqrt(c^2+x) - c
    t = u * v
    pm = float(np.dot(w, t * t))
    du = u[1:] - u[:-1]
    dv = v[1:] - v[:-1]
    x = float(np.dot(stiff, du * du)) + kappa * lam2 * pm
    y = float(np.dot(stiff, dv * dv)) + kappa * pm
    val = math.sqrt(c * c + x) + math.sqrt(c * c + y) - 2.0 * c
    return val, x, y, pm


def _laplacian(f, stiff):
    flux = stiff * (f[1:] - f[:-1])
    out = np.zeros_like(f)
    out[:-1] -= flux
    out[1:] += flux
    return out


def _normalize(f, w):
    mass = math.sqrt(float(np.dot(w, f * f)))
    if not 0.0 < mass < math.inf:
        raise NumericalBreakdown(f"iterate lost all mass or went non-finite (norm {mass})")
    return f / mass


def _monotone_on(pair0: SphericalPair, u, v):
    """Rearrange (u, v) and express the result on pair0's cells.

    Uniform cells come back directly (the rearrangement is a sort).  A
    refined partition is averaged back cell by cell in measure space;
    that loses exactness but only serves the optimizer."""
    srt = rearrange_pair(SphericalPair(pair0.n, pair0.m, pair0.alpha, pair0.w, u, v))
    if srt.m == pair0.m and np.array_equal(srt.w, pair0.w):
        return srt.ubar, srt.vbar
    er = np.concatenate([[0.0], np.cumsum(srt.w)])
    et = np.concatenate([[0.0], np.cumsum(pair0.w)])
    cu = np.concatenate([[0.0], np.cumsum(srt.ubar * srt.w)])
    cv = np.concatenate([[0.0], np.cumsum(srt.vbar * srt.w)])
    return (
        np.diff(np.interp(et, er, cu)) / pair0.w,
        np.diff(np.interp(et, er, cv)) / pair0.w,
    )


def _descent(u, v, pair0, kappa, lam2, cfg):
    n = pair0.n
    w = pair0.w
    c = 0.5 * (n - 2)
    w_edge, dalpha = _edge_data(pair0)
    stiff = w_edge / dalpha**2
    uniform = bool(np.all(w == w[0]))
    u = _normalize(np.maximum(u, 0.0), w)
    v = _normalize(np.maximum(v, 0.0), w)
    val, x, y, pm = _value_and_quotients(u, v, w, stiff, kappa, lam2, c)
    history = [val]
    for it in range(1, cfg.max_iter + 1):
        if it % 10 == 0:
            if uniform:
                mu, mv = np.sort(u)[::-1], np.sort(v)
            else:
                mu, mv = _monotone_on(pair0, u, v)
            u2, v2 = _normalize(mu, w), _normalize(mv, w)
            cand = _value_and_quotients(u2, v2, w, stiff, kappa, lam2, c)
            if cand[0] <= val:
                u, v = u2, v2
                val, x, y, pm = cand
        gpx = 0.5 / math.sqrt(c * c + x)
        gpy = 0.5 / math.sqrt(c * c + y)
        mix = (gpx * lam2 + gpy) * kappa * w
        gu = 2.0 * (gpx * _laplacian(u, stiff) + mix * u * v * v)
        gv = 2.0 * (gpy * _laplacian(v, stiff) + mix * v * u * u)
        step = 0.1
        improved = False
        for _ in range(40):
            u2 = _normalize(np.maximum(u - step * gu, 0.0), w)
            v2 = _normalize(np.maximum(v - step * gv, 0.0), w)
            cand = _value_and_quotients(u2, v2, w, stiff, kappa, lam2, c)
            if cand[0] < val:
                u, v = u2, v2
                val, x, y, pm = cand
                improved = True
                break
            step *= 0.5
        history.append(val)
        done = len(history) > 50 and history[-51] - history[-1] < cfg.tol
        if done or (not improved and len(history) > 50):
            # descent only ever accepts non-increasing values; written so
            # that a NaN anywhere in the history fails the check too
            if not all(b - a <= 1e-14 for a, b in zip(history, history[1:])):
                raise NumericalBreakdown(
                    f"spherical descent value rose or went non-finite by iteration {it}"
                )
            return u, v, val, x, y, pm, it
    raise NoConvergence(cfg.max_iter, history[0] - history[-1], "spherical descent")


def _check_coupling(kappa: float, lambda_kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa >= 1.0):
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    if not (math.isfinite(lambda_kappa) and lambda_kappa > 0.0):
        raise ValueError(f"lambda_kappa must be finite and positive, got {lambda_kappa}")


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
    in x).  Projected gradient descent with clipping, renormalization,
    and a monotone rearrangement every 10 steps, from one start: the cap
    pair u ~ (cos alpha)^+, v ~ (cos alpha)^-, each lifted by 0.02.
    Multipliers are evaluated from the stationarity identities, so they
    make sense even at approximate minimizers.
    """
    cfg = cfg or SolveConfig()
    _check_coupling(kappa, lambda_kappa)
    if m < 16:
        raise ValueError(f"need at least 16 cells, got {m}")
    pair0 = uniform_pair(n, m, np.zeros(m), np.zeros(m))
    lam2 = lambda_kappa**2
    t = np.cos(pair0.alpha)
    u0, v0 = np.maximum(t, 0.0) + 0.02, np.maximum(-t, 0.0) + 0.02
    u, v, val, x, y, pm, its = _descent(u0, v0, pair0, kappa, lam2, cfg)
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
    positive are clipped to 1e-15 and flagged.  Raises only when every
    value sits at or above 2, leaving nothing to fit."""
    kappas = np.asarray(kappas, dtype=float)
    values = np.asarray(values, dtype=float)
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
    lambda_kappa is checked before the first minimization runs.
    """
    kappas = [float(k) for k in kappas]
    if len(kappas) < 3:
        raise ValueError("need at least 3 kappa values")
    for k in kappas:
        _check_coupling(k, lambda_kappa)
    if max(kappas) < 100.0 * min(kappas):
        raise ValueError("kappa values must span at least two decades")
    reports = [minimize_spherical(k, lambda_kappa, m, cfg) for k in kappas]
    fit = fit_deficit(kappas, [r.value for r in reports])
    fit.reports = reports
    return fit
