"""Tests for the spherical rearrangement and constrained minimization."""

import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segsym import sphere
from segsym.errors import DeficitNonpositive, NegativeInput, NoConvergence, NumericalBreakdown
from segsym.sphere import (
    MinimizerReport,
    SphericalPair,
    dirichlet_energy,
    fit_deficit,
    gamma,
    kappa_sweep,
    minimize_spherical,
    product_mass,
    quotient_pair,
    rearrange_pair,
    surface_measure,
    uniform_pair,
)

# Frozen values from converged runs of this module (one cap start, m=128
# cells).  Method: alternating ground-state solves, stopped when the
# relative KKT residual is <= 1e-6; an independent L-BFGS-B run on the
# same discretization agrees to 1e-10 in value.
MIN_VALUE_K1E3 = 1.820489
MIN_MULT_K1E3 = 0.86839
MIN_SEG_K1E3 = 0.00851
MIN_VALUE_K1E3_N3 = 1.694344
MIN_MULT_K1E3_N3 = 1.667038
SWEEP_C_M128 = 0.9664
SWEEP_EXP_M128 = -0.2438


def random_pair(rng, n, m):
    return uniform_pair(n, m, rng.uniform(0.0, 1.0, m) ** 2, rng.uniform(0.0, 1.0, m) ** 2)


def total_energy(p):
    return dirichlet_energy(p, "u") + dirichlet_energy(p, "v")


def assert_public_evaluation_agrees(rep):
    # the minimizer's value and quotients are the public functional's
    x, y, val = quotient_pair(rep.pair, rep.kappa, rep.lambda_kappa)
    for got, want in ((x, rep.x_kappa), (y, rep.y_kappa), (val, rep.value)):
        assert abs(got - want) <= 1e-12 * abs(want)


def mutual_product(p):
    return float(np.sum(p.w * p.ubar * p.vbar))


def kkt_residual(rep):
    """Relative KKT residual of a report's pair, sup_i |g_i / w_i - mu f_i| / mu
    with mu = g . f and g half the gradient of gamma(x) + gamma(y) in f
    (f = ubar, then vbar), from the uniform cell edges."""
    p = rep.pair
    c = 0.5 * (p.n - 2)
    edges = np.linspace(0.0, math.pi, p.m + 1)[1:-1]
    fiber = 2.0 if p.n == 2 else 2.0 * math.pi
    k_edge = fiber * np.sin(edges) ** (p.n - 2) / np.diff(p.alpha)
    x, y, _ = quotient_pair(p, rep.kappa, rep.lambda_kappa)
    gpx, gpy = 0.5 / math.sqrt(c * c + x), 0.5 / math.sqrt(c * c + y)
    mix = rep.kappa * (gpx * rep.lambda_kappa**2 + gpy)
    worst = 0.0
    for f, other, gp in ((p.ubar, p.vbar, gpx), (p.vbar, p.ubar, gpy)):
        flux = np.concatenate([[0.0], k_edge * np.diff(f), [0.0]])
        g = -gp * np.diff(flux) + mix * p.w * other**2 * f
        mu = float(np.dot(g, f))
        worst = max(worst, float(np.max(np.abs(g / p.w - mu * f))) / mu)
    return worst


def layer_cake_product(p):
    # independent oracle for the rearranged mutual product: caps grown
    # from opposite poles overlap in measure max(0, wu + wv - total),
    # summed over the rectangle of atom thresholds
    total = float(np.sum(p.w))
    tu = np.unique(np.concatenate([[0.0], p.ubar]))
    tv = np.unique(np.concatenate([[0.0], p.vbar]))
    acc = 0.0
    for i in range(len(tu) - 1):
        dt = tu[i + 1] - tu[i]
        wu = float(np.sum(p.w[p.ubar > tu[i]]))
        for j in range(len(tv) - 1):
            ds = tv[j + 1] - tv[j]
            wv = float(np.sum(p.w[p.vbar > tv[j]]))
            acc += dt * ds * max(0.0, wu + wv - total)
    return acc


def test_gamma_identities():
    assert gamma(0.0, 2) == 0.0
    assert gamma(0.0, 7) == 0.0
    assert gamma(1.0, 2) == 1.0
    for n in range(2, 11):
        assert abs(gamma(n - 1.0, n) - 1.0) <= 1e-12
    vals = gamma(np.array([0.0, 1.0, 4.0]), 3)
    assert vals.shape == (3,)
    assert abs(vals[1] - gamma(1.0, 3)) == 0.0


def test_gamma_rejects_negative_and_bad_dimension():
    with pytest.raises(NegativeInput):
        gamma(-1e-12, 2)
    with pytest.raises(ValueError):
        gamma(1.0, 1)


def test_gamma_rejects_nan_keeps_inf():
    # NaN passes the test x < 0.0, so it once came back as gamma's value
    for x in (math.nan, [0.0, math.nan, 1.0], np.full((2, 2), math.nan)):
        with pytest.raises(ValueError, match="got nan"):
            gamma(x, 2)
    with pytest.raises(NegativeInput):
        gamma([1.0, -1.0], 3)
    assert gamma(math.inf, 2) == math.inf


def test_gamma_concave_increasing():
    x = np.linspace(0.0, 50.0, 2001)
    g = gamma(x, 3)
    d1 = np.diff(g)
    d2 = np.diff(g, 2)
    assert np.all(d1 > 0.0)
    assert np.max(d2) <= 1e-8


def test_uniform_pair_measure():
    for n in (2, 3):
        p = uniform_pair(n, 64, np.ones(64), np.ones(64))
        assert abs(float(np.sum(p.w)) - surface_measure(n)) <= 1e-12
        assert p.alpha[0] > 0.0 and p.alpha[-1] < math.pi
        assert np.all(np.diff(p.alpha) > 0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [0, -4, 2.5, "8", None, True])
def test_uniform_pair_rejects_a_bad_cell_count(n, m):
    # m = 0 once died on a bare ZeroDivisionError (n = 2) or reported
    # "weights sum to 0.0" (n = 3)
    with pytest.raises(ValueError, match=rf"m must be a positive integer.*{m!r}"):
        uniform_pair(n, m, [], [])


def test_pair_and_report_invariants_name_the_violation():
    m = 16
    good = uniform_pair(2, m, np.ones(m), np.ones(m))
    ubar = good.ubar.copy()
    ubar[3] = np.nan
    w = good.w.copy()
    w[0], w[1] = 0.0, w[0] + w[1]
    alpha = good.alpha.copy()
    alpha[-1] = math.pi
    for args, message in (
        ((good.alpha, good.w, ubar, good.vbar), "ubar contains non-finite values"),
        ((good.alpha, w, good.ubar, good.vbar), "weights must be positive"),
        ((alpha, good.w, good.ubar, good.vbar), "alpha must lie strictly inside (0, pi)"),
    ):
        with pytest.raises(ValueError) as exc:
            SphericalPair(2, m, *args)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        MinimizerReport(1.0, 1.0, -1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 1, good)
    assert str(exc.value) == "report quantities must be nonnegative"


def test_pair_validation():
    m = 16
    good = uniform_pair(2, m, np.ones(m), np.ones(m))
    with pytest.raises(ValueError):
        SphericalPair(4, m, good.alpha, good.w, good.ubar, good.vbar)
    with pytest.raises(ValueError):
        SphericalPair(2, m, good.alpha, good.w, -good.ubar, good.vbar)
    with pytest.raises(ValueError):
        SphericalPair(2, m, good.alpha[::-1].copy(), good.w, good.ubar, good.vbar)
    with pytest.raises(ValueError):
        SphericalPair(2, m, good.alpha, 0.5 * good.w, good.ubar, good.vbar)
    with pytest.raises(ValueError):
        SphericalPair(2, m, good.alpha, good.w, good.ubar[:-1], good.vbar)


def test_rearrange_monotone_input_is_fixed_point():
    m = 32
    ub = np.sort(np.random.default_rng(0).uniform(0, 1, m))[::-1].copy()
    vb = np.sort(np.random.default_rng(1).uniform(0, 1, m))
    for n in (2, 3):
        p = uniform_pair(n, m, ub, vb)
        q = rearrange_pair(p)
        assert np.array_equal(q.ubar, p.ubar)
        assert np.array_equal(q.vbar, p.vbar)
        assert np.array_equal(q.w, p.w)


def test_rearrange_cap_indicator():
    # indicator of a quarter of total measure, scattered -> polar cap
    m = 64
    rng = np.random.default_rng(3)
    cells = rng.choice(m, size=m // 4, replace=False)
    ub = np.zeros(m)
    ub[cells] = 1.0
    p = uniform_pair(2, m, ub, np.zeros(m) + 1e-9)
    q = rearrange_pair(p)
    expect = np.zeros(m)
    expect[: m // 4] = 1.0
    assert np.array_equal(q.ubar, expect)


def test_rearrange_n2_exact_laws():
    rng = np.random.default_rng(11)
    m = 64
    for _ in range(300):
        p = random_pair(rng, 2, m)
        q = rearrange_pair(p)
        # sort is an exact permutation: same multiset of values
        assert np.array_equal(np.sort(q.ubar), np.sort(p.ubar))
        assert np.array_equal(np.sort(q.vbar), np.sort(p.vbar))
        assert mutual_product(q) <= mutual_product(p) + 1e-12
        assert total_energy(q) <= total_energy(p) + 1e-12
        assert product_mass(q) <= product_mass(p) + 1e-12


def test_rearrange_n3_exact_laws():
    rng = np.random.default_rng(13)
    m = 48
    for _ in range(200):
        p = random_pair(rng, 3, m)
        q = rearrange_pair(p)
        total = float(np.sum(p.w))
        assert abs(float(np.sum(q.w)) - total) <= 1e-10
        # equimeasurability at atom thresholds, exact up to float addition
        for t in np.quantile(p.ubar, [0.25, 0.5, 0.75]):
            lhs = float(np.sum(p.w[p.ubar > t]))
            rhs = float(np.sum(q.w[q.ubar > t]))
            assert abs(lhs - rhs) <= 1e-12 * total
        assert mutual_product(q) <= mutual_product(p) + 1e-12
        assert total_energy(q) <= total_energy(p) + 1e-12
        # rearranging the rearranged pair changes nothing
        q2 = rearrange_pair(q)
        assert np.array_equal(q2.ubar, q.ubar)
        assert np.array_equal(q2.w, q.w)


def test_rearranged_product_matches_layer_cake_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_pair(rng, 2, 32)
        q = rearrange_pair(p)
        assert abs(mutual_product(q) - layer_cake_product(p)) <= 1e-10


def test_cos_alpha_rayleigh_quotient():
    # |cos| has a kink at the equator; the missing edge there costs one
    # cell of relative error, so the tolerance scales like 1/m
    for n, target in ((2, 1.0), (3, 2.0)):
        m = 512
        p0 = uniform_pair(n, m, np.ones(m), np.ones(m))
        f = np.abs(np.cos(p0.alpha))
        p = SphericalPair(n, m, p0.alpha, p0.w, f, f)
        mass = float(np.sum(p.w * f * f))
        q = dirichlet_energy(p, "u") / mass
        assert abs(q - target) <= (5.0 if n == 2 else 12.0) / m


def test_dirichlet_energy_constant_zero_and_min_cells():
    p = uniform_pair(2, 16, np.full(16, 0.7), np.full(16, 0.7))
    assert dirichlet_energy(p, "u") == 0.0
    small = uniform_pair(2, 4, np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        dirichlet_energy(small, "u")


def test_dirichlet_energy_rejects_unknown_function():
    p = uniform_pair(2, 16, np.full(16, 0.7), np.full(16, 0.2))
    for which in ("x", "U", ""):
        with pytest.raises(ValueError, match="which"):
            dirichlet_energy(p, which)


def test_test_function_value_at_most_two():
    # (phi+, phi-) for phi = c cos(alpha) caps the minimum at 2
    for n in (2, 3):
        m = 512
        p0 = uniform_pair(n, m, np.ones(m), np.ones(m))
        t = np.cos(p0.alpha)
        up = np.maximum(t, 0.0)
        vm = np.maximum(-t, 0.0)
        up /= math.sqrt(float(np.sum(p0.w * up * up)))
        vm /= math.sqrt(float(np.sum(p0.w * vm * vm)))
        pt = SphericalPair(n, m, p0.alpha, p0.w, up, vm)
        _, _, val = quotient_pair(pt, 1e4, 1.0)
        assert val <= 2.0


def test_quotient_swap_symmetry():
    rng = np.random.default_rng(19)
    p = random_pair(rng, 2, 64)
    swapped = SphericalPair(2, 64, p.alpha, p.w, p.vbar, p.ubar)
    x, y, val = quotient_pair(p, 50.0, 1.0)
    xs, ys, vals = quotient_pair(swapped, 50.0, 1.0)
    assert abs(xs - y) <= 1e-12 * max(1.0, y)
    assert abs(ys - x) <= 1e-12 * max(1.0, x)
    assert abs(vals - val) <= 1e-12


def test_quotient_rejects_zero_mass():
    p = uniform_pair(2, 16, np.zeros(16), np.ones(16))
    with pytest.raises(NumericalBreakdown):
        quotient_pair(p, 10.0, 1.0)


@pytest.mark.parametrize("kappa, lam", [(1.0, 1e200), (math.nan, 1.0)])
def test_quotient_rejects_bad_coupling(kappa, lam):
    # the minimizer's coupling check: lambda^2 must not overflow and a
    # NaN kappa must not come back as NaN quotients
    p = uniform_pair(2, 16, np.ones(16), np.ones(16))
    with pytest.raises(ValueError):
        quotient_pair(p, kappa, lam)


def test_minimize_preconditions():
    with pytest.raises(ValueError):
        minimize_spherical(0.5, 1.0, 128)
    with pytest.raises(ValueError):
        minimize_spherical(10.0, 0.0, 128)
    with pytest.raises(ValueError):
        minimize_spherical(10.0, 1.0, 8)


def test_minimize_converged_report():
    rep = minimize_spherical(1e3, 1.0, 128)
    assert abs(rep.value - MIN_VALUE_K1E3) <= 2e-3
    assert abs(rep.mult1 - MIN_MULT_K1E3) <= 5e-3
    assert abs(rep.mult2 - MIN_MULT_K1E3) <= 5e-3
    assert abs(rep.seg - MIN_SEG_K1E3) <= 5e-4
    # symmetric coupling: xi collapses to 1
    assert abs(rep.xi - 1.0) <= 1e-5
    # iterate satisfies both unit-mass constraints
    p = rep.pair
    assert abs(float(np.sum(p.w * p.ubar**2)) - 1.0) <= 1e-10
    assert abs(float(np.sum(p.w * p.vbar**2)) - 1.0) <= 1e-10
    # converged iterate is stable under one more rearrangement
    x, y, val = quotient_pair(rearrange_pair(p), 1e3, 1.0)
    assert val <= rep.value + 1e-9
    assert_public_evaluation_agrees(rep)


def test_minimize_deterministic():
    a = minimize_spherical(1e3, 1.0, 128)
    b = minimize_spherical(1e3, 1.0, 128)
    assert a.value == b.value
    assert np.array_equal(a.pair.ubar, b.pair.ubar)


def test_minimize_asymmetric_lambda():
    rep = minimize_spherical(1e3, 1.5, 128)
    assert rep.value < 2.0
    # asymmetric coupling splits the multipliers
    assert rep.mult1 != rep.mult2
    assert abs(rep.value - 1.840459) <= 5e-3
    assert_public_evaluation_agrees(rep)


def test_minimize_n3_value_below_two():
    rep = minimize_spherical(1e3, 1.0, 128, n=3)
    assert abs(rep.value - MIN_VALUE_K1E3_N3) <= 5e-3
    assert abs(rep.mult1 - MIN_MULT_K1E3_N3) <= 2e-2
    assert 0.0 < rep.value < 2.0
    assert_public_evaluation_agrees(rep)


def test_minimize_n3_is_stationary_and_monotone():
    # on the non-uniform n=3 cells a Euclidean-gradient step followed by
    # renormalization can go uphill, so a method that stops when it
    # stops improving can return a point far from stationary
    rep = minimize_spherical(1e3, 1.0, 128, n=3)
    assert kkt_residual(rep) <= 1e-6
    assert abs(rep.kkt - kkt_residual(rep)) <= 1e-9
    assert np.all(np.diff(rep.pair.ubar) <= 1e-12)
    assert np.all(np.diff(rep.pair.vbar) >= -1e-12)


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    m=st.integers(16, 96),
    log_kappa=st.floats(0.0, 5.0),
    lam=st.floats(0.5, 2.0),
)
def test_minimizer_iterates_and_stop_rule(n, m, log_kappa, lam):
    values, iterates = [], []
    evaluate = sphere._value_and_quotients

    def record(u, v, *args):
        iterates.append((u, v))
        out = evaluate(u, v, *args)
        values.append(out[0])
        return out

    with mock.patch.object(sphere, "_value_and_quotients", record):
        rep = minimize_spherical(10.0**log_kappa, lam, m, n=n)
    # no rise beyond the round-off the minimizer itself tolerates
    assert np.all(np.diff(values) <= 1e-14)
    w = rep.pair.w
    for u, v in iterates:
        assert u.min() > 0.0 and v.min() > 0.0
        assert abs(float(np.dot(w, u * u)) - 1.0) <= 1e-12
        assert abs(float(np.dot(w, v * v)) - 1.0) <= 1e-12
    assert rep.kkt <= sphere._KKT_TOL
    assert abs(rep.kkt - kkt_residual(rep)) <= 1e-9


def test_minimize_stall_is_not_convergence(monkeypatch):
    monkeypatch.setattr(sphere, "_OUTER_MAX", 1)
    with pytest.raises(NoConvergence) as exc:
        minimize_spherical(1e3, 1.0, 128)
    assert exc.value.iterations == 1
    assert exc.value.residual > sphere._KKT_TOL


def test_non_finite_kkt_residual_raises_at_the_first_step(monkeypatch):
    # NaN fails every comparison: it must end the descent at once, not
    # after _OUTER_MAX outer steps
    monkeypatch.setattr(sphere, "_kkt_residual", lambda *args: float("nan"))
    with pytest.raises(NoConvergence, match="non-finite") as exc:
        minimize_spherical(1e3, 1.0, 16)
    assert exc.value.iterations == 1
    assert math.isnan(exc.value.residual)


def test_eigen_solve_failure_raises_numerical_error(monkeypatch):
    # a factorization that never certifies a shift below the spectrum,
    # a solve that returns non-finite values, and a ground state that is
    # not reached within the step cap: each ends the descent with
    # NumericalBreakdown after a bounded number of LAPACK calls
    calls = []

    def never_definite(d, e):
        calls.append(d)
        return d, e, 1

    def nan_solve(d, e, b):
        calls.append(b)
        return np.full_like(b, math.nan), 0

    # _ground_state imports dpttrf and dpttrs from scipy.linalg.lapack at call time
    for target, name, value in (
        (scipy.linalg.lapack, "dpttrf", never_definite),
        (scipy.linalg.lapack, "dpttrs", nan_solve),
        (sphere, "_EIGEN_MAX_STEPS", 0),
    ):
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(target, name, value)
            with pytest.raises(NumericalBreakdown, match="descent"):
                minimize_spherical(10.0, 1.0, 16)
        assert len(calls) <= sphere._SHIFT_TRIES


@st.composite
def tridiagonals(draw):
    """Tridiagonal (diag, off) with off <= 0, m <= 300, a diagonal spread up
    to 1e6 and, through one weakened coupling between mirrored halves, a
    lowest pair that can be nearly degenerate."""
    m = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    diag = scale * (1.0 + 10.0 ** draw(st.floats(0.0, 6.0)) * rng.uniform(0.0, 1.0, m))
    off = -scale * rng.uniform(0.1, 1.0, m - 1)
    if draw(st.booleans()):
        diag[m - m // 2 :] = diag[: m // 2][::-1]
    off[m // 2 - 1] *= 10.0 ** -draw(st.floats(0.0, 5.0))
    return diag, off, rng


@settings(max_examples=60, deadline=None)
@given(case=tridiagonals(), warm=st.booleans())
def test_ground_state_matches_dense_eigh(case, warm):
    diag, off, rng = case
    m = diag.size
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lam, vecs = np.linalg.eigh(t)
    norm = float(np.max(np.abs(t).sum(axis=1)))
    # both solvers resolve the vector only to about eps |T| / gap
    assume(lam[1] - lam[0] >= 1e-4 * norm)
    q = np.abs(vecs[:, 0])
    w = rng.uniform(0.5, 2.0, m)
    rs = 1.0 / np.sqrt(w)
    start = q * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, m)) + 1e-3 if warm else np.ones(m)
    f, steps = sphere._ground_state(diag, off, start * rs, rs, w)
    y = f / rs
    assert 0 <= steps <= sphere._EIGEN_MAX_STEPS
    assert abs(float(y @ t @ y) - lam[0]) <= 1e-10 * norm
    assert np.max(np.abs(y - q)) <= 1e-10
    assert abs(float(np.dot(w, f * f)) - 1.0) <= 1e-12
    # no cancellation in the M-matrix solve: entries are zero only by underflow
    assert np.all(f >= 0.0) and np.all(f[q > 1e-200] > 0.0)


def test_minimizer_does_not_load_scipy_optimize():
    # scipy.optimize costs ~0.3 s of import time and ~16 MB of memory;
    # scipy.sparse is not needed either: the profile Newton solve is
    # banded, and the pair solve's eigen-solve is hand-written LOBPCG.
    # scipy.linalg loads on the first spherical ground state (?pttrf)
    code = (
        "import sys, segsym\n"
        "def loaded(): print(*(m in sys.modules for m in"
        " ('scipy.linalg', 'scipy.optimize', 'scipy.sparse')))\n"
        "loaded()\n"
        "segsym.kappa_sweep([1e2, 1e3, 1e4], 1.0, 32)\n"
        "loaded()\n"
        "segsym.solve_profile(10.0, 0.1)\n"
        "loaded()\n"
        "segsym.solve_system(segsym.square_grid(1.0, 65), *segsym.linear_pair_bdata(), 1e2)\n"
        "loaded()\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"] * 3 + ["True", "False", "False"] * 3


def test_pair_solve_path_loads_no_scipy():
    # the pair solve, its certificate and the ball traces are numpy-only.
    # Without scipy.linalg (and the numpy.f2py, numpy.testing and
    # charset_normalizer its array-API shim pulls in), `import segsym`
    # takes 0.17-0.23 s instead of 0.41-0.51 s, and a whole
    # `segsym solve2d --n 65` process 0.32-0.47 s instead of 0.62-0.73 s
    # (2 CPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
    # The profile Newton step's banded LU loads scipy.linalg on first use
    code = (
        "import sys, numpy as np, segsym as ss\n"
        "def loaded(): print(*(m in sys.modules for m in"
        " ('scipy', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse')))\n"
        "loaded()\n"
        "g = ss.square_grid(1.0, 129)\n"
        "pair = ss.solve_system(g, *ss.linear_pair_bdata(), 1e3)\n"
        "print(len(pair.stages) > 1)\n"
        "r = np.linspace(0.1, 0.45, 8)\n"
        "ss.frequency_trace(pair.u, pair.v, 1e3, (0.0, 0.0), r)\n"
        "ss.functional_trace('H', pair.u, pair.v, 1e3, (0.0, 0.0), r)\n"
        "ss.acf_trace_and_fit(pair.u, pair.v, 1e3, (0.0, 0.0), r)\n"
        "loaded()\n"
        "g = ss.square_grid(1.0, 65)\n"
        "print(ss.solve_system(g, *ss.harmonic_pair(g, 3), 1e4).stages[0].escapes >= 1)\n"
        "loaded()\n"
        "ss.solve_profile(10.0, 0.1)\n"
        "loaded()\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    absent = ["False"] * 4
    assert out.stdout.split() == (
        absent + ["True"] + absent + ["True"] + absent + ["True", "True", "False", "False"]
    )


@pytest.fixture(scope="module")
def sweep_m128():
    return kappa_sweep([1e2, 1e3, 1e4], 1.0, 128)


def test_kappa_sweep_fit(sweep_m128):
    fit = sweep_m128
    assert np.all(fit.values < 2.0)
    assert not fit.clipped
    assert abs(fit.C - SWEEP_C_M128) <= 2e-2
    assert abs(fit.exponent - SWEEP_EXP_M128) <= 2e-2
    assert len(fit.reports) == 3
    segs = [r.seg for r in fit.reports]
    slope = np.polyfit(np.log(fit.kappas), np.log(segs), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_kappa_sweep_reports_carry_kkt(sweep_m128):
    for rep in sweep_m128.reports:
        assert rep.iterations >= 1
        assert rep.kkt <= 1e-6


def test_kappa_sweep_equals_single_minimizations(sweep_m128):
    for k, rep in zip([1e2, 1e3, 1e4], sweep_m128.reports):
        one = minimize_spherical(k, 1.0, 128)
        assert rep.kappa == k
        assert rep.value == one.value
        assert rep.iterations == one.iterations
        assert np.array_equal(rep.pair.ubar, one.pair.ubar)
        assert np.array_equal(rep.pair.vbar, one.pair.vbar)


def _no_descent(*args, **kwargs):
    raise AssertionError("a descent ran on a rejected coupling")


@pytest.mark.parametrize(
    "kappa, lam",
    [
        (math.nan, 1.0),
        (math.inf, 1.0),
        (10.0, math.nan),
        (10.0, math.inf),
        # lambda^2 overflows, then kappa lambda^2
        (10.0, 1e200),
        (1e10, 1e150),
    ],
)
def test_minimize_rejects_nonfinite_coupling(monkeypatch, kappa, lam):
    monkeypatch.setattr(sphere, "_descent", _no_descent)
    with pytest.raises(ValueError):
        minimize_spherical(kappa, lam, 16)


def test_sweep_rejects_nonfinite_coupling_before_any_descent(monkeypatch):
    monkeypatch.setattr(sphere, "_descent", _no_descent)
    with pytest.raises(ValueError):
        kappa_sweep([1e2, 1e3, math.nan], 1.0, 16)
    with pytest.raises(ValueError):
        kappa_sweep([1e2, math.inf, 1e4], 1.0, 16)
    with pytest.raises(ValueError):
        kappa_sweep([1e2, 1e3, 1e4], math.nan, 16)
    with pytest.raises(ValueError):
        kappa_sweep([1e2, 1e3, 1e4], 1e200, 16)
    # kappa lambda^2 is finite at 1e8 and overflows from 1e9 on
    with pytest.raises(ValueError):
        kappa_sweep([1e8, 1e9, 1e10], 1e150, 16)


def test_descent_breakdown_raises_numerical_error(monkeypatch):
    # a non-finite value must fail the monotone-history check that
    # guards every return, also under python -O
    monkeypatch.setattr(
        sphere, "_value_and_quotients", lambda *a: (math.nan, 1.0, 1.0, 0.0)
    )
    with pytest.raises(NumericalBreakdown):
        minimize_spherical(10.0, 1.0, 16)


def test_normalize_without_mass_raises_numerical_error():
    w = np.full(16, 2.0 * math.pi / 16)
    with pytest.raises(NumericalBreakdown):
        sphere._normalize(np.zeros(16), w)


def test_sweep_preconditions():
    with pytest.raises(ValueError):
        kappa_sweep([1e2, 1e3], 1.0, 128)
    with pytest.raises(ValueError):
        kappa_sweep([1e2, 2e2, 4e2], 1.0, 128)


def test_fit_deficit_synthetic_quarter_power():
    kappas = np.array([1e2, 1e3, 1e4])
    fit = fit_deficit(kappas, 2.0 - kappas**-0.25)
    assert abs(fit.exponent + 0.25) <= 1e-6
    assert abs(fit.C - 1.0) <= 1e-6


def test_fit_deficit_names_unequal_lengths():
    # numpy's polyfit once raised a bare TypeError after the logs
    with pytest.raises(ValueError, match=r"kappas \(3,\) and values \(2,\)"):
        fit_deficit([1, 10, 100], [1.9, 1.95])


def test_fit_deficit_clipping_and_error():
    with pytest.raises(DeficitNonpositive):
        fit_deficit([1e2, 1e3, 1e4], [2.0, 2.1, 2.3])
    fit = fit_deficit([1e2, 1e3, 1e4], [1.9, 1.99, 2.05])
    assert fit.clipped
    assert np.all(fit.deficits > 0.0)


@pytest.mark.parametrize(
    "kappas, values, word",
    [
        ([1e2, 1e3, 1e4], [1.9, 1.95, math.nan], "values"),
        ([1e2, 1e3, 1e4], [1.9, 1.95, math.inf], "values"),
        ([1e2, 1e3, 1e4], [1.9, 1.95, -math.inf], "values"),
        ([1e2, 0.0, 1e4], [1.9, 1.95, 1.99], "kappas"),
        ([1e2, -1e3, 1e4], [1.9, 1.95, 1.99], "kappas"),
        ([1e2, math.nan, 1e4], [1.9, 1.95, 1.99], "kappas"),
        ([1e2, 1e3, math.inf], [1.9, 1.95, 1.99], "kappas"),
    ],
)
def test_fit_deficit_rejects_nonfinite_input(kappas, values, word):
    # a NaN must not come out as a fitted C and exponent, an infinite
    # value must not be clipped into the fit, and a bad kappa must not
    # reach LAPACK
    with pytest.raises(ValueError, match=word):
        fit_deficit(kappas, values)
