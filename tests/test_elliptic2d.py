"""Tests for the coupled 2D solver and the linear disk solves."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve
from scipy.special import i0e

import segsym.elliptic2d as e2d
from segsym.config import SolveConfig
from segsym.diagnostics import functional_trace, harmonic_deficit
from segsym.elliptic2d import (
    _sup_residual,
    solve_linear_decay,
    solve_system,
)
from segsym.errors import BallOutsideDomain, ConfigInvalid, NoConvergence
from segsym.grid import Field, Grid2D, Window, square_grid
from segsym.presets import harmonic_pair, linear_pair, linear_pair_bdata

# 1 / I0(5): center value of the radial solution of w'' + w'/r = 25 w
# on [0, 1] with w(1) = 1.  Agrees with scipy.special.i0 and with the
# finite-difference oracle below to 5e-10.
DECAY_CENTER_ORACLE = 0.036710892271286676

# u(0) of the 1D interface profile, from the profile solver at
# half_length 20, spacing 0.05 (test_profile1d pins that run).
PROFILE_CENTER = 0.7163


def radial_decay_oracle(M, A, R, npts=20001):
    """Second-order radial FD solve of w'' + w'/r = M w, w'(0) = 0, w(R) = A.

    At the origin the 2D Laplacian of a radial function is 2 w''(0),
    discretized as 4 (w1 - w0) / dr^2.
    """
    r = np.linspace(0.0, R, npts)
    dr = r[1] - r[0]
    n = npts - 1
    main = np.zeros(n)
    lo = np.zeros(n - 1)
    hi = np.zeros(n - 1)
    rhs = np.zeros(n)
    main[0] = -4.0 / dr**2 - M
    hi[0] = 4.0 / dr**2
    for i in range(1, n):
        main[i] = -2.0 / dr**2 - M
        lo[i - 1] = 1.0 / dr**2 - 1.0 / (2 * r[i] * dr)
        if i < n - 1:
            hi[i] = 1.0 / dr**2 + 1.0 / (2 * r[i] * dr)
        else:
            rhs[i] = -A * (1.0 / dr**2 + 1.0 / (2 * r[i] * dr))
    mat = sp.diags([lo, main, hi], [-1, 0, 1], format="csc")
    return np.append(spsolve(mat, rhs), A)


@pytest.fixture(scope="module")
def solved_k100():
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    return g, solve_system(g, fu, fv, 100.0, SolveConfig(tol=1e-9))


def test_kappa_zero_gives_harmonic_pair():
    g = square_grid(1.0, 33)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 0.0, SolveConfig(tol=1e-9))
    assert pair.residual <= 1e-9
    # u - v is then the harmonic extension of the linear data, i.e. x itself
    X = g.meshgrid()[0]
    assert np.max(np.abs(pair.u.values - pair.v.values - X)) <= 1e-9


def test_negative_kappa_rejected():
    g = square_grid(1.0, 17)
    fu, fv = linear_pair_bdata()
    with pytest.raises(ValueError):
        solve_system(g, fu, fv, -1.0)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_non_finite_kappa_rejected(kappa):
    g = square_grid(1.0, 17)
    fu, fv = linear_pair_bdata()
    with pytest.raises(ValueError, match="kappa"):
        solve_system(g, fu, fv, kappa)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -math.inf, 0.0, -1e-8])
def test_solve_config_needs_a_finite_positive_tol(tol):
    # an infinite tol would let every solve stop at its start, returning
    # the zero interior with 0 Newton steps
    with pytest.raises(ConfigInvalid, match="finite and positive") as exc:
        SolveConfig(tol=tol)
    assert exc.value.field == "tol"


@pytest.mark.parametrize("name, bad_value", [("bdata_u", np.nan), ("bdata_v", np.inf)])
def test_non_finite_boundary_rejected_before_solving(name, bad_value, monkeypatch):
    def no_solve(*args):
        raise AssertionError("Newton started on non-finite data")

    monkeypatch.setattr(e2d, "_newton", no_solve)
    g = square_grid(1.0, 17)
    fu, fv = linear_pair_bdata()
    bad = lambda x, y: np.where(x > 0.9, bad_value, 0.0)
    bdata = (bad, fv) if name == "bdata_u" else (fu, bad)
    with pytest.raises(ValueError, match=name):
        solve_system(g, *bdata, 1.0)


def test_non_finite_residual_raises(monkeypatch):
    monkeypatch.setattr(e2d, "_sup_residual", lambda *args: float("nan"))
    g = square_grid(1.0, 17)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence) as exc:
        solve_system(g, fu, fv, 1.0)
    assert exc.value.iterations == 0


def test_negative_boundary_rejected():
    g = square_grid(1.0, 17)
    with pytest.raises(ValueError):
        solve_system(g, lambda x, y: x, lambda x, y: np.maximum(-x, 0.0), 1.0)


def test_solution_invariants(solved_k100):
    g, pair = solved_k100
    assert pair.residual <= 1e-9
    assert _sup_residual(pair.u.values, pair.v.values, 100.0, g.h) <= 1e-9
    assert pair.u.values.min() >= 0.0
    assert pair.v.values.min() >= 0.0
    assert pair.u.values.max() <= 1.0 + 1e-12
    assert 0.0 < pair.seconds < 60.0
    # the line search accepts no step that raises the energy (beyond
    # _NEAR_FLAT |E| for a full, residual-lowering step), so the recorded
    # energies can only go down
    assert np.all(np.diff(pair.energy_trace) <= 1e-12)


def test_pair_solve_runs_no_linear_solve(monkeypatch):
    """No linear solve of the _mg_pcg kind, the disk solves' entry: the
    pair solve's Newton steps and second-variation check build their own
    hierarchy on the interior."""
    monkeypatch.setattr(e2d, "_mg_pcg", lambda *args: pytest.fail("a linear solve ran"))
    g = square_grid(1.0, 33)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 100.0)
    assert pair.residual <= SolveConfig().tol


def test_callable_array_not_mutated_or_aliased():
    # a callable may hand back the same array on every call; np.asarray
    # then makes no copy, so the solve must build its own
    g = square_grid(1.0, 33)
    X, Y = g.meshgrid()
    data = np.maximum(X, 0.0)
    data[1:-1, 1:-1] = 7.0  # interior values are never read
    kept = data.copy()
    pair = solve_system(g, lambda x, y: data, lambda x, y: data[::-1], 10.0)
    assert np.array_equal(data, kept)
    for a in (pair.u.values, pair.v.values):
        assert not np.shares_memory(a, data)
    fresh = solve_system(g, lambda x, y: np.maximum(X, 0.0), lambda x, y: kept[::-1], 10.0)
    assert np.array_equal(pair.u.values, fresh.u.values)


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([17, 33, 65]),
    log_kappa=st.floats(0.0, 5.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_solve_converges_monotonically(n, log_kappa, theta):
    g = square_grid(1.0, n)
    kappa = 10.0**log_kappa
    fu, fv = linear_pair_bdata(direction=(math.cos(theta), math.sin(theta)))
    pair = solve_system(g, fu, fv, kappa, SolveConfig(tol=1e-8))
    assert pair.residual <= 1e-8
    assert _sup_residual(pair.u.values, pair.v.values, kappa, g.h) <= 1e-8
    assert pair.u.values.min() >= 0.0
    assert pair.v.values.min() >= 0.0
    assert np.all(np.diff(pair.energy_trace) <= 1e-12)


def test_non_square_grid():
    # nx != ny: λ_min(A) takes a different cos(π/(n-1)) term per axis
    g = Grid2D(65, 97, 2.0 / 64, origin=(-1.0, -1.5))
    fu, fv = linear_pair_bdata(direction=(1.0, 2.0))
    pair = solve_system(g, fu, fv, 100.0, SolveConfig(tol=1e-9))
    assert pair.residual <= 1e-9
    assert _sup_residual(pair.u.values, pair.v.values, 100.0, g.h) <= 1e-9
    assert pair.u.values.min() >= 0.0
    assert pair.v.values.min() >= 0.0
    assert pair.energy_trace.size > 0
    assert np.all(np.diff(pair.energy_trace) <= 1e-12)


def test_comparison_in_kappa(solved_k100):
    g, pair100 = solved_k100
    fu, fv = linear_pair_bdata()
    pair10 = solve_system(g, fu, fv, 10.0, SolveConfig(tol=1e-9))
    assert np.max(pair100.u.values - pair10.u.values) <= 1e-9
    assert np.max(pair100.v.values - pair10.v.values) <= 1e-9


def test_scaling_correspondence(solved_k100):
    # u -> lam u(lam x) maps solutions to solutions with the same kappa;
    # on the lattice the residual scales by exactly lam^3
    g, pair = solved_k100
    lam = 2.0
    g2 = square_grid(0.5, 65)
    r1 = _sup_residual(pair.u.values, pair.v.values, 100.0, g.h)
    r2 = _sup_residual(lam * pair.u.values, lam * pair.v.values, 100.0, g2.h)
    assert r2 == pytest.approx(lam**3 * r1, rel=1e-12)


def test_interface_amplitude_tracks_profile():
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    c = (g.nx - 1) // 2
    centers = []
    for kappa in (100.0, 1000.0):
        pair = solve_system(g, fu, fv, kappa, SolveConfig(tol=1e-9))
        u0 = pair.u.values[c, c]
        centers.append(u0)
        assert u0 == pytest.approx(PROFILE_CENTER * kappa**-0.25, rel=0.15)
    assert centers[1] < centers[0]


def test_product_sup_exponent():
    # sup uv should scale like kappa^(-1/2)
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    ks = np.array([1e2, 1e3, 1e4])
    sups = []
    for kappa in ks:
        pair = solve_system(g, fu, fv, kappa, SolveConfig(tol=1e-8))
        sups.append(np.max(pair.u.values * pair.v.values))
    slope = np.polyfit(np.log(ks), np.log(sups), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_converged_at_max_iter_returns(monkeypatch):
    # 65^2, kappa = 1e2 meets tol after exactly 6 Newton steps from the
    # border data: a cap of 6 is reached and met together, and
    # convergence wins
    monkeypatch.setattr(e2d, "_NEWTON_MAX", 6)
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 100.0)
    assert pair.newton_steps == 6
    assert pair.residual <= SolveConfig().tol


def test_max_iter_is_exact(monkeypatch):
    # a cap below the steps needed stops there
    monkeypatch.setattr(e2d, "_NEWTON_MAX", 5)
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence, match="Newton") as exc:
        solve_system(g, fu, fv, 100.0)
    assert exc.value.iterations == 5
    assert exc.value.residual > SolveConfig().tol


def uncapped_start(monkeypatch, cap):
    """Cap the Newton budget at `cap` on the finer grids and leave the
    start grid's at its default, so that the cap bites on the finer
    grid's steps alone."""
    newton, default = e2d._newton, e2d._NEWTON_MAX

    def start_uncapped(u, v, kappa, h, cfg, certify):
        monkeypatch.setattr(e2d, "_NEWTON_MAX", default if certify else cap)
        return newton(u, v, kappa, h, cfg, certify)

    monkeypatch.setattr(e2d, "_newton", start_uncapped)


def test_newton_converged_at_max_iter_returns(monkeypatch):
    # 129^2, kappa = 1e2 needs exactly 4 Newton steps above the start
    # grid: a cap of 4 is reached and met together, and convergence wins
    uncapped_start(monkeypatch, 4)
    g = square_grid(1.0, 129)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 100.0)
    assert pair.stages[-1].newton_steps == 4
    assert pair.residual <= SolveConfig().tol


@pytest.mark.parametrize("cap", [1, 3])
def test_newton_max_iter_is_exact(monkeypatch, cap):
    uncapped_start(monkeypatch, cap)
    g = square_grid(1.0, 129)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence, match="Newton") as exc:
        solve_system(g, fu, fv, 100.0)
    assert exc.value.iterations == cap
    assert exc.value.residual > SolveConfig().tol


def test_no_convergence_raises(monkeypatch):
    # tol 1e-12 is below 10x the round-off floor of 65^2 (~1.1e-12): the
    # stall at the floor ends the solve well inside a budget of 100
    monkeypatch.setattr(e2d, "_NEWTON_MAX", 100)
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence) as exc:
        solve_system(g, fu, fv, 100.0, SolveConfig(tol=1e-12))
    assert exc.value.iterations < 100
    assert exc.value.residual > 0.0
    assert "round-off floor 5ε·max(u, v)/h²" in str(exc.value)


def test_escapes_share_the_newton_budget(monkeypatch):
    # 33^2, (Re z^3)^± at kappa = 1e4 takes 15 Newton steps and 1 escape
    # on its only grid: a budget of 16 covers both, one of 15 does not
    g = square_grid(1.0, 33)
    u, v = harmonic_pair(g, 3)
    monkeypatch.setattr(e2d, "_NEWTON_MAX", 16)
    (stage,) = solve_system(g, u, v, 1e4).stages
    assert (stage.newton_steps, stage.escapes) == (15, 1)
    monkeypatch.setattr(e2d, "_NEWTON_MAX", 15)
    with pytest.raises(NoConvergence, match="Newton") as exc:
        solve_system(g, u, v, 1e4)
    assert exc.value.iterations == 15


def test_unreachable_tol_stalls_at_the_round_off_floor():
    # on 33^2 the sup residual stays at its round-off floor, ~2.6e-13,
    # above tol = 1e-14: two residuals without a new best at the floor
    # end the solve long before the budget, and the error names tol and
    # the floor estimate 5 eps max(u, v)/h^2
    g = square_grid(1.0, 33)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence, match="Newton iteration stalled") as exc:
        solve_system(g, fu, fv, 100.0, SolveConfig(tol=1e-14))
    assert exc.value.iterations <= 15
    assert exc.value.residual > 1e-14
    text = str(exc.value)
    assert "tol 1.000e-14" in text
    floor = float(re.search(r"round-off floor .* ≈ (\S+)\)", text).group(1))
    # max(u, v) = 1 on the unit square's linear pair data, h = 1/16
    assert floor == pytest.approx(5.0 * np.finfo(float).eps * 256.0, rel=1e-3)
    assert 0.5 * floor <= exc.value.residual <= 2.0 * floor


def harmonic_replacement(g, R, f):
    """The node values of f with the disk solve on B_R(0) written into
    the ball's window, and the node values of f."""
    X, Y = g.meshgrid()
    w = f(X, Y)
    win = Window.ball(g, (0.0, 0.0), R)
    box = win.isl, win.jsl
    w[box] = e2d._disk_dirichlet_solve(win, (0.0, 0.0), R, w[box], 0.0)
    return w, f(X, Y)


def test_border_field_on_another_grid_raises():
    g = square_grid(1.0, 17)
    u, v = linear_pair(square_grid(1.0, 33))
    with pytest.raises(ValueError) as exc:
        solve_system(g, u, v, 1.0)
    assert str(exc.value) == "boundary data field must live on the same grid"


def test_harmonic_reproduces_discrete_harmonics():
    # x^2 - y^2 satisfies the 5-point equation exactly
    w, f = harmonic_replacement(square_grid(1.0, 65), 0.9, lambda x, y: x * x - y * y)
    assert np.max(np.abs(w - f)) <= 1e-10


def test_harmonic_max_principle():
    g = square_grid(1.0, 65)
    w, f = harmonic_replacement(g, 0.8, lambda x, y: np.sin(3 * np.arctan2(y, x + 1e-300)))
    X, Y = g.meshgrid()
    rim = np.hypot(X, Y) >= 0.8
    assert w.max() <= f[rim].max() + 1e-12
    assert w.min() >= f[rim].min() - 1e-12


def test_harmonic_disk_outside_raises():
    u, v = linear_pair(square_grid(1.0, 33))
    with pytest.raises(BallOutsideDomain):
        harmonic_deficit(u, v, (0.5, 0.0), 0.8)


@pytest.mark.parametrize("R", [0.0, -0.5])
def test_disk_radius_must_be_positive(R):
    g = square_grid(1.0, 33)
    u, v = linear_pair(g)
    with pytest.raises(ValueError, match="ball radius must be positive"):
        harmonic_deficit(u, v, (0.0, 0.0), R)
    with pytest.raises(ValueError, match="ball radius must be positive"):
        solve_linear_decay(1.0, 1.0, R, g)


def test_radial_oracle_matches_bessel():
    w = radial_decay_oracle(25.0, 1.0, 1.0)
    assert w[0] == pytest.approx(DECAY_CENTER_ORACLE, abs=1e-8)


def test_decay_2d_matches_radial_oracle():
    g = square_grid(1.0, 129)
    w = solve_linear_decay(25.0, 1.0, 1.0, g)
    c = (g.nx - 1) // 2
    # rim values are imposed at lattice nodes, so the comparison is
    # first order in h
    assert w.values[c, c] == pytest.approx(DECAY_CENTER_ORACLE, rel=0.03)


def bessel_decay(M, A, R, r):
    """A I0(sqrt(M) r) / I0(sqrt(M) R), the radial solution of Δw = M w
    with w = A on the circle of radius R, through the scaled i0e."""
    k = math.sqrt(M)
    return A * i0e(k * r) / i0e(k * R) * np.exp(k * (r - R))


@pytest.mark.parametrize("M", [10.0, 100.0, 1000.0])
def test_decay_converges_to_bessel_oracle_on_unit_ball(M):
    # criterion 5's solve, on criterion 5's domain, against the closed
    # form: the relative sup error on B_1 is below sqrt(M) h on 81², 161²
    # and 321², and the first-order rim makes it fall at an order near 1
    errors = []
    for n in (81, 161, 321):
        g = square_grid(1.6, n)
        X, Y = g.meshgrid()
        r = np.hypot(X, Y)
        inside = r <= 1.0
        exact = bessel_decay(M, 1.0, 1.5, r[inside])
        w = solve_linear_decay(M, 1.0, 1.5, g).values[inside]
        errors.append(np.max(np.abs(w - exact)) / np.max(exact))
        assert errors[-1] <= math.sqrt(M) * g.h
    if M <= 100.0:
        assert math.log2(errors[1] / errors[2]) >= 0.75


def test_decay_tiny_M_is_constant():
    g = square_grid(1.0, 65)
    w = solve_linear_decay(1e-12, 2.0, 1.0, g)
    assert np.max(np.abs(w.values - 2.0)) <= 1e-6
    w0 = solve_linear_decay(0.0, 2.0, 1.0, g)
    assert np.max(np.abs(w0.values - 2.0)) <= 1e-10


def test_decay_bounds_and_center_minimum():
    g = square_grid(1.0, 129)
    w = solve_linear_decay(25.0, 1.0, 1.0, g)
    c = (g.nx - 1) // 2
    assert w.values.min() >= 0.0
    assert w.values.max() <= 1.0 + 1e-12
    assert w.values.min() == pytest.approx(w.values[c, c], abs=1e-12)


def test_decay_validates_inputs():
    g = square_grid(1.0, 33)
    with pytest.raises(ValueError):
        solve_linear_decay(-1.0, 1.0, 0.9, g)
    with pytest.raises(ValueError):
        solve_linear_decay(1.0, -1.0, 0.9, g)
    with pytest.raises(BallOutsideDomain):
        solve_linear_decay(1.0, 1.0, 1.5, g)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["M", "A"])
def test_decay_rejects_non_finite_inputs(name, bad):
    # nan and inf pass a plain `< 0` check and used to end in a multigrid
    # NoConvergence; they are input errors
    args = {"M": 1.0, "A": 1.0}
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        solve_linear_decay(args["M"], args["A"], 0.9, square_grid(1.0, 33))


def test_energy_linear_pair_ball():
    g = square_grid(1.0, 257)
    u, v = linear_pair(g)
    e = functional_trace("D", u, v, 1.0, (0.0, 0.0), [0.8]).values[0]
    # centered differences halve the gradient on the kink column, an
    # O(h) strip, so the tolerance is a few h
    assert e == pytest.approx(np.pi * 0.64, abs=3 * g.h)
    # uv vanishes at every node, so kappa cannot matter
    assert functional_trace("D", u, v, 7.0, (0.0, 0.0), [0.8]).values[0] == e


# ---------------------------------------------------------------------------
# the multigrid-preconditioned CG core against a sparse direct solve


def spsolve_reference(x, free, shift, h):
    """Assemble (4 + shift h²) x − Σ neighbours = 0 on the mask, frozen
    neighbours moved to the right-hand side, and solve it directly;
    shift is a float or an array of x's shape."""
    ii, jj = np.nonzero(free)
    n = ii.size
    num = -np.ones(free.shape, dtype=np.int64)
    num[ii, jj] = np.arange(n)
    rows, cols = [np.arange(n)], [np.arange(n)]
    vals = [4.0 + np.broadcast_to(shift, free.shape)[ii, jj] * (h * h)]
    rhs = np.zeros(n)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = num[ii + di, jj + dj]
        on = nb >= 0
        rows.append(np.arange(n)[on])
        cols.append(nb[on])
        vals.append(-np.ones(int(on.sum())))
        np.add.at(rhs, np.arange(n)[~on], x[ii[~on] + di, jj[~on] + dj])
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsc()
    out = x.copy()
    if n:
        out[free] = spsolve(A, rhs)
    return out


@st.composite
def masked_problems(draw):
    """A grid, a disk mask on it (off-centre, often clipped by the grid's
    outer ring, sometimes empty), rough frozen data and a shift."""
    nx, ny = draw(st.integers(3, 90)), draw(st.integers(3, 90))
    h = draw(st.floats(0.01, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cx, cy = draw(st.floats(0.0, nx - 1.0)), draw(st.floats(0.0, ny - 1.0))
    R = draw(st.floats(0.0, 1.2 * max(nx, ny)))
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    free = np.hypot(I - cx, J - cy) < R
    free[0, :] = free[-1, :] = False
    free[:, 0] = free[:, -1] = False
    if draw(st.booleans()):
        x = np.zeros((nx, ny))
    else:
        x = rng.uniform(-1.0, 1.0, (nx, ny)) * 10.0 ** draw(st.integers(-3, 3))
    shift = draw(st.sampled_from([0.0]) | st.floats(1e-3, 1e3))
    return x, free, shift, h


@settings(max_examples=60, deadline=None)
@given(problem=masked_problems())
def test_mg_pcg_matches_direct_solve(problem):
    x, free, shift, h = problem
    got, iterations, rel = e2d._mg_pcg(x, free, shift, h)
    ref = spsolve_reference(x, free, shift, h)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(got - ref)) <= 1e-10 * scale
    # frozen nodes come back unchanged, and the input is not written to
    assert np.array_equal(got[~free], x[~free])
    assert 0 <= iterations <= e2d._MG_MAX_ITER
    assert rel <= e2d._MG_RTOL


def test_mg_pcg_on_the_bench_decay_problem():
    g = square_grid(1.6, 321)
    X, Y = g.meshgrid()
    free = np.hypot(X, Y) < 1.5
    x = np.ones((g.nx, g.ny))
    for M in (10.0, 1000.0):
        ref = spsolve_reference(x, free, M, g.h)
        assert np.max(np.abs(e2d._mg_pcg(x, free, M, g.h)[0] - ref)) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mg_pcg_non_finite_frozen_data_raises(bad):
    g = square_grid(1.0, 33)
    X, Y = g.meshgrid()
    free = np.hypot(X, Y) < 0.5
    x = np.ones((g.nx, g.ny))
    x[16, 8] = bad  # the first frozen node left of the disk on its centre row
    assert not free[16, 8] and free[16, 9]
    with pytest.raises(NoConvergence) as exc:
        e2d._mg_pcg(x, free, 1.0, g.h)
    assert not math.isfinite(exc.value.residual)


def test_mg_pcg_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(e2d, "_MG_MAX_ITER", 1)
    g = square_grid(1.0, 65)
    with pytest.raises(NoConvergence) as exc:
        solve_linear_decay(10.0, 1.0, 0.9, g)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0.0


def test_mg_pcg_zero_data_returns_without_iterating(monkeypatch):
    monkeypatch.setattr(e2d, "_vcycle", lambda *args: pytest.fail("a V-cycle ran"))
    g = square_grid(1.0, 33)
    w = solve_linear_decay(5.0, 0.0, 0.9, g)
    assert np.array_equal(w.values, np.zeros((g.nx, g.ny)))


@settings(max_examples=40, deadline=None)
@given(problem=masked_problems(), data=st.data())
def test_mg_pcg_variable_shift_matches_direct_solve(problem, data):
    # a per-node shift up to 1e6 h^-2, zero on a random half-plane (which
    # may hold all of the mask, or none of it)
    x, free, _, h = problem
    nx, ny = x.shape
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    top = 10.0 ** data.draw(st.integers(-3, 6)) / (h * h)
    shift = rng.uniform(0.0, top, (nx, ny))
    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    a, b = rng.normal(size=2)
    shift[a * (I - nx / 2) + b * (J - ny / 2) > rng.normal() * nx / 4] = 0.0
    got, iterations, rel = e2d._mg_pcg(x, free, shift, h)
    ref = spsolve_reference(x, free, shift, h)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(got - ref)) <= 1e-10 * scale
    assert np.array_equal(got[~free], x[~free])
    assert iterations <= e2d._MG_MAX_ITER and rel <= e2d._MG_RTOL


def test_mg_pcg_constant_array_shift_matches_scalar():
    # a scalar shift is broadcast to the grid and takes the array's path
    g = square_grid(1.0, 65)
    X, Y = g.meshgrid()
    free = np.hypot(X, Y) < 0.9
    x = np.ones((g.nx, g.ny))
    scalar, _, _ = e2d._mg_pcg(x, free, 50.0, g.h)
    array, _, _ = e2d._mg_pcg(x, free, np.full(x.shape, 50.0), g.h)
    assert np.array_equal(scalar, array)


def blockwise_smooth(level, e, r, colours):
    """Red-black Gauss-Seidel half-sweeps on the strided 2D blocks of the
    interior: each block moves to ((((up + down) + left) + right) + r) w."""
    for colour in colours:
        for i0, j0 in (((1, 1), (2, 2)), ((1, 2), (2, 1)))[colour]:
            blk = (..., slice(i0, -1, 2), slice(j0, -1, 2))
            nb = np.add(e[..., i0 - 1 : -2 : 2, j0:-1:2], e[..., i0 + 1 :: 2, j0:-1:2])
            nb += e[..., i0:-1:2, j0 - 1 : -2 : 2]
            nb += e[..., i0:-1:2, j0 + 1 :: 2]
            nb += r[blk]
            np.multiply(nb, level.weight[blk], out=e[blk])


def test_flat_smoother_equals_strided_blocks():
    # the smoother runs each colour as one stride-2 slice of the flattened
    # grid; on the interior it must give the blockwise floats bit for bit,
    # signed zeros included, stacked or not, with a constant or varying
    # shift
    rng = np.random.default_rng(3)
    for _ in range(60):
        m, n = rng.choice([3, 5, 9, 17, 33, 65], size=2)
        free = rng.uniform(size=(m, n)) < 0.8
        free[0, :] = free[-1, :] = free[:, 0] = free[:, -1] = False
        shape = ((2,) if rng.uniform() < 0.5 else ()) + (m, n)
        diag = 4.0 + (
            rng.uniform(0.0, 100.0, shape) if rng.uniform() < 0.7 else np.full(shape, rng.uniform())
        )
        level = e2d._Level(free, free.astype(float), diag)
        r = rng.normal(size=shape) * level.mask
        r[rng.uniform(size=shape) < 0.05] = -0.0
        start = rng.normal(size=shape) * level.mask * (rng.uniform() < 0.5)
        e_flat, e_blocks = start.copy(), start.copy()
        colours = tuple(int(c) for c in rng.integers(0, 2, 5))
        level.smooth(e_flat, r, colours)
        blockwise_smooth(level, e_blocks, r, colours)
        inner = (..., slice(1, -1), slice(1, -1))
        assert np.array_equal(e_flat[inner], e_blocks[inner])
        assert np.array_equal(np.signbit(e_flat[inner]), np.signbit(e_blocks[inner]))


def per_call_smooth(level, e, r, colours):
    """The flat smoother with its slices built on every call, one lambda
    per colour."""
    rows, n = e.shape[-2:]
    fe = e.reshape(e.shape[:-2] + (rows * n,))
    fr = r.reshape(r.shape[:-2] + (rows * n,))
    fw = level.weight.reshape(level.weight.shape[:-2] + (rows * n,))
    stop = (rows - 1) * n - 1
    for colour in colours:
        at = lambda d: (..., slice(n + 1 + colour + d, stop + d, 2))
        nb = np.add(fe[at(-n)], fe[at(n)])
        nb += fe[at(-1)]
        nb += fe[at(1)]
        nb += fr[at(0)]
        np.multiply(nb, fw[at(0)], out=fe[at(0)])


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([3, 5, 9, 17, 33]),
    n=st.sampled_from([3, 5, 9, 17, 33]),
    stacked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_level_slices_equal_per_call_slices(m, n, stacked, seed):
    # the slices built once per level give the floats of the per-call
    # ones, and the pre-smoothing's first half-sweep, one product from
    # e = 0, equals the full five-operation half-sweep on zeros
    rng = np.random.default_rng(seed)
    free = rng.uniform(size=(m, n)) < 0.8
    free[0, :] = free[-1, :] = free[:, 0] = free[:, -1] = False
    shape = ((2,) if stacked else ()) + (m, n)
    level = e2d._Level(free, free.astype(float), 4.0 + rng.uniform(0.0, 100.0, shape))
    r = rng.normal(size=shape) * level.mask
    colours = tuple(int(c) for c in rng.integers(0, 2, 5))
    start = rng.normal(size=shape) * level.mask
    e_level, e_call = start.copy(), start.copy()
    level.smooth(e_level, r, colours)
    per_call_smooth(level, e_call, r, colours)
    assert np.all(e_level == e_call)
    e_call = np.zeros(shape)
    per_call_smooth(level, e_call, r, (e2d._RED, e2d._BLACK) * e2d._MG_SMOOTH)
    assert np.all(level.presmooth(r) == e_call)


def test_coarsest_solve_is_exact():
    # the coarsest level of random disk masks' hierarchies, with a random
    # shift, stacked or not: its solve inverts its own apply on the mask
    rng = np.random.default_rng(5)
    for _ in range(40):
        nx, ny = rng.integers(5, 200, size=2)
        I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        centre = rng.uniform(0.0, 1.0, 2) * (nx, ny)
        free = np.hypot(I - centre[0], J - centre[1]) < rng.uniform(1.0, max(nx, ny))
        free[0, :] = free[-1, :] = free[:, 0] = free[:, -1] = False
        if not free.any():
            continue
        lead = (2,) if rng.uniform() < 0.5 else ()
        shift = rng.uniform(0.0, 10.0 ** rng.integers(-2, 6), lead + (nx, ny))
        level = e2d._Hierarchy(free).levels(shift, 1.0 / max(nx, ny))[-1]
        assert isinstance(level, e2d._Coarsest)
        assert max(level.free.shape) - 1 <= e2d._MG_COARSEST
        r = rng.normal(size=lead + level.free.shape) * level.mask
        back = level.apply(level.solve(r))
        assert np.max(np.abs(back - r)) <= 1e-12 * np.max(np.abs(r))


def test_truncated_cg_stops_on_nonpositive_curvature():
    # diag(1, -1) from r = (1, 1): the first direction has curvature 0
    # and comes back as the step; diag(1, -3) from r = (1, 0.1) meets
    # negative curvature on the second direction and returns the first
    # CG iterate, a multiple of r and so still a descent direction
    identity = lambda r: r.copy()
    r = np.array([1.0, 1.0])
    step, it, _ = e2d._pcg(lambda p: np.array([1.0, -1.0]) * p, identity, r.copy(), 0.0, True)
    assert it == 1 and np.array_equal(step, r)
    d, r = np.array([1.0, -3.0]), np.array([1.0, 0.1])
    step, it, _ = e2d._pcg(lambda p: d * p, identity, r.copy(), 0.0, True)
    assert it == 2
    assert step == pytest.approx(r * (1.01 / 0.97), rel=1e-15)


# ---------------------------------------------------------------------------
# the nested Newton solve above 65²

HALF = linear_pair_bdata()
SADDLE = (
    lambda X, Y: np.maximum(X * X - Y * Y, 0.0),
    lambda X, Y: np.maximum(Y * Y - X * X, 0.0),
)


def border_only(g, bdata):
    """The boundary data on the lattice's outer ring, zero inside."""
    X, Y = g.meshgrid()
    a = np.zeros((g.nx, g.ny))
    b = bdata(X, Y)
    a[0, :], a[-1, :], a[:, 0], a[:, -1] = b[0, :], b[-1, :], b[:, 0], b[:, -1]
    return a


def sor_reference(g, bdata, kappa, tol=1e-8, check_every=50, max_checks=400):
    """Projected red-black SOR on the grid itself, from the border data,
    as plain expressions on strided blocks: each colour block moves to
    max(a + omega (nb / (4 + kappa h^2 b^2) - a), 0), omega Young's
    optimal factor, until the sup residual, taken every check_every
    sweeps, is <= tol.  Returns (u, v)."""
    u, v = border_only(g, bdata[0]), border_only(g, bdata[1])
    h2 = g.h * g.h
    rho = 0.5 * (math.cos(math.pi / (g.nx - 1)) + math.cos(math.pi / (g.ny - 1)))
    omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    # red = (i + j) even, black = odd, each as two strided blocks
    colours = (((1, 1), (2, 2)), ((1, 2), (2, 1)))
    for _ in range(max_checks):
        if _sup_residual(u, v, kappa, g.h) <= tol:
            return u, v
        for _ in range(check_every):
            for a, b in ((u, v), (v, u)):
                for colour in colours:
                    for i0, j0 in colour:
                        blk = (slice(i0, -1, 2), slice(j0, -1, 2))
                        nb = a[i0 - 1 : -2 : 2, j0:-1:2] + a[i0 + 1 :: 2, j0:-1:2]
                        nb += a[i0:-1:2, j0 - 1 : -2 : 2]
                        nb += a[i0:-1:2, j0 + 1 :: 2]
                        cur = a[blk]
                        star = nb / (4.0 + kappa * h2 * b[blk] ** 2)
                        a[blk] = np.maximum(cur + omega * (star - cur), 0.0)
    pytest.fail("the SOR reference did not converge")


@pytest.mark.parametrize(
    "bdata, kappa, bound",
    [(HALF, 1e2, 1e-10), (HALF, 1e3, 1e-10), (HALF, 1e4, 1e-10),
     (SADDLE, 1e2, 5e-10), (SADDLE, 1e3, 5e-10)],
    ids=["half-1e2", "half-1e3", "half-1e4", "saddle-1e2", "saddle-1e3"],
)
def test_newton_agrees_with_sor(bdata, kappa, bound):
    g = square_grid(1.0, 129)
    pair = solve_system(g, *bdata, kappa)
    u, v = sor_reference(g, bdata, kappa)
    assert [s.nx for s in pair.stages] == [65, 129]
    assert np.max(np.abs(pair.u.values - u)) <= bound
    assert np.max(np.abs(pair.v.values - v)) <= bound


@pytest.mark.parametrize(
    "bdata, kappa",
    [(HALF, 1e2), (HALF, 1e5), (SADDLE, 1e3), (SADDLE, 1e5)],
    ids=["half-1e2", "half-1e5", "saddle-1e3", "saddle-1e5"],
)
def test_newton_invariants(bdata, kappa):
    # (Re z^2)^± at kappa = 1e5 is the Berestycki-Terracini-Wang-Wei
    # saddle; Newton from the border data converges there too
    g = square_grid(1.0, 129)
    pair = solve_system(g, *bdata, kappa)
    tol = SolveConfig().tol
    assert pair.residual <= tol
    assert _sup_residual(pair.u.values, pair.v.values, kappa, g.h) == pair.residual
    assert pair.u.values.min() >= 0.0
    assert pair.v.values.min() >= 0.0
    assert pair.energy_trace.size == pair.stages[-1].newton_steps
    assert np.all(np.diff(pair.energy_trace) <= 1e-12)
    assert pair.energy_trace[-1] == e2d.discrete_energy(pair.u.values, pair.v.values, kappa, g.h)
    assert pair.newton_steps == sum(s.newton_steps for s in pair.stages)
    assert pair.cg_iterations == sum(s.cg_iterations for s in pair.stages)
    assert pair.sweeps == 0


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("bdata", [HALF, SADDLE], ids=["half", "saddle"])
def test_newton_steps_per_level(n, bdata):
    g = square_grid(1.0, n)
    pair = solve_system(g, *bdata, 1e3)
    assert [(s.nx, s.ny) for s in pair.stages][1:] == [(m, m) for m in (129, 257) if m <= n]
    for stage in pair.stages[1:]:
        assert 1 <= stage.newton_steps <= 5
        assert stage.cg_iterations <= 30 * stage.newton_steps
        # only the start grid is certified
        assert stage.escapes == 0 and stage.q is None


def test_stages_report_their_residual():
    g = square_grid(1.0, 257)
    pair = solve_system(g, *HALF, 1e3)
    assert [s.nx for s in pair.stages] == [65, 129, 257]
    assert pair.stages[-1].residual == pair.residual
    assert all(s.residual <= SolveConfig().tol for s in pair.stages)


# the benchmark's 129² half-plane pair: (Newton steps, CG iterations)
# per grid, start grid first
BENCH_STAGES = {1e2: [(6, 17), (4, 9)], 1e3: [(8, 22), (4, 10)]}


@pytest.mark.parametrize("kappa", sorted(BENCH_STAGES))
def test_bench_pair_stage_counts(kappa):
    g = square_grid(1.0, 129)
    pair = solve_system(g, *HALF, kappa)
    assert [(s.newton_steps, s.cg_iterations) for s in pair.stages] == BENCH_STAGES[kappa]


def test_newton_cg_asks_only_for_what_tol_needs(monkeypatch):
    # Kelley's safeguard: each Newton step's CG rtol is at least
    # min(0.1, 0.5 tol / res), res the sup residual the step starts
    # from, so a step that starts near tol is not solved far past it
    # (the line search's own residuals come after its step's CG call)
    pcg, sup = e2d._pcg, e2d._sup_residual
    residuals, calls = [], []

    def recording_sup(*args):
        residuals.append(sup(*args))
        return residuals[-1]

    def recording_pcg(apply, precond, r, rtol, truncate=False):
        if truncate:
            calls.append((rtol, residuals[-1]))
        return pcg(apply, precond, r, rtol, truncate)

    monkeypatch.setattr(e2d, "_sup_residual", recording_sup)
    monkeypatch.setattr(e2d, "_pcg", recording_pcg)
    g = square_grid(1.0, 129)
    pair = solve_system(g, *HALF, 1e3)
    tol = SolveConfig().tol
    assert len(calls) == pair.newton_steps
    for rtol, res in calls:
        assert rtol >= min(0.1, 0.5 * tol / res)


@pytest.mark.parametrize("n", [65, 129])
@pytest.mark.parametrize("kappa", [1e2, 1e4])
@pytest.mark.parametrize("d", [1, 2, 3], ids=["half", "z2", "z3"])
def test_default_tol_agrees_with_a_tight_solve(d, kappa, n):
    # the default tol against tol = 1e-11 (d = 3 at kappa = 1e4 escapes
    # its saddle on both): measured, the energies agree to 4e-16
    # relative and u, v to 2.5e-11 (d = 3, 65²); a residual <= 1e-8
    # alone allows about 1e-8 / (2 pi²) = 5e-10
    g = square_grid(1.0, n)
    bu, bv = harmonic_pair(g, d)
    loose = solve_system(g, bu, bv, kappa)
    tight = solve_system(g, bu, bv, kappa, SolveConfig(tol=1e-11))
    e_loose = e2d.discrete_energy(loose.u.values, loose.v.values, kappa, g.h)
    e_tight = e2d.discrete_energy(tight.u.values, tight.v.values, kappa, g.h)
    assert abs(e_loose - e_tight) <= 1e-14 * e_tight
    assert np.max(np.abs(loose.u.values - tight.u.values)) <= 1e-10
    assert np.max(np.abs(loose.v.values - tight.v.values)) <= 1e-10


def test_nesting_needs_odd_node_counts():
    # an even axis cannot be halved onto the even nodes: Newton from the
    # border data on the grid itself, certified there
    g = Grid2D(130, 67, 2.0 / 129, origin=(-1.0, -0.5))
    pair = solve_system(g, *HALF, 100.0)
    assert [(s.nx, s.ny) for s in pair.stages] == [(130, 67)]
    assert pair.newton_steps >= 1 and pair.residual <= SolveConfig().tol
    assert pair.energy_trace.size == pair.newton_steps
    assert pair.stages[0].escapes == 0 and pair.stages[0].q > 0.9


@pytest.mark.parametrize("kappa", [0.5, 1e3, 1e6])
@pytest.mark.parametrize("nx, ny", [(33, 33), (4, 5), (34, 35), (35, 34), (65, 97)])
def test_start_grid_agrees_with_sor(nx, ny, kappa):
    # grids that are not nested, even and odd, against the plain-expression
    # SOR from the same border data.  At kappa = 1e6, kappa h^2 >= 500 and
    # the lattice problem can have several local minimizers: on 4x5 the
    # two land on different ones (E = 5.6027 and 5.8144), so there only
    # the energies are compared
    h = 2.6 / (max(nx, ny) - 1)  # 0.08125 at 33: not dyadic, so h^2 rounds
    g = Grid2D(nx, ny, h, origin=(-(nx - 1) * h / 2, -(ny - 1) * h / 2))
    bu = lambda X, Y: np.maximum(0.8 * X + 0.6 * Y + 0.1, 0.0)
    bv = lambda X, Y: np.maximum(-(0.8 * X + 0.6 * Y + 0.1), 0.0)
    pair = solve_system(g, bu, bv, kappa)
    u, v = sor_reference(g, (bu, bv), kappa)
    assert [(s.nx, s.ny) for s in pair.stages] == [(nx, ny)]
    assert pair.stages[0].q > 0.0
    energy = e2d.discrete_energy(pair.u.values, pair.v.values, kappa, g.h)
    assert energy <= e2d.discrete_energy(u, v, kappa, g.h) * (1.0 + 1e-12)
    if kappa <= 1e3:
        assert np.max(np.abs(pair.u.values - u)) <= 1e-9
        assert np.max(np.abs(pair.v.values - v)) <= 1e-9


def test_newton_non_finite_residual_raises(monkeypatch):
    # NaN fails every comparison; on the fine grid it must raise, not pass
    residual = e2d._sup_residual
    monkeypatch.setattr(
        e2d, "_sup_residual",
        lambda u, *a: float("nan") if u.shape[0] == 129 else residual(u, *a),
    )
    g = square_grid(1.0, 129)
    with pytest.raises(NoConvergence, match="non-finite") as exc:
        solve_system(g, *HALF, 100.0)
    assert exc.value.iterations == 0


def test_newton_stall_raises(monkeypatch):
    # an energy that rises on every trial step halves the step below
    # _MIN_STEP: a stall is not convergence
    energy = e2d.discrete_energy
    calls = iter(range(10**6))
    monkeypatch.setattr(
        e2d, "discrete_energy",
        lambda u, *a: energy(u, *a) + (next(calls) if u.shape[0] == 129 else 0.0),
    )
    g = square_grid(1.0, 129)
    with pytest.raises(NoConvergence, match="stalled") as exc:
        solve_system(g, *HALF, 100.0)
    assert exc.value.iterations == 0


# ---------------------------------------------------------------------------
# the second-variation certificate on the start grid

# discrete_energy of the (Re z^3)^± pairs returned by the solve before the
# start grid was solved by Newton (projected SOR on 65², Newton above):
# the branch that breaks the swap symmetry u(-x, y) = v(x, y)
D3_ENERGY = {
    (65, 1e4): 21.86174837343547,
    (65, 1e5): 22.454528854944616,
    (129, 1e4): 21.35167024173347,
    (129, 1e5): 21.95040613358947,
}


def dense_half_hessian(u, v, kappa, h):
    """H/2 and A on the interior unknowns as dense matrices, u's first."""
    nx, ny = u.shape

    def second_difference(m):
        return 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)

    A = np.kron(second_difference(nx - 2), np.eye(ny - 2)) + np.kron(
        np.eye(nx - 2), second_difference(ny - 2)
    )
    c = kappa * h * h
    ui, vi = u[1:-1, 1:-1].ravel(), v[1:-1, 1:-1].ravel()
    coupling = np.diag(2.0 * c * ui * vi)
    H = np.block([[A + np.diag(c * vi * vi), coupling], [coupling, A + np.diag(c * ui * ui)]])
    return H, A


def kernel_q(u, v, kappa, h):
    """q on (u, v) by the solve's own certificate kernel."""
    nx, ny = u.shape
    interior = np.zeros((nx, ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    hier = e2d._Hierarchy(interior)
    levels, apply = e2d._hessian(hier, u, v, kappa, h)
    lam_a = 4.0 - 2.0 * math.cos(math.pi / (nx - 1)) - 2.0 * math.cos(math.pi / (ny - 1))
    return e2d._lowest_mode(levels, apply, lam_a)[0]


def swap_asymmetry(pair):
    """sup |u(-x, y) - v(x, y)|, zero on a swap-symmetric pair."""
    return float(np.max(np.abs(pair.u.values[::-1, :] - pair.v.values)))


@pytest.mark.parametrize(
    "n, d, kappa",
    [(17, 1, 1e2), (17, 2, 1e3), (17, 3, 1e4), (25, 1, 1e4), (25, 2, 1e4), (25, 3, 1e3),
     (33, 1, 1e2), (33, 3, 1e4)],
)
def test_certificate_matches_dense_eigenvalue(n, d, kappa):
    # the stop ||H x / 2 - rho x|| <= _Q_TOL lam_min(A) puts rho within
    # _Q_TOL lam_min(A) of an eigenvalue of H/2, and rho >= lam_min(H/2),
    # so q is within _Q_TOL of the dense value
    g = square_grid(1.0, n)
    pair = solve_system(g, *harmonic_pair(g, d), kappa)
    H, A = dense_half_hessian(pair.u.values, pair.v.values, kappa, g.h)
    q_dense = np.linalg.eigvalsh(H)[0] / np.linalg.eigvalsh(A)[0]
    assert pair.stages[0].q == pytest.approx(q_dense, abs=e2d._Q_TOL)
    assert pair.stages[0].q >= q_dense


def test_symmetric_saddle_has_negative_curvature():
    # Newton alone from (Re z^3)^± border data keeps the swap symmetry and
    # stops on a saddle point; the kernel and a dense solve both see q < 0
    g = square_grid(1.0, 25)
    u, v = (f.values.copy() for f in harmonic_pair(g, 3))
    u[1:-1, 1:-1] = v[1:-1, 1:-1] = 0.0
    e2d._newton(u, v, 1e4, g.h, SolveConfig())
    assert np.max(np.abs(u[::-1, :] - v)) <= 1e-12
    H, A = dense_half_hessian(u, v, 1e4, g.h)
    q_dense = np.linalg.eigvalsh(H)[0] / np.linalg.eigvalsh(A)[0]
    assert q_dense < -0.1
    assert q_dense <= kernel_q(u, v, 1e4, g.h) < -e2d._Q_TOL


@pytest.mark.parametrize("seed", range(40))
def test_pencil_matches_scipy_eigh(seed):
    # the numpy Rayleigh-Ritz pencil solve is the Cholesky reduction that
    # scipy.linalg.eigh(a, b) runs: same lowest pair, same b-normalization
    from scipy.linalg import eigh

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3))
    gb = m @ m.T + 0.1 * np.eye(3)
    ga = rng.standard_normal((3, 3))
    ga += ga.T
    c = e2d._lowest_pencil_vector(ga, gb)
    lam, vecs = eigh(ga, gb)
    assert float(c @ ga @ c) == pytest.approx(lam[0], rel=1e-12, abs=1e-12 * abs(lam).max())
    assert float(c @ gb @ c) == pytest.approx(1.0, rel=1e-12)
    s = vecs[:, 0]
    tol = 1e-10 * np.abs(s).max() * abs(lam).max() / (lam[1] - lam[0])
    assert min(np.abs(c - s).max(), np.abs(c + s).max()) <= tol


def test_rank_deficient_gram_raises_linalg_error():
    # the Gram of (x, w, x + w): p has fallen into span{x, w}.  Both the
    # numpy pencil and scipy's raise the class _lowest_mode restarts on
    from scipy.linalg import eigh

    gb = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    ga = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        e2d._lowest_pencil_vector(ga, gb)
    with pytest.raises(np.linalg.LinAlgError):
        eigh(ga, gb)


def test_lowest_mode_restart_keeps_the_certificate(monkeypatch):
    # one Rayleigh-Ritz step on span{x, w, p} fails as if the Gram were
    # singular: LOBPCG drops p, restarts, and still certifies the dense q
    g = square_grid(1.0, 17)
    pair = solve_system(g, *harmonic_pair(g, 2), 1e3)
    u, v = pair.u.values, pair.v.values
    pencil, sizes = e2d._lowest_pencil_vector, []

    def fail_first_full_step(ga, gb):
        sizes.append(len(ga))
        if sizes.count(3) == 1 and len(ga) == 3:
            raise np.linalg.LinAlgError("forced")
        return pencil(ga, gb)

    monkeypatch.setattr(e2d, "_lowest_pencil_vector", fail_first_full_step)
    q = kernel_q(u, v, 1e3, g.h)
    first = sizes.index(3)
    assert sizes[first + 1] == 2  # the step after the failure runs without p
    assert 3 in sizes[first + 2 :]  # and p comes back
    H, A = dense_half_hessian(u, v, 1e3, g.h)
    q_dense = np.linalg.eigvalsh(H)[0] / np.linalg.eigvalsh(A)[0]
    assert q == pytest.approx(q_dense, abs=e2d._Q_TOL)
    assert q >= q_dense


@pytest.mark.parametrize("kappa", [1e1, 1e2, 1e3, 1e4, 1e5])
def test_half_plane_pair_is_stiff(kappa):
    g = square_grid(1.0, 65)
    pair = solve_system(g, *HALF, kappa)
    assert pair.stages[0].escapes == 0
    assert pair.stages[0].q >= 0.95


@pytest.mark.parametrize("n", [65, 129])
@pytest.mark.parametrize("kappa", [1e4, 1e5])
def test_escape_reaches_the_asymmetric_minimizer(n, kappa):
    g = square_grid(1.0, n)
    pair = solve_system(g, *harmonic_pair(g, 3), kappa)
    assert pair.residual <= SolveConfig().tol
    assert pair.stages[0].escapes >= 1
    assert pair.stages[0].q > 0.0
    assert kernel_q(pair.u.values, pair.v.values, kappa, g.h) > 0.0
    assert swap_asymmetry(pair) >= 0.03
    energy = e2d.discrete_energy(pair.u.values, pair.v.values, kappa, g.h)
    assert energy == pytest.approx(D3_ENERGY[(n, kappa)], rel=1e-9)


@pytest.mark.parametrize(
    "d, kappa", [(1, 1e3), (2, 1e3), (3, 1e3), (1, 1e5), (2, 1e5)]
)
def test_no_escape_below_the_bifurcation(d, kappa):
    # only (Re z^3)^± past kappa = 1e3 leaves the symmetric branch
    g = square_grid(1.0, 65)
    pair = solve_system(g, *harmonic_pair(g, d), kappa)
    assert pair.stages[0].escapes == 0
    assert pair.stages[0].q > e2d._Q_TOL
