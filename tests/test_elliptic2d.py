"""Tests for the coupled 2D solver and the linear disk solves."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import segsym.elliptic2d as e2d
from segsym.config import SolveConfig
from segsym.diagnostics import almgren_D
from segsym.elliptic2d import (
    _sup_residual,
    solve_harmonic,
    solve_linear_decay,
    solve_system,
)
from segsym.errors import BallOutsideDomain, NoConvergence
from segsym.grid import Field, Grid2D, square_grid
from segsym.presets import linear_pair, linear_pair_bdata

# 1 / I0(5): center value of the radial solution of w'' + w'/r = 25 w
# on [0, 1] with w(1) = 1.  Agrees with scipy.special.i0 and with the
# finite-difference oracle below to 5e-10.
DECAY_CENTER_ORACLE = 0.036710892271286676

# Sweeps plain red-black Gauss-Seidel needed for the solved_k100 fixture
# (65^2, kappa = 100, tol = 1e-9); over-relaxation needs 300.
GAUSS_SEIDEL_SWEEPS_K100 = 10_100

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
    pair = solve_system(g, fu, fv, 0.0)
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


@pytest.mark.parametrize("name, bad_value", [("bdata_u", np.nan), ("bdata_v", np.inf)])
def test_non_finite_boundary_rejected_before_solving(name, bad_value, monkeypatch):
    def no_solve(*args):
        raise AssertionError("the relaxation started on non-finite data")

    monkeypatch.setattr(e2d, "_parity_planes", no_solve)
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
    assert pair.sweeps > 0
    assert 0.0 < pair.seconds < 60.0
    # every pointwise update is an over-relaxed, projected move that does
    # not raise the energy in its coordinate, so the recorded energies can
    # only go down
    assert np.all(np.diff(pair.energy_trace) <= 1e-12)


def test_over_relaxation_sweep_count(solved_k100):
    _, pair = solved_k100
    assert pair.sweeps <= GAUSS_SEIDEL_SWEEPS_K100 // 10


def test_one_stage_sweep_count():
    # relaxing at the target kappa from the border data takes 300 sweeps
    # on 65², the largest grid SOR solves alone
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 1e3)
    assert pair.residual <= SolveConfig().tol
    assert pair.sweeps <= 300
    assert pair.newton_steps == 0 and pair.cg_iterations == 0


def border_only(g, bdata):
    """The boundary data on the lattice's outer ring, zero inside."""
    X, Y = g.meshgrid()
    a = np.zeros((g.nx, g.ny))
    b = bdata(X, Y)
    a[0, :], a[-1, :], a[:, 0], a[:, -1] = b[0, :], b[-1, :], b[:, 0], b[:, -1]
    return a


def test_pair_solve_runs_no_linear_solve(monkeypatch):
    """Grids of at most _NEST_MIN nodes per axis are relaxed by SOR
    alone; only the Newton steps of larger grids solve linear systems."""
    monkeypatch.setattr(e2d, "_mg_pcg", lambda *args: pytest.fail("a linear solve ran"))
    g = square_grid(1.0, 33)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 100.0)
    assert pair.residual <= SolveConfig().tol


def test_non_1d_data_sweep_count():
    # (Re z^2)^+ and (Re z^2)^- on 65^2 at kappa = 1e3: 700 sweeps from
    # the border data (750 from the harmonic extension of that data)
    g = square_grid(1.0, 65)
    fu = lambda X, Y: np.maximum(X * X - Y * Y, 0.0)
    fv = lambda X, Y: np.maximum(Y * Y - X * X, 0.0)
    pair = solve_system(g, fu, fv, 1e3)
    assert pair.residual <= SolveConfig().tol
    assert pair.sweeps <= 700


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


@pytest.mark.parametrize("kappa", [0.5, 1e3, 1e6])
@pytest.mark.parametrize("nx, ny", [(33, 33), (4, 5), (34, 35), (35, 34), (65, 97)])
def test_in_place_update_equals_expression(nx, ny, kappa):
    # the sweep on parity planes against the plain expression
    # max(a + omega (nb / (4 + kappa h^2 b^2) - a), 0) on strided blocks
    # of the full arrays, run from the same border-only start for as many
    # sweeps: the same floats, bit for bit.  Even and odd nx, ny give
    # parity planes and colour blocks of ragged sizes.
    h = 2.6 / (max(nx, ny) - 1)  # 0.08125 at 33: not dyadic, so h^2 rounds
    g = Grid2D(nx, ny, h, origin=(-(nx - 1) * h / 2, -(ny - 1) * h / 2))
    bu = lambda X, Y: np.maximum(0.8 * X + 0.6 * Y + 0.1, 0.0)
    bv = lambda X, Y: np.maximum(-(0.8 * X + 0.6 * Y + 0.1), 0.0)
    pair = solve_system(g, bu, bv, kappa)
    u, v = border_only(g, bu), border_only(g, bv)
    h2 = g.h * g.h
    rho = 0.5 * (math.cos(math.pi / (g.nx - 1)) + math.cos(math.pi / (g.ny - 1)))
    omega = 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))
    for _ in range(pair.sweeps):
        for a, b in ((u, v), (v, u)):
            for color in (e2d._RED, e2d._BLACK):
                for i0, j0 in color:
                    blk, nb = e2d._blocks(a, i0, j0)
                    cur = a[blk]
                    star = nb / (4.0 + kappa * h2 * b[blk] ** 2)
                    a[blk] = np.maximum(cur + omega * (star - cur), 0.0)
    assert pair.sweeps > 0
    assert np.array_equal(pair.u.values, u)
    assert np.array_equal(pair.v.values, v)


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
    # nx != ny gives a different optimal relaxation factor per axis
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


def test_converged_at_max_iter_returns():
    # 65^2, kappa = 1e2 meets tol after exactly 300 sweeps: a cap of 300
    # is reached and met together, and convergence wins
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 100.0, SolveConfig(max_iter=300))
    assert pair.sweeps == 300
    assert pair.residual <= SolveConfig().tol


def test_max_iter_is_exact():
    # a cap that is not a multiple of the check interval stops there
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence) as exc:
        solve_system(g, fu, fv, 100.0, SolveConfig(max_iter=255))
    assert exc.value.iterations == 255
    assert exc.value.residual > SolveConfig().tol


def uncapped_relax(monkeypatch):
    """Let the coarsest grid's SOR ignore cfg.max_iter, so that a cap
    bites on the Newton steps alone."""
    relax = e2d._relax
    monkeypatch.setattr(
        e2d, "_relax", lambda u, v, kappa, h, cfg: relax(u, v, kappa, h, SolveConfig(tol=cfg.tol))
    )


def test_newton_converged_at_max_iter_returns(monkeypatch):
    # 129^2, kappa = 1e2 needs exactly 4 Newton steps: a cap of 4 is
    # reached and met together, and convergence wins
    uncapped_relax(monkeypatch)
    g = square_grid(1.0, 129)
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, 100.0, SolveConfig(max_iter=4))
    assert pair.newton_steps == 4
    assert pair.residual <= SolveConfig().tol


@pytest.mark.parametrize("cap", [1, 3])
def test_newton_max_iter_is_exact(monkeypatch, cap):
    uncapped_relax(monkeypatch)
    g = square_grid(1.0, 129)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence, match="Newton") as exc:
        solve_system(g, fu, fv, 100.0, SolveConfig(max_iter=cap))
    assert exc.value.iterations == cap
    assert exc.value.residual > SolveConfig().tol


def test_no_convergence_raises():
    g = square_grid(1.0, 65)
    fu, fv = linear_pair_bdata()
    with pytest.raises(NoConvergence) as exc:
        solve_system(g, fu, fv, 100.0, SolveConfig(tol=1e-12, max_iter=100))
    assert exc.value.iterations >= 100
    assert exc.value.residual > 0.0


def test_harmonic_reproduces_discrete_harmonics():
    # x^2 - y^2 satisfies the 5-point equation exactly
    g = square_grid(1.0, 65)
    f = lambda x, y: x * x - y * y
    w = solve_harmonic(g, (0.0, 0.0), 0.9, f)
    X, Y = g.meshgrid()
    assert np.max(np.abs(w.values - f(X, Y))) <= 1e-10


def test_harmonic_max_principle():
    g = square_grid(1.0, 65)
    f = lambda x, y: np.sin(3 * np.arctan2(y, x + 1e-300))
    w = solve_harmonic(g, (0.0, 0.0), 0.8, f)
    X, Y = g.meshgrid()
    rim = np.hypot(X, Y) >= 0.8
    assert w.values.max() <= f(X, Y)[rim].max() + 1e-12
    assert w.values.min() >= f(X, Y)[rim].min() - 1e-12


def test_harmonic_accepts_field_bdata():
    g = square_grid(1.0, 33)
    f = lambda x, y: np.abs(x) + y * y
    X, Y = g.meshgrid()
    w1 = solve_harmonic(g, (0.0, 0.0), 0.7, f)
    w2 = solve_harmonic(g, (0.0, 0.0), 0.7, Field(g, f(X, Y)))
    assert np.array_equal(w1.values, w2.values)


def test_harmonic_disk_outside_raises():
    g = square_grid(1.0, 33)
    with pytest.raises(BallOutsideDomain):
        solve_harmonic(g, (0.5, 0.0), 0.8, lambda x, y: x)


@pytest.mark.parametrize("R", [0.0, -0.5])
def test_disk_radius_must_be_positive(R):
    g = square_grid(1.0, 33)
    with pytest.raises(ValueError):
        solve_harmonic(g, (0.0, 0.0), R, lambda x, y: x)
    with pytest.raises(ValueError):
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


def test_energy_linear_pair_ball():
    g = square_grid(1.0, 257)
    u, v = linear_pair(g)
    e = almgren_D(u, v, 1.0, (0.0, 0.0), 0.8)
    # centered differences halve the gradient on the kink column, an
    # O(h) strip, so the tolerance is a few h
    assert e == pytest.approx(np.pi * 0.64, abs=3 * g.h)
    # uv vanishes at every node, so kappa cannot matter
    assert almgren_D(u, v, 7.0, (0.0, 0.0), 0.8) == e


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
    # an array shift restricts c = shift h² by full weighting; a scalar
    # one is rediscretized per level, so the two agree to solver
    # tolerance, not bit for bit
    g = square_grid(1.0, 65)
    X, Y = g.meshgrid()
    free = np.hypot(X, Y) < 0.9
    x = np.ones((g.nx, g.ny))
    scalar, _, _ = e2d._mg_pcg(x, free, 50.0, g.h)
    array, _, _ = e2d._mg_pcg(x, free, np.full(x.shape, 50.0), g.h)
    assert np.max(np.abs(scalar - array)) <= 1e-12


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


def sor_only(monkeypatch, g, bdata, kappa):
    """The same solve by SOR on the fine grid itself."""
    with monkeypatch.context() as m:
        m.setattr(e2d, "_NEST_MIN", 10**9)
        return solve_system(g, *bdata, kappa)


@pytest.mark.parametrize(
    "bdata, kappa, bound",
    [(HALF, 1e2, 1e-10), (HALF, 1e3, 1e-10), (HALF, 1e4, 1e-10),
     (SADDLE, 1e2, 5e-10), (SADDLE, 1e3, 5e-10)],
    ids=["half-1e2", "half-1e3", "half-1e4", "saddle-1e2", "saddle-1e3"],
)
def test_newton_agrees_with_sor(monkeypatch, bdata, kappa, bound):
    g = square_grid(1.0, 129)
    pair = solve_system(g, *bdata, kappa)
    ref = sor_only(monkeypatch, g, bdata, kappa)
    assert [s.nx for s in pair.stages] == [65, 129]
    assert ref.newton_steps == 0 and ref.sweeps > 0
    assert np.max(np.abs(pair.u.values - ref.u.values)) <= bound
    assert np.max(np.abs(pair.v.values - ref.v.values)) <= bound


@pytest.mark.parametrize(
    "bdata, kappa",
    [(HALF, 1e2), (HALF, 1e5), (SADDLE, 1e3), (SADDLE, 1e5)],
    ids=["half-1e2", "half-1e5", "saddle-1e3", "saddle-1e5"],
)
def test_newton_invariants(bdata, kappa):
    # (Re z^2)^± at kappa = 1e5 is the Berestycki-Terracini-Wang-Wei
    # saddle, where Newton from the border data alone stalls
    g = square_grid(1.0, 129)
    pair = solve_system(g, *bdata, kappa)
    tol = SolveConfig().tol
    assert pair.residual <= tol
    assert _sup_residual(pair.u.values, pair.v.values, kappa, g.h) == pair.residual
    assert pair.u.values.min() >= 0.0
    assert pair.v.values.min() >= 0.0
    assert pair.energy_trace.size == pair.newton_steps
    assert np.all(np.diff(pair.energy_trace) <= 1e-12)
    assert pair.energy_trace[-1] == e2d.discrete_energy(pair.u.values, pair.v.values, kappa, g.h)
    assert pair.sweeps == pair.stages[0].sweeps > 0
    assert pair.newton_steps == sum(s.newton_steps for s in pair.stages)
    assert pair.cg_iterations == sum(s.cg_iterations for s in pair.stages)


@pytest.mark.parametrize("n", [129, 257])
@pytest.mark.parametrize("bdata", [HALF, SADDLE], ids=["half", "saddle"])
def test_newton_steps_per_level(n, bdata):
    g = square_grid(1.0, n)
    pair = solve_system(g, *bdata, 1e3)
    assert [(s.nx, s.ny) for s in pair.stages][1:] == [(m, m) for m in (129, 257) if m <= n]
    for stage in pair.stages[1:]:
        assert 1 <= stage.newton_steps <= 5
        assert stage.cg_iterations <= 30 * stage.newton_steps
        assert stage.sweeps == 0


def test_nesting_needs_odd_node_counts():
    # an even axis cannot be halved onto the even nodes: SOR alone
    g = Grid2D(130, 67, 2.0 / 129, origin=(-1.0, -0.5))
    pair = solve_system(g, *HALF, 100.0)
    assert [(s.nx, s.ny) for s in pair.stages] == [(130, 67)]
    assert pair.newton_steps == 0 and pair.residual <= SolveConfig().tol


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
