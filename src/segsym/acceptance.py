"""The acceptance suite: thirteen numbered checks with frozen tolerances.

Each criterion function measures one cluster of guarantees (profile
structure, closed-form oracles, monotonicity, decay, rearrangement,
minimization, blow-down, segregation, cone, determinism), writes one
self-describing CSV of its numeric checks, and returns the checks; the
`criterion` decorator registers it under its number, times it against
its runtime budget and builds the CriterionResult.  Artifacts shared
between criteria (solved pairs, the profile extension, the kappa sweep)
are cached properties of the context.

CSV conventions: `# key=value` meta lines, then a header row, then data
rows with floats at 17 significant digits.  Wall-clock runtimes are
reported on the results but kept out of the CSVs so a rerun is
byte-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import blowdown as bd
from . import diagnostics as dg
from ._util import write_csv
from .elliptic2d import solve_linear_decay, solve_system
from .grid import Field, Grid2D, gradient, square_grid
from .presets import linear_pair, linear_pair_bdata
from .profile1d import crossing_point, extend_to_2d, solve_profile
from .sphere import (
    dirichlet_energy,
    gamma,
    kappa_sweep,
    product_mass,
    rearrange_pair,
    uniform_pair,
)

# criterion 6: a priori two-sided bound for J on solved pairs, recorded
# in the run metadata
ACF_RANGE_C = 10.0

# criterion 2: harmonic replacement deficit allowance per unit h
HARMONIC_C = 1.0

_REARRANGE_TRIALS = 1000
_REARRANGE_SEED = 0

# criteria 3, 4 and 6: coupling constants of the solved pairs
_SOLVED_KAPPAS = (1e2, 1e3)

# criterion 8, spheremin and spheresweep: ceiling of the minimal γ(x) + γ(y)
_VALUE_CEILING = 2.0 + 1e-6


def _sweep_table(fit):
    """CSV header and rows of a κ-sweep, one row per minimization."""
    rows = [(r.kappa, r.value, r.mult1, r.mult2, r.seg) for r in fit.reports]
    return ["kappa", "value", "mult1", "mult2", "seg"], rows


def _blowdown_table(records):
    """CSV header and rows of direction_convergence's records."""
    rows = [(r.R, r.L, r.e[0], r.e[1], r.flatness, r.deficit) for r in records]
    return ["R", "L", "e_x", "e_y", "flatness", "deficit"], rows


@dataclass(frozen=True)
class Check:
    """One numeric comparison: value against a stated requirement."""

    label: str
    ok: bool
    value: float
    requirement: str


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float
    checks: list

    def failures(self):
        return [
            f"{c.label}: got {c.value:.10g}, wanted {c.requirement}"
            for c in self.checks
            if not c.ok
        ]


def _le(label, value, bound) -> Check:
    return Check(label, float(value) <= bound, float(value), f"<= {bound:g}")


def _ge(label, value, bound) -> Check:
    return Check(label, float(value) >= bound, float(value), f">= {bound:g}")


def _within(label, value, lo, hi) -> Check:
    v = float(value)
    return Check(label, lo <= v <= hi, v, f"in [{lo:g} .. {hi:g}]")


def _zero(label, count) -> Check:
    return Check(label, count == 0, float(count), "== 0")


def _finite(label, value) -> Check:
    return Check(label, math.isfinite(value), float(value), "finite")


class SuiteContext:
    """One suite run: an output directory plus cached heavy artifacts."""

    def __init__(self, outdir):
        self.outdir = Path(outdir)
        self.results = {}

    # ---------------- shared artifacts

    @cached_property
    def profile20(self):
        return solve_profile(20.0, 0.05)

    @cached_property
    def lin513(self):
        g = square_grid(1.0, 513)
        u, v = linear_pair(g)
        return g, u, v

    @cached_property
    def solved(self):
        """kappa -> pair solved on the 129² grid with half-plane data."""
        g = square_grid(1.0, 129)
        fu, fv = linear_pair_bdata()
        return {kappa: solve_system(g, fu, fv, kappa) for kappa in _SOLVED_KAPPAS}

    @cached_property
    def extension(self):
        prof = solve_profile(128.0, 0.0625)
        g = square_grid(128.0, 2049)
        u, v = extend_to_2d(prof, g, (1.0, 0.0))
        return g, u, v

    @cached_property
    def sweep(self):
        return kappa_sweep([1e2, 1e3, 1e4], 1.0, 512)

    # ---------------- emission

    def write_csv(self, name: str, meta: dict, header, rows) -> Path:
        path = self.outdir / name
        write_csv(path, meta, header, rows)
        return path

    def write_checks(self, name: str, meta: dict, checks) -> Path:
        return self.write_csv(
            name,
            meta,
            ["check", "value", "requirement", "ok"],
            [(c.label, c.value, c.requirement.replace(",", ";"), int(c.ok)) for c in checks],
        )


# ---------------------------------------------------------------------------
# criteria

_CRITERIA = {}


def criterion(name: str, budget_s: float | None):
    """Register a criterion body under the number that starts `name`.

    The body writes its CSVs and returns its checks; the registered
    runner times it, appends a `runtime_s` check against `budget_s`
    (none when the budget is None) and returns the CriterionResult."""

    def register(body):
        def run(ctx: SuiteContext) -> CriterionResult:
            t0 = time.perf_counter()
            checks = body(ctx)
            runtime = time.perf_counter() - t0
            if budget_s is not None:
                checks.append(_le("runtime_s", runtime, budget_s))
            return CriterionResult(name, all(c.ok for c in checks), runtime, checks)

        _CRITERIA[int(name.split()[0])] = run
        return run

    return register


@criterion("01 profile structure", 10.0)
def criterion_01(ctx: SuiteContext) -> list:
    """1D profile structure: residual, reflection symmetry, monotonicity,
    interface decay."""
    p = ctx.profile20
    checks = [_le("residual", p.residual, 1e-10)]
    x0 = crossing_point(p)
    mirror = 2.0 * x0 - p.x
    mask = (mirror >= p.x[0]) & (mirror <= p.x[-1])
    refl = float(np.max(np.abs(p.interp_u(mirror[mask]) - p.v[mask])))
    checks.append(_le("reflection_sup", refl, 1e-3))
    checks.append(_le("u_monotone_violation", max(0.0, -float(np.min(np.diff(p.u)))), 1e-10))
    checks.append(_le("v_monotone_violation", max(0.0, float(np.max(np.diff(p.v)))), 1e-10))
    sel = (p.x >= 1.0) & (p.x <= 14.0)
    rate = float(np.polyfit(p.x[sel], np.log(p.u[sel] * p.v[sel]), 1)[0])
    checks.append(Check("uv_decay_rate", rate < 0.0, rate, "< 0"))
    ctx.write_checks(
        "01_profile.csv",
        {"criterion": "profile_structure", "half_length": 20.0, "spacing": 0.05, "crossing": x0},
        checks,
    )
    return checks


@criterion("02 linear-pair oracles", 30.0)
def criterion_02(ctx: SuiteContext) -> list:
    """Closed-form oracle suite on the half-plane pair at h = 1/256."""
    g, u, v = ctx.lin513
    tol = dg.eps_mono(g)
    checks = []
    rows = []
    for r in (0.3, 0.5, 0.7, 0.9):
        H = dg.almgren_H(u, v, (0.0, 0.0), r)
        N = dg.almgren_N(u, v, 1.0, (0.0, 0.0), r)
        J = dg.acf_J(u, v, 1.0, (0.0, 0.0), r)
        L = bd.compute_L(u, v, r)
        rows.append((r, H, N, J, L))
        checks.append(_le(f"H_rel_err_r{r:g}", abs(H - math.pi * r * r) / (math.pi * r * r), tol))
        checks.append(_le(f"N_err_r{r:g}", abs(N - 1.0), tol))
        checks.append(_le(f"J_rel_err_r{r:g}", abs(J - math.pi**2 / 4) / (math.pi**2 / 4), tol))
        checks.append(
            _le(f"L_rel_err_r{r:g}", abs(L - math.sqrt(math.pi) * r) / (math.sqrt(math.pi) * r), tol)
        )
    hd = dg.harmonic_deficit(u, v, (0.0, 0.0), 0.5)
    checks.append(_le("harmonic_deficit", hd, HARMONIC_C * g.h))
    ctx.write_csv(
        "02_oracles_data.csv",
        {"criterion": "linear_oracles", "h": g.h, "tolerance_rel": tol},
        ["r", "H", "N", "J", "L"],
        rows,
    )
    ctx.write_checks("02_oracles.csv", {"criterion": "linear_oracles", "h": g.h}, checks)
    return checks


@criterion("03 frequency monotonicity", 120.0)
def criterion_03(ctx: SuiteContext) -> list:
    """Frequency monotonicity on solved pairs."""
    checks = []
    rows = []
    radii = np.linspace(0.1, 0.45, 8)
    eps = dg.eps_mono(ctx.solved[1e2].u.grid)
    for kappa, pair in ctx.solved.items():
        tr = dg.frequency_trace(pair.u, pair.v, kappa, (0.0, 0.0), radii)
        rows.extend((kappa, r, val) for r, val in zip(tr.radii, tr.values))
        checks.append(_ge(f"min_pairwise_slope_k{kappa:g}", tr.min_pairwise_slope(), -eps))
    ctx.write_csv(
        "03_frequency_data.csv",
        {"criterion": "frequency_monotonicity", "eps_mono": eps},
        ["kappa", "r", "N"],
        rows,
    )
    ctx.write_checks("03_frequency.csv", {"criterion": "frequency_monotonicity"}, checks)
    return checks


@criterion("04 doubling", 30.0)
def criterion_04(ctx: SuiteContext) -> list:
    """Doubling bound H(2r)/H(r) <= e (2)^2 on the solved pairs."""
    checks = []
    rows = []
    radii = np.linspace(0.1, 0.9, 17)
    for kappa, pair in ctx.solved.items():
        tr = dg.functional_trace("H", pair.u, pair.v, kappa, (0.0, 0.0), radii)
        for r1 in (0.1, 0.15, 0.2, 0.3, 0.45):
            chk = dg.check_doubling(tr, 1.0, r1, 2.0 * r1)
            rows.append((kappa, chk.r1, chk.r2, chk.ratio, chk.bound, int(chk.passed)))
            checks.append(_le(f"ratio_over_bound_k{kappa:g}_r{r1:g}", chk.ratio / chk.bound, 1.0))
    ctx.write_csv(
        "04_doubling_data.csv",
        {"criterion": "doubling", "d": 1.0},
        ["kappa", "r1", "r2", "ratio", "bound", "ok"],
        rows,
    )
    ctx.write_checks("04_doubling.csv", {"criterion": "doubling", "d": 1.0}, checks)
    return checks


@criterion("05 exponential decay", 60.0)
def criterion_05(ctx: SuiteContext) -> list:
    """Exponential decay of the linear comparison solve in sqrt(M)."""
    g = square_grid(1.6, 321)
    X, Y = g.meshgrid()
    inside = np.hypot(X, Y) <= 1.0
    Ms = np.array([10.0, 100.0, 1000.0])
    sups = []
    for M in Ms:
        w = solve_linear_decay(M, 1.0, 1.5, g)
        sups.append(float(np.max(w.values[inside])))
    sups = np.array(sups)
    roots = np.sqrt(Ms)
    corr = float(np.corrcoef(roots, np.log(sups))[0, 1])
    slope = float(np.polyfit(roots, np.log(sups), 1)[0])
    checks = [
        _le("correlation", corr, -0.999),
        Check("slope", slope < 0.0, slope, "< 0"),
    ]
    ctx.write_csv(
        "05_decay_data.csv",
        {"criterion": "exponential_decay", "R_outer": 1.5, "corr": corr, "slope": slope},
        ["M", "sup_B1"],
        list(zip(Ms, sups)),
    )
    ctx.write_checks("05_decay.csv", {"criterion": "exponential_decay"}, checks)
    return checks


@criterion("06 sharp ACF fit", 120.0)
def criterion_06(ctx: SuiteContext) -> list:
    """Sharp ACF correction fit: finite on solved pairs, zero on the
    half-plane pair, J two-sided bounded."""
    checks = []
    rows = []
    radii = np.linspace(0.1, 0.45, 8)
    for kappa, pair in ctx.solved.items():
        tr, cfit = dg.acf_trace_and_fit(pair.u, pair.v, kappa, (0.0, 0.0), radii)
        rows.extend((kappa, r, val) for r, val in zip(tr.radii, tr.values))
        checks.append(_finite(f"C_fit_k{kappa:g}", cfit))
        checks.append(_within(f"J_min_k{kappa:g}", tr.values.min(), 1.0 / ACF_RANGE_C, ACF_RANGE_C))
        checks.append(_within(f"J_max_k{kappa:g}", tr.values.max(), 1.0 / ACF_RANGE_C, ACF_RANGE_C))
    g, u, v = ctx.lin513
    _, cfit_lin = dg.acf_trace_and_fit(u, v, 1.0, (0.0, 0.0), np.linspace(0.3, 0.9, 7))
    checks.append(Check("C_fit_linear", cfit_lin == 0.0, cfit_lin, "== 0"))
    ctx.write_csv(
        "06_acf_data.csv",
        {"criterion": "acf_fit", "range_C": ACF_RANGE_C},
        ["kappa", "r", "J"],
        rows,
    )
    ctx.write_checks("06_acf.csv", {"criterion": "acf_fit", "range_C": ACF_RANGE_C}, checks)
    return checks


@criterion("07 rearrangement laws", 30.0)
def criterion_07(ctx: SuiteContext) -> list:
    """Rearrangement laws over random pairs: equimeasurability, energy
    and product descent, idempotence."""
    rng = np.random.default_rng(_REARRANGE_SEED)
    checks = []
    for n in (2, 3):
        equi_fail = 0
        idem_fail = 0
        worst_energy = -math.inf
        worst_product = -math.inf
        for _ in range(_REARRANGE_TRIALS):
            p = uniform_pair(n, 256, rng.uniform(0.0, 1.0, 256) ** 2, rng.uniform(0.0, 1.0, 256) ** 2)
            q = rearrange_pair(p)
            if n == 2:
                if not (
                    np.array_equal(np.sort(p.ubar), np.sort(q.ubar))
                    and np.array_equal(np.sort(p.vbar), np.sort(q.vbar))
                ):
                    equi_fail += 1
            else:
                total = float(np.sum(p.w))
                for f, f2 in ((p.ubar, q.ubar), (p.vbar, q.vbar)):
                    for t in np.quantile(f, (0.1, 0.35, 0.6, 0.85)):
                        m1 = float(np.sum(p.w[f > t]))
                        m2 = float(np.sum(q.w[f2 > t]))
                        if abs(m1 - m2) > 1e-12 * total:
                            equi_fail += 1
            e_before = dirichlet_energy(p, "u") + dirichlet_energy(p, "v")
            e_after = dirichlet_energy(q, "u") + dirichlet_energy(q, "v")
            worst_energy = max(worst_energy, (e_after - e_before) / max(1.0, e_before))
            p_before = product_mass(p)
            p_after = product_mass(q)
            worst_product = max(worst_product, (p_after - p_before) / max(1.0, p_before))
            qq = rearrange_pair(q)
            if not (
                np.array_equal(qq.ubar, q.ubar)
                and np.array_equal(qq.vbar, q.vbar)
                and np.array_equal(qq.alpha, q.alpha)
                and np.array_equal(qq.w, q.w)
            ):
                idem_fail += 1
        checks.append(_zero(f"equimeasurability_failures_n{n}", equi_fail))
        checks.append(_le(f"worst_energy_increase_n{n}", worst_energy, 1e-12))
        checks.append(_le(f"worst_product_increase_n{n}", worst_product, 1e-12))
        checks.append(_zero(f"idempotence_failures_n{n}", idem_fail))
    ctx.write_checks(
        "07_rearrangement.csv",
        {"criterion": "rearrangement", "trials_per_n": _REARRANGE_TRIALS, "m": 256, "seed": _REARRANGE_SEED},
        checks,
    )
    return checks


@criterion("08 spherical minimization", 300.0)
def criterion_08(ctx: SuiteContext) -> list:
    """Constrained spherical minimization across kappa: value ceiling,
    deficit decay exponent, multiplier normalization, segregation rate."""
    fit = ctx.sweep
    checks = [_le(f"value_k{rep.kappa:g}", rep.value, _VALUE_CEILING) for rep in fit.reports]
    checks.append(_le("deficit_exponent", fit.exponent, -0.2))
    top = fit.reports[-1]
    seg_slope = float(
        np.polyfit(np.log(fit.kappas), np.log([r.seg for r in fit.reports]), 1)[0]
    )
    ctx.write_csv(
        "08_sweep_data.csv",
        {"criterion": "spherical_minimization", "m": 512, "exponent": fit.exponent, "C": fit.C},
        *_sweep_table(fit),
    )
    checks.append(_within("seg_exponent", seg_slope, -0.65, -0.35))
    # the multiplier checks come last: at kappa = 1e4 the converged
    # multipliers still sit about 7.5% below 1 (the gap closes like
    # kappa^{-1/4}), so the 5% band is expected to fail; kept honest
    checks.append(_within("mult1_at_1e4", top.mult1, 0.95, 1.05))
    checks.append(_within("mult2_at_1e4", top.mult2, 0.95, 1.05))
    ctx.write_checks("08_sweep.csv", {"criterion": "spherical_minimization", "m": 512}, checks)
    return checks


@criterion("09 gamma identities", 1.0)
def criterion_09(ctx: SuiteContext) -> list:
    """Identities of the homogeneity map gamma."""
    checks = [Check("gamma_0", gamma(0.0, 2) == 0.0, gamma(0.0, 2), "== 0")]
    worst_unit = 0.0
    for n in range(2, 11):
        worst_unit = max(worst_unit, abs(gamma(float(n - 1), n) - 1.0))
    checks.append(_le("gamma_n_minus_1_err", worst_unit, 1e-12))
    worst_concavity = -math.inf
    xs = np.linspace(0.25, 25.0, 100)
    for n in range(2, 11):
        second = gamma(xs - 0.25, n) - 2.0 * gamma(xs, n) + gamma(xs + 0.25, n)
        worst_concavity = max(worst_concavity, float(np.max(second)))
    checks.append(_le("concavity_violation", worst_concavity, 1e-8))
    ctx.write_checks("09_gamma.csv", {"criterion": "gamma_identities"}, checks)
    return checks


@criterion("10 blow-down flatness", 300.0)
def criterion_10(ctx: SuiteContext) -> list:
    """Blow-down flatness, direction stability, gradient deficit decay,
    and the frequency ceiling at interface points."""
    g, u, v = ctx.extension
    records, gap = bd.direction_convergence(u, v, [8.0, 16.0, 32.0])
    checks = [_le("cauchy_gap_deg", math.degrees(gap), 2.0)]
    flats = [rec.flatness for rec in records]
    worst_flat_step = max(b - a for a, b in zip(flats[:-1], flats[1:]))
    checks.append(_le("flatness_increase", worst_flat_step, 0.0))
    defs = np.array([rec.deficit for rec in records])
    rads = np.array([rec.R for rec in records])
    slope = float(np.polyfit(np.log(rads), np.log(defs), 1)[0])
    checks.append(_le("deficit_loglog_slope", slope, -0.3))
    worst_N = -math.inf
    ceiling = 1.0 + dg.eps_mono(g)
    for pt in ((0.0, -48.0), (0.0, 0.0), (0.0, 48.0)):
        for r in (2.0, 4.0, 8.0):
            worst_N = max(worst_N, dg.almgren_N(u, v, 1.0, pt, r))
    checks.append(_le("interface_N_max", worst_N, ceiling))
    Ls = np.array([rec.L for rec in records])
    l_slope = float(np.polyfit(np.log(rads), np.log(Ls), 1)[0])
    checks.append(_ge("L_loglog_slope", l_slope, 0.8))
    ctx.write_csv(
        "10_blowdown_data.csv",
        {"criterion": "blowdown", "deficit_slope": slope, "L_slope": l_slope},
        *_blowdown_table(records),
    )
    ctx.write_checks("10_blowdown.csv", {"criterion": "blowdown"}, checks)
    return checks


@criterion("11 segregation bounds", 120.0)
def criterion_11(ctx: SuiteContext) -> list:
    """Segregation bounds: sup uv, sup mixed, and interaction-mass
    growth, stable under domain doubling."""
    g, u, v = ctx.extension
    half_grid = Grid2D(1025, 1025, g.h, (-64.0, -64.0))
    hu = Field(half_grid, u.values[512:1537, 512:1537])
    hv = Field(half_grid, v.values[512:1537, 512:1537])
    full = dg.product_bounds(u, v)
    half = dg.product_bounds(hu, hv)
    checks = [
        _within("sup_uv_ratio", full.sup_uv / half.sup_uv, 1.0 / 1.25, 1.25),
        _within("sup_mixed_ratio", full.sup_mixed / half.sup_mixed, 1.0 / 1.25, 1.25),
        _le("mass_exponent_full", full.mass_exponent, 1.3),
        _le("mass_exponent_half", half.mass_exponent, 1.3),
    ]
    ctx.write_csv(
        "11_segregation_data.csv",
        {"criterion": "segregation_bounds"},
        ["half_width", "sup_uv", "sup_mixed", "mass_exponent"],
        [
            (64.0, half.sup_uv, half.sup_mixed, half.mass_exponent),
            (128.0, full.sup_uv, full.sup_mixed, full.mass_exponent),
        ],
    )
    ctx.write_checks("11_segregation.csv", {"criterion": "segregation_bounds"}, checks)
    return checks


def _transverse_sup(u: Field, v: Field) -> float:
    """sup |∂_y u| and |∂_y v| off the border rows and columns, NaN if
    either derivative holds one.  Each view d is reduced as
    max(max d, -min d): np.abs(d) would allocate a field (of zeros, on
    the x-axis extension).  np.max keeps a NaN of either field, which
    Python's max drops unless it comes first; abs() turns the -0.0 of
    an all-zero d into 0.0."""
    ends = []
    for f in (u, v):
        d = gradient(f).vy[1:-1, 1:-1]
        ends += [np.max(d), -np.min(d)]
    return abs(float(np.max(ends)))


@criterion("12 cone monotonicity", 30.0)
def criterion_12(ctx: SuiteContext) -> list:
    """Cone of monotone directions around e1 and flatness of the
    transverse derivative."""
    g, u, v = ctx.extension
    tol = dg.eps_mono(g)
    viol = dg.cone_monotonicity(u, v, (1.0, 0.0), 0.75)
    transverse = _transverse_sup(u, v)
    checks = [
        _le("cone_violation_aperture_0.75", viol, tol),
        _le("transverse_derivative_sup", transverse, tol),
    ]
    ctx.write_checks("12_cone.csv", {"criterion": "cone_monotonicity", "tolerance": tol}, checks)
    return checks


def run_criterion(ctx: SuiteContext, index: int) -> CriterionResult:
    """Run criterion `index` (1-based, 1..13) once per context."""
    if index not in ctx.results:
        ctx.results[index] = _CRITERIA[index](ctx)
    return ctx.results[index]


@criterion("13 determinism", None)
def criterion_13(ctx: SuiteContext) -> list:
    """Run criteria 1..12 here and again in a sibling directory; every
    artifact CSV must be byte-identical."""
    rerun = SuiteContext(ctx.outdir / "rerun")
    for c in (ctx, rerun):
        for k in range(1, 13):
            run_criterion(c, k)
    names_a = sorted(p.name for p in ctx.outdir.glob("*.csv") if p.name != "results.csv")
    names_b = sorted(p.name for p in rerun.outdir.glob("*.csv") if p.name != "results.csv")
    checks = [_zero("file_set_mismatch", int(names_a != names_b))]
    mismatched = 0
    if names_a == names_b:
        for name in names_a:
            if (ctx.outdir / name).read_bytes() != (rerun.outdir / name).read_bytes():
                mismatched += 1
    checks.append(_zero("byte_mismatched_files", mismatched))
    checks.append(_ge("files_compared", len(names_a), 12.0))
    return checks


def run_all(outdir):
    """Full suite including determinism; writes results.csv and returns
    the thirteen CriterionResults in order."""
    ctx = SuiteContext(outdir)
    results = [run_criterion(ctx, k) for k in sorted(_CRITERIA)]
    # runtimes stay on the CriterionResults (and the CLI RESULT lines);
    # keeping them out of the CSV keeps reruns byte-identical
    rows = []
    for res in results:
        failed = ";".join(c.label for c in res.checks if not c.ok)
        rows.append((res.name, int(res.passed), failed))
    ctx.write_csv(
        "results.csv",
        {"suite": "acceptance"},
        ["criterion", "passed", "failed_checks"],
        rows,
    )
    return results
