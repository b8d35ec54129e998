"""The three workloads: input building (set-up), one pass of public
segsym calls with its correctness gate, and the per-layer metrics each
pass yields from its spans.

Every pass is a closed loop on one thread of the benchmark: each call
starts when the one before it returns.  The only parallelism is the
library's own default worker pool.  The clauses and tolerances are the
acceptance suite's (criterion numbers in the comments) or, where named,
the unit tests'; none is new.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import segsym as ss
from harness import Gate, Tracer, layer_seconds, op_key, span_count

ORIGIN = (0.0, 0.0)

# (unit, better) of every per-layer metric; BENCHMARK.json lists the same.
# A workload that does not exercise a layer reports 0 for it.
PER_LAYER = {
    "profile1d.solve_s": ("s", "lower"),
    "profile1d.extend_s": ("s", "lower"),
    "profile1d.residual": ("sup", "lower"),
    "profile1d.failed": ("count", "lower"),
    "elliptic2d.solve_s.k1e2": ("s", "lower"),
    "elliptic2d.solve_s.k1e3": ("s", "lower"),
    "elliptic2d.sweeps.k1e2": ("count", "lower"),
    "elliptic2d.sweeps.k1e3": ("count", "lower"),
    "elliptic2d.sweeps_per_s": ("1/s", "higher"),
    "elliptic2d.residual": ("sup", "lower"),
    "elliptic2d.bytes_computed": ("bytes", "lower"),
    "elliptic2d.linear_decay_s": ("s", "lower"),
    "elliptic2d.failed": ("count", "lower"),
    "grid.shell_integral_s": ("s", "lower"),
    "grid.ball_integral_s": ("s", "lower"),
    "grid.quadrature_calls": ("count", "lower"),
    "grid.failed": ("count", "lower"),
    "diagnostics.trace_s": ("s", "lower"),
    "diagnostics.trace_radii": ("count", "lower"),
    "diagnostics.oracles_s": ("s", "lower"),
    "diagnostics.harmonic_deficit_s": ("s", "lower"),
    "diagnostics.interface_N_s": ("s", "lower"),
    "diagnostics.cone_s": ("s", "lower"),
    "diagnostics.product_bounds_s": ("s", "lower"),
    "diagnostics.failed": ("count", "lower"),
    "blowdown.direction_convergence_s": ("s", "lower"),
    "blowdown.radii": ("count", "lower"),
    "blowdown.failed": ("count", "lower"),
    "sphere.kappa_sweep_s": ("s", "lower"),
    "sphere.iterations.k1e2": ("count", "lower"),
    "sphere.iterations.k1e3": ("count", "lower"),
    "sphere.iterations.k1e4": ("count", "lower"),
    "sphere.serial_minimize_s": ("s", "lower"),
    "sphere.pool_ratio": ("ratio", "lower"),
    "sphere.failed": ("count", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

LAYERS = ("profile1d", "elliptic2d", "grid", "diagnostics", "blowdown", "sphere")


def _tag(kappa: float) -> str:
    return f"k1e{round(math.log10(kappa))}"


# ---------------------------------------------------------------------------
# pair_solve: criteria 3, 4 and 6 on the two solved 129^2 pairs

PAIR_KAPPAS = (1e2, 1e3)
RADII_N = np.linspace(0.1, 0.45, 8)
RADII_H = np.linspace(0.1, 0.9, 17)
RADII_J = np.linspace(0.1, 0.45, 8)
DOUBLING_R1 = (0.1, 0.15, 0.2, 0.3, 0.45)
ACF_RANGE_C = 10.0  # criterion 6
ENERGY_RISE = 1e-12  # tests/test_elliptic2d.py: the energy trace never rises


def pair_solve_setup(seed: int) -> dict:
    fu, fv = ss.linear_pair_bdata()
    return {"grid": ss.square_grid(1.0, 129), "fu": fu, "fv": fv, "cfg": ss.SolveConfig()}


def pair_solve_pass(inp: dict, tr: Tracer, gate: Gate) -> dict:
    g, cfg = inp["grid"], inp["cfg"]
    out = {}
    for kappa in PAIR_KAPPAS:
        tag = _tag(kappa)
        with tr.group("phase.solve", tag):
            op = op_key("elliptic2d.solve_system", tag)
            pair = tr.call(ss.solve_system, g, inp["fu"], inp["fv"], kappa, cfg, tag=tag)
            rise = float(np.max(np.diff(pair.energy_trace))) if pair.energy_trace.size > 1 else 0.0
            gate.le(op, f"residual_{tag}", pair.residual, ss.SolveConfig().tol)
            gate.le(op, f"energy_rise_{tag}", rise, ENERGY_RISE)
        with tr.group("phase.trace", tag):
            eps = tr.call(ss.eps_mono, g, tag=tag)
            n_tr = tr.call(ss.frequency_trace, pair.u, pair.v, kappa, ORIGIN, RADII_N, tag=tag)
            gate.ge(op_key("diagnostics.frequency_trace", tag), f"min_pairwise_slope_{tag}",
                    n_tr.min_pairwise_slope(), -eps)  # criterion 3
            h_tr = tr.call(ss.functional_trace, "H", pair.u, pair.v, kappa, ORIGIN, RADII_H, tag=tag)
            ratios = []
            for r1 in DOUBLING_R1:  # criterion 4
                chk = tr.call(ss.check_doubling, h_tr, 1.0, r1, 2.0 * r1, tag=f"{tag}_r{r1:g}")
                ratios.append(chk.ratio)
                gate.le(op_key("diagnostics.functional_trace", tag), f"doubling_{tag}_r{r1:g}",
                        chk.ratio / chk.bound, 1.0)
            j_tr, cfit = tr.call(ss.acf_trace_and_fit, pair.u, pair.v, kappa, ORIGIN, RADII_J, tag=tag)
            op = op_key("diagnostics.acf_trace_and_fit", tag)  # criterion 6
            gate.finite(op, f"C_fit_{tag}", cfit)
            gate.within(op, f"J_min_{tag}", j_tr.values.min(), 1.0 / ACF_RANGE_C, ACF_RANGE_C)
            gate.within(op, f"J_max_{tag}", j_tr.values.max(), 1.0 / ACF_RANGE_C, ACF_RANGE_C)
        out[f"sweeps.{tag}"] = pair.sweeps
        out[f"residual.{tag}"] = pair.residual
        out[f"energy.{tag}"] = pair.energy_trace[-1] if pair.energy_trace.size else math.nan
        out[f"N.{tag}"] = n_tr.values
        out[f"H.{tag}"] = h_tr.values
        out[f"doubling.{tag}"] = ratios
        out[f"J.{tag}"] = j_tr.values
        out[f"C_fit.{tag}"] = cfit
    return out


def pair_solve_layers(spans, selfs, out, inp) -> dict:
    g = inp["grid"]
    m = {}
    solve_s = 0.0
    sweeps = 0
    for kappa in PAIR_KAPPAS:
        tag = _tag(kappa)
        t = layer_seconds(spans, selfs, "elliptic2d.solve_system", tag=tag)
        m[f"elliptic2d.solve_s.{tag}"] = t
        m[f"elliptic2d.sweeps.{tag}"] = out[f"sweeps.{tag}"]
        solve_s += t
        sweeps += out[f"sweeps.{tag}"]
    m["elliptic2d.sweeps_per_s"] = sweeps / solve_s
    m["elliptic2d.residual"] = max(out[f"residual.{_tag(k)}"] for k in PAIR_KAPPAS)
    # computed, not measured: each sweep relaxes u and v, each relaxation
    # reads both 8-byte fields and writes one, over the whole lattice
    m["elliptic2d.bytes_computed"] = sweeps * 2 * 3 * 8 * g.nx * g.ny
    traces = ("diagnostics.frequency_trace", "diagnostics.functional_trace",
              "diagnostics.acf_trace_and_fit")
    m["diagnostics.trace_s"] = layer_seconds(spans, selfs, traces)
    m["diagnostics.trace_radii"] = len(PAIR_KAPPAS) * (RADII_N.size + RADII_H.size + RADII_J.size)
    return m


# ---------------------------------------------------------------------------
# sphere_sweep: criterion 8 at m = 256

SWEEP_KAPPAS = (1e2, 1e3, 1e4)
SWEEP_M = 256


def sphere_sweep_setup(seed: int) -> dict:
    # The random starts always use the suite's seed (criterion 8 runs
    # with SolveConfig().seed).  Their cost depends on the seed: one
    # sweep took 23 s to 37 s over seeds 1..5, a spread wider than the
    # bounds in BENCHMARK.json, so the workload seed is only recorded.
    return {"cfg": ss.SolveConfig()}


def sphere_sweep_pass(inp: dict, tr: Tracer, gate: Gate) -> dict:
    op = "sphere.kappa_sweep"
    with tr.group("phase.sweep"):
        fit = tr.call(ss.kappa_sweep, list(SWEEP_KAPPAS), 1.0, SWEEP_M, inp["cfg"])
    reports = fit.reports
    for rep in reports:
        gate.le(op, f"value_{_tag(rep.kappa)}", rep.value, 2.0 + 1e-6)
    gate.le(op, "deficit_exponent", fit.exponent, -0.2)
    seg_slope = float(np.polyfit(np.log(fit.kappas), np.log([r.seg for r in reports]), 1)[0])
    gate.within(op, "seg_exponent", seg_slope, -0.65, -0.35)
    # the multipliers at kappa = 1e4 are the known red of criterion 8:
    # recorded as outputs, not gated
    out = {"exponent": fit.exponent, "C": fit.C, "seg_exponent": seg_slope}
    for rep in reports:
        tag = _tag(rep.kappa)
        out[f"value.{tag}"] = rep.value
        out[f"mult1.{tag}"] = rep.mult1
        out[f"mult2.{tag}"] = rep.mult2
        out[f"seg.{tag}"] = rep.seg
        out[f"iterations.{tag}"] = rep.iterations
    return out


def sphere_serial_baseline(inp: dict, tr: Tracer, gate: Gate, out: dict) -> None:
    """The same three minimizations in a plain loop: the single-thread
    baseline for the pool.  Results must equal the pooled ones."""
    with tr.group("phase.serial"):
        for kappa in SWEEP_KAPPAS:
            tag = _tag(kappa)
            rep = tr.call(ss.minimize_spherical, kappa, 1.0, SWEEP_M, inp["cfg"], tag=tag)
            op = op_key("sphere.minimize_spherical", tag)
            gate.equal(op, f"serial_value_{tag}", rep.value, out[f"value.{tag}"])
            gate.equal(op, f"serial_iterations_{tag}", rep.iterations, out[f"iterations.{tag}"])


def sphere_sweep_layers(spans, selfs, out, inp) -> dict:
    m = {"sphere.kappa_sweep_s": layer_seconds(spans, selfs, "sphere.kappa_sweep")}
    for kappa in SWEEP_KAPPAS:
        m[f"sphere.iterations.{_tag(kappa)}"] = out[f"iterations.{_tag(kappa)}"]
    serial = layer_seconds(spans, selfs, "sphere.minimize_spherical", phase="serial")
    if serial > 0.0:
        m["sphere.serial_minimize_s"] = serial
        m["sphere.pool_ratio"] = m["sphere.kappa_sweep_s"] / serial
    return m


# ---------------------------------------------------------------------------
# field_diagnostics: criteria 1, 2, 5, 10, 11 and 12 on large fields

INTERFACE_POINTS = ((0.0, -48.0), (0.0, 0.0), (0.0, 48.0))
INTERFACE_RADII = (2.0, 4.0, 8.0)
ORACLE_RADII = (0.3, 0.5, 0.7, 0.9)
DECAY_M = (10.0, 100.0, 1000.0)
HARMONIC_C = 1.0  # criterion 2


def field_diagnostics_setup(seed: int) -> dict:
    g513 = ss.square_grid(1.0, 513)
    u513, v513 = ss.linear_pair(g513)
    g321 = ss.square_grid(1.6, 321)
    X, Y = g321.meshgrid()
    X5, _ = g513.meshgrid()
    g2049 = ss.square_grid(128.0, 2049)
    return {
        "cfg": ss.SolveConfig(),
        "cfg_profile": ss.SolveConfig(tol=1e-10),
        "g2049": g2049,
        # the central half window of the 2049^2 grid (criterion 11)
        "half_grid": ss.Grid2D(1025, 1025, g2049.h, (-64.0, -64.0)),
        "g513": g513,
        "u513": u513,
        "v513": v513,
        # quadrature oracles on the half-plane pair: u^2 + v^2 = x^2, so
        # its shell integral is pi r^3 and its ball integral pi r^4 / 4
        "x2_513": ss.Field(g513, X5**2),
        "g321": g321,
        "inside321": np.hypot(X, Y) <= 1.0,
    }


def _profile_structure(p, x0, gate):
    """Criterion 1 clauses on the [-20, 20] profile."""
    op = op_key("profile1d.solve_profile", "L20")
    gate.le(op, "profile_residual", p.residual, 1e-10)
    mirror = 2.0 * x0 - p.x
    mask = (mirror >= p.x[0]) & (mirror <= p.x[-1])
    refl = float(np.max(np.abs(p.interp_u(mirror[mask]) - p.v[mask])))
    gate.le(op, "reflection_sup", refl, 1e-3)
    gate.le(op, "u_monotone_violation", max(0.0, -float(np.min(np.diff(p.u)))), 1e-10)
    gate.le(op, "v_monotone_violation", max(0.0, float(np.max(np.diff(p.v)))), 1e-10)
    sel = (p.x >= 1.0) & (p.x <= 14.0)
    rate = float(np.polyfit(p.x[sel], np.log(p.u[sel] * p.v[sel]), 1)[0])
    gate.lt(op, "uv_decay_rate", rate, 0.0)
    return {"crossing": x0, "reflection": refl, "uv_decay_rate": rate}


def field_diagnostics_pass(inp: dict, tr: Tracer, gate: Gate) -> dict:
    out = {}
    with tr.group("phase.profile"):
        p20 = tr.call(ss.solve_profile, 20.0, 0.05, inp["cfg_profile"], tag="L20")
        x0 = tr.call(ss.crossing_point, p20)
        out.update(_profile_structure(p20, x0, gate))
        prof = tr.call(ss.solve_profile, 128.0, 0.0625, inp["cfg_profile"], tag="L128")
        # profile_pair in segsym.presets is a one-line delegate to this call
        u, v = tr.call(ss.extend_to_2d, prof, inp["g2049"], (1.0, 0.0))
        out["profile_residual"] = [p20.residual, prof.residual]
    g = u.grid

    with tr.group("phase.blowdown"):  # criterion 10
        records, gap = tr.call(ss.direction_convergence, u, v, [8.0, 16.0, 32.0])
        op = "blowdown.direction_convergence"
        gate.le(op, "cauchy_gap_deg", math.degrees(gap), 2.0)
        flats = [r.flatness for r in records]
        gate.le(op, "flatness_increase", max(b - a for a, b in zip(flats[:-1], flats[1:])), 0.0)
        rads = np.array([r.R for r in records])
        slope = float(np.polyfit(np.log(rads), np.log([r.deficit for r in records]), 1)[0])
        gate.le(op, "deficit_loglog_slope", slope, -0.3)
        l_slope = float(np.polyfit(np.log(rads), np.log([r.L for r in records]), 1)[0])
        gate.ge(op, "L_loglog_slope", l_slope, 0.8)
        out["blowdown"] = [[r.R, r.L, r.e[0], r.e[1], r.flatness, r.deficit] for r in records]
        out["cauchy_gap"] = gap

    with tr.group("phase.interface"):  # criterion 10, frequency ceiling
        ceiling = 1.0 + tr.call(ss.eps_mono, g)
        interface_N = []
        for pt in INTERFACE_POINTS:
            for r in INTERFACE_RADII:
                tag = f"{pt[1]:g}_r{r:g}"
                val = tr.call(ss.almgren_N, u, v, 1.0, pt, r, tag=tag)
                gate.le(op_key("diagnostics.almgren_N", tag), f"interface_N_{tag}", val, ceiling)
                interface_N.append(val)
        out["interface_N"] = interface_N

    with tr.group("phase.segregation"):  # criterion 11
        hu = tr.call(ss.Field, inp["half_grid"], u.values[512:1537, 512:1537], tag="half_u")
        hv = tr.call(ss.Field, inp["half_grid"], v.values[512:1537, 512:1537], tag="half_v")
        full = tr.call(ss.product_bounds, u, v, tag="full")
        half = tr.call(ss.product_bounds, hu, hv, tag="half")
        op = op_key("diagnostics.product_bounds", "full")
        gate.within(op, "sup_uv_ratio", full.sup_uv / half.sup_uv, 1.0 / 1.25, 1.25)
        gate.within(op, "sup_mixed_ratio", full.sup_mixed / half.sup_mixed, 1.0 / 1.25, 1.25)
        gate.le(op, "mass_exponent_full", full.mass_exponent, 1.3)
        gate.le(op_key("diagnostics.product_bounds", "half"), "mass_exponent_half",
                half.mass_exponent, 1.3)
        out["product_bounds"] = [full.sup_uv, full.sup_mixed, full.mass_exponent,
                                 half.sup_uv, half.sup_mixed, half.mass_exponent]
        del hu, hv

    with tr.group("phase.cone"):  # criterion 12
        tol = 5.0 * g.h
        viol = tr.call(ss.cone_monotonicity, u, v, (1.0, 0.0), 0.75)
        gate.le("diagnostics.cone_monotonicity", "cone_violation", viol, tol)
        gu = tr.call(ss.gradient, u, tag="u")
        gv = tr.call(ss.gradient, v, tag="v")
        transverse = max(float(np.max(np.abs(gu.vy[1:-1, 1:-1]))),
                         float(np.max(np.abs(gv.vy[1:-1, 1:-1]))))
        gate.le(op_key("grid.gradient", "v"), "transverse_derivative_sup", transverse, tol)
        out["cone"] = [viol, transverse]
        del gu, gv
    del u, v

    g5, u5, v5 = inp["g513"], inp["u513"], inp["v513"]
    tol = 5.0 * g5.h  # criterion 2
    with tr.group("phase.oracles"):
        rows = []
        for r in ORACLE_RADII:
            tag = f"r{r:g}"
            H = tr.call(ss.almgren_H, u5, v5, ORIGIN, r, tag=tag)
            N = tr.call(ss.almgren_N, u5, v5, 1.0, ORIGIN, r, tag=tag)
            J = tr.call(ss.acf_J, u5, v5, 1.0, ORIGIN, r, tag=tag)
            L = tr.call(ss.compute_L, u5, v5, r, tag=tag)
            shell = tr.call(ss.shell_integral, inp["x2_513"], ORIGIN, r, tag=tag)
            ball = tr.call(ss.ball_integral, inp["x2_513"], ORIGIN, r, tag=tag)
            pi_r2 = math.pi * r * r
            gate.le(op_key("diagnostics.almgren_H", tag), f"H_rel_err_{tag}", abs(H - pi_r2) / pi_r2, tol)
            gate.le(op_key("diagnostics.almgren_N", tag), f"N_err_{tag}", abs(N - 1.0), tol)
            gate.le(op_key("diagnostics.acf_J", tag), f"J_rel_err_{tag}",
                    abs(J - math.pi**2 / 4) / (math.pi**2 / 4), tol)
            sq_pi_r = math.sqrt(math.pi) * r
            gate.le(op_key("blowdown.compute_L", tag), f"L_rel_err_{tag}", abs(L - sq_pi_r) / sq_pi_r, tol)
            gate.le(op_key("grid.shell_integral", tag), f"shell_rel_err_{tag}",
                    abs(shell - math.pi * r**3) / (math.pi * r**3), tol)
            gate.le(op_key("grid.ball_integral", tag), f"ball_rel_err_{tag}",
                    abs(ball - math.pi * r**4 / 4) / (math.pi * r**4 / 4), tol)
            rows.append([r, H, N, J, L, shell, ball])
        out["oracles"] = rows
    with tr.group("phase.harmonic"):
        hd = tr.call(ss.harmonic_deficit, u5, v5, ORIGIN, 0.5, inp["cfg"])
        gate.le("diagnostics.harmonic_deficit", "harmonic_deficit", hd, HARMONIC_C * g5.h)
        out["harmonic_deficit"] = hd

    with tr.group("phase.decay"):  # criterion 5
        sups = []
        for M in DECAY_M:
            w = tr.call(ss.solve_linear_decay, M, 1.0, 1.5, inp["g321"], tag=f"M{M:g}")
            sups.append(float(np.max(w.values[inp["inside321"]])))
        roots = np.sqrt(np.array(DECAY_M))
        corr = float(np.corrcoef(roots, np.log(sups))[0, 1])
        slope = float(np.polyfit(roots, np.log(sups), 1)[0])
        op = op_key("elliptic2d.solve_linear_decay", f"M{DECAY_M[-1]:g}")
        gate.le(op, "decay_correlation", corr, -0.999)
        gate.lt(op, "decay_slope", slope, 0.0)
        out["decay"] = sups
    return out


def field_diagnostics_layers(spans, selfs, out, inp) -> dict:
    quad = ("grid.shell_integral", "grid.ball_integral")
    return {
        "profile1d.solve_s": layer_seconds(spans, selfs, "profile1d.solve_profile"),
        "profile1d.extend_s": layer_seconds(spans, selfs, "profile1d.extend_to_2d"),
        "profile1d.residual": max(out["profile_residual"]),
        "elliptic2d.linear_decay_s": layer_seconds(spans, selfs, "elliptic2d.solve_linear_decay"),
        "grid.shell_integral_s": layer_seconds(spans, selfs, "grid.shell_integral"),
        "grid.ball_integral_s": layer_seconds(spans, selfs, "grid.ball_integral"),
        "grid.quadrature_calls": span_count(spans, quad),
        "diagnostics.oracles_s": layer_seconds(
            spans, selfs, ("diagnostics.almgren_H", "diagnostics.almgren_N", "diagnostics.acf_J"),
            phase="oracles"),
        "diagnostics.harmonic_deficit_s": layer_seconds(spans, selfs, "diagnostics.harmonic_deficit"),
        "diagnostics.interface_N_s": layer_seconds(spans, selfs, "diagnostics.almgren_N", phase="interface"),
        "diagnostics.cone_s": layer_seconds(spans, selfs, "diagnostics.cone_monotonicity"),
        "diagnostics.product_bounds_s": layer_seconds(spans, selfs, "diagnostics.product_bounds"),
        "blowdown.direction_convergence_s": layer_seconds(spans, selfs, "blowdown.direction_convergence"),
        "blowdown.radii": len(out["blowdown"]),
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable  # seed -> inputs
    run: Callable  # (inputs, tracer, gate) -> numeric outputs of one pass
    layers: Callable  # (spans, self times, outputs, inputs) -> per-layer metrics
    count_keys: tuple = ()  # exact work counts among the outputs
    trace_extra: Callable | None = None  # runs after the traced pass only


WORKLOADS = {
    "pair_solve": Workload(
        pair_solve_setup, pair_solve_pass, pair_solve_layers, ("sweeps.k1e2", "sweeps.k1e3")
    ),
    "sphere_sweep": Workload(
        sphere_sweep_setup, sphere_sweep_pass, sphere_sweep_layers,
        ("iterations.k1e2", "iterations.k1e3", "iterations.k1e4"), sphere_serial_baseline,
    ),
    "field_diagnostics": Workload(
        field_diagnostics_setup, field_diagnostics_pass, field_diagnostics_layers
    ),
}
