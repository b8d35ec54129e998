#!/usr/bin/env python3
"""Constrained minimization on the circle across the coupling strength:
the minimal value gamma(x) + gamma(y) climbs toward the ceiling 2, the
deficit 2 - value follows a power law in kappa, and the pair segregates.
Each row also shows the work: outer steps, inverse-iteration steps over
all ground-state solves, and wall seconds.

Run:  python3 demos/sphere_sweep.py    (0.5 s on a 2-CPU Xeon, mostly
imports; the three minimizations take about 0.03 s of it)
"""

import time

import numpy as np

from segsym import fit_deficit, gamma, minimize_spherical

KAPPAS = [1e2, 1e3, 1e4]
M = 256

print(f"sweeping kappa over {KAPPAS} at m = {M} cells ...")
reports, seconds = [], []
for kappa in KAPPAS:
    start = time.perf_counter()
    reports.append(minimize_spherical(kappa, 1.0, M))
    seconds.append(time.perf_counter() - start)
fit = fit_deficit(KAPPAS, [r.value for r in reports])

print()
print(
    f"{'kappa':>8}  {'value':>8}  {'2-value':>9}  {'mult1':>7}  {'mult2':>7}"
    f"  {'sup uv':>9}  {'iters':>5}  {'eigen':>5}  {'KKT':>8}  {'wall s':>7}"
)
for rep, sec in zip(reports, seconds):
    print(
        f"{rep.kappa:8g}  {rep.value:8.5f}  {2.0 - rep.value:9.5f}"
        f"  {rep.mult1:7.4f}  {rep.mult2:7.4f}  {rep.seg:9.5f}"
        f"  {rep.iterations:5d}  {rep.eigen_steps:5d}  {rep.kkt:8.1e}  {sec:7.4f}"
    )

print()
print(f"deficit fit:  2 - value  ~  {fit.C:.4f} * kappa^{fit.exponent:+.4f}")
seg_slope = np.polyfit(np.log(fit.kappas), np.log([r.seg for r in reports]), 1)[0]
print(f"segregation:  sup uv     ~  kappa^{seg_slope:+.4f}")
print()
print("the ceiling 2 = gamma(1) + gamma(1) belongs to the segregated")
print(f"half-circle pair; here gamma(1) = {gamma(1.0, 2):g} in dimension 2.")
print("multipliers drift toward 1 as kappa grows but close the last 5%")
print("only near kappa ~ 6e4; at 1e4 they still sit ~7.5% short.")
