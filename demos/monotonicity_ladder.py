#!/usr/bin/env python3
"""Solve the planar system with half-plane boundary data and watch the
three monotone quantities climb: the frequency N, the doubling ratio of
H, and the corrected two-factor functional J.

Run:  python3 demos/monotonicity_ladder.py    (one solve, ~1 s)
"""

import numpy as np

from segsym import (
    acf_trace_and_fit,
    check_doubling,
    eps_mono,
    frequency_trace,
    functional_trace,
    linear_pair_bdata,
    solve_system,
    square_grid,
)

KAPPA = 100.0
CENTER = (0.0, 0.0)

g = square_grid(1.0, 129)
fu, fv = linear_pair_bdata()
print(f"solving on {g.nx}x{g.ny}, kappa = {KAPPA:g} ...")
pair = solve_system(g, fu, fv, KAPPA)
print(f"residual {pair.residual:.3e} after {pair.sweeps} sweeps")
print()

radii = np.linspace(0.1, 0.45, 8)
trace_N = frequency_trace(pair.u, pair.v, KAPPA, CENTER, radii)
trace_J, c_fit = acf_trace_and_fit(pair.u, pair.v, KAPPA, CENTER, radii)
eps = eps_mono(g)

print(f"{'r':>6}  {'N':>8}  {'J':>8}")
for r, n_val, j_val in zip(radii, trace_N.values, trace_J.values):
    print(f"{r:6.3f}  {n_val:8.4f}  {j_val:8.4f}")
print(f"min pairwise N slope {trace_N.min_pairwise_slope():+.4f}")
print(f"monotone within eps_mono = 5h = {eps:g}")
print(f"J correction constant C_fit = {c_fit:.4f}")
print(f"(e^(-C r^-1/2) J(r) is nondecreasing with that constant)")
print()

# H doubles no faster than e * 4^d with d = 1
trace_H = functional_trace("H", pair.u, pair.v, KAPPA, CENTER, np.linspace(0.1, 0.9, 17))
print(f"{'r1':>5}  {'r2':>5}  {'H ratio':>9}  {'bound':>9}")
for r1 in (0.1, 0.15, 0.2, 0.3, 0.45):
    chk = check_doubling(trace_H, 1.0, r1, 2.0 * r1)
    print(f"{chk.r1:5.2f}  {chk.r2:5.2f}  {chk.ratio:9.4f}  {chk.bound:9.4f}")
print("every ratio sits under the doubling bound e * (r2/r1)^2")
