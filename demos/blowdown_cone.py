#!/usr/bin/env python3
"""Blow down the planar profile extension and watch it converge to the
one-plane cone: directions stabilize, flatness and the gradient deficit
decay, and the shell normalization L(R) grows linearly.

Run:  python3 demos/blowdown_cone.py
"""

import numpy as np

from segsym import (
    compute_L,
    direction_convergence,
    extend_to_2d,
    rescale,
    shell_integral,
    solve_profile,
    square_grid,
    Field,
)

print("building the profile extension (half width 32) ...")
prof = solve_profile(46.0, 0.05)
g = square_grid(32.0, 513)
u, v = extend_to_2d(prof, g, (1.0, 0.0))

radii = [4.0, 8.0, 16.0]
records, gap = direction_convergence(u, v, radii)

print()
print(f"{'R':>5}  {'L(R)':>9}  {'L/R':>7}  {'e':>20}  {'flatness':>9}  {'deficit':>9}")
for rec in records:
    e_txt = f"({rec.e[0]:+.4f}, {rec.e[1]:+.4f})"
    print(
        f"{rec.R:5g}  {rec.L:9.4f}  {rec.L / rec.R:7.4f}  {e_txt:>20}"
        f"  {rec.flatness:9.5f}  {rec.deficit:9.5f}"
    )
print(f"largest angle between consecutive directions: {np.degrees(gap):.3f} deg")
print("flatness shrinks as R grows: the rescaled pair approaches x+ / -x-")
print()

# rescaling by hand: u^R(x) = u(Rx) / L(R) has unit shell mass on |x| = 1
R = 8.0
target = square_grid(1.5, 257)
u_r, v_r, L = rescale(u, v, R, target)
sq = Field(target, u_r.values**2 + v_r.values**2)
mass = shell_integral(sq, (0.0, 0.0), 1.0)
print(f"rescaled at R = {R:g}: L = {L:.4f} (direct compute_L: {compute_L(u, v, R):.4f})")
print(f"shell mass of u_R^2 + v_R^2 on the unit circle: {mass:.6f} (exact: 1)")
print(f"sup u_R * v_R on the rescaled grid: {np.max(u_r.values * v_r.values):.3e}")
