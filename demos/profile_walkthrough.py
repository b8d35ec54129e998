#!/usr/bin/env python3
"""Walk through the 1D entire profile: solve it, check its structure,
lift it to the plane, and measure the frequency at interface points.

Run:  python3 demos/profile_walkthrough.py
"""

import numpy as np

from segsym import (
    SolveConfig,
    almgren_N,
    asymptotic_slope,
    crossing_point,
    eps_mono,
    extend_to_2d,
    solve_profile,
    square_grid,
)

print("== 1D profile ==")
p = solve_profile(20.0, 0.05, SolveConfig(tol=1e-10))
x0 = crossing_point(p)
sp, sm = asymptotic_slope(p)
print(f"residual        {p.residual:.3e}")
print(f"crossing point  {x0:+.3e}")
print(f"u(0) = v(0)     {p.interp_u(np.array([x0]))[0]:.6f}")
print(f"far-field slope {sp:+.6f} (u, right) / {sm:+.6f} (v, left)")

# reflection symmetry u(2 x0 - x) = v(x)
mirror = 2.0 * x0 - p.x
mask = (mirror >= p.x[0]) & (mirror <= p.x[-1])
refl = np.max(np.abs(p.interp_u(mirror[mask]) - p.v[mask]))
print(f"reflection sup  {refl:.3e}")

# the product uv dies exponentially away from the interface
sel = (p.x >= 1.0) & (p.x <= 14.0)
rate = np.polyfit(p.x[sel], np.log(p.u[sel] * p.v[sel]), 1)[0]
print(f"uv decay rate   {rate:+.4f} per unit length")

print()
print("== planar extension ==")
g = square_grid(16.0, 257)
u, v = extend_to_2d(p, g, (1.0, 0.0))
ceiling = 1.0 + eps_mono(g)
print(f"grid {g.nx}x{g.ny}, h = {g.h:g}, N ceiling 1 + 5h = {ceiling:g}")
print(f"{'point':>12}  {'r':>4}  {'N':>8}")
for pt in ((0.0, 0.0), (0.0, 6.0), (0.0, -6.0)):
    for r in (1.0, 2.0, 4.0):
        val = almgren_N(u, v, 1.0, pt, r)
        tag = "ok" if val <= ceiling else "OVER"
        print(f"{str(pt):>12}  {r:>4g}  {val:8.4f}  {tag}")
print("frequency stays at or below 1 along the interface, as it should")
