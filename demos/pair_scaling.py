#!/usr/bin/env python3
"""How the nested pair solve scales with the grid: half-plane and
(Re z²)^± boundary data at 129², 257² and 513².  The start grid (65²)
is solved by damped Newton from the border data and certified by its
second-variation ratio q; each finer grid starts from the bilinear
interpolation of the grid below and takes a few damped Newton steps,
whose count does not grow with the grid.  Each stage's line gives its
Newton steps, CG iterations, escapes and q (start grid only), and its
wall seconds.

Run:  python3 demos/pair_scaling.py    (~10 s)
"""

from segsym import harmonic_pair, solve_system, square_grid

KAPPAS = (1e2, 1e3)
SIZES = (129, 257, 513)

print(f"{'data':>11} {'kappa':>6} {'grid':>5}   {'stage':>5} {'Newton':>6} {'CG':>4}"
      f" {'escapes':>7} {'q':>6} {'seconds':>8}")
for name, d in (("half-plane", 1), ("(Re z^2)^±", 2)):
    for kappa in KAPPAS:
        for n in SIZES:
            g = square_grid(1.0, n)
            pair = solve_system(g, *harmonic_pair(g, d), kappa)
            for s in pair.stages:
                q = "" if s.q is None else f"{s.q:.3f}"
                print(f"{name:>11} {kappa:6g} {n:5d}   {s.nx:5d} {s.newton_steps:6d}"
                      f" {s.cg_iterations:4d} {s.escapes:7d} {q:>6} {s.seconds:8.3f}")
            print(f"{'':>11} {'':>6} {'':>5}   total {pair.seconds:.3f} s,"
                  f" residual {pair.residual:.1e}")
