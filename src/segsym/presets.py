"""Canonical field pairs and boundary data used throughout the tests
and the command line runner.

The one-dimensional half-plane pair u = (x·e)⁺, v = (x·e)⁻ solves the
system for every κ (the product uv vanishes identically), so it is the
reference object for exact checks.  The other canonical pair, the
planar extension of the 1D profile, is profile1d.extend_to_2d: a
genuine κ = 1 solution up to the profile's own residual.  The harmonic
pair (Re z^d)^± is the non-1D control: for d >= 2 it solves the κ → ∞
limit problem but is not one-dimensional.
"""

from __future__ import annotations

import operator

import numpy as np

from .grid import Field, Grid2D, _unit


def linear_pair_bdata(direction=(1.0, 0.0), amplitude: float = 1.0):
    """Vectorized callables for u = a·(x·e)⁺ and v = a·(x·e)⁻."""
    ex, ey = _unit(direction)
    a = float(amplitude)

    def fu(x, y):
        return a * np.maximum(x * ex + y * ey, 0.0)

    def fv(x, y):
        return a * np.maximum(-(x * ex + y * ey), 0.0)

    return fu, fv


def linear_pair(
    g: Grid2D, direction=(1.0, 0.0), amplitude: float = 1.0
) -> tuple[Field, Field]:
    """The half-plane pair sampled on the lattice."""
    fu, fv = linear_pair_bdata(direction, amplitude)
    X, Y = g.meshgrid()
    return Field(g, fu(X, Y)), Field(g, fv(X, Y))


def harmonic_pair(g: Grid2D, d: int) -> tuple[Field, Field]:
    """u = (Re z^d)⁺, v = (Re z^d)⁻ with z = x + iy, sampled on the
    lattice; d = 1 is the half-plane pair in direction e₁."""
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    X, Y = g.meshgrid()
    w = ((X + 1j * Y) ** d).real
    return Field(g, np.maximum(w, 0.0)), Field(g, np.maximum(-w, 0.0))
