"""Canonical field pairs and boundary data used throughout the tests
and the command line runner.

The one-dimensional half-plane pair u = (x·e)⁺, v = (x·e)⁻ solves the
system for every κ (the product uv vanishes identically), so it is the
reference object for exact checks.  The other canonical pair, the
planar extension of the 1D profile, is profile1d.extend_to_2d: a
genuine κ = 1 solution up to the profile's own residual.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, Grid2D


def _unit(direction) -> tuple[float, float]:
    dx, dy = float(direction[0]), float(direction[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return dx / norm, dy / norm


def linear_pair_bdata(direction=(1.0, 0.0), center=(0.0, 0.0), amplitude: float = 1.0):
    """Vectorized callables for u = a·((x-c)·e)⁺ and v = a·((x-c)·e)⁻."""
    ex, ey = _unit(direction)
    cx, cy = float(center[0]), float(center[1])
    a = float(amplitude)

    def fu(x, y):
        return a * np.maximum((x - cx) * ex + (y - cy) * ey, 0.0)

    def fv(x, y):
        return a * np.maximum(-((x - cx) * ex + (y - cy) * ey), 0.0)

    return fu, fv


def linear_pair(
    g: Grid2D, direction=(1.0, 0.0), center=(0.0, 0.0), amplitude: float = 1.0
) -> tuple[Field, Field]:
    """The half-plane pair sampled on the lattice."""
    fu, fv = linear_pair_bdata(direction, center, amplitude)
    X, Y = g.meshgrid()
    return Field(g, fu(X, Y)), Field(g, fv(X, Y))

