"""Fixtures shared by several test modules, built once per session.

No test writes into their arrays: the library never writes into a
Field's values, and the x-axis extensions of profile128 are read-only
views."""

import tracemalloc

import pytest

from segsym.grid import square_grid
from segsym.presets import linear_pair
from segsym.profile1d import solve_profile


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc traced during
    the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="session")
def lin513():
    """The half-plane pair on square_grid(1.0, 513)."""
    g = square_grid(1.0, 513)
    u, v = linear_pair(g)
    return g, u, v


@pytest.fixture(scope="session")
def profile128():
    """The profile that criteria 10-12 extend onto square_grid(128.0, 2049)."""
    return solve_profile(128.0, 0.0625)
