"""The stop rule shared by the iterative loops (_util.Progress)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segsym._util import _STALL_FACTOR, _STALL_STEPS, Progress
from segsym.errors import NoConvergence


def run(progress, residuals):
    """Feed residuals to the guard until it reports convergence; returns
    the step at which it did, or None if the sequence ran out."""
    for steps, res in enumerate(residuals):
        if progress.done(res, steps):
            return steps
    return None


@given(
    floor=st.floats(1e-300, 1e300),
    factor=st.floats(_STALL_FACTOR, 1e6),
    scaled=st.lists(st.floats(0.0, 1e3), max_size=50),
)
def test_tol_at_ten_floors_never_stalls(floor, factor, scaled):
    # a residual within _STALL_FACTOR of the floor has already met tol,
    # so no sequence of residuals can end in a stall
    tol = factor * floor
    progress = Progress("loop", tol, len(scaled) + 1, floor, "f")
    residuals = [s * floor for s in scaled]
    got = run(progress, residuals)
    first_met = next((k for k, r in enumerate(residuals) if r <= tol), None)
    assert got == first_met


def test_convergence_at_the_cap_wins():
    assert run(Progress("loop", 1.0, 3), [4.0, 3.0, 2.0, 0.5]) == 3
    with pytest.raises(NoConvergence, match="loop") as exc:
        run(Progress("loop", 1.0, 3), [4.0, 3.0, 2.0, 1.5])
    assert exc.value.iterations == 3
    assert exc.value.residual == 1.5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_residual_raises_with_the_step_count(bad):
    progress = Progress("loop", 1.0, 100)
    with pytest.raises(NoConvergence, match="loop hit a non-finite residual") as exc:
        run(progress, [4.0, 3.0, 2.0, bad])
    assert exc.value.iterations == 3
    assert not math.isfinite(exc.value.residual)


def test_stall_at_the_floor_names_tol_and_floor():
    # the best residual is 2; then _STALL_STEPS residuals within
    # _STALL_FACTOR floors set no new best
    residuals = [50.0, 2.0] + [3.0] * _STALL_STEPS
    with pytest.raises(NoConvergence, match="loop stalled") as exc:
        run(Progress("loop", 0.1, 100, 1.0, "φ"), residuals)
    assert exc.value.iterations == 1 + _STALL_STEPS
    assert "tol 1.000e-01, round-off floor φ ≈ 1.000e+00" in str(exc.value)


def test_no_stall_far_above_the_floor_or_without_one():
    residuals = [50.0, 2.0] + [3.0] * 10
    assert run(Progress("loop", 0.1, 100), residuals) is None
    assert run(Progress("loop", 0.1, 100, 0.1, "φ"), residuals) is None


def test_escape_resets_the_best_residual():
    progress = Progress("loop", 0.1, 100, 1.0, "φ")
    assert not progress.done(2.0, 0)
    assert not progress.done(3.0, 1)  # no new best: one stalled residual
    # without the escape, the next residual without a new best stalls
    stuck = Progress("loop", 0.1, 100, 1.0, "φ")
    run(stuck, [2.0, 3.0])
    with pytest.raises(NoConvergence, match="stalled"):
        stuck.done(4.0, 2)
    progress.escape(2, 3.0)
    # the escape restarts the count: 4 is a new best after it, and one
    # more residual without a new best is not yet a stall
    assert not progress.done(4.0, 2)
    assert not progress.done(5.0, 3)


def test_escape_spends_the_budget():
    progress = Progress("loop", 0.1, 2)
    assert not progress.done(2.0, 0)
    with pytest.raises(NoConvergence) as exc:
        progress.escape(2, 0.05)
    assert exc.value.iterations == 2
