"""Acceptance criteria: thirteen suite-level checks at frozen tolerances.

Each test runs one criterion through a shared SuiteContext so heavy
artifacts (solved pairs, the profile extension, the kappa sweep) are
built once.  Criterion 8's multiplier clause is asserted at its stated
5% band even though the converged multipliers at kappa = 1e4 still sit
about 7.5% below 1; that assertion fails by design rather than being
widened.  See the failure message for the measured gap.
"""

import math

import numpy as np
import pytest
from conftest import traced_peak

from segsym import acceptance
from segsym.grid import Field, VectorField, square_grid
from segsym.profile1d import extend_to_2d


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return acceptance.SuiteContext(tmp_path_factory.mktemp("accept"))


def run(ctx, k):
    res = acceptance.run_criterion(ctx, k)
    assert res.passed, "; ".join(res.failures())
    return res


def test_01_profile_structure(ctx):
    run(ctx, 1)


def test_02_linear_pair_oracles(ctx):
    run(ctx, 2)


def test_03_frequency_monotonicity(ctx):
    run(ctx, 3)


def test_04_doubling(ctx):
    run(ctx, 4)


def test_05_exponential_decay(ctx):
    run(ctx, 5)


def test_06_sharp_acf_fit(ctx):
    run(ctx, 6)


def test_07_rearrangement_laws(ctx):
    run(ctx, 7)


def test_08_spherical_minimization(ctx):
    res = acceptance.run_criterion(ctx, 8)
    by_label = {c.label: c for c in res.checks}
    for label in (
        "value_k100",
        "value_k1000",
        "value_k10000",
        "deficit_exponent",
        "seg_exponent",
        "runtime_s",
    ):
        c = by_label[label]
        assert c.ok, f"{c.label}: got {c.value:.10g}, wanted {c.requirement}"
    for label in ("mult1_at_1e4", "mult2_at_1e4"):
        c = by_label[label]
        assert c.ok, (
            f"{c.label}: got {c.value:.10g}, wanted {c.requirement}; the "
            "converged multiplier gap at kappa=1e4 is ~7.5% and closes "
            "like kappa^-0.24, so the 5% band is first reached between "
            "kappa=3e4 and 6e4"
        )


def test_09_gamma_identities(ctx):
    run(ctx, 9)


def test_10_blowdown_flatness(ctx):
    run(ctx, 10)


def test_11_segregation_bounds(ctx):
    run(ctx, 11)


def test_12_cone_monotonicity(ctx):
    run(ctx, 12)


@pytest.mark.parametrize("poisoned", [None, 0, 1])
def test_12_transverse_check_fails_on_a_nan_in_either_field(tmp_path, monkeypatch, poisoned):
    # the half-plane pair, whose d/dy is 0; a NaN in v's d/dy once passed,
    # as Python's max over (u, v) kept u's finite sup
    g = square_grid(1.0, 33)
    X, _ = g.meshgrid()
    u, v = Field(g, np.maximum(X, 0.0)), Field(g, np.maximum(-X, 0.0))
    real = acceptance.gradient

    def gradient(f):
        gf = real(f)
        if poisoned is None or f is not (u, v)[poisoned]:
            return gf
        vy = np.array(gf.vy)
        vy[16, 16] = math.nan
        return VectorField(f.grid, gf.vx, vy)

    monkeypatch.setattr(acceptance, "gradient", gradient)
    ctx = acceptance.SuiteContext(tmp_path)
    ctx.extension = (g, u, v)
    check = {c.label: c for c in acceptance.run_criterion(ctx, 12).checks}
    transverse = check["transverse_derivative_sup"]
    if poisoned is None:
        assert transverse.ok and transverse.value == 0.0
    else:
        assert not transverse.ok and math.isnan(transverse.value)


def test_12_transverse_check_allocates_no_field(profile128):
    # np.abs of each broadcast d/dy view once allocated a 2047^2 field
    # of zeros, 32 MiB traced
    u, v = extend_to_2d(profile128, square_grid(128.0, 2049), (1.0, 0.0))
    sup, peak = traced_peak(acceptance._transverse_sup, u, v)
    assert peak < 1 << 20
    # +0.0, the float np.abs gave, not the -0.0 of -min(d)
    assert math.copysign(1.0, sup) == 1.0 and sup == 0.0


def test_13_determinism(ctx):
    res = run(ctx, 13)
    assert [c.label for c in res.checks] == [
        "file_set_mismatch",
        "byte_mismatched_files",
        "files_compared",
    ]


def test_run_all_writes_results_csv(tmp_path, monkeypatch):
    # two fast stand-ins for the thirteen criteria, registered out of
    # order: run_all runs them by number and writes one row for each,
    # naming the failed checks of the one that fails
    failing = [
        acceptance.Check("a", False, 3.0, "<= 2"),
        acceptance.Check("b", True, 1.0, "<= 2"),
        acceptance.Check("c", False, 0.5, ">= 1"),
    ]
    passing = [acceptance.Check("x", True, 1.0, "== 1")]
    fakes = {
        2: lambda ctx: acceptance.CriterionResult("02 fails", False, 0.2, failing),
        1: lambda ctx: acceptance.CriterionResult("01 passes", True, 0.1, passing),
    }
    monkeypatch.setattr(acceptance, "_CRITERIA", fakes)
    results = acceptance.run_all(tmp_path)
    assert [r.name for r in results] == ["01 passes", "02 fails"]
    assert (tmp_path / "results.csv").read_text().splitlines() == [
        "# suite=acceptance",
        "criterion,passed,failed_checks",
        "01 passes,1,",
        "02 fails,0,a;c",
    ]
    assert results[0].failures() == []
    assert results[1].failures() == ["a: got 3, wanted <= 2", "c: got 0.5, wanted >= 1"]
