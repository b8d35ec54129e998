"""Solver configuration shared by the solvers and the spherical minimizer."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigInvalid


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the iterative solvers.

    tol       sup-norm residual target of the 1D and 2D solves (not an
              energy delta); the spherical minimizer does not read it,
              it stops on its own KKT tolerance (sphere._KKT_TOL)
    max_iter  cap before NoConvergence: of the 2D solve's Newton steps
              on each grid and of its negative-curvature escapes on the
              start grid, and of the spherical descent's outer steps; the
              1D Newton solve has its own cap (profile1d._NEWTON_MAX).
              The default is 5x the most outer steps measured (3989, at
              kappa < 10 in the descent's property-test domain)

    No solver or minimizer draws random numbers; acceptance criterion 7
    seeds its own rearrangement trials (acceptance._REARRANGE_SEED).
    """

    tol: float = 1e-8
    max_iter: int = 20_000

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ConfigInvalid("tol", f"must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigInvalid("max_iter", f"must be >= 1, got {self.max_iter}")
