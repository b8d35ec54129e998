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
    max_iter  cap before NoConvergence: of the 2D solve's SOR sweeps on
              its coarsest grid and of its Newton steps on each finer
              grid, and of the spherical descent's outer steps; the 1D
              Newton solve has its own cap (profile1d._NEWTON_MAX)

    No solver or minimizer draws random numbers; acceptance criterion 7
    seeds its own rearrangement trials (acceptance._REARRANGE_SEED).
    """

    tol: float = 1e-8
    max_iter: int = 200_000

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ConfigInvalid("tol", f"must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigInvalid("max_iter", f"must be >= 1, got {self.max_iter}")
