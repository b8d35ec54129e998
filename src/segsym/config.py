"""Solver configuration shared by the solvers and the spherical minimizer."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigInvalid


@dataclass(frozen=True)
class SolveConfig:
    """The residual target of the iterative solvers.

    tol  sup-norm residual target of the 1D and 2D solves (not an
         energy delta); the spherical minimizer does not read it, it
         stops on its own KKT tolerance (sphere._KKT_TOL)

    Each iterative loop owns its cap before NoConvergence as a module
    constant, such as elliptic2d._NEWTON_MAX or sphere._OUTER_MAX.  No
    solver or minimizer draws random numbers; acceptance criterion 7
    seeds its own rearrangement trials (acceptance._REARRANGE_SEED).
    """

    tol: float = 1e-8

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ConfigInvalid("tol", f"must be positive, got {self.tol}")
