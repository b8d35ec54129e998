"""Solver configuration shared by the solvers and the spherical minimizer."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigInvalid


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the iterative solvers.

    tol            sup-norm residual target of the 1D and 2D solves (not an
                   energy delta); the spherical minimizer does not read it,
                   it stops on its own KKT tolerance (sphere._KKT_TOL)
    max_iter       iteration / sweep / outer-step cap before NoConvergence
    damping        Newton step scale in (0, 1]; line search halves from here
    seed           RNG seed for acceptance criterion 7's random
                   rearrangement trials; no solver or minimizer draws
                   random numbers
    boundary_floor smallest value pinned on a Dirichlet boundary; keeps
                   Jacobians nonsingular without visibly denting monotonicity
    """

    tol: float = 1e-8
    max_iter: int = 200_000
    damping: float = 1.0
    seed: int = 0
    boundary_floor: float = 1e-12

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ConfigInvalid("tol", f"must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigInvalid("max_iter", f"must be >= 1, got {self.max_iter}")
        if not (0.0 < self.damping <= 1.0):
            raise ConfigInvalid("damping", f"must be in (0, 1], got {self.damping}")
        if not (0.0 <= self.boundary_floor < 1.0):
            raise ConfigInvalid(
                "boundary_floor", f"must be in [0, 1), got {self.boundary_floor}"
            )
