"""Exception types shared across the package.

Precondition violations that have no named error below raise plain
ValueError; the classes here are the failure modes callers are expected
to catch and branch on.
"""


class SegsymError(Exception):
    """Base class for package-specific errors."""


class BallOutsideDomain(SegsymError):
    """A requested ball (or circle) sticks out of the grid."""


class PointOutsideDomain(SegsymError):
    """An interpolation point lies outside the grid extent."""


class DomainTooLarge(SegsymError):
    """A 1D profile (or source grid) does not cover the requested target."""


class ZeroDenominator(SegsymError):
    """A normalizing integral is zero (or numerically indistinguishable)."""


class NegativeInput(SegsymError):
    """An argument restricted to [0, inf) was negative."""


class NoSignChange(SegsymError):
    """u - v never changes sign, so there is no crossing to locate."""


class MultipleSignChanges(SegsymError):
    """u - v changes sign more than once; the crossing is ambiguous."""


class DeficitNonpositive(SegsymError):
    """Every sweep value sits at or above 2; no deficit left to fit."""


class NoConvergence(SegsymError):
    """An iterative solve ran out of iterations.

    Carries the iteration count and the last residual so callers can
    report both.
    """

    def __init__(self, iterations: int, residual: float, message: str = ""):
        self.iterations = int(iterations)
        self.residual = float(residual)
        text = message or "no convergence"
        super().__init__(f"{text}: {self.iterations} iterations, residual {self.residual:.3e}")


class NumericalBreakdown(SegsymError):
    """A computation broke an invariant it must keep: an iterate lost
    all its mass, a descent raised the value it minimizes, or a
    functional trace came out non-finite."""


class ConfigInvalid(SegsymError):
    """A config field failed validation; `field` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class InputMissing(SegsymError):
    """An input file named by a config or CLI flag does not exist."""

    def __init__(self, path):
        self.path = str(path)
        super().__init__(f"input file not found: {self.path}")


class InputInvalid(SegsymError):
    """An input file exists but is not a well-formed, finite field."""

    def __init__(self, path, message: str):
        self.path = str(path)
        super().__init__(f"invalid input file {self.path}: {message}")
