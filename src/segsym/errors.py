"""Exception types shared across the package.

Precondition violations that have no named error below raise plain
ValueError; the classes here are the failure modes callers are expected
to catch and branch on.  Each class carries the command line's exit
code for it as `exit_code`: 1 for configuration errors, 2 for input
errors (`InputError`), 3 for numerical failures (`NumericalError`).
"""


class SegsymError(Exception):
    """Base class for package-specific errors; exit code 1 (config)."""

    exit_code = 1


class InputError(SegsymError):
    """Base class for errors in input files or the geometry asked of them."""

    exit_code = 2


class NumericalError(SegsymError):
    """Base class for numerical failures."""

    exit_code = 3


class BallOutsideDomain(InputError):
    """A requested ball (or circle) sticks out of the grid."""


class PointOutsideDomain(InputError):
    """An interpolation point lies outside the grid extent."""


class DomainTooLarge(InputError):
    """A 1D profile (or source grid) does not cover the requested target."""


class ZeroDenominator(NumericalError):
    """A normalizing integral is zero (or numerically indistinguishable)."""


class NegativeInput(SegsymError):
    """An argument restricted to [0, inf) was negative."""


class NoSignChange(NumericalError):
    """u - v never changes sign, so there is no crossing to locate."""


class MultipleSignChanges(NumericalError):
    """u - v changes sign more than once; the crossing is ambiguous."""


class DeficitNonpositive(NumericalError):
    """Every sweep value sits at or above 2; no deficit left to fit."""


class NoConvergence(NumericalError):
    """An iterative solve ran out of iterations.

    Carries the iteration count and the last residual so callers can
    report both.
    """

    def __init__(self, iterations: int, residual: float, message: str = ""):
        self.iterations = int(iterations)
        self.residual = float(residual)
        text = message or "no convergence"
        super().__init__(f"{text}: {self.iterations} iterations, residual {self.residual:.3e}")


class NumericalBreakdown(NumericalError):
    """A computation broke an invariant it must keep: an iterate lost
    all its mass, a descent raised the value it minimizes, or a
    functional trace came out non-finite."""


class ConfigInvalid(SegsymError):
    """A config field failed validation; `field` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class InputMissing(InputError):
    """An input file named by a config or CLI flag does not exist."""

    def __init__(self, path):
        self.path = str(path)
        super().__init__(f"input file not found: {self.path}")


class InputInvalid(InputError):
    """An input file exists but cannot be read as text (a directory, an
    undecodable file), or is not a well-formed, finite field."""

    def __init__(self, path, message: str):
        self.path = str(path)
        super().__init__(f"invalid input file {self.path}: {message}")


class OutputUnwritable(SegsymError):
    """An output file cannot be created or replaced: its directory
    cannot be made (a path component is a file) or written, or the
    path names a directory.  A config error, since the flag names the
    path."""

    def __init__(self, path, message: str):
        self.path = str(path)
        super().__init__(f"cannot write output file {self.path}: {message}")
