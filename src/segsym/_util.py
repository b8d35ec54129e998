"""Small shared helpers: the stop rule of the iterative loops, the
nonnegative-parameter check, atomic file output and CSV text."""

from __future__ import annotations

import math
import os
import tempfile

from .errors import NoConvergence, OutputUnwritable

_STALL_STEPS = 2
_STALL_FACTOR = 10.0


class Progress:
    """The stop rule of every iterative loop: done(res, steps) is True
    once res <= tol, and raises NoConvergence on a non-finite res (NaN
    fails every comparison), at `cap` steps (convergence there wins),
    and, given a round-off `floor`, once _STALL_STEPS residuals in a row
    set no new best within _STALL_FACTOR floors.  That stall cannot
    happen when tol >= _STALL_FACTOR floor, since such a residual has
    already met tol: it ends only solves whose tol is out of reach."""

    def __init__(self, what: str, tol: float, cap: int, floor=None, floor_label=""):
        self.what, self.tol, self.cap, self.floor = what, tol, cap, floor
        self.bounds = "" if floor is None else (
            f" (tol {tol:.3e}, round-off floor {floor_label} ≈ {floor:.3e})"
        )
        self.best, self.stalls = math.inf, 0

    def done(self, res: float, steps: int) -> bool:
        if not math.isfinite(res):
            raise NoConvergence(steps, res, f"{self.what} hit a non-finite residual")
        if res <= self.tol:
            return True
        near = self.floor is not None and res <= _STALL_FACTOR * self.floor
        self.stalls = self.stalls + 1 if near and res >= self.best else 0
        self.best = min(self.best, res)
        if self.stalls >= _STALL_STEPS:
            raise NoConvergence(steps, res, f"{self.what} stalled{self.bounds}")
        self._spend(steps, res)
        return False

    def escape(self, steps: int, res: float) -> None:
        """Spend a step of the budget on a move off the current point (a
        negative-curvature escape), which resets the best residual."""
        self._spend(steps, res)
        self.best, self.stalls = math.inf, 0

    def _spend(self, steps: int, res: float) -> None:
        if steps >= self.cap:
            raise NoConvergence(steps, res, self.what + self.bounds)


def check_nonnegative(name: str, value) -> None:
    """Raise a ValueError naming `name` unless value is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def fmt_value(v) -> str:
    """CSV cell: floats at 17 significant digits, everything else str()."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def csv_text(meta: dict, header, rows) -> str:
    """CSV body with `# key=value` meta lines before the header row."""
    lines = [f"# {k}={fmt_value(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(fmt_value(c) for c in row))
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` via a same-directory temp file + rename,
    creating the directory first.  This is the one place that creates
    output directories; an OSError on the way raises OutputUnwritable
    and leaves no file behind."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        raise OutputUnwritable(path, e.strerror or str(e)) from e


def write_csv(path, meta: dict, header, rows) -> None:
    """Write csv_text(meta, header, rows) to `path` atomically."""
    atomic_write_text(path, csv_text(meta, header, rows))
