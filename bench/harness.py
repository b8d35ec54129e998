"""Benchmark harness: operation spans, the correctness gate, output
digests and the environment record.

Nothing here imports segsym, so run.py can load this module before it
checks that the package is present.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

THREAD_VARS = ("SEGSYM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


@dataclass
class Span:
    """One timed interval: a library call (`layer.function`) or a group
    of calls opened by the benchmark (`phase.<name>`, `pass`)."""

    name: str
    start: float
    end: float
    parent: int | None
    tag: str = ""
    error: str = ""


class Tracer:
    """Runs the operations of one pass and counts them.

    Every library call goes through `call`, so operations are counted
    and a raised error is charged to its layer whether or not spans are
    recorded.  With `record=True` each call and each `group` also
    leaves a Span in memory; nothing is written until the run ends.
    """

    def __init__(self, record: bool):
        self.record = record
        self.spans: list[Span] = []
        self.attempted = 0
        self.raised: dict[str, str] = {}  # op key -> error text
        self._stack: list[int] = []

    @contextmanager
    def group(self, name: str, tag: str = ""):
        if not self.record:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, tag)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, tag: str = ""):
        """One operation: call `fn(*args)`, a public segsym function,
        timed as a span named after its module and function."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        key = op_key(name, tag)
        self.attempted += 1
        try:
            with self.group(name, tag):
                return fn(*args)
        except Exception as exc:
            self.raised[key] = f"{type(exc).__name__}: {exc}"
            if self.record:
                self.spans[-1].error = self.raised[key]
            raise


def op_key(name: str, tag: str = "") -> str:
    return f"{name}@{tag}" if tag else name


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children
    (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start  # reach: end of the part covered so far
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            a, b = max(c.start, reach), min(c.end, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def phase_of(spans: list[Span], index: int) -> str:
    """Name of the nearest enclosing `phase.*` group, '' if none."""
    p = spans[index].parent
    while p is not None:
        if spans[p].name.startswith("phase."):
            return spans[p].name[len("phase."):]
        p = spans[p].parent
    return ""


def _matching(spans, names, phase, tag) -> list[int]:
    names = {names} if isinstance(names, str) else set(names)
    return [
        i
        for i, s in enumerate(spans)
        if s.name in names
        and (phase is None or phase_of(spans, i) == phase)
        and (tag is None or s.tag == tag)
    ]


def layer_seconds(spans, selfs, names, phase=None, tag=None) -> float:
    """Summed self time of the spans called one of `names`, optionally
    only those inside `phase.<phase>` or carrying `tag`."""
    return sum(selfs[i] for i in _matching(spans, names, phase, tag))


def span_count(spans, names, phase=None, tag=None) -> int:
    return len(_matching(spans, names, phase, tag))


@dataclass(frozen=True)
class Check:
    """One acceptance clause applied to the output of operation `op`."""

    op: str
    label: str
    ok: bool
    value: float
    requirement: str


class Gate:
    """Collects the clauses a pass applies to its outputs.  NaN fails
    every comparison, so a non-finite output never passes."""

    def __init__(self):
        self.checks: list[Check] = []

    def _add(self, op, label, ok, value, requirement):
        self.checks.append(Check(op, label, bool(ok), float(value), requirement))

    def le(self, op, label, value, bound):
        self._add(op, label, float(value) <= bound, value, f"<= {bound:g}")

    def lt(self, op, label, value, bound):
        self._add(op, label, float(value) < bound, value, f"< {bound:g}")

    def ge(self, op, label, value, bound):
        self._add(op, label, float(value) >= bound, value, f">= {bound:g}")

    def within(self, op, label, value, lo, hi):
        self._add(op, label, lo <= float(value) <= hi, value, f"in [{lo:g}, {hi:g}]")

    def finite(self, op, label, value):
        self._add(op, label, math.isfinite(value), value, "finite")

    def equal(self, op, label, value, expected):
        self._add(op, label, value == expected, value, f"== {expected!r}")

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]


def failed_ops(tracer: Tracer, gate: Gate) -> set[str]:
    """Operations that raised or whose output missed a clause."""
    return set(tracer.raised) | {c.op for c in gate.failures()}


def digest(outputs: dict) -> str:
    """SHA-256 of the numeric outputs, floats at 17 significant digits
    (the acceptance CSV format), keys in sorted order."""

    def flat(v):
        if isinstance(v, (list, tuple)):
            for x in v:
                yield from flat(x)
        elif hasattr(v, "tolist"):
            yield from flat(v.tolist())
        elif isinstance(v, bool) or isinstance(v, int):
            yield str(int(v))
        else:
            yield f"{float(v):.17g}"

    h = hashlib.sha256()
    for k in sorted(outputs):
        h.update(f"{k}={','.join(flat(outputs[k]))};".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# environment record


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git directly; '' outside git."""
    gitdir = root / ".git"
    try:
        head = (gitdir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = gitdir / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (gitdir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def code_sha(root: Path) -> str:
    """Hash of the package sources and the benchmark's own code: two
    runs with the same value ran the same code."""
    h = hashlib.sha256()
    for d in (root / "src" / "segsym", Path(__file__).resolve().parent):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def threads_mode(env=os.environ) -> str:
    """'default' when SEGSYM_THREADS is unset, else the setting; runs
    with different modes are kept apart."""
    raw = env.get("SEGSYM_THREADS", "")
    return f"SEGSYM_THREADS={raw}" if raw.strip() else "default"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(root),
        "code_sha": code_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "threads_mode": threads_mode(),
    }
