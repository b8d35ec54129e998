"""Small shared helpers: atomic file output and CSV text."""

from __future__ import annotations

import os
import tempfile

from .errors import OutputUnwritable


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
