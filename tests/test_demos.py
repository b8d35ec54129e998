"""Four of the five demos run to completion, each in its own
interpreter with the checkout's src/ first on the path.

The two that lift the 1D profile to the plane are the planar
extension's only callers outside the package, the tests and the
benchmark; sphere_sweep.py (~0.5 s) and monotonicity_ladder.py (one
129² solve) are cheap enough to run too.  pair_scaling.py (~10 s of
solves up to 513²) is left out to keep the suite fast."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["blowdown_cone.py", "profile_walkthrough.py", "sphere_sweep.py", "monotonicity_ladder.py"],
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
