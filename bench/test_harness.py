"""Tests of the benchmark's own harness.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from harness import METRIC_NAME, Gate, Span, Tracer, failed_ops, self_times  # noqa: E402

import run  # noqa: E402
import segsym as ss  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("pass", 0.0, 10.0, None),
        Span("phase.a", 1.0, 6.0, 0),
        Span("grid.x", 2.0, 3.0, 1),
        Span("grid.y", 2.5, 4.0, 1),  # overlaps grid.x: covered once
        Span("phase.b", 7.0, 9.0, 0),
        Span("grid.z", 7.5, 8.5, 4),
        Span("grid.w", 7.7, 8.0, 4),  # inside grid.z
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 1.5, 1.0, 1.0, 0.3])


def test_self_time_clips_children_to_parent():
    spans = [Span("pass", 0.0, 2.0, None), Span("grid.x", 1.0, 5.0, 0)]
    assert self_times(spans) == pytest.approx([1.0, 4.0])


def test_recorded_spans_nest_and_sum_per_layer():
    tr = Tracer(record=True)
    with tr.group("pass"):
        with tr.group("phase.oracles"):
            tr.call(ss.eps_mono, ss.square_grid(1.0, 17))
    names = [s.name for s in tr.spans]
    assert names == ["pass", "phase.oracles", "diagnostics.eps_mono"]
    assert [s.parent for s in tr.spans] == [None, 0, 1]
    selfs = self_times(tr.spans)
    assert harness.phase_of(tr.spans, 2) == "oracles"
    assert harness.layer_seconds(tr.spans, selfs, "diagnostics.eps_mono", "oracles") == selfs[2]
    assert sum(selfs) == pytest.approx(tr.spans[0].end - tr.spans[0].start)


def test_untraced_tracer_counts_without_spans():
    tr = Tracer(record=False)
    tr.call(ss.eps_mono, ss.square_grid(1.0, 17))
    with pytest.raises(ValueError):
        tr.call(ss.square_grid, 1.0, 1, tag="bad")
    assert tr.spans == []
    assert tr.attempted == 2
    assert list(tr.raised) == ["grid.square_grid@bad"]


def test_metric_names_are_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == workloads.PER_LAYER


def _fake(module, name, result):
    def fn(*args):
        return result

    fn.__module__, fn.__name__ = f"segsym.{module}", name
    return fn


def _pair_pass(monkeypatch, energy_trace):
    g = ss.square_grid(1.0, 129)
    u, v = ss.linear_pair(g)
    pair = ss.SolutionPair(u, v, 100.0, 0.0, 50, np.asarray(energy_trace))
    monkeypatch.setattr(ss, "solve_system", _fake("elliptic2d", "solve_system", pair))
    inputs = workloads.pair_solve_setup(0)
    tr, gate = Tracer(record=False), Gate()
    workloads.pair_solve_pass(inputs, tr, gate)
    return failed_ops(tr, gate)


def test_gate_passes_a_good_pair(monkeypatch):
    assert _pair_pass(monkeypatch, [3.0, 2.0, 1.0]) == set()


def test_gate_fails_a_rising_energy_trace(monkeypatch):
    failed = _pair_pass(monkeypatch, [1.0, 2.0])
    assert failed == {"elliptic2d.solve_system@k1e2", "elliptic2d.solve_system@k1e3"}


def _sweep_fit(value_top):
    kappas = np.array([1e2, 1e3, 1e4])
    values = [1.68, 1.82, value_top]
    fit = ss.fit_deficit(kappas, [min(x, 1.9) for x in values])
    fit.reports = [
        ss.MinimizerReport(k, 1.0, val, 1.0, 1.0, 0.9, 0.9, seg, 1.0, 100, None)
        for k, val, seg in zip(kappas, values, (0.1, 0.03, 0.01))
    ]
    return fit


@pytest.mark.parametrize("value_top, ok", [(1.9, True), (2.0 + 2e-6, False)])
def test_gate_checks_the_value_ceiling(monkeypatch, value_top, ok):
    monkeypatch.setattr(ss, "kappa_sweep", _fake("sphere", "kappa_sweep", _sweep_fit(value_top)))
    tr, gate = Tracer(record=False), Gate()
    workloads.sphere_sweep_pass(workloads.sphere_sweep_setup(0), tr, gate)
    assert (failed_ops(tr, gate) == set()) is ok
    assert [c.label for c in gate.failures()] == ([] if ok else ["value_k1e4"])


def test_gate_fails_nan():
    gate = Gate()
    gate.le("op", "x", math.nan, 1.0)
    gate.finite("op", "y", math.inf)
    assert [c.label for c in gate.failures()] == ["x", "y"]


def test_digest_is_stable_and_sensitive():
    out = {"a": np.array([1.0, 2.0]), "n": 3}
    assert harness.digest(out) == harness.digest({"n": 3, "a": [1.0, 2.0]})
    assert harness.digest(out) != harness.digest({"a": [1.0, 2.0 + 1e-15], "n": 3})


def test_threads_mode_marks_a_set_pool():
    assert harness.threads_mode({}) == "default"
    assert harness.threads_mode({"SEGSYM_THREADS": "1"}) == "SEGSYM_THREADS=1"


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair_solve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
