"""Run one segsym benchmark workload and print its result as the last line.

    python3 bench/run.py --workload pair_solve --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs one untraced and one traced pass and reports the per-layer
metrics.  See bench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from harness import (
    Gate,
    Tracer,
    digest,
    environment,
    failed_ops,
    self_times,
    threads_mode,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("pair_solve", "sphere_sweep", "field_diagnostics")
SETUP_PROBES = 5


def import_package():
    """Put the checkout's own src/ first on the path and import it."""
    src = ROOT / "src"
    if not (src / "segsym" / "__init__.py").is_file():
        sys.exit(f"bench: no segsym package under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import segsym, build the inputs, print the clock."""
    wl = import_package()
    wl.WORKLOADS[workload].setup(seed)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from process start to built inputs, over fresh
    interpreter processes, each waited for."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_pass(work, inputs, record):
    """One pass of the workload; returns a dict describing it."""
    tr, gate = Tracer(record), Gate()
    c0, t0 = time.process_time(), time.perf_counter()
    out, error = None, ""
    try:
        with tr.group("pass"):
            out = work.run(inputs, tr, gate)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    result = {"tracer": tr, "gate": gate, "out": out, "error": error, "wall": wall, "cpu": cpu,
              "digest": "", "counts": {}}
    if out is not None:
        result["digest"] = digest(out)
        result["counts"] = {k: out[k] for k in work.count_keys}
    return result


def check_determinism(workload, seed, passes, env) -> list[str]:
    """Digests and exact counts must repeat for the same code and seed:
    across the passes of this run, and against earlier runs recorded in
    bench/results/determinism.json.  Returns the mismatches found."""
    seen = [{"digest": p["digest"], "counts": p["counts"]} for p in passes if p["out"] is not None]
    if not seen:
        return []
    problems = [f"pass {i} differs from the first" for i, s in enumerate(seen) if s != seen[0]]
    path = RESULTS / "determinism.json"
    registry = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{env['code_sha']}:{workload}:{seed}:{env['threads_mode']}"
    if key in registry and registry[key] != seen[0]:
        problems.append(f"differs from an earlier run of {key}")
    registry.setdefault(key, seen[0])
    write_json(path, registry)
    return problems


def layer_metrics(wl, work, untraced, traced, inputs) -> dict:
    tr = traced["tracer"]
    metrics = dict.fromkeys(wl.PER_LAYER, 0.0)
    for layer in wl.LAYERS:
        metrics[f"{layer}.failed"] = sum(
            1 for k in tr.raised if k.split(".", 1)[0] == layer
        )
    selfs = self_times(tr.spans)
    if traced["out"] is not None:
        metrics.update(work.layers(tr.spans, selfs, traced["out"], inputs))
    metrics["bench.self_s"] = selfs[0]  # the pass span: time outside every call
    metrics["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    return {k: {"value": float(v), "unit": wl.PER_LAYER[k][0]} for k, v in metrics.items()}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(obj, indent=1, default=lambda o: o.tolist()))
    os.replace(tmp, path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl = import_package()
    env = environment(ROOT)
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    work = wl.WORKLOADS[args.workload]
    inputs = work.setup(args.seed)

    passes = []
    if args.trace:
        passes.append(run_pass(work, inputs, record=False))
        passes.append(run_pass(work, inputs, record=True))
        p = passes[-1]
        if work.trace_extra is not None and p["out"] is not None:
            try:
                work.trace_extra(inputs, p["tracer"], p["gate"], p["out"])
            except Exception:
                p["error"] = traceback.format_exc()
                print(p["error"], file=sys.stderr)
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(work, inputs, record=False))
            if passes[-1]["error"]:
                break
            typical = statistics.median(p["wall"] for p in passes)
            if time.perf_counter() - start + typical > args.seconds:
                break

    attempted = sum(p["tracer"].attempted for p in passes)
    failed = sum(len(failed_ops(p["tracer"], p["gate"])) for p in passes)
    mismatches = check_determinism(args.workload, args.seed, passes, env)
    failed += len(mismatches)
    attempted += len(mismatches)
    correct = failed == 0 and not any(p["error"] for p in passes)

    if args.trace:
        metrics = layer_metrics(wl, work, passes[0], passes[1], inputs)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] for p in passes), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": [
            {
                "wall_s": p["wall"],
                "cpu_s": p["cpu"],
                "operations": p["tracer"].attempted,
                "digest": p["digest"],
                "counts": p["counts"],
                "raised": p["tracer"].raised,
                "failed_checks": [c.__dict__ for c in p["gate"].failures()],
                "error": p["error"],
            }
            for p in passes
        ],
        "outputs": passes[-1]["out"],
        "determinism_mismatches": mismatches,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics,
    }
    if args.trace:
        tr = passes[1]["tracer"]
        record["spans"] = [
            {"name": s.name, "tag": s.tag, "start": s.start, "end": s.end,
             "parent": s.parent, "self_s": t, "error": s.error}
            for s, t in zip(tr.spans, self_times(tr.spans))
        ]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    path = RESULTS / f"{stem}.json"
    write_json(path, record)
    print(
        f"bench: {args.workload} seed={args.seed} passes={len(passes)} "
        f"error_rate={record['error_rate']:.3g} mode={threads_mode()} "
        f"digest={passes[-1]['digest'][:16]} record={path.relative_to(ROOT)}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
