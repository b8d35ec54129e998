"""Command-line front end.

Subcommands map one-to-one onto experiment scenarios: profile, solve2d,
diag, spheremin, spheresweep, blowdown, plus `run` (a JSON config or a
named preset) and `list-presets`.  Every run ends with one or more
machine-readable summary lines

    RESULT name=<scenario> status=<pass|fail|done> key=value ...

on stdout.  Exit codes: 0 on success, 1 for configuration errors (bad
flags, malformed or invalid JSON, out-of-range parameters), 2 for input
errors (missing, malformed or non-finite field files, geometry that does
not fit the provided grids), 3 for numerical failures and for completed
runs whose judgment is `fail`.  All file output is atomic (temp file +
rename).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from ._util import atomic_write_text, csv_text
from .blowdown import direction_convergence
from .config import SolveConfig
from .diagnostics import eps_mono, functional_trace
from .elliptic2d import solve_system
from .errors import (
    BallOutsideDomain,
    ConfigInvalid,
    DeficitNonpositive,
    DomainTooLarge,
    InputInvalid,
    InputMissing,
    MSampleTooSmall,
    MultipleSignChanges,
    NegativeInput,
    NoConvergence,
    NoSignChange,
    NumericalBreakdown,
    PointOutsideDomain,
    ZeroDenominator,
)
from .grid import read_field, square_grid, write_field
from .presets import linear_pair_bdata
from .profile1d import asymptotic_slope, crossing_point, extend_to_2d, solve_profile
from .sphere import kappa_sweep, minimize_spherical

_INPUT_ERRORS = (
    InputMissing,
    InputInvalid,
    FileNotFoundError,
    BallOutsideDomain,
    PointOutsideDomain,
    DomainTooLarge,
)
_NUMERIC_ERRORS = (
    NoConvergence,
    NumericalBreakdown,
    ZeroDenominator,
    NoSignChange,
    MultipleSignChanges,
    DeficitNonpositive,
    MSampleTooSmall,
)

_DIAG_RADII = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]

# schema: key -> (type tag, default); tags: f float, i int, s str,
# s? optional str, F list of floats.  Configs are flat by design.
SCHEMAS = {
    "profile": {
        "half_length": ("f", 20.0),
        "spacing": ("f", 0.05),
        "tol": ("f", 1e-10),
        "out": ("s", "profile.csv"),
    },
    "solve2d": {
        "kappa": ("f", 100.0),
        "n": ("i", 129),
        "half_width": ("f", 1.0),
        "tol": ("f", 1e-8),
        "out_u": ("s", "u.csv"),
        "out_v": ("s", "v.csv"),
    },
    "diag": {
        "functional": ("s", "N"),
        "kappa": ("f", 100.0),
        "in_u": ("s?", None),
        "in_v": ("s?", None),
        "n": ("i", 129),
        "half_width": ("f", 1.0),
        "center_x": ("f", 0.0),
        "center_y": ("f", 0.0),
        "radii": ("F", _DIAG_RADII),
        "tol": ("f", 1e-8),
        "out": ("s", "diag.csv"),
    },
    "spheremin": {
        "kappa": ("f", 1000.0),
        "lambda": ("f", 1.0),
        "m": ("i", 256),
        "n": ("i", 2),
        "out": ("s", "spheremin.json"),
    },
    "spheresweep": {
        "kappas": ("F", [100.0, 1000.0, 10000.0]),
        "lambda": ("f", 1.0),
        "m": ("i", 256),
        "out": ("s", "spheresweep.csv"),
    },
    "blowdown": {
        "in_u": ("s?", None),
        "in_v": ("s?", None),
        "half_length": ("f", 46.0),
        "spacing": ("f", 0.05),
        "n": ("i", 513),
        "half_width": ("f", 32.0),
        "radii": ("F", [4.0, 6.0, 8.0]),
        "out": ("s", "blowdown.csv"),
    },
    "accept": {},
}

PRESETS = {name: {"scenario": name} for name in SCHEMAS}

DESCRIPTIONS = {
    "accept": "full acceptance suite: thirteen criteria, per-criterion CSVs and results.csv",
    "blowdown": "blow-down of the 1D profile extension: direction, flatness and deficit decay",
    "diag": "Almgren frequency trace on a freshly solved pair, judged for monotonicity",
    "profile": "entire 1D profile: residual, reflection symmetry, interface decay",
    "solve2d": "planar system solve with half-plane boundary data; writes both fields",
    "spheremin": "constrained spherical minimization at a single kappa",
    "spheresweep": "minimization sweep across kappa: value ceiling and deficit power law",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through ConfigInvalid so bad
    # command lines land on exit code 1 like every other config error
    def error(self, message):
        raise ConfigInvalid("argv", message)


def _floats(field: str):
    """argparse type for a comma-separated list of numbers; a parse
    error names the config field the flag sets."""

    def parse(text: str):
        try:
            return [float(t) for t in text.split(",") if t.strip()]
        except ValueError:
            raise ConfigInvalid(field, f"expected comma-separated numbers, got {text!r}")

    return parse


def _coerce(scenario: str, key: str, tag: str, value):
    if tag == "f":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigInvalid(key, f"expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigInvalid(key, f"expected a finite number, got {value!r}")
        return float(value)
    if tag == "i":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(key, f"expected an integer, got {value!r}")
        return int(value)
    if tag in ("s", "s?"):
        if not isinstance(value, str):
            raise ConfigInvalid(key, f"expected a string, got {value!r}")
        return value
    if tag == "F":
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigInvalid(key, f"expected a nonempty list of numbers, got {value!r}")
        out = []
        for item in value:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigInvalid(key, f"expected numbers, got {item!r}")
            if not math.isfinite(item):
                raise ConfigInvalid(key, f"expected finite numbers, got {item!r}")
            out.append(float(item))
        return out
    raise AssertionError(tag)


@dataclass
class Experiment:
    """One configured scenario run: a display name, the scenario id
    and validated params."""

    name: str
    scenario: str
    params: dict


def make_experiment(doc: dict) -> Experiment:
    """Build an Experiment from a flat config dict (already stripped of
    outdir); validates the scenario id and every param."""
    doc = dict(doc)
    scenario = doc.pop("scenario", None)
    if not isinstance(scenario, str):
        raise ConfigInvalid("scenario", f"expected a string scenario id, got {scenario!r}")
    name = doc.pop("name", scenario)
    if not isinstance(name, str) or not name or " " in name:
        raise ConfigInvalid("name", f"expected a label without spaces, got {name!r}")
    return Experiment(name, scenario, validate_params(scenario, doc))


def validate_params(scenario: str, raw: dict) -> dict:
    """Check keys and types against the scenario schema (every number
    finite), fill defaults, and enforce sign preconditions on kappa
    values and lambda."""
    if scenario not in SCHEMAS:
        raise ConfigInvalid(
            "scenario", f"unknown scenario {scenario!r}, expected one of {sorted(SCHEMAS)}"
        )
    schema = SCHEMAS[scenario]
    params = {k: d for k, (_, d) in schema.items()}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigInvalid(key, f"unknown key for scenario {scenario!r}")
        params[key] = _coerce(scenario, key, schema[key][0], value)
    if "kappa" in params and params["kappa"] < 0.0:
        raise ConfigInvalid("kappa", f"kappa must be nonnegative, got {params['kappa']}")
    if "kappas" in params and any(k < 0.0 for k in params["kappas"]):
        raise ConfigInvalid("kappas", "every kappa must be nonnegative")
    if "lambda" in params and params["lambda"] <= 0.0:
        raise ConfigInvalid("lambda", f"lambda must be positive, got {params['lambda']}")
    return params


def load_experiment(path) -> dict:
    """Read a flat JSON experiment config; report line/column on bad JSON."""
    p = Path(path)
    if not p.exists():
        raise InputMissing(p)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigInvalid(
            "json", f"malformed JSON in {p} at line {e.lineno} column {e.colno}: {e.msg}"
        )
    if not isinstance(doc, dict):
        raise ConfigInvalid("json", "experiment config must be a JSON object")
    if "scenario" not in doc:
        raise ConfigInvalid("scenario", "missing required key")
    return doc


def _gv(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _result(name: str, status: str, kv: dict) -> None:
    parts = [f"name={name}", f"status={status}"]
    parts.extend(f"{k}={_gv(v)}" for k, v in kv.items())
    print("RESULT " + " ".join(parts))


def _write_csv(path: Path, meta: dict, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, csv_text(meta, header, rows))


def _load_or_solve(params, outdir):
    """Fields for diag/blowdown: read the named CSVs when both are
    given, otherwise build the scenario's default pair."""
    in_u, in_v = params.get("in_u"), params.get("in_v")
    if (in_u is None) != (in_v is None):
        raise ConfigInvalid("in_u", "in_u and in_v must be given together")
    if in_u is not None:
        for p in (in_u, in_v):
            if not Path(p).exists():
                raise InputMissing(p)
        u, v = read_field(in_u), read_field(in_v)
        if u.grid != v.grid:
            raise ConfigInvalid("in_v", "input fields must share one grid")
        return u, v
    return None


# ---------------------------------------------------------------------------
# scenario runners: take validated params and an output directory,
# return (status, summary dict)


def run_profile(params, outdir: Path):
    p = solve_profile(params["half_length"], params["spacing"], SolveConfig(tol=params["tol"]))
    x0 = crossing_point(p)
    sp, sm = asymptotic_slope(p)
    out = outdir / params["out"]
    _write_csv(
        out,
        {
            "half_length": p.half_length,
            "spacing": p.spacing,
            "residual": p.residual,
            "residual_tolerance": params["tol"],
            "crossing": x0,
            "slope_plus": sp,
            "slope_minus": sm,
        },
        ["x", "u", "v"],
        zip(p.x, p.u, p.v),
    )
    return "done", {
        "residual": p.residual,
        "newton_steps": p.newton_steps,
        "crossing": x0,
        "out": out,
    }


def run_solve2d(params, outdir: Path):
    g = square_grid(params["half_width"], params["n"])
    fu, fv = linear_pair_bdata()
    pair = solve_system(g, fu, fv, params["kappa"], SolveConfig(tol=params["tol"]))
    out_u, out_v = outdir / params["out_u"], outdir / params["out_v"]
    out_u.parent.mkdir(parents=True, exist_ok=True)
    out_v.parent.mkdir(parents=True, exist_ok=True)
    write_field(pair.u, out_u)
    write_field(pair.v, out_v)
    return "done", {
        "kappa": pair.kappa,
        "residual": pair.residual,
        "residual_tolerance": params["tol"],
        "sweeps": pair.sweeps,
        "out_u": out_u,
        "out_v": out_v,
    }


def run_diag(params, outdir: Path):
    functional = params["functional"]
    if functional not in ("N", "H", "D", "J"):
        raise ConfigInvalid("functional", f"expected N, H, D or J, got {functional!r}")
    loaded = _load_or_solve(params, outdir)
    if loaded is None:
        g = square_grid(params["half_width"], params["n"])
        fu, fv = linear_pair_bdata()
        pair = solve_system(g, fu, fv, params["kappa"], SolveConfig(tol=params["tol"]))
        u, v = pair.u, pair.v
    else:
        u, v = loaded
    center = (params["center_x"], params["center_y"])
    trace = functional_trace(functional, u, v, params["kappa"], center, params["radii"])
    eps = eps_mono(u.grid)
    out = outdir / params["out"]
    _write_csv(
        out,
        {
            "functional": functional,
            "kappa": params["kappa"],
            "center_x": center[0],
            "center_y": center[1],
            "eps_mono": eps,
        },
        ["r", "value", "eps_mono"],
        [(r, val, eps) for r, val in zip(trace.radii, trace.values)],
    )
    kv = {
        "functional": functional,
        "min": float(trace.values.min()),
        "max": float(trace.values.max()),
        "out": out,
    }
    if functional == "N":
        slope = trace.min_pairwise_slope()
        kv["min_slope"] = slope
        kv["eps_mono"] = eps
        return ("pass" if slope >= -eps else "fail"), kv
    return "done", kv


def run_spheremin(params, outdir: Path):
    rep = minimize_spherical(
        params["kappa"], params["lambda"], params["m"], n=params["n"]
    )
    out = outdir / params["out"]
    doc = {
        "kappa": rep.kappa,
        "lambda": rep.lambda_kappa,
        "n": params["n"],
        "m": params["m"],
        "value": rep.value,
        "value_ceiling": 2.0 + 1e-6,
        "x": rep.x_kappa,
        "y": rep.y_kappa,
        "mult1": rep.mult1,
        "mult2": rep.mult2,
        "seg": rep.seg,
        "xi": rep.xi,
        "iterations": rep.iterations,
        "kkt": rep.kkt,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return "done", {
        "value": rep.value,
        "mult1": rep.mult1,
        "mult2": rep.mult2,
        "seg": rep.seg,
        "iterations": rep.iterations,
        "kkt": rep.kkt,
        "out": out,
    }


def run_spheresweep(params, outdir: Path):
    fit = kappa_sweep(params["kappas"], params["lambda"], params["m"])
    out = outdir / params["out"]
    _write_csv(
        out,
        {
            "lambda": params["lambda"],
            "m": params["m"],
            "C": fit.C,
            "exponent": fit.exponent,
            "value_ceiling": 2.0 + 1e-6,
        },
        ["kappa", "value", "mult1", "mult2", "seg"],
        [(r.kappa, r.value, r.mult1, r.mult2, r.seg) for r in fit.reports],
    )
    return "done", {
        "C": fit.C,
        "exponent": fit.exponent,
        "max_iterations": max(r.iterations for r in fit.reports),
        "max_kkt": max(r.kkt for r in fit.reports),
        "out": out,
    }


def run_blowdown(params, outdir: Path):
    loaded = _load_or_solve(params, outdir)
    if loaded is None:
        prof = solve_profile(params["half_length"], params["spacing"])
        g = square_grid(params["half_width"], params["n"])
        u, v = extend_to_2d(prof, g, (1.0, 0.0))
    else:
        u, v = loaded
    records, gap = direction_convergence(u, v, params["radii"])
    out = outdir / params["out"]
    _write_csv(
        out,
        {"gap_deg": float(np.degrees(gap))},
        ["R", "L", "e_x", "e_y", "flatness", "deficit"],
        [(r.R, r.L, r.e[0], r.e[1], r.flatness, r.deficit) for r in records],
    )
    top = records[-1]
    return "done", {
        "gap_deg": float(np.degrees(gap)),
        "R_max": top.R,
        "flatness": top.flatness,
        "deficit": top.deficit,
        "out": out,
    }


def run_accept(params, outdir: Path):
    results = acceptance.run_all(outdir)
    for res in results:
        slug = res.name.replace(" ", "_")
        kv = {"checks": len(res.checks), "runtime_s": res.runtime}
        failed = [c.label for c in res.checks if not c.ok]
        if failed:
            kv["failed"] = ";".join(failed)
        _result(slug, "pass" if res.passed else "fail", kv)
    passed = sum(1 for r in results if r.passed)
    status = "pass" if passed == len(results) else "fail"
    return status, {"passed": passed, "total": len(results), "outdir": outdir}


RUNNERS = {
    "profile": run_profile,
    "solve2d": run_solve2d,
    "diag": run_diag,
    "spheremin": run_spheremin,
    "spheresweep": run_spheresweep,
    "blowdown": run_blowdown,
    "accept": run_accept,
}


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> _Parser:
    p = _Parser(prog="segsym", description="numerical experiments for a segregating elliptic pair")
    p.add_argument("--version", action="version", version=f"segsym {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    # one subcommand per scenario, one flag per schema key; accept runs
    # only as a preset
    for name, schema in SCHEMAS.items():
        if not schema:
            continue
        sp = sub.add_parser(name, help=DESCRIPTIONS[name])
        sp.add_argument("--outdir", default=".", help="directory for output files")
        for key, (tag, _) in schema.items():
            kind = _floats(key) if tag == "F" else {"f": float, "i": int}.get(tag, str)
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)

    sp = sub.add_parser("run", help="run an experiment from a JSON config or preset")
    sp.add_argument("--outdir", default=".", help="directory for output files")
    sp.add_argument("config", nargs="?", help="path to a flat JSON experiment config")
    sp.add_argument("--preset", choices=sorted(PRESETS))

    sub.add_parser("list-presets", help="list run presets with one-line descriptions")
    return p


def _collect(args, scenario: str) -> dict:
    return {k: getattr(args, k) for k in SCHEMAS[scenario] if getattr(args, k) is not None}


def _dispatch(args) -> int:
    if args.cmd == "list-presets":
        width = max(len(k) for k in PRESETS)
        for pid in sorted(PRESETS):
            print(f"{pid:<{width}}  {DESCRIPTIONS[pid]}")
        return 0
    if args.cmd == "run":
        if (args.config is None) == (args.preset is None):
            raise ConfigInvalid("config", "give exactly one of a config path or --preset")
        doc = dict(PRESETS[args.preset]) if args.preset else load_experiment(args.config)
        doc_outdir = doc.pop("outdir", None)
        if doc_outdir is not None and not isinstance(doc_outdir, str):
            raise ConfigInvalid("outdir", f"expected a string, got {doc_outdir!r}")
        exp = make_experiment(doc)
        outdir = Path(args.outdir if args.outdir != "." else (doc_outdir or "."))
    else:
        exp = make_experiment({"scenario": args.cmd, **_collect(args, args.cmd)})
        outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    status, kv = RUNNERS[exp.scenario](exp.params, outdir)
    _result(exp.name, status, kv)
    return 0 if status in ("done", "pass") else 3


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except (ConfigInvalid, NegativeInput, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
