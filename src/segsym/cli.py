"""Command-line front end.

Subcommands map one-to-one onto experiment scenarios: profile, solve2d,
diag, spheremin, spheresweep, blowdown and accept (the thirteen-criterion
acceptance suite), plus `run`, which takes the same scenario from a flat
JSON config.  Every run ends with one or more
machine-readable summary lines

    RESULT name=<scenario> status=<pass|fail|done> key=value ...

on stdout.  Exit codes: 0 on success, 1 for configuration errors (bad
flags, malformed or invalid JSON, out-of-range parameters, an output
path that cannot be created or replaced), 2 for input errors (missing,
unreadable, malformed or non-finite field files, geometry that does not
fit the provided grids), 3 for numerical failures and for completed
runs whose judgment is `fail`.  Each error class
carries its code (`errors.SegsymError.exit_code`).  All file output is
atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, acceptance
from ._util import atomic_write_text, write_csv
from .blowdown import direction_convergence
from .config import SolveConfig
from .diagnostics import eps_mono, functional_trace
from .elliptic2d import solve_system
from .errors import ConfigInvalid, InputInvalid, InputMissing, SegsymError
from .grid import read_field, square_grid, write_field
from .presets import linear_pair_bdata
from .profile1d import asymptotic_slope, crossing_point, extend_to_2d, solve_profile
from .sphere import kappa_sweep, minimize_spherical

class Scenario(NamedTuple):
    description: str
    defaults: dict
    run: Callable


SCENARIOS: dict[str, Scenario] = {}


def scenario(name: str, description: str, defaults: dict):
    """Register a runner as the scenario `name`, with one flag per key
    of `defaults`.  A flag's type is its default's: float, int, str,
    None (an optional path) or a list of floats.  Configs are flat by
    design.  The runner takes validated params and an output directory
    and returns (status, summary dict)."""

    def register(run):
        SCENARIOS[name] = Scenario(description, defaults, run)
        return run

    return register


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


def _coerce(key: str, default, value):
    """Check a config value against the type of its default."""
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigInvalid(key, f"expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigInvalid(key, f"expected a finite number, got {value!r}")
        return float(value)
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(key, f"expected an integer, got {value!r}")
        return int(value)
    if default is None or isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigInvalid(key, f"expected a string, got {value!r}")
        return value
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


def make_experiment(doc: dict) -> tuple[str, str, dict]:
    """(display name, scenario id, validated params) from a flat config
    dict; validates the scenario id and every param."""
    doc = dict(doc)
    scenario = doc.pop("scenario", None)
    if not isinstance(scenario, str):
        raise ConfigInvalid(
            "scenario", f"required; expected a string scenario id, got {scenario!r}"
        )
    name = doc.pop("name", scenario)
    if not isinstance(name, str) or not name or " " in name:
        raise ConfigInvalid("name", f"expected a label without spaces, got {name!r}")
    return name, scenario, validate_params(scenario, doc)


def validate_params(scenario: str, raw: dict) -> dict:
    """Check keys and types against the scenario's defaults (every
    number finite), fill defaults, and enforce sign preconditions on
    kappa values and lambda."""
    if scenario not in SCENARIOS:
        raise ConfigInvalid(
            "scenario", f"unknown scenario {scenario!r}, expected one of {sorted(SCENARIOS)}"
        )
    defaults = SCENARIOS[scenario].defaults
    params = dict(defaults)
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigInvalid(key, f"unknown key for scenario {scenario!r}")
        params[key] = _coerce(key, defaults[key], value)
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
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputInvalid(p, str(e)) from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigInvalid(
            "json", f"malformed JSON in {p} at line {e.lineno} column {e.colno}: {e.msg}"
        )
    if not isinstance(doc, dict):
        raise ConfigInvalid("json", "experiment config must be a JSON object")
    return doc


def _gv(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _result(name: str, status: str, kv: dict) -> None:
    parts = [f"name={name}", f"status={status}"]
    parts.extend(f"{k}={_gv(v)}" for k, v in kv.items())
    print("RESULT " + " ".join(parts))


def _read_pair(params):
    """Fields for diag/blowdown: the named CSVs when both are given,
    None when neither is (the caller builds its default pair)."""
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


def _solve_pair(params):
    """solve2d and diag's pair: half-plane boundary data on
    square_grid(half_width, n), solved at kappa to tol."""
    g = square_grid(params["half_width"], params["n"])
    fu, fv = linear_pair_bdata()
    return solve_system(g, fu, fv, params["kappa"], SolveConfig(tol=params["tol"]))


# ---------------------------------------------------------------------------
# scenario runners


@scenario(
    "profile",
    "entire 1D profile: residual, reflection symmetry, interface decay",
    {"half_length": 20.0, "spacing": 0.05, "tol": 1e-10, "out": "profile.csv"},
)
def run_profile(params, outdir: Path):
    p = solve_profile(params["half_length"], params["spacing"], SolveConfig(tol=params["tol"]))
    x0 = crossing_point(p)
    sp, sm = asymptotic_slope(p)
    out = outdir / params["out"]
    write_csv(
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


@scenario(
    "solve2d",
    "planar system solve with half-plane boundary data; writes both fields",
    {"kappa": 100.0, "n": 129, "half_width": 1.0, "tol": 1e-8,
     "out_u": "u.csv", "out_v": "v.csv"},
)
def run_solve2d(params, outdir: Path):
    pair = _solve_pair(params)
    out_u, out_v = outdir / params["out_u"], outdir / params["out_v"]
    write_field(pair.u, out_u)
    write_field(pair.v, out_v)
    return "done", {
        "kappa": pair.kappa,
        "residual": pair.residual,
        "residual_tolerance": params["tol"],
        "newton_steps": pair.newton_steps,
        "cg_iterations": pair.cg_iterations,
        "escapes": pair.stages[0].escapes,
        "q": pair.stages[0].q,
        "seconds": pair.seconds,
        "out_u": out_u,
        "out_v": out_v,
    }


@scenario(
    "diag",
    "Almgren frequency trace on a freshly solved pair, judged for monotonicity",
    {"functional": "N", "kappa": 100.0, "in_u": None, "in_v": None, "n": 129,
     "half_width": 1.0, "center_x": 0.0, "center_y": 0.0,
     "radii": [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45], "tol": 1e-8, "out": "diag.csv"},
)
def run_diag(params, outdir: Path):
    functional = params["functional"]
    if functional not in ("N", "H", "D", "J"):
        raise ConfigInvalid("functional", f"expected N, H, D or J, got {functional!r}")
    loaded = _read_pair(params)
    if loaded is None:
        pair = _solve_pair(params)
        u, v = pair.u, pair.v
    else:
        u, v = loaded
    center = (params["center_x"], params["center_y"])
    trace = functional_trace(functional, u, v, params["kappa"], center, params["radii"])
    eps = eps_mono(u.grid)
    out = outdir / params["out"]
    write_csv(
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


@scenario(
    "spheremin",
    "constrained spherical minimization at a single kappa",
    {"kappa": 1000.0, "lambda": 1.0, "m": 256, "n": 2, "out": "spheremin.json"},
)
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
        "eigen_steps": rep.eigen_steps,
        "kkt": rep.kkt,
    }
    atomic_write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return "done", {
        "value": rep.value,
        "mult1": rep.mult1,
        "mult2": rep.mult2,
        "seg": rep.seg,
        "iterations": rep.iterations,
        "eigen_steps": rep.eigen_steps,
        "kkt": rep.kkt,
        "out": out,
    }


@scenario(
    "spheresweep",
    "minimization sweep across kappa: value ceiling and deficit power law",
    {"kappas": [100.0, 1000.0, 10000.0], "lambda": 1.0, "m": 256, "out": "spheresweep.csv"},
)
def run_spheresweep(params, outdir: Path):
    fit = kappa_sweep(params["kappas"], params["lambda"], params["m"])
    out = outdir / params["out"]
    write_csv(
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
        "max_eigen_steps": max(r.eigen_steps for r in fit.reports),
        "max_kkt": max(r.kkt for r in fit.reports),
        "out": out,
    }


@scenario(
    "blowdown",
    "blow-down of the 1D profile extension: direction, flatness and deficit decay",
    {"in_u": None, "in_v": None, "half_length": 46.0, "spacing": 0.05, "n": 513,
     "half_width": 32.0, "radii": [4.0, 6.0, 8.0], "out": "blowdown.csv"},
)
def run_blowdown(params, outdir: Path):
    loaded = _read_pair(params)
    if loaded is None:
        prof = solve_profile(params["half_length"], params["spacing"])
        g = square_grid(params["half_width"], params["n"])
        u, v = extend_to_2d(prof, g, (1.0, 0.0))
    else:
        u, v = loaded
    records, gap = direction_convergence(u, v, params["radii"])
    out = outdir / params["out"]
    write_csv(
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


@scenario(
    "accept",
    "full acceptance suite: thirteen criteria, per-criterion CSVs and results.csv",
    {},
)
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


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> _Parser:
    p = _Parser(prog="segsym", description="numerical experiments for a segregating elliptic pair")
    p.add_argument("--version", action="version", version=f"segsym {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    # one subcommand per scenario, one flag per key, typed by its default
    for name, sc in SCENARIOS.items():
        sp = sub.add_parser(name, help=sc.description)
        sp.add_argument("--outdir", default=".", help="directory for output files")
        for key, default in sc.defaults.items():
            if isinstance(default, list):
                kind = _floats(key)
            else:
                kind = str if default is None else type(default)
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)

    sp = sub.add_parser("run", help="run an experiment from a JSON config")
    sp.add_argument("--outdir", default=".", help="directory for output files")
    sp.add_argument("config", help="path to a flat JSON experiment config")
    return p


def _collect(args, name: str) -> dict:
    return {k: getattr(args, k) for k in SCENARIOS[name].defaults if getattr(args, k) is not None}


def _dispatch(args) -> int:
    if args.cmd == "run":
        name, scen, params = make_experiment(load_experiment(args.config))
    else:
        name, scen, params = make_experiment({"scenario": args.cmd, **_collect(args, args.cmd)})
    status, kv = SCENARIOS[scen].run(params, Path(args.outdir))
    _result(name, status, kv)
    return 0 if status in ("done", "pass") else 3


def main(argv=None) -> int:
    try:
        return _dispatch(_parser().parse_args(argv))
    except SegsymError as e:
        err, code = e, e.exit_code
    except ValueError as e:
        err, code = e, 1
    except FileNotFoundError as e:
        err, code = e, 2
    print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
