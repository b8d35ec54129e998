"""End-to-end checks of the command-line front end: RESULT lines, exit
codes (1 config, 2 input, 3 numerical), CSV shapes, suite dispatch."""

import json

import numpy as np
import pytest

from segsym import acceptance, cli, errors
from segsym.acceptance import Check, CriterionResult
from segsym.cli import main
from segsym.grid import Field, read_field, square_grid, write_field
from segsym.presets import linear_pair
from segsym.sphere import kappa_sweep, minimize_spherical


def last_result(capsys):
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("RESULT ")]
    assert lines, f"no RESULT line in output:\n{out}"
    kv = dict(tok.split("=", 1) for tok in lines[-1].split()[1:])
    assert kv["status"] in ("pass", "fail", "done")
    return kv


@pytest.fixture(scope="module")
def linear_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fields")
    g = square_grid(1.0, 129)
    u, v = linear_pair(g)
    write_field(u, d / "u.csv")
    write_field(v, d / "v.csv")
    return d / "u.csv", d / "v.csv"


def _fake_suite(monkeypatch):
    """Replace acceptance.run_all with a fast stand-in; returns the
    list of output directories it was called with."""
    calls = []

    def fake_run_all(outdir):
        calls.append(outdir)
        return [CriterionResult("01 fake", True, 0.5, [Check("x", True, 1.0, "<= 2")])]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    return calls


def test_accept_subcommand_runs_the_suite(tmp_path, capsys, monkeypatch):
    calls = _fake_suite(monkeypatch)
    assert main(["accept", "--outdir", str(tmp_path / "suite")]) == 0
    assert calls == [tmp_path / "suite"]
    kv = last_result(capsys)
    assert kv["name"] == "accept"
    assert kv["status"] == "pass"
    assert (kv["passed"], kv["total"]) == ("1", "1")


def test_help_lists_every_scenario(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep each description on one line
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name, (text, _, _) in cli.SCENARIOS.items():
        assert name in out and text in out
    assert "preset" not in out


def test_profile_writes_csv(tmp_path, capsys):
    rc = main(
        ["profile", "--half-length", "10", "--spacing", "0.1", "--tol", "1e-9",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    kv = last_result(capsys)
    assert kv["name"] == "profile"
    assert kv["status"] == "done"
    assert float(kv["residual"]) <= 1e-9
    assert int(kv["newton_steps"]) >= 1
    text = (tmp_path / "profile.csv").read_text()
    lines = text.strip().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# residual_tolerance=") for ln in meta)
    header_at = len(meta)
    assert lines[header_at] == "x,u,v"
    assert len(lines) - header_at - 1 == 201
    # atomic write leaves no temp droppings
    assert not list(tmp_path.glob(".tmp-*"))


def test_solve2d_roundtrip(tmp_path, capsys):
    rc = main(
        ["solve2d", "--kappa", "50", "--n", "65", "--tol", "1e-7",
         "--outdir", str(tmp_path)]
    )
    assert rc == 0
    kv = last_result(capsys)
    assert float(kv["residual"]) <= 1e-7
    # 65² is the largest grid solved alone: Newton from the border data,
    # then the second-variation check
    assert 1 <= int(kv["newton_steps"]) <= int(kv["cg_iterations"])
    assert int(kv["escapes"]) == 0
    assert float(kv["q"]) >= 0.95
    assert float(kv["seconds"]) > 0.0
    u = read_field(tmp_path / "u.csv")
    v = read_field(tmp_path / "v.csv")
    assert u.grid == v.grid
    assert u.grid.nx == 65
    assert float(np.min(u.values)) >= 0.0


def test_solve2d_reports_newton_work(tmp_path, capsys):
    # 129² is solved on 65² first, then by Newton steps on 129²; the
    # counts are totals over both grids, the certificate the 65² grid's
    assert main(["solve2d", "--n", "129", "--outdir", str(tmp_path)]) == 0
    kv = last_result(capsys)
    assert float(kv["residual"]) <= 1e-8
    assert 2 <= int(kv["newton_steps"]) <= 15
    assert int(kv["newton_steps"]) <= int(kv["cg_iterations"])
    assert int(kv["escapes"]) == 0
    assert float(kv["q"]) >= 0.95


def test_diag_frequency_passes_on_linear_pair(linear_files, tmp_path, capsys):
    in_u, in_v = linear_files
    rc = main(
        ["diag", "--functional", "N", "--kappa", "1.0",
         "--in-u", str(in_u), "--in-v", str(in_v),
         "--radii", "0.3,0.5,0.7,0.9", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    kv = last_result(capsys)
    assert kv["status"] == "pass"
    assert float(kv["min_slope"]) >= -float(kv["eps_mono"])
    lines = (tmp_path / "diag.csv").read_text().strip().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "r,value,eps_mono"
    # each judged row carries the tolerance it was judged against
    first_row = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert float(first_row[2]) == pytest.approx(5.0 / 64.0)


def test_diag_other_functionals_report_done(linear_files, tmp_path, capsys):
    in_u, in_v = linear_files
    rc = main(
        ["diag", "--functional", "J", "--kappa", "1.0",
         "--in-u", str(in_u), "--in-v", str(in_v),
         "--radii", "0.3,0.6,0.9", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    kv = last_result(capsys)
    assert kv["status"] == "done"
    assert float(kv["min"]) == pytest.approx(np.pi**2 / 4.0, rel=0.05)


def test_blowdown_from_files(linear_files, tmp_path, capsys):
    in_u, in_v = linear_files
    rc = main(
        ["blowdown", "--in-u", str(in_u), "--in-v", str(in_v),
         "--radii", "0.3,0.5,0.8", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    kv = last_result(capsys)
    assert float(kv["gap_deg"]) <= 1e-3
    lines = (tmp_path / "blowdown.csv").read_text().strip().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "R,L,e_x,e_y,flatness,deficit"
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 3
    assert float(rows[-1][1]) == pytest.approx(np.sqrt(np.pi) * 0.8, rel=1e-3)


def test_spheremin_json_report(tmp_path, capsys):
    rc = main(
        ["spheremin", "--kappa", "200", "--m", "64", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    kv = last_result(capsys)
    doc = json.loads((tmp_path / "spheremin.json").read_text())
    assert doc["kappa"] == 200.0
    assert doc["value"] == pytest.approx(float(kv["value"]))
    assert doc["value"] <= doc["value_ceiling"]
    assert 0.0 < doc["mult1"] < 1.0


def test_run_json_config(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        json.dumps(
            {"scenario": "profile", "name": "profile-smoke",
             "half_length": 10.0, "spacing": 0.1}
        )
    )
    rc = main(["run", str(cfg), "--outdir", str(tmp_path / "out")])
    assert rc == 0
    kv = last_result(capsys)
    assert kv["name"] == "profile-smoke"
    assert (tmp_path / "out" / "profile.csv").exists()


def test_run_json_accept_config(tmp_path, capsys, monkeypatch):
    calls = _fake_suite(monkeypatch)
    cfg = tmp_path / "accept.json"
    cfg.write_text('{"scenario": "accept"}')
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "suite")]) == 0
    assert calls == [tmp_path / "suite"]
    assert last_result(capsys)["name"] == "accept"


def test_json_outdir_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"scenario": "profile", "outdir": str(tmp_path / "out")}))
    assert main(["run", str(cfg)]) == 1
    assert "config field 'outdir'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [{"half_length": 10.0}, {"scenario": 3}, {"scenario": None}])
def test_missing_or_non_string_scenario_exits_1(tmp_path, capsys, doc):
    # one check covers both a config without the key and a non-string id
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config field 'scenario': required; expected a string scenario id" in err
    assert not (tmp_path / "out").exists()


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["spheremin", "--kappa", "-5", "--outdir", str(tmp_path)]) == 1
    assert "kappa" in capsys.readouterr().err
    assert main(["diag", "--functional", "N", "--in-u", "only_one.csv",
                 "--outdir", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "profile", oops}')
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1, 2, 3]")
    assert main(["run", str(notdict)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"scenario": "profile", "wat": 1}')
    assert main(["run", str(unknown)]) == 1
    badtype = tmp_path / "badtype.json"
    badtype.write_text('{"scenario": "solve2d", "kappa": "high"}')
    assert main(["run", str(badtype)]) == 1
    noscenario = tmp_path / "nos.json"
    noscenario.write_text('{"half_length": 10.0}')
    assert main(["run", str(noscenario)]) == 1
    badscen = tmp_path / "bs.json"
    badscen.write_text('{"scenario": "warp"}')
    assert main(["run", str(badscen)]) == 1
    assert main(["run"]) == 1
    assert main(["run", "--preset", "profile"]) == 1
    assert main(["profile", "--no-such-flag"]) == 1


@pytest.mark.parametrize(
    "argv, field",
    [
        (["spheremin", "--kappa", "nan", "--m", "16"], "kappa"),
        (["spheremin", "--kappa", "inf", "--m", "16"], "kappa"),
        (["spheremin", "--lambda", "nan", "--m", "16"], "lambda"),
        (["spheremin", "--lambda", "0", "--m", "16"], "lambda"),
        (["solve2d", "--kappa", "nan", "--n", "17"], "kappa"),
        (["spheresweep", "--kappas", "100,nan,10000", "--m", "16"], "kappas"),
        (["spheresweep", "--lambda", "-1", "--m", "16"], "lambda"),
    ],
)
def test_nonfinite_or_nonpositive_coupling_exits_1(tmp_path, capsys, argv, field):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, field",
    [
        (["spheresweep", "--kappas", "100,x,10000", "--m", "16"], "kappas"),
        (["diag", "--radii", "0.3,x,0.9"], "radii"),
        (["blowdown", "--radii", "8,sixteen,32"], "radii"),
    ],
)
def test_bad_number_list_names_its_flag(tmp_path, capsys, argv, field):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"config field '{field}': expected comma-separated numbers" in err
    assert not any(tmp_path.iterdir())


def test_unknown_functional_exits_1_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a pair was solved for a rejected functional")

    monkeypatch.setattr(cli, "solve_system", no_solve)
    assert main(["diag", "--functional", "X", "--n", "17", "--outdir", str(tmp_path)]) == 1
    assert "config field 'functional'" in capsys.readouterr().err


def test_nonfinite_json_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"scenario": "spheresweep", "lambda": NaN}')
    assert main(["run", str(cfg), "--outdir", str(tmp_path / "out")]) == 1
    assert "config field 'lambda'" in capsys.readouterr().err


def test_input_errors_exit_2(tmp_path, capsys):
    rc = main(["blowdown", "--in-u", str(tmp_path / "ghost_u.csv"),
               "--in-v", str(tmp_path / "ghost_v.csv"), "--outdir", str(tmp_path)])
    assert rc == 2
    assert "ghost_u.csv" in capsys.readouterr().err
    missing_cfg = tmp_path / "ghost.json"
    assert main(["run", str(missing_cfg)]) == 2


def _nan_cell(text):
    lines = text.splitlines()
    row = lines[5].split(",")
    row[3] = "nan"
    lines[5] = ",".join(row)
    return "\n".join(lines) + "\n"


def _truncated(text):
    return "\n".join(text.splitlines()[:-3]) + "\n"


@pytest.mark.parametrize("damage", [_nan_cell, _truncated])
def test_invalid_field_file_exits_2(linear_files, tmp_path, capsys, damage):
    in_u, in_v = linear_files
    bad = tmp_path / "bad_u.csv"
    bad.write_text(damage(in_u.read_text()))
    outdir = tmp_path / "out"
    rc = main(["diag", "--functional", "N", "--kappa", "1.0",
               "--in-u", str(bad), "--in-v", str(in_v), "--outdir", str(outdir)])
    assert rc == 2
    assert "bad_u.csv" in capsys.readouterr().err
    assert not outdir.exists()


def test_spheremin_reports_iterations_and_kkt(tmp_path, capsys):
    assert main(["spheremin", "--kappa", "200", "--m", "64", "--outdir", str(tmp_path)]) == 0
    kv = last_result(capsys)
    doc = json.loads((tmp_path / "spheremin.json").read_text())
    assert int(kv["iterations"]) == doc["iterations"] >= 1
    # the cap start is no ground state, so the first solve takes a step
    assert int(kv["eigen_steps"]) == doc["eigen_steps"] >= 1
    assert doc["eigen_steps"] == minimize_spherical(200.0, 1.0, 64).eigen_steps
    assert float(kv["kkt"]) == pytest.approx(doc["kkt"], rel=1e-9)
    assert doc["kkt"] <= 1e-6


def test_spheresweep_reports_iterations_and_kkt(tmp_path, capsys):
    kappas = [100.0, 1000.0, 10000.0]
    assert main(["spheresweep", "--kappas", "100,1000,10000", "--m", "32",
                 "--outdir", str(tmp_path)]) == 0
    kv = last_result(capsys)
    reports = kappa_sweep(kappas, 1.0, 32).reports
    assert int(kv["max_iterations"]) == max(r.iterations for r in reports) >= 1
    assert int(kv["max_eigen_steps"]) == max(r.eigen_steps for r in reports) >= 1
    assert float(kv["max_kkt"]) == pytest.approx(max(r.kkt for r in reports), rel=1e-9)
    assert float(kv["max_kkt"]) <= 1e-6


def test_numerical_failure_exit_3(tmp_path, capsys):
    g = square_grid(1.0, 65)
    zero = Field.zeros(g)
    write_field(zero, tmp_path / "zu.csv")
    write_field(zero, tmp_path / "zv.csv")
    rc = main(["diag", "--functional", "N", "--kappa", "1.0",
               "--in-u", str(tmp_path / "zu.csv"), "--in-v", str(tmp_path / "zv.csv"),
               "--radii", "0.3,0.5,0.7", "--outdir", str(tmp_path)])
    assert rc == 3
    assert "zero" in capsys.readouterr().err.lower()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowed_trace_exits_3(tmp_path, capsys):
    # u^2 + v^2 overflows: a numerical failure (3), not a config error (1)
    g = square_grid(1.0, 65)
    u, v = linear_pair(g)
    write_field(Field(g, 1e200 * u.values), tmp_path / "bu.csv")
    write_field(Field(g, 1e200 * v.values), tmp_path / "bv.csv")
    rc = main(["diag", "--functional", "N", "--kappa", "1.0",
               "--in-u", str(tmp_path / "bu.csv"), "--in-v", str(tmp_path / "bv.csv"),
               "--radii", "0.3,0.5,0.7", "--outdir", str(tmp_path / "out")])
    assert rc == 3
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "diag.csv").exists()


def test_descent_breakdown_exits_3(tmp_path, capsys, monkeypatch):
    from segsym import sphere

    monkeypatch.setattr(
        sphere, "_value_and_quotients", lambda *a: (float("nan"), 1.0, 1.0, 0.0)
    )
    assert main(["spheremin", "--kappa", "200", "--m", "16", "--outdir", str(tmp_path)]) == 3
    assert "descent" in capsys.readouterr().err


# every subcommand's help text and flag defaults, frozen so that no knob
# moves unnoticed; every subcommand also takes --outdir (default ".")
FROZEN_SCENARIOS = {
    "profile": (
        "entire 1D profile: residual, reflection symmetry, interface decay",
        {"half_length": 20.0, "spacing": 0.05, "tol": 1e-10, "out": "profile.csv"},
    ),
    "solve2d": (
        "planar system solve with half-plane boundary data; writes both fields",
        {"kappa": 100.0, "n": 129, "half_width": 1.0, "tol": 1e-8,
         "out_u": "u.csv", "out_v": "v.csv"},
    ),
    "diag": (
        "Almgren frequency trace on a freshly solved pair, judged for monotonicity",
        {"functional": "N", "kappa": 100.0, "in_u": None, "in_v": None, "n": 129,
         "half_width": 1.0, "center_x": 0.0, "center_y": 0.0,
         "radii": [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45], "tol": 1e-8,
         "out": "diag.csv"},
    ),
    "spheremin": (
        "constrained spherical minimization at a single kappa",
        {"kappa": 1000.0, "lambda": 1.0, "m": 256, "n": 2, "out": "spheremin.json"},
    ),
    "spheresweep": (
        "minimization sweep across kappa: value ceiling and deficit power law",
        {"kappas": [100.0, 1000.0, 10000.0], "lambda": 1.0, "m": 256,
         "out": "spheresweep.csv"},
    ),
    "blowdown": (
        "blow-down of the 1D profile extension: direction, flatness and deficit decay",
        {"in_u": None, "in_v": None, "half_length": 46.0, "spacing": 0.05, "n": 513,
         "half_width": 32.0, "radii": [4.0, 6.0, 8.0], "out": "blowdown.csv"},
    ),
    "accept": (
        "full acceptance suite: thirteen criteria, per-criterion CSVs and results.csv",
        {},
    ),
}


def _typed(params):
    return {k: (type(v), v) for k, v in params.items()}


def _flag_text(value):
    if value is None:
        return "given.csv"
    if isinstance(value, list):
        return ",".join(repr(x) for x in value)
    return str(value)


def test_no_knob_moved():
    assert sum(len(d) for _, d in FROZEN_SCENARIOS.values()) == 38
    assert list(cli.SCENARIOS) == list(FROZEN_SCENARIOS)
    parser = cli._parser()
    for name, (text, defaults) in FROZEN_SCENARIOS.items():
        assert cli.SCENARIOS[name].description == text
        assert _typed(cli.validate_params(name, {})) == _typed(defaults)
        args = parser.parse_args([name])
        assert set(vars(args)) == {"cmd", "outdir", *defaults}
        assert args.outdir == "."
        # every flag is spelled as before and parses to its default's type
        argv = [name]
        for key, value in defaults.items():
            argv += ["--" + key.replace("_", "-"), _flag_text(value)]
        given = {k: "given.csv" if v is None else v for k, v in defaults.items()}
        parsed = cli.validate_params(name, cli._collect(parser.parse_args(argv), name))
        assert _typed(parsed) == _typed(given)


# the documented exit code of every concrete error class: 1 config,
# 2 input, 3 numerical
EXIT_CODES = {
    "ConfigInvalid": 1,
    "NegativeInput": 1,
    "OutputUnwritable": 1,
    "BallOutsideDomain": 2,
    "PointOutsideDomain": 2,
    "DomainTooLarge": 2,
    "InputMissing": 2,
    "InputInvalid": 2,
    "NoConvergence": 3,
    "NumericalBreakdown": 3,
    "ZeroDenominator": 3,
    "NoSignChange": 3,
    "MultipleSignChanges": 3,
    "DeficitNonpositive": 3,
}

_ERROR_ARGS = {
    "ConfigInvalid": ("x", "bad"),
    "InputMissing": ("x.csv",),
    "InputInvalid": ("x.csv", "bad"),
    "OutputUnwritable": ("x.csv", "bad"),
    "NoConvergence": (7, 1.0),
}


def test_exit_code_table_covers_every_error_class():
    concrete = [
        name for name, c in vars(errors).items()
        if isinstance(c, type) and issubclass(c, errors.SegsymError) and not c.__subclasses__()
    ]
    assert sorted(concrete) == sorted(EXIT_CODES)


@pytest.mark.parametrize(
    "exc, code",
    [
        (getattr(errors, n)(*_ERROR_ARGS.get(n, ("boom",))), c)
        for n, c in EXIT_CODES.items()
    ]
    + [(ValueError("boom"), 1), (FileNotFoundError("boom"), 2)],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None,
)
def test_error_exit_code(tmp_path, capsys, monkeypatch, exc, code):
    def failing_runner(params, outdir):
        raise exc

    sc = cli.SCENARIOS["profile"]
    monkeypatch.setitem(cli.SCENARIOS, "profile", sc._replace(run=failing_runner))
    assert main(["profile", "--outdir", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith("error: ")


def _with_header(text, h, ox, oy):
    lines = text.splitlines()
    lines[1] = f"# 33,33,{h},{ox},{oy}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "h, ox, oy",
    [
        (0.0625, "nan", -1.0),
        (0.0625, -1.0, "nan"),
        ("inf", -1.0, -1.0),
        (0.0625, "-inf", -1.0),
        (0.0625, -1.0, "inf"),
        (1e308, -1.0, -1.0),
    ],
)
def test_nonfinite_grid_header_exits_2(tmp_path, capsys, h, ox, oy):
    u, v = linear_pair(square_grid(1.0, 33))
    paths = []
    for name, f in (("hu.csv", u), ("hv.csv", v)):
        write_field(f, tmp_path / name)
        path = tmp_path / name
        path.write_text(_with_header(path.read_text(), h, ox, oy))
        paths.append(path)
    outdir = tmp_path / "out"
    rc = main(["diag", "--functional", "N", "--kappa", "1.0", "--radii", "0.3,0.5",
               "--in-u", str(paths[0]), "--in-v", str(paths[1]), "--outdir", str(outdir)])
    assert rc == 2
    assert "hu.csv" in capsys.readouterr().err
    assert not outdir.exists()


def _non_utf8(path):
    path.write_bytes(b"# segsym field\n# 3,3,\xff\n")
    return path


@pytest.mark.parametrize(
    "make, flag",
    [
        (lambda d: d / "sub", "--in-u"),
        (lambda d: _non_utf8(d / "latin.csv"), "--in-u"),
        (lambda d: d / "sub", "run"),
        (lambda d: _non_utf8(d / "latin.json"), "run"),
    ],
    ids=["dir-field", "non-utf8-field", "dir-config", "non-utf8-config"],
)
def test_unreadable_input_exits_2(linear_files, tmp_path, capsys, make, flag):
    (tmp_path / "sub").mkdir()
    bad = make(tmp_path)
    outdir = tmp_path / "out"
    if flag == "run":
        argv = ["run", str(bad)]
    else:
        argv = ["diag", "--in-u", str(bad), "--in-v", str(linear_files[1])]
    assert main(argv + ["--outdir", str(outdir)]) == 2
    assert f"invalid input file {bad}" in capsys.readouterr().err
    assert not outdir.exists() or not any(outdir.iterdir())


_PROFILE = ["profile", "--half-length", "10", "--spacing", "0.1"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (_PROFILE + ["--outdir", "F"], "F/profile.csv"),
        (_PROFILE + ["--out", "F/x.csv"], "F/x.csv"),
        (_PROFILE + ["--out", "D"], "D"),
        (["accept", "--outdir", "F"], "F/01_profile.csv"),
    ],
    ids=["outdir-is-file", "out-under-file", "out-is-dir", "accept-outdir-is-file"],
)
def test_unwritable_output_exits_1(tmp_path, capsys, monkeypatch, argv, path):
    # F is a file and D a directory, so neither can be made or replaced
    # by an output file; the run exits 1 naming the path and writes nothing
    (tmp_path / "F").write_text("a file\n")
    (tmp_path / "D").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {path}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "F"]
    assert (tmp_path / "F").read_text() == "a file\n"
    assert not any((tmp_path / "D").iterdir())


def test_outputs_create_nested_directories(tmp_path, capsys):
    assert main(["solve2d", "--n", "17", "--out-u", "a/b/u.csv", "--out-v", "c/v.csv",
                 "--outdir", str(tmp_path)]) == 0
    assert read_field(tmp_path / "a" / "b" / "u.csv").grid.nx == 17
    assert read_field(tmp_path / "c" / "v.csv").grid.nx == 17
    assert main(["spheremin", "--kappa", "200", "--m", "16", "--out", "d/e.json",
                 "--outdir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "d" / "e.json").read_text())["m"] == 16
