"""End-to-end checks of the command-line front end: RESULT lines, exit
codes (1 config, 2 input, 3 numerical), CSV shapes, presets."""

import json

import numpy as np
import pytest

from segsym import cli
from segsym.cli import main
from segsym.grid import Field, read_field, square_grid, write_field
from segsym.presets import linear_pair
from segsym.sphere import kappa_sweep


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


def test_list_presets_alphabetical(capsys):
    assert main(["list-presets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ids = [ln.split()[0] for ln in lines]
    assert ids == sorted(ids)
    assert "accept" in ids and "blowdown" in ids and "spheresweep" in ids
    for ln in lines:
        assert len(ln.split(None, 1)) == 2, f"missing description: {ln!r}"


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
    u = read_field(tmp_path / "u.csv")
    v = read_field(tmp_path / "v.csv")
    assert u.grid == v.grid
    assert u.grid.nx == 65
    assert float(np.min(u.values)) >= 0.0


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


def test_run_preset_profile(tmp_path, capsys):
    rc = main(["run", "--preset", "profile", "--outdir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "profile.csv").exists()


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
    assert main(["run", str(bad), "--preset", "profile"]) == 1
    assert main(["run"]) == 1
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
    assert not any(outdir.iterdir())


def test_spheremin_reports_iterations_and_kkt(tmp_path, capsys):
    assert main(["spheremin", "--kappa", "200", "--m", "64", "--outdir", str(tmp_path)]) == 0
    kv = last_result(capsys)
    doc = json.loads((tmp_path / "spheremin.json").read_text())
    assert int(kv["iterations"]) == doc["iterations"] >= 1
    assert float(kv["kkt"]) == pytest.approx(doc["kkt"], rel=1e-9)
    assert doc["kkt"] <= 1e-6


def test_spheresweep_reports_iterations_and_kkt(tmp_path, capsys):
    kappas = [100.0, 1000.0, 10000.0]
    assert main(["spheresweep", "--kappas", "100,1000,10000", "--m", "32",
                 "--outdir", str(tmp_path)]) == 0
    kv = last_result(capsys)
    reports = kappa_sweep(kappas, 1.0, 32).reports
    assert int(kv["max_iterations"]) == max(r.iterations for r in reports) >= 1
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
