import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfgstop import cli, evolutive
from mfgstop.cli import main
from mfgstop.grid import FieldTrajectory, ScalarField, write_field_csv, write_trajectory_csv
from mfgstop.obstacle import ObstacleConvergenceError
from mfgstop.stationary import CoupledConfig, CoupledNonConvergence

BASE_CONFIG = {
    "problem": "sosmfg",
    "method": "continuation",
    "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [31]},
    "cost": {"kind": "local_power", "a": 1.0, "p": 1.0,
             "f0": {"kind": "constant", "value": -0.5}},
    "rho": {"kind": "raised_cosine", "peak": 1.0},
    "eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 8},
    "tolerances": {
        "outer": 1e-9, "pde": 1e-8,
        "acceptance": {"r_obstacle": 1e-6, "r_continuation": 1e-6,
                       "r_subsolution": 1e-6, "r_contact": 1e-6, "r_duality": 1e-6},
    },
    "seed": 0,
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only control.fenchel_conjugate needs scipy.optimize; no command
    # should pay for importing it at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, mfgstop.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_parser_is_built_on_first_use_and_reused(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import mfgstop.cli as c; print(c._parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"
    assert cli._parser() is cli._parser()
    for argv, code in ((["verify", "--u", "u.csv"], 2), (["bogus"], 2), (["--help"], 0),
                       (["verify", "--u", "u.csv"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    err = capsys.readouterr().err
    assert err.count("the following arguments are required: --m, --config") == 2


def test_run_monotone_1d_succeeds(tmp_path):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("u.csv", "m.csv", "report.json", "convergence.csv", "manifest.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["r_duality"] <= 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"]
    assert len(manifest["config_sha256"]) == 64


def test_incompatible_method_rejected(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "osmfg", "method": "variational",
        "timegrid": {"horizon": 1.0, "n_steps": 10},
        "m0": {"kind": "gaussian"}, "rho": None,
    })
    assert main(["run", "--config", str(cfg)]) == 2


def test_missing_file_rejected(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": "sosmfg",')
    assert main(["run", "--config", str(path)]) == 2


def test_missing_acceptance_thresholds_rejected(tmp_path):
    cfg = write_config(tmp_path, {"tolerances": {"outer": 1e-9, "pde": 1e-8}})
    assert main(["run", "--config", str(cfg)]) == 2


def test_verify_round_trip_and_corruption(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["verify", "--u", str(out / "u.csv"), "--m", str(out / "m.csv"),
                 "--config", str(cfg)]) == 0
    # corrupt one density node: residuals jump, exit 1
    lines = (out / "m.csv").read_text().splitlines()
    cells = lines[16].split(",")
    cells[-1] = format(float(cells[-1]) + 1.0, ".17g")
    lines[16] = ",".join(cells)
    bad = tmp_path / "m_bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--u", str(out / "u.csv"), "--m", str(bad),
                 "--config", str(cfg)]) == 1


def test_verify_empty_file_rejected(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", "--u", str(empty), "--m", str(out / "m.csv"),
                 "--config", str(cfg)]) == 2


def test_scenario_counterexamples(tmp_path):
    assert main(["scenario", "nonuniqueness", "--out", str(tmp_path / "s1")]) == 0
    bundle = json.loads((tmp_path / "s1" / "scenario_nonuniqueness.json").read_text())
    assert bundle["confirmed"] is True
    assert main(["scenario", "nonexistence", "--out", str(tmp_path / "s2")]) == 0
    assert main(["scenario", "obstacle_nonuniqueness", "--out", str(tmp_path / "s3")]) == 0


def test_scenario_unknown_name(tmp_path):
    assert main(["scenario", "bogus", "--out", str(tmp_path)]) == 2


def test_output_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MFGSTOP_OUT", str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)  # no output_dir in config
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "env_out" / "report.json").exists()


OSMFG_RUN = {
    "problem": "osmfg",
    "method": "continuation",
    "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [15]},
    "timegrid": {"horizon": 0.5, "n_steps": 10},
    "m0": {"kind": "gaussian", "sigma": 0.1, "mass": 1.0},
    "rho": None,
    "obstacle": {"kind": "zero"},
    "eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 5},
    "tolerances": {"outer": 1e-9, "pde": 1e-8,
                   "acceptance": {"r_duality": 1e-4, "r_terminal": 1e-10,
                                  "r_initial": 1e-10}},
}


def test_osmfg_run_and_verify(tmp_path):
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    assert (out / "u_manifest.json").exists()
    assert main(["verify", "--u", str(out / "u_manifest.json"),
                 "--m", str(out / "m_manifest.json"), "--config", str(cfg)]) == 0


@pytest.mark.parametrize("edit", [
    pytest.param(lambda u, m: u.pop("files"), id="missing-files"),
    pytest.param(lambda u, m: u.update(n_steps=str(u["n_steps"])), id="string-n_steps"),
    pytest.param(lambda u, m: (u.update(horizon=50.0), m.update(horizon=50.0)),
                 id="other-horizon"),
])
def test_verify_rejects_bad_trajectory_manifest(tmp_path, edit):
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    paths = [out / "u_manifest.json", out / "m_manifest.json"]
    manifests = [json.loads(p.read_text()) for p in paths]
    edit(*manifests)
    for path, manifest in zip(paths, manifests):
        path.write_text(json.dumps(manifest))
    assert main(["verify", "--u", str(paths[0]), "--m", str(paths[1]),
                 "--config", str(cfg)]) == 2


def test_verify_rejects_malformed_field_file(tmp_path, capsys, bad_field_edit):
    cfg = write_config(tmp_path, {"grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [5]}})
    grid = cli.load_config(str(cfg)).grid
    u, m = tmp_path / "u.csv", tmp_path / "m.csv"
    write_field_csv(ScalarField.zeros(grid), m)
    write_field_csv(ScalarField(grid, np.arange(5.0)), u)
    u.write_bytes(("\n".join(bad_field_edit(u.read_text().splitlines())) + "\n").encode("utf-8"))
    assert main(["verify", "--u", str(u), "--m", str(m), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot verify:") and "Traceback" not in err


def test_verify_rejects_trajectory_with_shifted_slice(tmp_path, capsys):
    cfg = write_config(tmp_path, OSMFG_RUN)
    config = cli.load_config(str(cfg))
    traj = FieldTrajectory.constant(config.grid, config.timegrid, 0.0)
    u, m = (write_trajectory_csv(traj, tmp_path, prefix) for prefix in ("u", "m"))
    shifted = tmp_path / "m_0003.csv"
    lines = shifted.read_text().splitlines()
    lines[1:] = [f"{float(x) * 1.01!r},{v}" for x, v in (ln.split(",") for ln in lines[1:])]
    shifted.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--u", u, "--m", m, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "m_0003.csv" in err and "Traceback" not in err


def tolerances(**acceptance):
    return {"outer": 1e-9, "pde": 1e-8, "acceptance": acceptance}


HEAT_FROM_G = {"kind": "heat_from_g", "g": {"kind": "local_power", "a": 0.5, "p": 1.0,
                                            "f0": {"kind": "constant", "value": 0.0}}}
COSMFG_RUN = {
    "problem": "cosmfg",
    "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [15]},
    "timegrid": {"horizon": 0.5, "n_steps": 4},
    "m0": {"kind": "gaussian", "sigma": 0.1, "mass": 1.0},
    "rho": None,
    "hamiltonian": {"kind": "smoothed_norm", "beta": {"kind": "constant", "value": 1.0}},
    "eps_schedule": {"start": 1e-3, "factor": 4.0, "stages": 3},
    # residuals that do not depend on the contact threshold, which
    # mfgstop verify takes from the trajectories instead of the band
    "tolerances": tolerances(r_hjb=1e-3, r_subsolution=1e-10, r_boundary_terminal=1e-10,
                             duality_diagnostic=1e-3),
}


# mfgstop verify classifies contact with the default threshold, while
# report.json of a time-dependent run uses the band of its last stage
# (manifest.json's delta_c), so r_continuation and r_contact of the two
# may differ there; the time-dependent cases compare the other residuals
@pytest.mark.parametrize("overrides, keys", [
    ({}, ("r_obstacle", "r_continuation", "r_subsolution", "r_contact", "r_duality")),
    (OSMFG_RUN, ("r_obstacle", "r_subsolution", "r_duality", "r_terminal", "r_initial")),
    (COSMFG_RUN, ("r_hjb", "r_subsolution", "duality_diagnostic", "r_boundary_terminal")),
], ids=["sosmfg", "osmfg", "cosmfg"])
def test_verify_reproduces_report(tmp_path, capsys, overrides, keys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    stored = json.loads((out / "report.json").read_text())
    names = ("u.csv", "m.csv") if not overrides else ("u_manifest.json", "m_manifest.json")
    assert main(["verify", "--u", str(out / names[0]), "--m", str(out / names[1]),
                 "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    for key in keys:
        assert abs(printed[key] - stored[key]) <= 1e-14, key


@pytest.mark.parametrize("overrides", [{}, {**OSMFG_RUN, "obstacle": HEAT_FROM_G}, COSMFG_RUN],
                         ids=["sosmfg", "osmfg-heat_from_g", "cosmfg"])
def test_run_is_bitwise_deterministic(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    for name in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    files = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "b").iterdir())
    assert {"report.json", "convergence.csv", "manifest.json"} <= set(files)
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_cosmfg_run_writes_one_row_per_stage_and_verifies(tmp_path):
    out = tmp_path / "cos"
    cfg = write_config(tmp_path, {**COSMFG_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    header, *rows = [line.split(",") for line in
                     (out / "convergence.csv").read_text().splitlines()]
    assert [int(row[0]) for row in rows] == [0, 1, 2]
    assert [float(row[1]) for row in rows] == [1e-3, 2.5e-4, 6.25e-5]
    report = json.loads((out / "report.json").read_text())
    last = dict(zip(header, rows[-1]))
    residuals = [key for key in header if key.startswith("r_")]
    assert set(residuals) == {key for key in report if key.startswith("r_")}
    assert all(float(last[key]) == report[key] for key in residuals)
    assert main(["verify", "--u", str(out / "u_manifest.json"),
                 "--m", str(out / "m_manifest.json"), "--config", str(cfg)]) == 0


def test_stage_nonconvergence_reports_its_stage(tmp_path, monkeypatch):
    # only the last stage of a continuation is strict, so stage 1 of 3
    # fails only when its solve is made strict, here with a one-step
    # Newton that cannot reach its tolerance
    solve = evolutive.forward_backward_solve
    stage_epsilons = []

    def second_stage_fails(cost, m0, timegrid, epsilon, config=None, **kwargs):
        stage_epsilons.append(epsilon)
        if len(stage_epsilons) == 2:
            config = CoupledConfig(max_outer=1, tol_pde=1e-16)
            kwargs["strict"] = True
        return solve(cost, m0, timegrid, epsilon, config, **kwargs)

    monkeypatch.setattr(evolutive, "forward_backward_solve", second_stage_fails)
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out),
                                  "eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 3}})
    assert main(["run", "--config", str(cfg)]) == 3
    assert json.loads((out / "failure.json").read_text())["stage"] == 1
    stage_epsilons.clear()
    run = cli.load_config(cfg)
    with pytest.raises(CoupledNonConvergence) as err:
        evolutive.osmfg_continuation(run.cost, run.obstacle_op, run.m0, run.timegrid,
                                     run.eps_schedule, run.coupled)
    assert err.value.stage == 1


TIME_DEPENDENT = {"timegrid": {"horizon": 0.5, "n_steps": 4}, "rho": None,
                  "m0": {"kind": "gaussian", "sigma": 0.1, "mass": 1.0}}
OSMFG = {"problem": "osmfg", **TIME_DEPENDENT}
COSMFG = {"problem": "cosmfg", **TIME_DEPENDENT,
          "hamiltonian": {"kind": "smoothed_norm", "beta": {"kind": "constant", "value": 1.0}}}
NONLOCAL_COST = {"kind": "nonlocal_affine", "c0": -0.5, "c1": 1.0,
                 "weight": {"kind": "constant", "value": 1.0}}
ANTI_MONOTONE_COST = {"kind": "local_power", "a": -1.0, "p": 1.0,
                      "f0": {"kind": "constant", "value": 0.5}}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides, reason", [
    ({"tolerances": tolerances(r_dualty=1e-6)}, "r_dualty"),
    ({**COSMFG, "tolerances": tolerances(r_hjb=1e-30, r_duality=1e-30)}, "r_duality"),
    ({"tolerances": tolerances(r_duality=None)}, "NoneType"),
    ({**OSMFG, "cost": NONLOCAL_COST}, "local cost"),
    ({**COSMFG, "cost": NONLOCAL_COST, "tolerances": tolerances(r_hjb=1e-6)}, "local cost"),
    ({"eps_schedule": []}, "eps_schedule"),
    ({"eps_schedule": [1e-2, 1e-2]}, "eps_schedule"),
    ({"eps_schedule": {"start": 0.1, "factor": 0.5, "stages": 3}}, "eps_schedule"),
    ({"eps_schedule": {"start": 0.1, "factor": 0.0, "stages": 3}}, "eps_schedule"),
    ({"rho": {"kind": "constant", "value": -1.0}}, "rho"),
    ({**OSMFG, "m0": {"kind": "constant", "value": -1.0}}, "m0"),
    ({"method": "monotone_iteration"}, "anti-monotone"),
    ({"method": "variational", "cost": ANTI_MONOTONE_COST}, "strictly monotone"),
    ({"method": "variational", "cost": NONLOCAL_COST}, "strictly monotone"),
    # non-finite numbers, which Python's json reads from NaN and Infinity
    ({**OSMFG, "timegrid": {"horizon": NAN, "n_steps": 4}}, "timegrid.horizon"),
    ({**OSMFG, "timegrid": {"horizon": INF, "n_steps": 4}}, "timegrid.horizon"),
    ({**OSMFG, "timegrid": {"horizon": 0.5, "n_steps": INF}}, "timegrid.n_steps"),
    ({**OSMFG, "timegrid": {"horizon": 10**400, "n_steps": 4}}, "too large"),
    ({"eps_schedule": [1e-1, NAN, 1e-3]}, "eps_schedule"),
    ({"eps_schedule": {"start": INF, "factor": 4.0, "stages": 3}}, "eps_schedule.start"),
    ({"tolerances": {"outer": 1e-9, "pde": NAN, "acceptance": {"r_duality": 1e-6}}},
     "tolerances.pde"),
    ({"tolerances": {"outer": INF, "pde": 1e-8, "acceptance": {"r_duality": 1e-6}}},
     "tolerances.outer"),
    ({"tolerances": tolerances(r_duality=INF)}, "tolerances.acceptance"),
    ({"cost": {**BASE_CONFIG["cost"], "a": NAN}}, "cost.a"),
    ({"cost": {**BASE_CONFIG["cost"], "f0": {"kind": "constant", "value": -INF}}}, "cost.f0"),
    ({**OSMFG, "m0": {"kind": "values", "values": [0.1] * 30 + [NAN]}}, "m0"),
    ({"grid": {"dim": 1, "bounds": [[0.0, NAN]], "n_interior": [31]}}, "grid.bounds"),
], ids=["acceptance-typo", "acceptance-not-in-report", "acceptance-null",
        "nonlocal-osmfg", "nonlocal-cosmfg", "empty-schedule", "flat-schedule",
        "increasing-schedule", "zero-factor-schedule", "negative-rho", "negative-m0",
        "monotone-iteration-on-monotone-cost", "variational-on-anti-monotone-cost",
        "variational-on-nonlocal-cost",
        "nan-horizon", "inf-horizon", "inf-n_steps", "huge-horizon", "nan-eps-entry",
        "inf-eps-start", "nan-pde-tol", "inf-outer-tol", "inf-acceptance", "nan-cost-a",
        "inf-cost-f0", "nan-m0-value", "nan-grid-bound"])
def test_invalid_input_rejected_before_solving(tmp_path, capsys, overrides, reason):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_residual_fails_acceptance(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    lines = (out / "m.csv").read_text().splitlines()
    lines[16] = lines[16].split(",")[0] + ",nan"
    bad = tmp_path / "m_nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--u", str(out / "u.csv"), "--m", str(bad),
                 "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command", ["run", "scenario"])
def test_obstacle_nonconvergence_exits_3(tmp_path, monkeypatch, command):
    def stall(*args, **kwargs):
        raise ObstacleConvergenceError("semismooth Newton did not converge", 0.5, 7)

    out = tmp_path / "out"
    if command == "run":
        monkeypatch.setattr(cli, "monotone_iteration_solve", stall)
        cfg = write_config(tmp_path, {"method": "monotone_iteration",
                                      "cost": ANTI_MONOTONE_COST, "output_dir": str(out)})
        assert main(["run", "--config", str(cfg)]) == 3
        failure = json.loads((out / "failure.json").read_text())
        assert failure["residual"] == 0.5 and failure["iterations"] == 7
    else:
        monkeypatch.setattr(cli, "scenario_nonuniqueness", stall)
        assert main(["scenario", "nonuniqueness", "--out", str(out)]) == 3


KILLING_COST = {"kind": "local_power", "a": 1.0, "p": 1.0,
                "f0": {"kind": "constant", "value": -0.005}}
BISTABLE_COST = {"kind": "local_power", "a": -1.0, "p": 1.0,
                 "f0": {"kind": "constant", "value": 0.01}}


def run_density(tmp_path, method, cost):
    # exit 0: solved and within BASE_CONFIG's acceptance thresholds
    out = tmp_path / method
    cfg = write_config(tmp_path, {"method": method, "cost": cost, "output_dir": str(out)},
                       f"{method}.json")
    assert main(["run", "--config", str(cfg)]) == 0
    return np.loadtxt(out / "m.csv", delimiter=",", skiprows=1)[:, -1]


@pytest.mark.parametrize("method, cost", [("variational", KILLING_COST),
                                          ("monotone_iteration", BISTABLE_COST)])
def test_stationary_route_matches_continuation(tmp_path, method, cost):
    m_route = run_density(tmp_path, method, cost)
    m_cont = run_density(tmp_path, "continuation", cost)
    if method == "variational":
        assert np.max(np.abs(m_route - m_cont)) <= 1e-4
    else:  # the smallest solution: below the continuation route's, and not equal to it
        assert np.all(m_route <= m_cont + 1e-12) and np.any(m_route < m_cont - 1e-3)
