import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfgstop import _coupled, cli, evolutive, obstacle
from mfgstop.cli import main
from mfgstop.grid import (
    FieldTrajectory,
    ScalarField,
    read_trajectory_csv,
    write_field_csv,
    write_trajectory_csv,
)
from mfgstop.obstacle import ObstacleConvergenceError
from mfgstop.scenarios import STANDARD_NAMES
from mfgstop.stationary import CoupledNonConvergence

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
    # no command should pay for importing scipy.optimize at start-up,
    # which the package itself never imports
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


# a JSON text nested deeper than Python's recursion limit
DEEP = "[" * 3000 + "]" * 3000


@pytest.mark.parametrize("command", ["run", "verify"])
def test_deeply_nested_config_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    path = tmp_path / "deep.json"
    path.write_text('{"problem": "sosmfg", "output_dir": %s, "x": %s}'
                    % (json.dumps(str(out)), DEEP))
    argv = (["run", "--config", str(path)] if command == "run" else
            ["verify", "--u", str(tmp_path / "u.csv"), "--m", str(tmp_path / "m.csv"),
             "--config", str(path)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nested too deeply" in err
    assert err.count("\n") == 1 and not out.exists()


def test_config_too_deep_to_check_exits_2(tmp_path, monkeypatch, capsys):
    # a parser whose nesting limit exceeds the recursion limit hands the
    # config check a structure deeper than it can walk
    nested = []
    for _ in range(100_000):
        nested = [nested]
    cfg = write_config(tmp_path)
    monkeypatch.setattr(cli.json, "loads", lambda text: {**BASE_CONFIG, "x": nested})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "nested too deeply" in err
    assert not (tmp_path / "out").exists()


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


def test_verify_rejects_an_invalid_config(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    bad = write_config(tmp_path, {"tolerances": tolerances(r_dualty=1e-6)}, name="bad.json")
    capsys.readouterr()
    assert main(["verify", "--u", str(out / "u.csv"), "--m", str(out / "m.csv"),
                 "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "r_dualty" in err


def test_run_failing_its_acceptance_exits_1_after_writing_its_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"tolerances": tolerances(r_duality=1e-30),
                                  "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("acceptance failed: |r_duality| = ") and line.endswith("> 1.000e-30")
    assert (out / "report.json").exists() and (out / "convergence.csv").exists()


def test_failed_gate_prints_the_magnitude_it_compared(tmp_path, capsys):
    # a signed residual is gated by its magnitude, and on a failed gate
    # run and verify both print that magnitude, named as such, so the
    # printed inequality holds
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**COSMFG_RUN, "output_dir": str(out),
                                  "tolerances": tolerances(duality_diagnostic=1e-5)})
    assert main(["run", "--config", str(cfg)]) == 1
    value = json.loads((out / "report.json").read_text())["duality_diagnostic"]
    assert -1e-3 < value < -1e-5
    gate = f"|duality_diagnostic| = {-value:.3e} > 1.000e-05"
    assert capsys.readouterr().err.splitlines() == [f"acceptance failed: {gate}"]
    assert main(["verify", "--u", str(out / "u_manifest.json"),
                 "--m", str(out / "m_manifest.json"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"verification failed: {gate}"]


def test_verify_empty_file_rejected(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", "--u", str(empty), "--m", str(out / "m.csv"),
                 "--config", str(cfg)]) == 2


@pytest.mark.parametrize("name", list(STANDARD_NAMES) + [
    "nonuniqueness", "nonexistence", "nonexistence_ball", "obstacle_nonuniqueness"])
def test_scenario_counterexamples(tmp_path, name):
    assert main(["scenario", name, "--out", str(tmp_path)]) == 0
    bundle = json.loads((tmp_path / f"scenario_{name}.json").read_text())
    assert bundle["confirmed"] is True


@pytest.mark.parametrize("value", [1.0, float("nan")])
def test_control_scenario_gates_its_duality_diagnostic(tmp_path, monkeypatch, value):
    # the controlled report carries its duality signed, as
    # duality_diagnostic: past 1e-4 in size, or NaN, the scenario is not
    # confirmed
    evidence = cli.run_scenario_evidence

    def patched(scenario):
        found = evidence(scenario)
        return {**found, "report": dataclasses.replace(found["report"],
                                                       duality_diagnostic=value)}

    monkeypatch.setattr(cli, "run_scenario_evidence", patched)
    assert main(["scenario", "control_smoothnorm", "--out", str(tmp_path)]) == 1
    bundle = json.loads((tmp_path / "scenario_control_smoothnorm.json").read_text())
    assert bundle["confirmed"] is False


def test_scenario_unknown_name(tmp_path):
    assert main(["scenario", "bogus", "--out", str(tmp_path)]) == 2


def test_unknown_scenario_rejected_before_making_the_output_root(tmp_path, capsys):
    out = tmp_path / "f1"
    assert main(["scenario", "bogus", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("unknown scenario 'bogus'; available: ")
    assert not out.exists()


def test_output_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MFGSTOP_OUT", str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)  # no output_dir in config
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "env_out" / "report.json").exists()


@pytest.mark.parametrize("command, where", [
    ("run", "config-number"), ("run", "config"), ("run", "--out"), ("run", "MFGSTOP_OUT"),
    ("scenario", "--out"), ("scenario", "MFGSTOP_OUT")])
def test_unusable_output_location_exits_2(tmp_path, monkeypatch, capsys, command, where):
    # an output_dir that is no string, or an output root that names a file
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    output_dir = {"config-number": 5, "config": str(blocker)}.get(where)
    if where == "MFGSTOP_OUT":
        monkeypatch.setenv("MFGSTOP_OUT", str(blocker))
    argv = (["run", "--config", str(write_config(tmp_path, {"output_dir": output_dir}))]
            if command == "run" else ["scenario", "monotone_1d"])
    if where == "--out":
        argv += ["--out", str(blocker)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    message = ("config error: output_dir must be a string" if where == "config-number"
               else "cannot write output:")
    assert err.startswith(message) and err.count("\n") == 1
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command, blocked", [
    ("run", "u.csv"), ("run-osmfg", "m_0003.csv"), ("run-osmfg", "report.json"),
    ("scenario", "scenario_monotone_1d.json")])
def test_unwritable_artifact_exits_2(tmp_path, capsys, command, blocked):
    # an artifact whose path a directory takes: exit 2, not a traceback
    # with the exit code of a failed verification
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    if command == "scenario":
        argv = ["scenario", "monotone_1d"]
    else:
        argv = ["run", "--config",
                str(write_config(tmp_path, OSMFG_RUN if command == "run-osmfg" else {}))]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and blocked in err and err.count("\n") == 1


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
    pytest.param(lambda u, m: (u.update(horizon=10**400), m.update(horizon=10**400)),
                 id="horizon-past-float"),
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


@pytest.mark.parametrize("name", [
    pytest.param(lambda copy: str(copy / "u_0003.csv"), id="absolute"),
    pytest.param(lambda copy: f"../{copy.name}/u_0003.csv", id="other-directory"),
    pytest.param(lambda copy: "..", id="parent"),
])
def test_verify_reads_slices_only_beside_the_manifest(tmp_path, capsys, name):
    # a slice named by path, here of an identical copy of the run that
    # would verify, is a malformed manifest
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = out / "u_manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"][3] = name(copy)
    path.write_text(json.dumps(manifest))
    assert main(["verify", "--u", str(path), "--m", str(out / "m_manifest.json"),
                 "--config", str(cfg)]) == 2
    assert "plain file names" in capsys.readouterr().err


def test_verify_rejects_a_trajectory_manifest_nested_too_deeply(tmp_path, capsys):
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    (out / "u_manifest.json").write_text(DEEP)
    assert main(["verify", "--u", str(out / "u_manifest.json"),
                 "--m", str(out / "m_manifest.json"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("cannot verify:")


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
    # residuals that do not depend on the contact threshold
    "tolerances": tolerances(r_hjb=1e-3, r_subsolution=1e-10, r_boundary_terminal=1e-10,
                             duality_diagnostic=1e-3),
}


def constant(value):
    return {"kind": "constant", "value": value}


def run_artifacts(tmp_path, name, overrides):
    """The bytes of every artifact but manifest.json, which names the
    config's hash, of a run of BASE_CONFIG with overrides."""
    out = tmp_path / name
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)}, name=f"{name}.json")
    assert main(["run", "--config", str(cfg)]) == 0
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"}


@pytest.mark.parametrize("overrides, equivalent", [
    ({**OSMFG_RUN, "obstacle": {"kind": "constant_field", "psi": constant(0.0)}}, OSMFG_RUN),
    ({"cost": {"kind": "local_affine_shifted", "base": constant(-0.5), "m_ref": constant(0.0)}},
     {}),
], ids=["constant_field-zero", "local_affine_shifted"])
def test_config_kinds_run_as_their_equivalents(tmp_path, overrides, equivalent):
    # a zero constant_field obstacle is the zero obstacle, and an affine
    # cost shifted by m_ref = 0 the local power cost m - 0.5 at p = 1
    artifacts = run_artifacts(tmp_path, "kind", overrides)
    assert "report.json" in artifacts
    assert artifacts == run_artifacts(tmp_path, "equivalent", equivalent)


@pytest.mark.parametrize("overrides", [
    {**OSMFG_RUN, "obstacle": {"kind": "constant_field", "psi": constant(-0.01)}},
    {**COSMFG_RUN, "hamiltonian": {"kind": "quadratic", "outside_assumptions": True}},
], ids=["constant_field", "quadratic-hamiltonian"])
def test_config_kinds_run_and_verify(tmp_path, overrides):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["verify", "--u", str(out / "u_manifest.json"),
                 "--m", str(out / "m_manifest.json"), "--config", str(cfg)]) == 0


# mfgstop verify classifies contact with the band the run used, the
# delta_c of the manifest.json it wrote, so every residual of the
# verify output equals report.json's
@pytest.mark.parametrize("overrides", [{}, OSMFG_RUN, COSMFG_RUN],
                         ids=["sosmfg", "osmfg", "cosmfg"])
def test_verify_reproduces_report(tmp_path, capsys, overrides):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    stored = json.loads((out / "report.json").read_text())
    names = ("u.csv", "m.csv") if not overrides else ("u_manifest.json", "m_manifest.json")
    assert main(["verify", "--u", str(out / names[0]), "--m", str(out / names[1]),
                 "--config", str(cfg)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed.keys() == stored.keys()
    assert printed["delta_c"] == stored["delta_c"]
    for key in stored.keys() - {"delta_c", "grid"}:
        assert abs(printed[key] - stored[key]) <= 1e-14, key


@pytest.mark.parametrize("edit", [
    lambda manifest: {**manifest, "config_sha256": "0" * 64},
    lambda manifest: {**manifest, "delta_c": -1.0},
    lambda manifest: {**manifest, "delta_c": None},
    lambda manifest: {**manifest, "delta_c": True},
    lambda manifest: {**manifest, "delta_c": float("nan")},
    lambda manifest: {**manifest, "delta_c": 10**400},
    lambda manifest: [manifest],
    lambda manifest: DEEP,
    None,
], ids=["other_config", "negative", "null", "bool", "nan", "huge_int", "not_an_object",
        "nested_too_deeply", "missing"])
def test_verify_takes_the_default_threshold_without_a_matching_manifest(tmp_path, capsys,
                                                                       edit):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    manifest_path = out / "manifest.json"
    if edit is None:
        manifest_path.unlink()
    else:
        edited = edit(json.loads(manifest_path.read_text()))
        manifest_path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    argv = ["verify", "--u", str(out / "u_manifest.json"), "--m", str(out / "m_manifest.json"),
            "--config", str(cfg)]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    config = cli.load_config(str(cfg))
    u, m = (read_trajectory_csv(config.grid, str(out / f"{name}_manifest.json"))
            for name in ("u", "m"))
    default = evolutive.verify_mixed_evolutive(u, m, config.cost, config.obstacle_op, config.m0)
    assert printed["delta_c"] == default.delta_c
    assert printed["delta_c"] != json.loads((out / "report.json").read_text())["delta_c"]


SOSMFG_2D = {"grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n_interior": [15, 15]}}
# nests: the first seven stages run on the 15x15 grid of every second node
SOSMFG_31 = {"grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n_interior": [31, 31]}}
# the time sweeps and the GMRES solve of the density Schur complement
OSMFG_2D = {**OSMFG_RUN, "grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]],
                                  "n_interior": [9, 9]},
            "timegrid": {"horizon": 0.5, "n_steps": 3},
            "eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 8}}


@pytest.mark.parametrize("overrides", [{}, SOSMFG_2D, SOSMFG_31, {**OSMFG_RUN, "obstacle": HEAT_FROM_G},
                                       COSMFG_RUN, OSMFG_2D],
                         ids=["sosmfg", "sosmfg-2d", "sosmfg-31x31", "osmfg-heat_from_g", "cosmfg",
                              "osmfg-2d"])
def test_run_is_bitwise_deterministic(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    for name in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    files = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert files == sorted(path.name for path in (tmp_path / "b").iterdir())
    assert {"report.json", "convergence.csv", "manifest.json"} <= set(files)
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


@pytest.mark.parametrize("overrides", [SOSMFG_2D, {**OSMFG_2D, "obstacle": HEAT_FROM_G}],
                         ids=["sosmfg-2d", "osmfg-2d-heat_from_g"])
def test_run_is_bitwise_deterministic_with_kept_factors(tmp_path, overrides):
    # the process keeps one base operator, with its factor, per grid and
    # dt: a second run in the process finds those of the first, a third
    # runs after every kept base operator and assembler, and with them
    # every kept factor and elimination order, is cleared, and all three
    # write the same bytes
    cfg = write_config(tmp_path, overrides)
    infos = []
    for name in ("a", "b", "c"):
        if name == "c":
            for cache in (obstacle._base_operator, obstacle._space_time_operator,
                          _coupled._jacobian_assembler):
                cache.cache_clear()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        infos.append(obstacle._base_operator.cache_info())
    assert infos[0].misses == infos[1].misses == 1 and infos[1].hits > infos[0].hits
    files = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert {"report.json", "convergence.csv", "manifest.json"} <= set(files)
    for name in ("b", "c"):
        assert files == sorted(path.name for path in (tmp_path / name).iterdir())
        for file in files:
            assert ((tmp_path / "a" / file).read_bytes()
                    == (tmp_path / name / file).read_bytes()), (name, file)


def test_convergence_table_names_the_grid_of_every_stage(tmp_path):
    # a nested 31x31 continuation: every stage but the last ran on 15x15
    out = tmp_path / "nested"
    cfg = write_config(tmp_path, {**SOSMFG_31, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 0
    header, *rows = [line.split(",") for line in
                     (out / "convergence.csv").read_text().splitlines()]
    assert header[:4] == ["stage", "epsilon", "iterations", "grid"]
    assert [row[0] for row in rows] == [str(j) for j in range(8)]
    assert [row[3] for row in rows] == ["15x15"] * 7 + ["31x31"]


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

    def second_stage_fails(cost, m0, timegrid, epsilon, tol_pde, **kwargs):
        stage_epsilons.append(epsilon)
        if len(stage_epsilons) != 2:
            return solve(cost, m0, timegrid, epsilon, tol_pde, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(_coupled, "_MAX_OUTER", 1)
            return solve(cost, m0, timegrid, epsilon, 1e-16, **{**kwargs, "strict": True})

    monkeypatch.setattr(evolutive, "forward_backward_solve", second_stage_fails)
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out),
                                  "eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 3}})
    assert main(["run", "--config", str(cfg)]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["stage"] == 1
    assert failure["error"].count("last residuals") == 1 and "at stage 1" in failure["error"]
    stage_epsilons.clear()
    run = cli.load_config(cfg)
    with pytest.raises(CoupledNonConvergence) as err:
        evolutive.osmfg_continuation(run.cost, run.obstacle_op, run.m0, run.timegrid,
                                     run.eps_schedule, run.tol_pde)
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
    ({"tolerances": {"outer": 1e-9, "pde": 0.0, "acceptance": {"r_duality": 1e-6}}},
     "tolerances.pde"),
    ({"tolerances": {"outer": 1e-9, "pde": -1e-8, "acceptance": {"r_duality": 1e-6}}},
     "tolerances.pde"),
    ({"tolerances": {"outer": INF, "pde": 1e-8, "acceptance": {"r_duality": 1e-6}}},
     "tolerances.outer"),
    ({"tolerances": tolerances(r_duality=INF)}, "tolerances.acceptance"),
    ({"cost": {**BASE_CONFIG["cost"], "a": NAN}}, "cost.a"),
    ({"cost": {**BASE_CONFIG["cost"], "f0": {"kind": "constant", "value": -INF}}}, "cost.f0"),
    ({**OSMFG, "m0": {"kind": "values", "values": [0.1] * 30 + [NAN]}}, "m0"),
    ({"grid": {"dim": 1, "bounds": [[0.0, NAN]], "n_interior": [31]}}, "grid.bounds"),
    ({"problem": "mfg"}, "problem must be one of"),
    ({"rho": 1.0}, "rho: field spec must be an object"),
    ({"rho": {"kind": "bump"}}, "unknown field kind 'bump'"),
    ({**OSMFG, "obstacle": {"kind": "wall"}}, "unknown obstacle kind 'wall'"),
    ({**COSMFG, "hamiltonian": {"kind": "cubic"}}, "unknown hamiltonian kind 'cubic'"),
    ({"tolerances": tolerances()}, "tolerances.acceptance must map"),
    ({"tolerances": tolerances(r_duality=0.0)}, "tolerances.acceptance['r_duality'] must be"),
], ids=["acceptance-typo", "acceptance-not-in-report", "acceptance-null",
        "nonlocal-osmfg", "nonlocal-cosmfg", "empty-schedule", "flat-schedule",
        "increasing-schedule", "zero-factor-schedule", "negative-rho", "negative-m0",
        "monotone-iteration-on-monotone-cost", "variational-on-anti-monotone-cost",
        "variational-on-nonlocal-cost",
        "nan-horizon", "inf-horizon", "inf-n_steps", "huge-horizon", "nan-eps-entry",
        "inf-eps-start", "nan-pde-tol", "zero-pde-tol", "negative-pde-tol", "inf-outer-tol",
        "inf-acceptance", "nan-cost-a", "inf-cost-f0", "nan-m0-value", "nan-grid-bound", "unknown-problem",
        "field-spec-not-an-object", "unknown-field-kind", "unknown-obstacle-kind",
        "unknown-hamiltonian-kind", "empty-acceptance", "zero-threshold"])
def test_invalid_input_rejected_before_solving(tmp_path, capsys, overrides, reason):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_an_object_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{**BASE_CONFIG, "output_dir": str(out)}]))
    assert main(["run", "--config", str(path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


# 10**15 + 1 slices of 31 nodes ask for 220 PiB, more than the 2**57
# bytes (128 PiB) that a 64-bit address space maps at most: the request
# fails at once whatever the overcommit setting, so nothing is
# allocated. osmfg with its zero obstacle makes the array in the config,
# osmfg with a heat_from_g obstacle and cosmfg in the solve, before the
# output root is made
@pytest.mark.parametrize("overrides", [OSMFG_RUN, {**OSMFG_RUN, "obstacle": HEAT_FROM_G},
                                       COSMFG_RUN], ids=["osmfg", "osmfg-heat_from_g", "cosmfg"])
def test_sizes_too_large_to_allocate_exit_2(tmp_path, capsys, overrides):
    out = tmp_path / "out"
    grid = {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [31]}
    cfg = write_config(tmp_path, {**overrides, "grid": grid, "output_dir": str(out),
                                  "timegrid": {"horizon": 1.0, "n_steps": 10**15}})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "allocate" in err and err.count("\n") == 1
    assert not out.exists()


GRID_1D = {"dim": 1, "bounds": [[0.0, 1.0]]}


# sigma**2 is 0.0 for both sigmas, which puts a NaN at the centre node;
# on 16 nodes, none at the centre, sigma 1e-5 leaves no mass at any node
@pytest.mark.parametrize("sigma, n", [(0.0, 15), (1e-200, 15), (1e-5, 16)])
@pytest.mark.parametrize("problem, what", [(OSMFG_RUN, "m0"), ({}, "rho")], ids=["osmfg", "sosmfg"])
def test_degenerate_gaussian_is_a_config_error(tmp_path, capsys, problem, what, sigma, n):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**problem, "output_dir": str(out),
                                  "grid": {**GRID_1D, "n_interior": [n]},
                                  what: {"kind": "gaussian", "sigma": sigma}})
    for argv in (["run", "--config", str(cfg)],
                 ["verify", "--u", str(out / "u.csv"), "--m", str(out / "m.csv"),
                  "--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {what} must hold finite values\n"
        assert captured.out == ""
    assert not out.exists()


# int() would truncate these silently: 2.5 steps run as 2 and true as 1
@pytest.mark.parametrize("overrides, key", [
    ({**OSMFG, "timegrid": {"horizon": 0.5, "n_steps": 2.5}}, "timegrid.n_steps"),
    ({**OSMFG, "timegrid": {"horizon": 0.5, "n_steps": True}}, "timegrid.n_steps"),
    ({"grid": {**GRID_1D, "n_interior": [15.9]}}, "grid.n_interior"),
    ({"grid": {**GRID_1D, "n_interior": 15.0}}, "grid.n_interior"),
    ({"grid": {**GRID_1D, "dim": 1.5, "n_interior": [15]}}, "grid.dim"),
    ({"grid": {**GRID_1D, "dim": True, "n_interior": [15]}}, "grid.dim"),
    ({"eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 2.5}}, "eps_schedule.stages"),
    ({"seed": 1.0}, "seed"),
    ({"seed": False}, "seed"),
], ids=["float-n_steps", "bool-n_steps", "float-n_interior-entry", "float-n_interior",
        "float-dim", "bool-dim", "float-stages", "float-seed", "bool-seed"])
def test_non_integer_count_rejected(tmp_path, capsys, overrides, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} must be an integer" in err
    assert not out.exists()


# float() reads a string or a bool: "inf" would make a vacuous gate,
# true a tolerance of 1 and "nan" a cost the solver cannot converge on
@pytest.mark.parametrize("overrides, key", [
    ({"tolerances": tolerances(r_duality="inf")}, "tolerances.acceptance['r_duality']"),
    ({"tolerances": tolerances(r_duality=True)}, "tolerances.acceptance['r_duality']"),
    ({"tolerances": {"pde": "inf", "acceptance": {"r_duality": 1e-6}}}, "tolerances.pde"),
    ({"tolerances": {"pde": True, "acceptance": {"r_duality": 1e-6}}}, "tolerances.pde"),
    ({"cost": {**BASE_CONFIG["cost"], "a": "inf"}}, "cost.a"),
    ({"cost": {**BASE_CONFIG["cost"], "p": True}}, "cost.p"),
    ({"cost": {**BASE_CONFIG["cost"], "f0": {"kind": "constant", "value": "nan"}}},
     "cost.f0.value"),
    ({"cost": {**NONLOCAL_COST, "c1": "1"}}, "cost.c1"),
    ({"rho": {"kind": "raised_cosine", "peak": "1"}}, "rho.peak"),
    ({**OSMFG, "m0": {"kind": "gaussian", "sigma": "0.1"}}, "m0.sigma"),
    ({**OSMFG, "m0": {"kind": "gaussian", "mass": False}}, "m0.mass"),
    ({**OSMFG, "m0": {"kind": "values", "values": [0.1] * 30 + ["0.1"]}}, "m0.values[30]"),
    ({**OSMFG, "m0": {"kind": "values", "values": "0.1"}}, "m0.values"),
    ({**OSMFG, "timegrid": {"horizon": "0.5", "n_steps": 4}}, "timegrid.horizon"),
    ({"grid": {**GRID_1D, "bounds": [[0.0, "1"]], "n_interior": [31]}}, "grid.bounds[0][1]"),
    ({"eps_schedule": [0.1, "0.01"]}, "eps_schedule[1]"),
    ({"eps_schedule": {"start": "0.1", "factor": 4.0, "stages": 3}}, "eps_schedule.start"),
    ({"eps_schedule": {"start": 0.1, "factor": True, "stages": 3}}, "eps_schedule.factor"),
    ({**COSMFG, "hamiltonian": {"kind": "smoothed_norm",
                                "beta": {"kind": "constant", "value": "1"}},
      "tolerances": tolerances(r_hjb=1e-6)}, "hamiltonian.beta.value"),
], ids=["string-acceptance", "bool-acceptance", "string-pde-tol", "bool-pde-tol",
        "string-cost-a", "bool-cost-p", "string-f0-value", "string-cost-c1", "string-peak",
        "string-sigma", "bool-mass", "string-values-entry", "string-values",
        "string-horizon", "string-grid-bound", "string-eps-entry", "string-eps-start",
        "bool-eps-factor", "string-beta"])
def test_number_given_as_string_or_bool_rejected(tmp_path, capsys, overrides, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**overrides, "output_dir": str(out)})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} must be a" in err
    assert not out.exists()


def test_outside_assumptions_flag_must_be_a_bool(tmp_path, capsys):
    # bool("false") is True: the string would acknowledge the assumptions
    hamiltonian = {"kind": "quadratic", "outside_assumptions": "false"}
    cfg = write_config(tmp_path, {**COSMFG, "hamiltonian": hamiltonian,
                                  "tolerances": tolerances(r_hjb=1e-6)})
    assert main(["run", "--config", str(cfg)]) == 2
    assert "hamiltonian.outside_assumptions must be true or false" in capsys.readouterr().err


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


def test_singular_registered_jacobian_exits_3(tmp_path, monkeypatch):
    # every space-time Jacobian is exactly singular, on its assembler's
    # pattern: the factorization on the pattern's order gives NaN, and
    # the first stage's Newton ends at a NaN residual, which fails the
    # run there, though the stage is not strict. The assemblers kept per structure are swapped for a
    # cache of this test's own, so that no kept one is used here and none
    # made here is kept
    def singular(static, rows, cols):
        assemble = obstacle.diagonal_update(static, rows, cols)

        def zeroed(vals):
            jac = assemble(vals)
            jac.data[:] = 0.0
            return jac

        return zeroed

    monkeypatch.setattr(_coupled, "diagonal_update", singular)
    monkeypatch.setattr(_coupled, "_jacobian_assembler",
                        functools.lru_cache(_coupled._jacobian_assembler.__wrapped__))
    out = tmp_path / "osm"
    cfg = write_config(tmp_path, {**OSMFG_RUN, "output_dir": str(out),
                                  "eps_schedule": {"start": 0.1, "factor": 4.0, "stages": 2}})
    assert main(["run", "--config", str(cfg)]) == 3
    failure = json.loads((out / "failure.json").read_text())
    assert failure["stage"] == 0 and np.isnan(failure["residual_history"][-1])


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
