"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The last two tests solve registry scenarios and take about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GRID = {"bounds": [[0.0, 1.0]], "n_interior": [3]}


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


# -- the gate --------------------------------------------------------------

@pytest.mark.parametrize("report, problem", [
    ({"r_obstacle": 1e-9, "r_duality": float("nan")}, "osmfg"),
    ({"r_obstacle": float("nan"), "r_duality": 1e-9}, "osmfg"),
    ({"r_obstacle": 1e-9, "r_duality": float("inf")}, "sosmfg"),
    ({"r_obstacle": 1e-9, "r_duality": None}, "osmfg"),
    ({"r_obstacle": 1e-9}, "osmfg"),
    # the residual names of the evolutive report do not certify a
    # controlled solve, whose duality residual is duality_diagnostic
    ({"r_obstacle": 1e-30, "r_duality": 1e-30}, "cosmfg"),
    ({"r_hjb": 1e-9, "duality_diagnostic": -2e-4}, "cosmfg"),
    ({"delta_c": 1e-6}, "sosmfg"),
    ({}, "sosmfg"),
    (None, "sosmfg"),
])
def test_gate_rejects_missing_nonfinite_and_large_residuals(report, problem):
    assert checks.gate_report(report, problem)


def test_gate_accepts_certified_report():
    assert checks.gate_report({"r_obstacle": 1e-5, "r_duality": 1e-6, "delta_c": 1.0}, "osmfg") == []
    assert checks.gate_report({"r_hjb": 1e-5, "duality_diagnostic": -3e-6}, "cosmfg") == []


@pytest.mark.parametrize("slices, n_slices", [
    ([np.array([0.1, np.nan, 0.1])], 1),
    ([np.array([0.1, -1e-9, 0.1])], 1),
    ([np.array([0.1, 0.1])], 1),
    ([], 1),
    ([np.array([0.1, 0.2, 0.1])], 2),
    ([np.array([0.1, 0.2, 0.1]), np.array([0.1, 0.3, 0.1])], 2),
])
def test_gate_rejects_bad_density(slices, n_slices):
    assert checks.gate_density(slices, GRID, n_slices)


def test_gate_accepts_decaying_density():
    slices = [np.array([0.1, 0.2, 0.1]), np.array([0.1, 0.15, 0.1])]
    assert checks.gate_density(slices, GRID, 2) == []


def test_gate_rejects_bad_bundles():
    report = {"r_obstacle": 1e-14, "r_duality": 1e-17}
    good = {"confirmed": True, "report": report, "min_density": 0.002,
            "mass_monotone_violation": 0.0}
    assert checks.gate_bundle(good, "monotone_1d") == []
    for key, value in (("confirmed", False), ("min_density", float("nan")),
                       ("mass_monotone_violation", None), ("report", {"r_obstacle": 0.0})):
        assert checks.gate_bundle({**good, key: value}, "monotone_1d")
    bare = {k: v for k, v in good.items() if k != "min_density"}
    assert checks.gate_bundle(bare, "monotone_1d")
    final = {"confirmed": True, "final_report": report}
    assert checks.gate_bundle(final, "nonexistence")
    assert checks.gate_bundle(final, "nonexistence", [np.array([0.1, 0.2, 0.1])], GRID) == []


# -- inputs ------------------------------------------------------------------

def test_seeded_inputs_are_reproducible_and_perturbed():
    assert workloads.configs(3) == workloads.configs(3)
    assert workloads.configs(3) != workloads.configs(4)
    base = workloads.configs(0)["evolutive_heat_g"]
    assert base["m0"] == {"kind": "gaussian", "sigma": 0.1, "mass": 1.0}
    m0 = workloads.configs(3)["evolutive_heat_g"]["m0"]["values"]
    assert len(m0) == 31 and min(m0) > 0
    mass = sum(m0) * workloads.cell_volume(workloads.GRID_1D)
    assert abs(mass - 1.0) <= workloads.PERTURBATION["m0.mass"] + 1e-12


def test_workload_inputs_are_the_registry_on_a_coarser_time_grid():
    ours, registry = workloads.configs(0), workloads.configs(0, workloads.REGISTRY_N_STEPS)
    for name in ("evolutive_heat_g", "control_smoothnorm"):
        assert ours[name]["timegrid"] == {"horizon": 1.0, "n_steps": workloads.N_STEPS_1D}
        assert {**ours[name], "timegrid": registry[name]["timegrid"]} == registry[name]


def test_reference_kernel_runs_without_the_program():
    import speed

    with open(speed.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert "import mfgstop" not in source and "from mfgstop" not in source
    assert 0 < speed.kernel() < 10


# -- metric names and the traced run ------------------------------------------

def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    rc, out = _bench("--workload", "stationary", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert rc == 0
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    for name in run.END_TO_END:
        assert f"  {name} = " in out


def test_traced_run_keeps_digest_and_accounts_for_time():
    rc, out = _bench("--workload", "stationary", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert rc == 0
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.PER_LAYER
    with open(os.path.join(HERE, ".work", "stationary", "trace.json"), encoding="ascii") as fh:
        plain, traced = json.load(fh)["units"]
    assert plain["digest"] is not None and plain["digest"] == traced["digest"]
    value = {k: v["value"] for k, v in metrics.items()}
    # self times of all layers add up to the traced solve time
    assert math.isclose(value["trace.self_sum_s"], value["trace.traced_s"], rel_tol=0.01)
    assert value["scipy.factor_calls"] > 0 and value["stationary.stages"] > 0
    assert value["coupled.stages"] == 0 and value["trace.hook_errors"] == 0


def test_tracer_covers_factor_objects_and_restores_names():
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from mfgstop import grid

    original = spla.splu, sp.bmat, grid.elliptic_matrix
    tr = tracer.Tracer("test")
    a = sp.identity(4, format="csc") * 2.0
    with tr:
        lu = spla.splu(a)
        lu.solve(np.ones(4))
        spla.factorized(a)(np.ones(4))
    assert (spla.splu, sp.bmat, grid.elliptic_matrix) == original
    names = [s[0] for s in tr.spans]
    assert names == ["scipy.splu", "scipy.factor_solve", "scipy.factorized", "scipy.factor_solve"]
    metrics = tracer.layer_metrics(tr)
    assert metrics["scipy.factor_calls"] == 2 and metrics["scipy.factor_solve_calls"] == 2
    assert metrics["scipy.factor_n_max"] == 4


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stationary",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


# -- seed 0 is the registry ------------------------------------------------

@pytest.mark.parametrize("name", ["control_smoothnorm", "evolutive_heat_g"])
def test_seed0_reproduces_registry_bitwise(name, tmp_path):
    from mfgstop import cli, grid
    from mfgstop.scenarios import run_scenario_evidence, scenario_standard

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(workloads.configs(0, workloads.REGISTRY_N_STEPS)[name]))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    g = cli.load_config(str(cfg_path)).grid
    evidence = run_scenario_evidence(scenario_standard(name))
    for field in ("u", "m"):
        written = grid.read_trajectory_csv(g, str(tmp_path / "out" / f"{field}_manifest.json"))
        reference = getattr(evidence["solution"], field).array()
        assert np.array_equal(written.array(), reference)
