import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mfgstop import cli, scenarios
from mfgstop.grid import ScalarField, inner
from mfgstop.obstacle import _shifted_factor
from mfgstop.scenarios import (
    STANDARD_NAMES,
    problem_from_config,
    run_scenario_evidence,
    scenario_nonexistence,
    scenario_nonuniqueness,
    scenario_obstacle_nonuniqueness,
    scenario_standard,
)
from oracles import operator


def test_registry_names_and_lookup():
    assert set(STANDARD_NAMES) == {
        "monotone_1d", "monotone_2d", "anti_monotone_1d",
        "evolutive_psi0", "evolutive_heat_g", "control_smoothnorm",
    }
    sc = scenario_standard("monotone_1d")
    assert sc.cost.kind == "local_power"
    assert sc.grid.n_interior == (31,)
    assert sc.rho.values.max() == pytest.approx(1.0)
    ev = scenario_standard("evolutive_psi0")
    assert ev.timegrid.n_steps == 50
    assert ev.timegrid.horizon == 1.0
    mass = ev.m0.values.sum() * ev.grid.cell_volume
    assert mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_registry_scenario_reaches_no_superlu(lu_factors, band_factors, name):
    # every matrix a registry scenario factors lies within
    # obstacle._BAND_MAX in its band order: its shifted operators take
    # banded Cholesky and its Newton Jacobians (the 1D K=50 ones and the
    # bordered one of a nonlocal cost too) banded LU, never SuperLU
    run_scenario_evidence(scenario_standard(name))
    assert lu_factors or band_factors
    assert all(kind == "band" for kind, _ in lu_factors)


def _bitwise_equal(a, b) -> bool:
    """Whether two records hold the same data bit for bit: field by field
    for dataclasses, byte by byte for arrays and floats."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_bitwise_equal(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_bitwise_equal, a, b))
    if isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


PROBLEM_FIELDS = ("problem", "grid", "cost", "rho", "m0", "timegrid", "obstacle_op",
                  "hamiltonian", "eps_schedule")


def _same_problem(a, b) -> list[str]:
    """The fields of the problem that a and b do not hold bit for bit."""
    return [name for name in PROBLEM_FIELDS
            if not _bitwise_equal(getattr(a, name), getattr(b, name))]


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_registry_agrees_with_the_benchmark_configs():
    workloads = _workloads()
    configs = workloads.configs(0, workloads.REGISTRY_N_STEPS)
    for name in ("evolutive_heat_g", "control_smoothnorm"):
        assert _same_problem(problem_from_config(configs[name]), scenario_standard(name)) == []
    # the literal c1 of anti_monotone_1d puts f(m*) at -0.5 for m* = A^-1 rho
    sc = scenario_standard("anti_monotone_1d")
    m_star = ScalarField(sc.grid, _shifted_factor(sc.grid, 0.0, 1.0)(sc.rho.values))
    assert sc.cost.c1 == -(sc.cost.c0 + 0.5) / inner(sc.cost.weight, m_star)


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_registry_entry_is_a_run_config_body(tmp_path, name):
    # with a tolerances block added, mfgstop run reads the same problem
    expected_outcome, body = scenarios._REGISTRY[name]
    gate = "duality_diagnostic" if body["problem"] == "cosmfg" else "r_duality"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**body, "tolerances": {"acceptance": {gate: 1e-4}}}))
    run = cli.load_config(str(path))
    sc = scenario_standard(name)
    assert isinstance(run, scenarios.Scenario)
    assert _same_problem(run, sc) == []
    assert (sc.name, sc.expected_outcome) == (name, expected_outcome)


@pytest.mark.parametrize("call", [lambda spec: scenarios.solve_problem(spec),
                                  lambda spec: scenarios.verify_problem(spec, None, None)],
                         ids=["solve_problem", "verify_problem"])
def test_the_problem_dispatch_takes_only_a_scenario(call):
    sc = scenario_standard("monotone_1d")
    duck = type("Duck", (), {name: getattr(sc, name) for name in PROBLEM_FIELDS})()
    with pytest.raises(TypeError, match="takes a Scenario"):
        call(duck)


# a problem its fields do not fit used to reach a solver or a verifier
# that failed on a missing field: AttributeError on the rho-only
# monotone_1d as osmfg or as an unknown problem, KeyError 'pairing' when
# verify_problem sent an unknown problem to the cosmfg verifier
@pytest.mark.parametrize("name, problem, call", [
    ("monotone_1d", "osmfg", lambda sc, _: scenarios.solve_problem(sc)),
    ("monotone_1d", "bogus", lambda sc, _: scenarios.solve_problem(sc)),
    ("evolutive_psi0", "bogus", lambda sc, sol: scenarios.verify_problem(sc, sol.u, sol.m)),
], ids=["solve-sosmfg-as-osmfg", "solve-bogus", "verify-bogus"])
def test_a_problem_that_its_fields_do_not_fit_is_a_value_error(evolutive_psi0_solution, name,
                                                                problem, call):
    with pytest.raises(ValueError, match=f"'{problem}'"):
        call(dataclasses.replace(scenario_standard(name), problem=problem),
             evolutive_psi0_solution[1])


@pytest.mark.parametrize("name, problem, missing", [
    ("evolutive_psi0", "sosmfg", "rho"), ("evolutive_psi0", "cosmfg", "hamiltonian"),
    ("monotone_1d", "cosmfg", "timegrid and m0 and hamiltonian")])
def test_a_scenario_names_the_fields_its_problem_needs(name, problem, missing):
    with pytest.raises(ValueError, match=f"^problem '{problem}' needs {missing}$"):
        dataclasses.replace(scenario_standard(name), problem=problem)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        scenario_standard("bogus")


def test_scenario_construction_is_deterministic():
    a = scenario_standard("anti_monotone_1d")
    b = scenario_standard("anti_monotone_1d")
    assert np.array_equal(a.rho.values, b.rho.values)
    assert a.cost.c1 == b.cost.c1
    m0a = scenario_standard("evolutive_psi0").m0.values
    m0b = scenario_standard("evolutive_psi0").m0.values
    assert np.array_equal(m0a, m0b)


def test_bump_support_is_middle_third():
    sc = scenario_standard("monotone_1d")
    x = sc.grid.coordinates()[:, 0]
    vals = sc.rho.values
    assert np.all(vals[np.abs(x - 0.5) > 1.0 / 6.0 + 1e-12] == 0.0)
    assert np.all(vals >= 0.0)


def test_nonuniqueness_construction_and_reports():
    ev = scenario_nonuniqueness()
    cost = ev.scenario.cost
    f_star = cost(ev.m_star).values
    f_zero = cost(ScalarField.zeros(ev.scenario.grid)).values
    assert np.max(np.abs(f_star + 1.0)) <= 1e-12
    assert np.max(np.abs(f_zero - 1.0)) <= 1e-12
    assert ev.report_zero.max_residual <= 1e-8
    assert ev.report_star.max_residual <= 1e-8
    assert ev.gap >= 0.5 * np.max(np.abs(ev.m_star.values))


def test_nonuniqueness_coarse_contact_guard(monkeypatch):
    monkeypatch.setattr(scenarios, "default_contact_threshold", lambda u, psi: 1.0)
    with pytest.raises(RuntimeError):
        scenario_nonuniqueness()


def test_nonexistence_construction():
    ev = scenario_nonexistence()
    grid = ev.scenario.grid
    cost = ev.scenario.cost
    au = operator(grid) @ ev.u_star.values
    assert np.max(np.abs(au - cost(ev.m_star).values)) <= 1e-12
    assert np.all(ev.m_star.values > 0)
    x = grid.coordinates()[:, 0]
    centre = int(np.argmin(np.abs(x - 0.5)))
    assert ev.u_star.values[centre] == 0.0
    off_centre = np.delete(ev.u_star.values, centre)
    assert np.all(off_centre < 0)


def test_nonexistence_mixed_exists_classical_does_not():
    ev = scenario_nonexistence()
    assert ev.final_report.max_residual <= 1e-5
    assert ev.classical_floor > 0
    for stage in ev.stages:
        assert stage.ratio >= 10.0
        assert stage.contact_mass >= ev.classical_floor


def test_nonexistence_ball_variant():
    ev = scenario_nonexistence(ball_radius=0.07)
    x = ev.scenario.grid.coordinates()[:, 0]
    flat = np.abs(x - 0.5) <= 0.07
    assert np.all(ev.u_star.values[flat] == 0.0)
    assert ev.final_report.max_residual <= 1e-4
    assert ev.classical_floor > 0


def test_obstacle_nonuniqueness_endpoints_and_reports():
    ev = scenario_obstacle_nonuniqueness()
    assert np.max(np.abs(ev.psi_at_m_star.values - ev.u_star.values)) <= 1e-14
    assert np.max(np.abs(ev.psi_at_zero.values - ev.u_low.values)) <= 1e-14
    assert ev.report_star.max_residual <= 1e-8
    assert ev.report_low.max_residual <= 1e-8
    assert ev.gap > 0

