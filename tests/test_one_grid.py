"""The one grid check of the package, grid._on_grid, at the public
entry points that take data of several grids.

Each entry point is called once on data of one grid, and once with one
item moved to a grid of the same node count on other bounds (or a time
grid of the same step count and another horizon), so that every array
would still fit: it must raise the check's ValueError, which names the
grid that differs, before it computes anything.
"""

import numpy as np
import pytest

from mfgstop import density, stationary
from mfgstop.control import Hamiltonian, control_objective
from mfgstop.costs import CostOperator
from mfgstop.density import FaceVelocities, KillingData, solve_density_parabolic
from mfgstop.evolutive import ObstacleOperator, verify_mixed_evolutive
from mfgstop.grid import (
    FieldTrajectory,
    ScalarField,
    build_grid,
    build_timegrid,
    coarsen,
)
from mfgstop.obstacle import solve_obstacle_stationary
from mfgstop.scenarios import gaussian_density, raised_cosine_bump, solve_problem
from mfgstop.stationary import variational_minimize
from conftest import as_scenario

GRID = build_grid(1, (0.0, 1.0), 7)
OTHER = build_grid(1, (0.0, 2.0), 7)
TG = build_timegrid(1.0, 3)
OTHER_TG = build_timegrid(2.0, 3)
MISMATCH = "one grid and time grid: .* differs from"


def on(grid, value=0.5):
    return ScalarField.constant(grid, value)


def zero_drift(grid, timegrid):
    return FaceVelocities(grid, timegrid, (np.zeros((timegrid.n_steps,) + grid.face_shape(0)),))


def local_cost(grid):
    return CostOperator.local_power(grid, 1.0, 1.0, on(grid, -0.5))


@pytest.mark.parametrize("moved", [None, "killing", "drift", "killing_timegrid",
                                   "drift_timegrid"])
def test_solve_density_parabolic_before_the_first_step(moved, monkeypatch):
    # the killing data or the drift moved to the other grid or time
    # grid; every step has its own exit rate, and the zero drift makes
    # it a shifted operator
    solves = []
    for name in ("_lu_factor", "_shifted_factor"):
        solve = getattr(density, name)
        monkeypatch.setattr(density, name,
                            lambda *args, solve=solve: solves.append(1) or solve(*args))

    def place(data):
        return (OTHER if moved == data else GRID, OTHER_TG if moved == f"{data}_timegrid" else TG)

    grid, tg = place("killing")
    alpha = np.repeat(np.linspace(0.1, 0.4, tg.n_steps + 1)[:, None], grid.n_total, axis=1)
    killing = KillingData(FieldTrajectory(grid, tg, alpha), 0.1)
    drift = zero_drift(*place("drift"))
    if moved is None:
        assert solve_density_parabolic(on(GRID), killing, TG, drift).grid == GRID
        assert len(solves) == TG.n_steps
        return
    with pytest.raises(ValueError, match=MISMATCH):
        solve_density_parabolic(on(GRID), killing, TG, drift)
    assert solves == []


OPERATORS = {
    None: lambda: ObstacleOperator.constant(FieldTrajectory.constant(GRID, TG, 0.0)),
    "psi": lambda: ObstacleOperator.constant(FieldTrajectory.constant(OTHER, TG, 0.0)),
    "psi time grid": lambda: ObstacleOperator.constant(
        FieldTrajectory.constant(GRID, OTHER_TG, 0.0)),
    "g": lambda: ObstacleOperator.heat_source(local_cost(OTHER)),
}


@pytest.mark.parametrize("moved", list(OPERATORS))
def test_obstacle_operator_apply_arrays(moved):
    m_arr = FieldTrajectory.constant(GRID, TG, 0.1).array()
    if moved is None:
        psi_arr, g_arr = OPERATORS[moved]().apply_arrays(GRID, TG, m_arr)
        assert psi_arr.shape == g_arr.shape == m_arr.shape
        return
    with pytest.raises(ValueError, match=MISMATCH):
        OPERATORS[moved]().apply_arrays(GRID, TG, m_arr)


@pytest.mark.parametrize("moved", list(OPERATORS))
def test_verify_mixed_evolutive(moved):
    u, m = FieldTrajectory.constant(GRID, TG, 0.0), FieldTrajectory.constant(GRID, TG, 0.1)
    if moved is None:
        report = verify_mixed_evolutive(u, m, local_cost(GRID), OPERATORS[moved](), on(GRID))
        assert report.grid == GRID.metadata()
        return
    with pytest.raises(ValueError, match=MISMATCH):
        verify_mixed_evolutive(u, m, local_cost(GRID), OPERATORS[moved](), on(GRID))


def test_solve_obstacle_stationary():
    assert solve_obstacle_stationary(on(GRID, 1.0), on(GRID, 0.0)).grid == GRID
    with pytest.raises(ValueError, match=MISMATCH):
        solve_obstacle_stationary(on(GRID, 1.0), on(OTHER, 0.0))


@pytest.mark.parametrize("moved", [None, "drift", "drift_timegrid", "potential", "hamiltonian",
                                   "timegrid"])
def test_control_objective(moved):
    # the heat flow with zero drift is a feasible pair
    m = solve_density_parabolic(gaussian_density(GRID), None, TG)
    drift = zero_drift(GRID, TG)
    potential = local_cost(GRID).potential()
    hamiltonian = Hamiltonian.smoothed_norm(on(GRID, 1.0))
    timegrid = TG
    if moved == "drift":
        drift = zero_drift(OTHER, TG)
    elif moved == "drift_timegrid":
        drift = zero_drift(GRID, OTHER_TG)
    elif moved == "potential":
        potential = local_cost(OTHER).potential()
    elif moved == "hamiltonian":
        hamiltonian = Hamiltonian.smoothed_norm(on(OTHER, 1.0))
    elif moved == "timegrid":
        timegrid = OTHER_TG
    if moved is None:
        assert np.isfinite(control_objective(m, drift, potential, hamiltonian, timegrid))
        return
    with pytest.raises(ValueError, match=MISMATCH):
        control_objective(m, drift, potential, hamiltonian, timegrid)


def test_coarsen_maps_only_fields_of_its_two_grids():
    coarse, restrict, prolong = coarsen(GRID)
    assert prolong(restrict(on(GRID))).grid == GRID
    with pytest.raises(ValueError, match=MISMATCH):
        restrict(on(OTHER))
    with pytest.raises(ValueError, match=MISMATCH):
        prolong(on(coarsen(OTHER)[0]))


@pytest.mark.parametrize("moved", ["cost", "m_init"])
def test_stationary_continuation_checks_before_any_stage(moved, monkeypatch):
    # 31 x 31 nests: every stage but the last would run on coarser grids
    fine = build_grid(2, ((0.0, 1.0),) * 2, (31, 31))
    other = build_grid(2, ((0.0, 2.0),) * 2, (31, 31))
    rho = raised_cosine_bump(fine)
    cost = local_cost(other if moved == "cost" else fine)
    m_init = on(other if moved == "m_init" else fine, 0.1)
    assert stationary._nests(cost, fine, stationary.default_eps_schedule())
    calls = []
    solve = stationary.penalized_coupled_solve
    monkeypatch.setattr(stationary, "penalized_coupled_solve",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    with pytest.raises(ValueError, match=MISMATCH):
        if moved == "cost":
            solve_problem(as_scenario(cost, rho))
        else:  # only the uniqueness probe passes a start
            stationary._continuation(cost, rho, None, m_init=m_init)
    assert calls == []


def test_variational_minimize():
    rho = raised_cosine_bump(GRID)
    assert variational_minimize(local_cost(GRID).potential(), rho).grid == GRID
    with pytest.raises(ValueError, match=MISMATCH):
        variational_minimize(local_cost(OTHER).potential(), rho)
