"""Shared fixtures: expensive scenario solves are cached per session."""

import numpy as np
import pytest

from mfgstop import _coupled, density, obstacle
from mfgstop.obstacle import _base_operator, _space_time_operator
from mfgstop.scenarios import Scenario, scenario_standard, solve_problem


KEPT = (_base_operator, _space_time_operator, _coupled._jacobian_assembler,
        density._drifted_step)


@pytest.fixture(autouse=True)
def fresh_factors_and_orders():
    """Every test starts without kept base operators (with their
    factors and band storage) and without kept assemblers, each of which
    keeps the elimination order of its pattern, so that factor and
    ordering counts do not depend on the tests run before it."""
    for cache in KEPT:
        cache.cache_clear()


def as_scenario(cost, source, timegrid=None, eps_schedule=None, *, obstacle_op=None,
                hamiltonian=None) -> Scenario:
    """The problem a test passes to solve_problem: sosmfg with rho =
    source without a timegrid, else osmfg (cosmfg with a hamiltonian)
    from m0 = source, along eps_schedule (None: the default one)."""
    stationary = timegrid is None
    return Scenario(name="test", grid=source.grid, cost=cost, expected_outcome="unknown",
                    problem="sosmfg" if stationary else "cosmfg" if hamiltonian else "osmfg",
                    rho=source if stationary else None, m0=None if stationary else source,
                    timegrid=timegrid, obstacle_op=obstacle_op, hamiltonian=hamiltonian,
                    eps_schedule=eps_schedule)


@pytest.fixture(scope="session")
def monotone_1d_solution():
    sc = scenario_standard("monotone_1d")
    sol, reports = solve_problem(sc)
    return sc, sol.u, sol.m, reports


@pytest.fixture(scope="session")
def monotone_2d_solution():
    sc = scenario_standard("monotone_2d")
    sol, reports = solve_problem(sc)
    return sc, sol.u, sol.m, reports


@pytest.fixture(scope="session")
def evolutive_psi0_solution():
    sc = scenario_standard("evolutive_psi0")
    sol, stage_reports = solve_problem(sc)
    return sc, sol, stage_reports[-1].report, stage_reports


@pytest.fixture(scope="session")
def evolutive_heat_g_solution():
    sc = scenario_standard("evolutive_heat_g")
    sol, stage_reports = solve_problem(sc)
    return sc, sol, stage_reports[-1].report, stage_reports


@pytest.fixture(scope="session")
def control_solution():
    sc = scenario_standard("control_smoothnorm")
    sol, stages = solve_problem(sc)
    return sc, sol, stages[-1].report


@pytest.fixture
def band_factors(monkeypatch):
    """(band, d) of every banded Cholesky factorization of a shifted
    operator B + diag(d) from now on (obstacle._band_factor, with B in
    band storage), in call order."""
    band_factor, calls = obstacle._band_factor, []

    def recording_band_factor(band, d):
        calls.append((band, np.array(d, dtype=float)))
        return band_factor(band, d)

    monkeypatch.setattr(obstacle, "_band_factor", recording_band_factor)
    return calls


@pytest.fixture
def lu_factors(monkeypatch):
    """(kind, n) of every LU factorization from now on, in call order:
    ("superlu", n) at obstacle._splu_factor and ("band", n) at
    obstacle._band_lu_factor, the two factor functions behind
    obstacle._lu_factor."""
    splu_factor, band_lu_factor, calls = obstacle._splu_factor, obstacle._band_lu_factor, []

    def recording_splu_factor(matrix, *args):
        calls.append(("superlu", matrix.shape[0]))
        return splu_factor(matrix, *args)

    def recording_band_lu_factor(data, order):
        calls.append(("band", len(order.perm)))
        return band_lu_factor(data, order)

    monkeypatch.setattr(obstacle, "_splu_factor", recording_splu_factor)
    monkeypatch.setattr(obstacle, "_band_lu_factor", recording_band_lu_factor)
    return calls


@pytest.fixture
def newton_targets(monkeypatch):
    """The residual target of every Newton solve of the time-dependent
    solver, in call order."""
    newton = _coupled.semismooth_newton
    targets = []

    def recording_newton(residual, jacobian, x0, target, max_iter, **kwargs):
        targets.append(target)
        return newton(residual, jacobian, x0, target, max_iter, **kwargs)

    monkeypatch.setattr(_coupled, "semismooth_newton", recording_newton)
    return targets


def _edit_row(row, edit):
    """Apply edit to line `row` of the file (line 0 is the header)."""
    def apply(lines):
        lines = list(lines)
        lines[row] = edit(lines[row])
        return lines
    return apply


@pytest.fixture(params=[
    pytest.param(_edit_row(2, lambda ln: ln.rsplit(",", 1)[0]), id="ragged-row"),
    pytest.param(_edit_row(2, lambda ln: ln.rsplit(",", 1)[0] + ",abc"), id="non-numeric"),
    pytest.param(_edit_row(2, lambda ln: ln + ","), id="trailing-comma"),
    pytest.param(lambda lines: lines[:1] + ["# comment"] + lines[1:], id="comment-line"),
    pytest.param(lambda lines: lines[:1], id="header-only"),
    pytest.param(_edit_row(2, lambda ln: ln + "\u00b5"), id="non-ascii"),
    pytest.param(lambda lines: lines[:1] + [ln + ",0" for ln in lines[1:]], id="extra-column"),
])
def bad_field_edit(request):
    """Turns the lines of a valid field CSV on a 1D grid into those of a
    file that read_field_csv must reject."""
    return request.param
