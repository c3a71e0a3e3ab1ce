"""Every number a caller passes is range-checked where its record is
built, by the one check grid._checked: a NaN, an infinity or a value
outside the range the paper assumes raises a ValueError that names the
parameter, before any Newton step.
"""

import numpy as np
import pytest

from mfgstop import _coupled, obstacle, stationary
from mfgstop._coupled import forward_backward_solve
from mfgstop.control import Hamiltonian, verify_cosmfg
from mfgstop.costs import CostOperator
from mfgstop.density import (
    FaceVelocities,
    KillingData,
    solve_density_on_set,
    solve_density_parabolic,
)
from mfgstop.evolutive import ObstacleOperator, verify_mixed_evolutive
from mfgstop.grid import (
    FieldTrajectory,
    NodeMask,
    ScalarField,
    _checked,
    build_grid,
    build_timegrid,
)
from mfgstop.scenarios import gaussian_density, solve_problem
from mfgstop.stationary import (
    PenalizedTriple,
    default_eps_schedule,
    penalized_coupled_solve,
    uniqueness_probe,
    verify_mixed,
)
from conftest import as_scenario

NAN, INF = float("nan"), float("inf")
G = build_grid(1, (0.0, 1.0), 9)
TG = build_timegrid(0.5, 2)
COST = CostOperator.local_power(G, 1.0, 1.0, ScalarField.constant(G, -0.5))
RHO = ScalarField.constant(G, 0.5)
ZERO_OBSTACLE = ObstacleOperator.zero(G, TG)
H = Hamiltonian.smoothed_norm(ScalarField.constant(G, 1.0))
U = FieldTrajectory.constant(G, TG, -0.1)
M = FieldTrajectory.constant(G, TG, 0.5)


def field(value) -> ScalarField:
    """RHO with value at one node."""
    values = RHO.values.copy()
    values[4] = value
    return ScalarField(G, values)


def faces(value) -> tuple:
    """The face velocities of G on TG, 0.5 but value at one face."""
    values = np.full((TG.n_steps,) + G.face_shape(0), 0.5)
    values[0, 4] = value
    return (values,)


def trajectory(value) -> FieldTrajectory:
    """A trajectory of 0.5 with value at one node of its first slice."""
    values = M.values.copy()
    values[0, 4] = value
    return FieldTrajectory(G, TG, values)


# entry point -> (parameter, the label its message names, a call with
# the parameter set to the value, a value out of its range or None for a
# parameter that only has to be finite)
CASES = {
    "build_grid": [
        ("dim", "dim", lambda v: build_grid(v, (0.0, 1.0), 9), 3),
        ("bounds", "bounds", lambda v: build_grid(1, (0.0, v), 9), -1.0),
        ("n_interior", "n_interior", lambda v: build_grid(1, (0.0, 1.0), v), 2)],
    "build_timegrid": [
        ("horizon", "horizon", lambda v: build_timegrid(v, 2), 0.0),
        ("n_steps", "n_steps", lambda v: build_timegrid(0.5, v), 0)],
    "CostOperator.local_power": [
        ("a", "coefficient a", lambda v: CostOperator.local_power(G, v, 1.0, RHO), None),
        ("p", "exponent p", lambda v: CostOperator.local_power(G, 1.0, v, RHO), 0.5)],
    "CostOperator.nonlocal_affine": [
        ("c0", "coefficient c0", lambda v: CostOperator.nonlocal_affine(G, v, 1.0, RHO), None),
        ("c1", "coefficient c1", lambda v: CostOperator.nonlocal_affine(G, 1.0, v, RHO), None)],
    "CostOperator fields": [
        ("f0", "f0", lambda v: CostOperator.local_power(G, 1.0, 1.0, field(v)), None),
        ("weight", "weight", lambda v: CostOperator.nonlocal_affine(G, 1.0, 1.0, field(v)), None),
        ("base", "base", lambda v: CostOperator.local_affine_shifted(G, field(v), RHO), None),
        ("m_ref", "m_ref", lambda v: CostOperator.local_affine_shifted(G, RHO, field(v)), None)],
    "ObstacleOperator.constant": [
        ("psi", "psi", lambda v: ObstacleOperator.constant(trajectory(v)), None)],
    "gaussian_density": [
        ("sigma", "sigma", lambda v: gaussian_density(G, v), 0.0),
        ("mass", "mass", lambda v: gaussian_density(G, 0.1, v), None)],
    "FaceVelocities": [
        ("components", "components", lambda v: FaceVelocities(G, TG, faces(v)), None)],
    "KillingData": [
        ("alpha", "alpha", lambda v: KillingData(trajectory(v), 0.1), 1.5),
        ("epsilon", "epsilon", lambda v: KillingData(M, v), 0.0)],
    "PenalizedTriple": [
        ("alpha", "alpha", lambda v: PenalizedTriple(RHO, RHO, field(v), 0.1, 0, [], 1e-3), 1.5),
        ("delta_band", "delta_band",
         lambda v: PenalizedTriple(RHO, RHO, RHO, 0.1, 0, [], v), 0.0)],
    "Hamiltonian.smoothed_norm": [
        ("beta", "beta", lambda v: Hamiltonian.smoothed_norm(field(v)), -1.0)],
    "default_eps_schedule": [
        ("start", "start", lambda v: default_eps_schedule(v, 4.0, 3), 0.0),
        ("factor", "factor", lambda v: default_eps_schedule(0.1, v, 3), 1.0),
        ("stages", "stages", lambda v: default_eps_schedule(0.1, 4.0, v), 0)],
    "penalized_coupled_solve": [
        ("rho", "rho", lambda v: penalized_coupled_solve(COST, field(v), 0.1), -1.0),
        ("epsilon", "epsilon", lambda v: penalized_coupled_solve(COST, RHO, v), 0.0),
        ("tol_pde", "tol_pde", lambda v: penalized_coupled_solve(COST, RHO, 0.1, v), 0.0)],
    "forward_backward_solve": [
        ("m0", "m0", lambda v: forward_backward_solve(COST, field(v), TG, 0.1,
                                                      obstacle_op=ZERO_OBSTACLE), -1.0),
        ("epsilon", "epsilon", lambda v: forward_backward_solve(COST, RHO, TG, v,
                                                                obstacle_op=ZERO_OBSTACLE), 0.0),
        ("tol_pde", "tol_pde", lambda v: forward_backward_solve(COST, RHO, TG, 0.1, v,
                                                                obstacle_op=ZERO_OBSTACLE), -1.0)],
    "solve_problem-sosmfg": [
        ("rho", "rho", lambda v: solve_problem(as_scenario(COST, field(v))), -1.0),
        ("eps_schedule", "eps_schedule",
         lambda v: solve_problem(as_scenario(COST, RHO, None, [0.1, v])), 0.2),
        ("tol_pde", "tol_pde", lambda v: solve_problem(as_scenario(COST, RHO), v), 0.0)],
    "solve_problem-osmfg": [
        ("m0", "m0",
         lambda v: solve_problem(as_scenario(COST, field(v), TG, obstacle_op=ZERO_OBSTACLE)),
         -1.0),
        ("eps_schedule", "eps_schedule",
         lambda v: solve_problem(as_scenario(COST, RHO, TG, [v], obstacle_op=ZERO_OBSTACLE)),
         -1.0),
        ("tol_pde", "tol_pde",
         lambda v: solve_problem(as_scenario(COST, RHO, TG, obstacle_op=ZERO_OBSTACLE), v), 0.0)],
    "solve_problem-cosmfg": [
        ("m0", "m0", lambda v: solve_problem(as_scenario(COST, field(v), TG, hamiltonian=H)),
         -1.0),
        ("eps_schedule", "eps_schedule",
         lambda v: solve_problem(as_scenario(COST, RHO, TG, [v], hamiltonian=H)), 0.0),
        ("tol_pde", "tol_pde",
         lambda v: solve_problem(as_scenario(COST, RHO, TG, hamiltonian=H), v), 0.0)],
    "uniqueness_probe": [
        ("rho", "rho", lambda v: uniqueness_probe(COST, field(v)), -1.0),
        ("n_starts", "n_starts", lambda v: uniqueness_probe(COST, RHO, v), 1),
        ("seed", "seed", lambda v: uniqueness_probe(COST, RHO, 2, v), -1),
        ("eps_schedule", "eps_schedule", lambda v: uniqueness_probe(COST, RHO, 2, 0, [v]), 0.0)],
    "solve_density_on_set": [
        ("source", "rho",
         lambda v: solve_density_on_set(NodeMask(G, np.ones(9, bool)), field(v)), -1.0)],
    "solve_density_parabolic": [
        ("m0", "m0", lambda v: solve_density_parabolic(field(v), None, TG), -1.0)],
    "verify_mixed": [
        ("delta_c", "delta_c", lambda v: verify_mixed(RHO, RHO, COST, RHO, delta_c=v), -1.0)],
    "verify_mixed_evolutive": [
        ("delta_c", "delta_c",
         lambda v: verify_mixed_evolutive(U, M, COST, ZERO_OBSTACLE, RHO, delta_c=v), -1.0)],
    "verify_cosmfg": [
        ("delta_c", "delta_c", lambda v: verify_cosmfg(U, M, COST, H, RHO, delta_c=v), -1.0)],
}


def _bad_inputs():
    for entry, params in CASES.items():
        for param, label, call, out_of_range in params:
            bad = [NAN, INF, -INF] + ([] if out_of_range is None else [out_of_range])
            for value in bad:
                yield pytest.param(call, label, value, id=f"{entry}-{param}-{value}")


@pytest.fixture
def no_newton(monkeypatch):
    """Every module that runs semismooth_newton runs a stub that fails."""
    def newton(*args, **kwargs):
        raise AssertionError("semismooth_newton was called")

    for module in (obstacle, _coupled, stationary):
        monkeypatch.setattr(module, "semismooth_newton", newton)


@pytest.mark.parametrize("call, label, value", _bad_inputs())
def test_a_bad_number_is_rejected_by_name_before_any_newton_step(no_newton, call, label, value):
    with pytest.raises(ValueError, match=rf"(^|\W){label}\W"):
        call(value)


@pytest.mark.parametrize("sigma, n", [(1e-200, 9), (1e-5, 10)])
def test_a_gaussian_too_narrow_for_its_grid_is_rejected_by_its_sigma(sigma, n):
    # sigma**2 is 0.0 at 1e-200, and on 10 nodes, none at the centre,
    # sigma 1e-5 leaves no mass at any node: the normalized field was
    # all NaN, with RuntimeWarnings
    with pytest.raises(ValueError, match=rf"sigma={sigma:g} .* must hold finite values$"):
        gaussian_density(build_grid(1, (0.0, 1.0), n), sigma)


@pytest.mark.parametrize("value", [True, "1", None, 10**400], ids=["bool", "str", "None", "huge"])
def test_checked_takes_only_numbers_a_float_can_hold(value):
    with pytest.raises(ValueError, match="^x (must be a number|is too large for a float)"):
        _checked(value, "x")


@pytest.mark.parametrize("call, message", [
    (lambda: _checked(NAN, "x", 0), "x must be nonnegative and finite, got nan"),
    (lambda: _checked(0.0, "eps", 0, above=True), "eps must be positive and finite, got 0.0"),
    (lambda: _checked(0.5, "p", 1), "p must be >= 1 and finite, got 0.5"),
    (lambda: _checked([0.5, 1.5], "alpha", 0, 1), "alpha must take values in [0, 1]"),
    (lambda: _checked([0.5, NAN], "f"), "f must hold finite values"),
    (lambda: _checked(INF, "a"), "a must be finite, got inf")])
def test_checked_names_the_range_a_number_fails(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_checked_returns_floats_in_range_up_to_the_slack():
    assert _checked(0, "x", 0) == 0.0 and type(_checked(0, "x", 0)) is float
    assert _checked(-1e-13, "m", 0, slack=1e-12) == -1e-13
    assert _checked([1, 2], "m").dtype == float


def test_a_verifier_rejects_a_contact_threshold_that_empties_its_continuation_set(
        monotone_1d_solution):
    # with delta_c NaN or inf, u - psi < -delta_c held at no node, so
    # r_continuation read 0.0 whatever the density did; a negative one
    # put contact nodes into the continuation set
    sc, u, m, _ = monotone_1d_solution
    for delta_c in (NAN, INF, -1.0):
        with pytest.raises(ValueError, match="delta_c"):
            verify_mixed(u, m, sc.cost, sc.rho, delta_c=delta_c)
    assert verify_mixed(u, m, sc.cost, sc.rho, delta_c=0.0).delta_c == 0.0


@pytest.mark.parametrize("tol_pde", [NAN, 0.0, -1.0])
def test_a_bad_pde_tolerance_is_a_value_error_before_newton(no_newton, tol_pde):
    # it used to run Newton to a CoupledNonConvergence, which the CLI
    # reports as a solver failure (exit 3)
    with pytest.raises(ValueError, match="tol_pde"):
        penalized_coupled_solve(COST, RHO, 0.1, tol_pde)
    with pytest.raises(ValueError, match="tol_pde"):
        forward_backward_solve(COST, RHO, TG, 0.1, tol_pde, obstacle_op=ZERO_OBSTACLE)


def test_a_cost_built_directly_is_checked_like_its_factories():
    # a NaN coefficient was accepted and tagged "neither", an unknown
    # kind failed later with an AttributeError in monotonicity
    with pytest.raises(ValueError, match="coefficient a"):
        CostOperator(kind="local_power", grid=G, a=NAN, f0=RHO)
    with pytest.raises(ValueError, match="unknown cost kind 'bogus'"):
        CostOperator(kind="bogus", grid=G)
    cost = CostOperator(kind="local_power", grid=G, a=np.int64(2), p=1, f0=RHO)
    assert type(cost.a) is float and type(cost.p) is float


@pytest.mark.parametrize("start, factor, stages", [(0.1, 0.0, 3), (0.1, 1.0, 1), (0.1, 0.5, 1),
                                                   (0.0, 4.0, 3), (0.1, 4.0, 0), (0.1, 1e300, 3)])
def test_default_eps_schedule_rejects_what_gives_no_decreasing_penalties(start, factor, stages):
    # a zero factor raised ZeroDivisionError, a factor <= 1 with one
    # stage gave a schedule that no check saw, and 1e300**2 raised
    # OverflowError
    with pytest.raises(ValueError):
        default_eps_schedule(start, factor, stages)
    assert default_eps_schedule(0.1, 4.0, 1) == [0.1]

