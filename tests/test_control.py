import math

import numpy as np
import pytest

from mfgstop import _coupled
from mfgstop._coupled import _hamiltonian_state, forward_backward_solve
from mfgstop.control import (
    Hamiltonian,
    control_objective,
    face_drift,
    verify_cosmfg,
)
from mfgstop.costs import CostOperator
from mfgstop.density import FaceVelocities, KillingData, solve_density_parabolic
from mfgstop.evolutive import ObstacleOperator, verify_mixed_evolutive
from mfgstop.grid import (
    FieldTrajectory,
    ScalarField,
    _gradient_matrices,
    build_grid,
    build_timegrid,
)
from mfgstop.scenarios import gaussian_density, scenario_standard, solve_problem
from mfgstop.stationary import default_eps_schedule
from conftest import as_scenario
from oracles import parabolic_obstacle


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(0.5, 20)
    m0 = gaussian_density(grid)
    return grid, tg, m0


def test_quadratic_requires_acknowledgement(setup):
    grid, _, _ = setup
    with pytest.raises(ValueError):
        Hamiltonian.quadratic(grid)
    h = Hamiltonian.quadratic(grid, outside_assumptions=True)
    assert h.kind == "quadratic"


def test_smoothed_norm_rejects_a_nan_beta(setup):
    grid, _, _ = setup
    beta = np.ones(grid.n_total)
    beta[3] = np.nan
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        Hamiltonian.smoothed_norm(ScalarField(grid, beta))


def test_hamiltonian_convexity_midpoints(setup):
    grid, _, _ = setup
    rng = np.random.default_rng(0)
    hams = [Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.3)),
            Hamiltonian.quadratic(grid, outside_assumptions=True)]
    for ham in hams:
        for _ in range(50):
            p = rng.normal(size=grid.n_total)
            q = rng.normal(size=grid.n_total)
            mid = ham.value([(p + q) / 2])
            assert np.all(mid <= 0.5 * (ham.value([p]) + ham.value([q])) + 1e-12)
    assert np.all(hams[0].value([np.zeros(grid.n_total)]) == 0.0)


def hjb_value(cost, ham, grid, tg, eps):
    # from a zero density the density stays zero, so the value equation
    # of one strict stage is the penalized HJB obstacle problem for f(0)
    sol, _ = solve_problem(as_scenario(cost, ScalarField.zeros(grid), tg, [eps], hamiltonian=ham))
    return sol.u


def test_hjb_reduces_to_parabolic_obstacle_when_h_zero(setup):
    grid, tg, _ = setup
    rng = np.random.default_rng(1)
    cost = CostOperator.local_power(grid, 0.0, 1.0,
                                    ScalarField(grid, -np.abs(rng.normal(size=15)) - 0.1))
    ham0 = Hamiltonian.smoothed_norm(ScalarField.zeros(grid))
    eps = 1e-6
    u = hjb_value(cost, ham0, grid, tg, eps)
    # penalty inactive for negative sources, so the limit obstacle solve agrees
    f_traj = FieldTrajectory(
        grid, tg, np.tile(cost.evaluate(np.full(15, 0.2)), (tg.n_steps + 1, 1)))
    psi = FieldTrajectory.constant(grid, tg, 0.0)
    u_ref = parabolic_obstacle(f_traj, psi)
    assert np.max(np.abs(u.array() - u_ref.array())) <= 1e-10


def test_hjb_zero_for_nonnegative_source(setup):
    grid, tg, _ = setup
    cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, 0.4))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    eps = 1e-7
    u = hjb_value(cost, ham, grid, tg, eps)
    assert np.max(np.abs(u.array())) <= eps * 0.4 + 1e-12


def test_hjb_grid_refinement_self_convergence():
    # upwind Hamiltonian: first-order self-convergence under refinement
    cost_f0 = -1.0
    tg = build_timegrid(0.4, 32)

    def solve(n):
        grid = build_grid(1, (0.0, 1.0), n)
        cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, cost_f0))
        ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
        return hjb_value(cost, ham, grid, tg, 1e-7).array()[0]

    u31, u63, u127 = solve(31), solve(63), solve(127)
    # coarse nodes embed in the finer grids at odd indices
    gap1 = np.max(np.abs(u63[1::2] - u31))
    gap2 = np.max(np.abs(u127[3::4] - u63[1::2]))
    assert gap2 <= 0.75 * gap1


def test_cosmfg_reduction_to_osmfg(evolutive_psi0_solution):
    sc, sol_o, _, _ = evolutive_psi0_solution
    ham0 = Hamiltonian.smoothed_norm(ScalarField.zeros(sc.grid))
    sol_c, _ = solve_problem(as_scenario(sc.cost, sc.m0, sc.timegrid, sc.eps_schedule,
                                         hamiltonian=ham0))
    assert np.max(np.abs(sol_c.u.array() - sol_o.u.array())) <= 1e-8
    assert np.max(np.abs(sol_c.m.array() - sol_o.m.array())) <= 1e-8


def test_never_stop_instance_is_drifted_flow(setup):
    grid, tg, m0 = setup
    cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, -1.0))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    sol, _ = solve_problem(as_scenario(cost, m0, tg, default_eps_schedule(stages=4),
                                       hamiltonian=ham))
    assert np.all(sol.u.array()[:-1] < 0)
    drifted = solve_density_parabolic(m0, None, tg, face_drift(ham, sol.u))
    assert np.max(np.abs(sol.m.array() - drifted.array())) <= 1e-9
    masses = sol.m.array().sum(axis=1) * grid.cell_volume
    assert np.all(np.diff(masses) <= 1e-12)


def test_hamiltonian_needs_the_zero_obstacle(setup):
    # the Hamiltonian terms are evaluated on the Newton unknown w = u - psi,
    # which is the value only for the zero obstacle
    grid, tg, m0 = setup
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    heat = CostOperator.local_power(grid, 0.5, 1.0, ScalarField.zeros(grid))
    for op in (ObstacleOperator.constant(FieldTrajectory.constant(grid, tg, -0.05)),
               ObstacleOperator.heat_source(heat)):
        with pytest.raises(ValueError, match="zero obstacle"):
            forward_backward_solve(cost, m0, tg, 0.1, obstacle_op=op, hamiltonian=ham)
    sol = forward_backward_solve(cost, m0, tg, 0.1, obstacle_op=ObstacleOperator.zero(grid, tg),
                                 hamiltonian=ham)
    assert sol.converged


def test_control_scenario_residuals(control_solution):
    sc, sol, report = control_solution
    assert report.r_continuation <= 1e-9
    assert report.r_subsolution <= 1e-9
    assert report.r_boundary_terminal == 0.0
    assert abs(report.duality_diagnostic) <= 1e-4
    assert sol.m.array().min() >= -1e-12


def test_face_drift_is_the_drift_of_each_value_slice(control_solution):
    # at each time step k the smoothed-norm drift beta q / sqrt(1 + q^2)
    # at the face difference q of u_k (zero Dirichlet values outside),
    # written out on the 1D faces
    sc, sol, _ = control_solution
    u = sol.u.array()
    h = sc.grid.spacing[0]
    beta = sc.hamiltonian.face_weights[0]
    drift = face_drift(sc.hamiltonian, sol.u)
    assert drift.timegrid == sc.timegrid
    for k, faces in enumerate(drift.components[0]):
        q = np.diff(np.pad(u[k], 1)) / h
        expected = beta * q / np.sqrt(1.0 + q * q)
        assert np.max(np.abs(faces - expected)) <= 1e-14 * np.max(np.abs(expected))
    other = build_grid(1, (0.0, 2.0), sc.grid.n_interior[0])
    with pytest.raises(ValueError, match="one grid"):
        face_drift(Hamiltonian.smoothed_norm(ScalarField.constant(other, 1.0)), sol.u)


def test_the_density_is_the_flow_of_the_exit_rate_and_the_face_drift(control_solution):
    # the solution's alpha / epsilon is the solver's exit rate and
    # face_drift its drift, so the density solve with both reproduces
    # the solution's density
    sc, sol, _ = control_solution
    m = solve_density_parabolic(sc.m0, KillingData(sol.alpha, sol.epsilon), sc.timegrid,
                                face_drift(sc.hamiltonian, sol.u))
    assert np.max(np.abs(m.array() - sol.m.array())) <= 1e-12 * np.max(sol.m.array())


def test_a_perturbed_density_solve_factors_no_step_by_superlu(control_solution, lu_factors):
    # the equilibrium exit rate under a perturbed drift, as the control
    # objective is compared: every drifted step of the K = 50 steps on 31
    # nodes factors on its assembler's kept band order
    sc, sol, _ = control_solution
    drift = face_drift(sc.hamiltonian, sol.u)
    x_faces = np.linspace(0, 1, sc.grid.n_interior[0] + 1)
    perturbed = FaceVelocities(sc.grid, sc.timegrid, (np.clip(
        drift.components[0] + 0.05 * np.sin(np.pi * x_faces), -0.99, 0.99),))
    solve_density_parabolic(sc.m0, KillingData(sol.alpha, sol.epsilon), sc.timegrid, perturbed)
    assert lu_factors == [("band", sc.grid.n_total)] * sc.timegrid.n_steps


def test_each_residual_evaluates_the_hamiltonian_once(setup, monkeypatch):
    # the Jacobian takes the Hamiltonian data of the residual at its
    # iterate; beyond the residuals, each stage evaluates them once, in
    # its verify_cosmfg
    grid, _, m0 = setup
    counts = dict.fromkeys(("state", "residual", "jacobian"), 0)

    def counted(key, func):
        def call(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return call

    frozen_system = _coupled._frozen_system

    def counted_system(*args, **kwargs):
        residual, jacobian, solve, unstack = frozen_system(*args, **kwargs)
        return counted("residual", residual), counted("jacobian", jacobian), solve, unstack

    monkeypatch.setattr(_coupled, "_hamiltonian_state",
                        counted("state", _coupled._hamiltonian_state))
    monkeypatch.setattr(_coupled, "_frozen_system", counted_system)
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    _, stages = solve_problem(as_scenario(cost, m0, build_timegrid(0.5, 4),
                                          default_eps_schedule(stages=3), hamiltonian=ham))
    assert len(stages) == 3 and counts["jacobian"] > len(stages)
    assert counts["state"] == counts["residual"] + len(stages), counts


def four_pass_upwind(grid, ham, u):
    # the reference: the upwind choice iterated from p = 0 to a fixed
    # point, for at most four passes; returns the values, the selected
    # gradient, the backward masks and the number of passes
    one_sided = _gradient_matrices(grid)[0]
    fwd = [(f @ u.T).T for _, f in one_sided]
    bwd = [(b @ u.T).T for b, _ in one_sided]
    p = [np.zeros(u.shape) for _ in range(grid.dim)]
    for passes in range(1, 5):
        backward = [v > 0 for v in ham.gradient(p)]
        p_new = [np.where(bw, b, f) for bw, b, f in zip(backward, bwd, fwd)]
        settled = all(np.array_equal(new, old) for new, old in zip(p_new, p))
        p = p_new
        if settled:
            break
    return ham.value(p), p, backward, passes


def upwind_case(shape, kind, profile):
    # K = 3 value slices: random ones (local minima along every axis, so
    # the loop flips to its cap), a positive bump times the slice index
    # (concave along each axis: no local minimum, the loop settles at
    # its third pass) or zero (settled at the first); beta is zero at
    # about a quarter of the nodes
    dim = len(shape)
    grid = build_grid(dim, [(0.0, 1.0)] * dim, list(shape))
    rng = np.random.default_rng(29)
    if kind == "smoothed_norm":
        beta = rng.uniform(0.5, 1.5, grid.n_total) * (rng.random(grid.n_total) > 0.25)
        assert np.any(beta == 0.0)
        ham = Hamiltonian.smoothed_norm(ScalarField(grid, beta))
    else:
        ham = Hamiltonian.quadratic(grid, outside_assumptions=True)
    if profile == "random":
        u = rng.normal(size=(3, grid.n_total))
    else:
        bump = np.prod(np.sin(np.pi * grid.coordinates()), axis=1)
        u = np.arange(1, 4)[:, None] * bump if profile == "bump" else np.zeros((3, grid.n_total))
    return grid, ham, u


UPWIND_CASES = [(shape, kind, profile) for shape in ((31,), (7, 7))
                for kind in ("smoothed_norm", "quadratic") for profile in ("random", "bump", "zero")]


@pytest.mark.parametrize("shape, kind, profile", UPWIND_CASES,
                         ids=[f"{len(s)}d-{k}-{p}" for s, k, p in UPWIND_CASES])
def test_one_pass_upwind_choice_equals_the_four_pass_loop(shape, kind, profile):
    # the fourth pass of the loop returns its second, and an early stop
    # returns the second pass's choice as well, so the one-pass choice
    # gives the loop's backward masks, slope and values bitwise
    grid, ham, u = upwind_case(shape, kind, profile)
    values, p, backward, passes = four_pass_upwind(grid, ham, u)
    assert passes == {"random": 4, "bump": 3, "zero": 1}[profile]
    state = _hamiltonian_state(grid, ham, u)
    assert state.values.tobytes() == values.tobytes()
    for a in range(grid.dim):
        assert np.array_equal(state.backward[a], backward[a])
        assert state.slope[a].tobytes() == ham.gradient(p)[a].tobytes()
    if profile != "random":
        return
    # at a local minimum along an axis neither difference has a slope
    # of its own sign; the backward one is taken wherever beta > 0
    positive = (np.ones(grid.n_total, dtype=bool) if ham.beta is None
                else ham.beta.values > 0)
    for a, (b_mat, f_mat) in enumerate(_gradient_matrices(grid)[0]):
        minimum = ((f_mat @ u.T).T > 0) & ((b_mat @ u.T).T <= 0)
        assert np.any(minimum & positive)
        assert np.all(state.backward[a][minimum & positive])
        assert not np.any(state.backward[a][:, ~positive])


@pytest.mark.parametrize("shape", [(31,), (7, 7)], ids=["1d", "2d"])
def test_a_hamiltonian_state_evaluates_d_ph_once_per_use(shape, monkeypatch):
    # D_pH once for the upwind choice, once for the slope at the
    # selected gradient and once for the drift on the faces of each
    # axis: 3 calls per state in 1D
    grid, ham, u = upwind_case(shape, "smoothed_norm", "random")
    calls = []
    gradient = Hamiltonian.gradient

    def counted(self, *args, **kwargs):
        calls.append(1)
        return gradient(self, *args, **kwargs)

    monkeypatch.setattr(Hamiltonian, "gradient", counted)
    _hamiltonian_state(grid, ham, u)
    assert len(calls) == 2 + grid.dim


@pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-4, 1.0 + 1e-4])
def test_control_stages_take_at_most_three_passes(scale, newton_targets):
    # with H and the drift solved inside the Newton and the band fixed at
    # stage entry, every stage is one pass, that is one Newton solve (the
    # registry instance took 42 passes over the eight stages when H and
    # the drift were lagged)
    sc = scenario_standard("control_smoothnorm")
    m0 = ScalarField(sc.grid, scale * sc.m0.values)
    _, stages = solve_problem(as_scenario(sc.cost, m0, sc.timegrid, sc.eps_schedule,
                                          hamiltonian=sc.hamiltonian))
    assert len(stages) == 8 and len(newton_targets) == 8
    for stage, target in zip((sr.solution for sr in stages), newton_targets):
        assert stage.converged
        assert stage.residual_history[-1] <= target
        assert stage.iterations <= 12


def test_verifier_flags_undrifted_flow(control_solution):
    sc, sol, report = control_solution
    plain_heat = solve_density_parabolic(sc.m0, None, sc.timegrid)
    bad = verify_cosmfg(sol.u, plain_heat, sc.cost, sc.hamiltonian, sc.m0,
                        delta_c=sol.delta_band)
    assert bad.r_continuation > max(1e-3, 10 * report.r_continuation)


def test_cosmfg_verifier_with_zero_h_is_the_evolutive_one(control_solution):
    # one slice-residual core: with H = 0 the controlled residuals are
    # the evolutive ones for the zero obstacle, to the bit
    sc, sol, _ = control_solution
    ham0 = Hamiltonian.smoothed_norm(ScalarField.zeros(sc.grid))
    ctrl = verify_cosmfg(sol.u, sol.m, sc.cost, ham0, sc.m0, delta_c=sol.delta_band)
    evo = verify_mixed_evolutive(sol.u, sol.m, sc.cost, ObstacleOperator.zero(sc.grid, sc.timegrid),
                                 sc.m0, delta_c=sol.delta_band)
    assert ctrl.r_hjb == evo.r_obstacle
    assert ctrl.r_continuation == evo.r_continuation
    assert ctrl.r_subsolution == evo.r_subsolution
    assert ctrl.r_contact == evo.r_contact
    assert ctrl.r_contact > 0


def test_verifier_rejects_density_on_another_timegrid(control_solution):
    sc, sol, _ = control_solution
    tg = sc.timegrid
    other = FieldTrajectory(sc.grid, build_timegrid(2 * tg.horizon, tg.n_steps), sol.m.array())
    with pytest.raises(ValueError):
        verify_cosmfg(sol.u, other, sc.cost, sc.hamiltonian, sc.m0)


def test_verifier_zero_initial_density(setup):
    grid, tg, _ = setup
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    zero = ScalarField.zeros(grid)
    sol, stages = solve_problem(as_scenario(cost, zero, tg, default_eps_schedule(stages=3),
                                            hamiltonian=ham))
    report = stages[-1].report
    assert np.max(np.abs(sol.m.array())) == 0.0
    assert report.r_contact == 0.0
    assert report.r_continuation == 0.0


def test_fenchel_values(setup):
    grid, _, _ = setup
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))

    def conjugate(speed):
        return ham.conjugate([np.full(grid.n_total, speed)])

    assert np.all(conjugate(0.0) == 0.0)
    assert np.max(np.abs(conjugate(0.6) - (1.0 - 0.8))) <= 1e-14
    # on the sphere |a| = beta the supremum of a p - H(p) is beta,
    # approached as |p| -> inf; outside the ball it is unbounded
    assert np.all(conjugate(1.0) == 1.0)
    assert np.all(conjugate(-1.0) == 1.0)
    p = np.array([1e2, 1e4, 1e6])
    gain = p - ham.value([p], weight=1.0)
    assert np.all(np.diff(gain) > 0) and np.all(gain < 1.0)
    assert np.all(conjugate(1.5) == np.inf)
    frozen = Hamiltonian.smoothed_norm(ScalarField.zeros(grid))
    assert np.all(frozen.conjugate([np.zeros(grid.n_total)]) == 0.0)
    assert np.all(frozen.conjugate([np.full(grid.n_total, 1e-3)]) == np.inf)
    # a NaN velocity stays NaN rather than reading as outside the ball
    assert np.all(np.isnan(ham.conjugate([np.full(grid.n_total, np.nan)])))


@pytest.mark.parametrize("shape", [(9,), (7, 5)])
def test_conjugate_is_attained_at_the_analytic_maximizer(shape):
    # for smoothed_norm D_pH(x, p*) = a at p* = a / sqrt(beta^2 - |a|^2),
    # for quadratic at p* = a; L(x, a) = a . p* - H(x, p*) by concavity
    # of p -> a . p - H(x, p), and no point of a p lattice exceeds it
    dim = len(shape)
    grid = build_grid(dim, ((0.0, 1.0),) * dim, shape)
    rng = np.random.default_rng(2 + dim)
    beta = rng.uniform(0.5, 2.0, grid.n_total)
    direction = rng.normal(size=(dim, grid.n_total))
    a = beta * rng.uniform(0.0, 0.95, grid.n_total) * direction / np.linalg.norm(direction, axis=0)
    lattice = np.meshgrid(*[np.linspace(-8.0, 8.0, 801 if dim == 1 else 161)] * dim)
    lattice = [c.ravel()[:, None] for c in lattice]
    for ham, p_star in (
            (Hamiltonian.smoothed_norm(ScalarField(grid, beta)),
             a / np.sqrt(beta**2 - np.sum(a**2, axis=0))),
            (Hamiltonian.quadratic(grid, outside_assumptions=True), a)):
        for got, want in zip(ham.gradient(list(p_star)), a):
            assert np.max(np.abs(got - want)) <= 1e-12
        l_vals = ham.conjugate(list(a))
        assert l_vals.shape == (grid.n_total,)
        expected = np.sum(a * p_star, axis=0) - ham.value(list(p_star))
        assert np.max(np.abs(l_vals - expected)) <= 1e-12
        on_lattice = sum(c * a_c for c, a_c in zip(lattice, a)) - ham.value(lattice)
        assert np.all(np.max(on_lattice, axis=0) <= l_vals + 1e-12)
        assert np.all(np.max(on_lattice, axis=0) >= l_vals - 0.01)


def test_fenchel_young_inequality(setup):
    grid, _, _ = setup
    rng = np.random.default_rng(3)
    beta = ScalarField(grid, rng.uniform(0.5, 2.0, grid.n_total))
    ham = Hamiltonian.smoothed_norm(beta)
    for _ in range(200):
        node = int(rng.integers(0, grid.n_total))
        p = rng.normal(scale=2.0)
        a = rng.uniform(-0.99, 0.99) * beta.values[node]
        h_val = float(ham.value([np.full(1, p)], weight=beta.values[node:node + 1])[0])
        l_val = float(ham.conjugate([np.full(grid.n_total, a)])[node])
        assert a * p <= h_val + l_val + 1e-10


def test_control_objective_trivial_and_feasibility(control_solution):
    sc, sol, report = control_solution
    pot = sc.cost.potential()
    drift = face_drift(sc.hamiltonian, sol.u)
    base = control_objective(sol.m, drift, pot, sc.hamiltonian, sc.timegrid)
    assert np.isfinite(base)
    # zero density: objective reduces to the constant potential offset
    zero_traj = FieldTrajectory.constant(sc.grid, sc.timegrid, 0.0)
    offset = control_objective(zero_traj, drift, pot, sc.hamiltonian, sc.timegrid)
    expected = (np.sum(pot.evaluate(np.zeros(sc.grid.n_total))) * sc.grid.cell_volume
                * sc.timegrid.horizon)
    assert offset == pytest.approx(expected, rel=1e-12, abs=1e-15)


def objective_by_node(m, drift, potential, hamiltonian, timegrid):
    # per slice and node: the mean of the node's two faces along each
    # axis, the scalar closed-form conjugate at that velocity and the
    # mass-weighted sum, nodes with mass <= 1e-14 left out of L m
    grid = m.grid
    total = 0.0
    for k in range(timegrid.n_steps):
        mass = m.array()[k + 1]
        slice_sum = float(np.sum(potential.evaluate(mass)))
        for i, node in enumerate(np.ndindex(grid.shape)):
            velocity = [0.5 * (comp[k][node]
                               + comp[k][node[:axis] + (node[axis] + 1,) + node[axis + 1:]])
                        for axis, comp in enumerate(drift.components)]
            speed = math.sqrt(sum(v * v for v in velocity))
            if hamiltonian.kind == "quadratic":
                l_val = 0.5 * speed**2
            else:
                beta = float(hamiltonian.beta.values[i])
                l_val = (0.0 if speed == 0.0 else math.inf if speed > beta
                         else beta * (1.0 - math.sqrt(1.0 - (speed / beta) ** 2)))
            if mass[i] > 1e-14:
                slice_sum += l_val * mass[i]
        total += timegrid.dt * slice_sum * grid.cell_volume
    return total


@pytest.mark.parametrize("shape", [(15,), (7, 5)])
@pytest.mark.parametrize("kind", ["smoothed_norm", "quadratic"])
def test_control_objective_matches_a_node_by_node_sum(shape, kind):
    # the density flow of a random face drift, killed at the last slice,
    # where the drift is fast enough for an infinite smoothed-norm L
    dim = len(shape)
    grid = build_grid(dim, ((0.0, 1.0),) * dim, shape)
    tg = build_timegrid(0.3, 3)
    rng = np.random.default_rng(7 + dim)
    beta = ScalarField(grid, rng.uniform(0.5, 2.0, grid.n_total))
    ham = (Hamiltonian.smoothed_norm(beta) if kind == "smoothed_norm"
           else Hamiltonian.quadratic(grid, outside_assumptions=True))
    comps = [np.stack([rng.uniform(-0.3, 0.3, grid.face_shape(axis))
                       for _ in range(tg.n_steps - 1)] + [np.full(grid.face_shape(axis), 3.0)])
             for axis in range(dim)]
    drift = FaceVelocities(grid, tg, comps)
    arr = solve_density_parabolic(gaussian_density(grid), None, tg, drift).array().copy()
    arr[-1] = 0.0
    m = FieldTrajectory(grid, tg, arr)
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField(grid, rng.uniform(-1.0, 0.0,
                                                                                  grid.n_total)))
    got = control_objective(m, drift, cost.potential(), ham, tg)
    expected = objective_by_node(m, drift, cost.potential(), ham, tg)
    assert np.isfinite(expected) and expected != 0.0
    assert abs(got - expected) <= 1e-14 * abs(expected)


def test_control_objective_leaves_out_infinite_l_on_nodes_without_mass():
    # each boundary node averages its outer face (speed 3) with an inner
    # one (0): speed 1.5 > beta = 1, where L is infinite, but no mass
    grid = build_grid(1, (0.0, 1.0), 7)
    tg = build_timegrid(0.5, 1)
    faces = np.zeros(grid.face_shape(0))
    faces[0], faces[-1] = -3.0, 3.0
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    assert ham.conjugate([0.5 * (faces[:-1] + faces[1:])])[[0, -1]].tolist() == [np.inf, np.inf]
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    zero = FieldTrajectory.constant(grid, tg, 0.0)
    assert control_objective(zero, FaceVelocities(grid, tg, (faces[None],)), cost.potential(),
                             ham, tg) == 0.0


@pytest.fixture(scope="module")
def fast_drift_pair():
    # slice 0 moves mass at speed 2 > beta = 1, whose conjugate is
    # infinite, and the density flow of that drift is scaled by 3 at
    # slice 3, which makes slice 2 infeasible
    grid = build_grid(1, (0.0, 1.0), 7)
    tg = build_timegrid(0.5, 3)
    faces = np.zeros((tg.n_steps,) + grid.face_shape(0))
    faces[0] = 2.0
    drift = FaceVelocities(grid, tg, (faces,))
    arr = solve_density_parabolic(gaussian_density(grid), None, tg, drift).array().copy()
    arr[3] *= 3.0
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    return FieldTrajectory(grid, tg, arr), drift, cost.potential(), ham, tg


def test_control_objective_checks_every_slice_before_the_conjugates(fast_drift_pair):
    m, drift, potential, ham, tg = fast_drift_pair
    with pytest.raises(ValueError, match=r"infeasible at slices \[2\]$"):
        control_objective(m, drift, potential, ham, tg)
    # feasible, with mass where the conjugate is infinite
    flow = FieldTrajectory(m.grid, tg, np.vstack([m.array()[:3], m.array()[3] / 3.0]))
    assert control_objective(flow, drift, potential, ham, tg) == np.inf


@pytest.mark.parametrize("count", [2, 4])
def test_control_objective_takes_one_drift_per_step(fast_drift_pair, count):
    # a drift of another step count, or of the same count on another
    # horizon, is off the time grid
    m, drift, potential, ham, tg = fast_drift_pair
    for other in (build_timegrid(tg.horizon * count / tg.n_steps, count),
                  build_timegrid(2.0 * tg.horizon, tg.n_steps)):
        zero = np.zeros((other.n_steps,) + m.grid.face_shape(0))
        with pytest.raises(ValueError, match="one grid and time grid"):
            control_objective(m, FaceVelocities(m.grid, other, (zero,)), potential, ham, tg)


def test_control_objective_rejects_infeasible(setup):
    grid, tg, m0 = setup
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0))
    # growing density violates the subsolution inequality
    arr = np.tile(m0.values, (tg.n_steps + 1, 1)) * np.linspace(1, 2, tg.n_steps + 1)[:, None]
    bad = FieldTrajectory(grid, tg, arr)
    drift = FaceVelocities(grid, tg, (np.zeros((tg.n_steps,) + grid.face_shape(0)),))
    with pytest.raises(ValueError):
        control_objective(bad, drift, cost.potential(), ham, tg)
