import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mfgstop import _coupled
from mfgstop._coupled import PenalizedTriple, _ramp, forward_backward_solve
from mfgstop.control import Hamiltonian
from mfgstop.costs import CostOperator
from mfgstop.density import solve_density_parabolic
from mfgstop.evolutive import ObstacleOperator, verify_mixed_evolutive
from mfgstop.grid import (
    FieldTrajectory,
    ScalarField,
    build_grid,
    build_timegrid,
    elliptic_matrix,
)
from mfgstop.obstacle import _shifted_factor
from mfgstop.scenarios import gaussian_density, scenario_standard, solve_problem
from mfgstop.stationary import (
    CoupledNonConvergence,
    default_eps_schedule,
    penalized_coupled_solve,
    penalty_continuation,
)
from conftest import as_scenario
from oracles import operator


@pytest.fixture(scope="module")
def setup():
    grid = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(0.5, 20)
    m0 = gaussian_density(grid)
    return grid, tg, m0


def test_obstacle_operator_zero_source(setup):
    grid, tg, m0 = setup
    g_cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.zeros(grid))
    op = ObstacleOperator.heat_source(g_cost)
    psi, g_psi = op.apply_arrays(grid, tg, FieldTrajectory.constant(grid, tg, 0.5).array())
    assert np.max(np.abs(psi)) == 0.0
    assert np.max(np.abs(g_psi)) == 0.0


def test_obstacle_operator_matches_dense_space_time_oracle():
    # independent check: assemble the full backward-Euler system densely
    # on the test stencil
    grid = build_grid(1, (0.0, 1.0), 3)
    tg = build_timegrid(1.0, 3)
    g_cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, 1.0))
    op = ObstacleOperator.heat_source(g_cost)
    psi, g_psi = op.apply_arrays(grid, tg, FieldTrajectory.constant(grid, tg, 0.2).array())
    n, steps, dt = 3, 3, tg.dt
    big = np.zeros((n * steps, n * steps))
    rhs = np.zeros(n * steps)
    for k in range(steps):
        sl = slice(k * n, (k + 1) * n)
        big[sl, sl] = operator(grid, 1.0 / dt)
        if k + 1 < steps:
            big[sl, (k + 1) * n:(k + 2) * n] = -np.eye(n) / dt
        rhs[sl] = -np.ones(n)
    dense = np.linalg.solve(big, rhs).reshape(steps, n)
    assert np.max(np.abs(psi[:steps] - dense)) <= 1e-10
    assert np.max(np.abs(psi[-1])) == 0.0
    assert np.allclose(g_psi, 1.0)


def test_heat_obstacle_factors_b_once_per_grid_and_dt(monkeypatch, band_factors):
    # on a 2D grid the K backward heat steps solve with the factor of
    # B = A0 + I/dt kept per (grid, dt): the first call factors B once
    # by banded Cholesky (half-bandwidth 9, d = 0), a repeat call not
    # at all, and another dt on the same grid once more, on its own B;
    # nothing calls SuperLU, and each step is solved to round-off
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    n = grid.n_total
    op = ObstacleOperator.heat_source(
        CostOperator.local_power(grid, 0.5, 2.0, ScalarField.zeros(grid)))
    specs, splu = [], spla.splu

    def recording_splu(matrix, permc_spec=None, **kwargs):
        specs.append((permc_spec, matrix.shape))
        return splu(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    bands = []
    for tg, factored in ((build_timegrid(1.0, 5), 1), (build_timegrid(1.0, 5), 0),
                         (build_timegrid(1.0, 4), 1)):
        steps = tg.n_steps
        m = np.random.default_rng(2).uniform(0.0, 2.0, size=(steps + 1, n))
        del band_factors[:]
        psi, g_arr = op.apply_arrays(grid, tg, m)
        assert len(band_factors) == factored and specs == []
        assert all(band.shape == (10, n) and not np.any(d) for band, d in band_factors)
        bands += [band for band, _ in band_factors]
        b_op = (elliptic_matrix(grid, with_zero_order=False) + sp.identity(n) / tg.dt).tocsc()
        assert np.max(np.abs(psi[steps])) == 0.0
        for k in range(steps):
            expected = spla.spsolve(b_op, psi[k + 1] / tg.dt - g_arr[k])
            assert np.max(np.abs(psi[k] - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the two factorizations are of the two dt's own B
    assert not np.array_equal(bands[0], bands[1])


@pytest.mark.parametrize("backward", [True, False], ids=["backward", "forward"])
@pytest.mark.parametrize("k_steps", [1, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_solves_the_block_bidiagonal_system(dim, k_steps, backward):
    # _sweep against a dense solve of the block bidiagonal matrix with
    # B + diag(d_k) on the diagonal and -I/dt above it (backward) or below
    # it (forward); d_0 = 0 takes B's kept factor
    grid = (build_grid(1, (0.0, 1.0), 7) if dim == 1
            else build_grid(2, ((0.0, 1.0), (0.0, 2.0)), (4, 5)))
    n, dt = grid.n_total, 0.1
    rng = np.random.default_rng(10 * dim + k_steps)
    d = rng.uniform(0.0, 5.0, (k_steps, n))
    d[0] = 0.0
    r = rng.normal(size=(k_steps, n))
    dense = np.zeros((k_steps * n, k_steps * n))
    for k in range(k_steps):
        dense[k * n:(k + 1) * n, k * n:(k + 1) * n] = operator(grid, 1.0 / dt) + np.diag(d[k])
        j = k + 1 if backward else k - 1
        if 0 <= j < k_steps:
            dense[k * n:(k + 1) * n, j * n:(j + 1) * n] = -np.eye(n) / dt
    expected = np.linalg.solve(dense, r.ravel()).reshape(k_steps, n)
    out = _coupled._sweep([_shifted_factor(grid, dk, dt) for dk in d], r, dt, backward)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_constant_zero_obstacle_has_zero_source(setup):
    grid, tg, _ = setup
    op = ObstacleOperator.zero(grid, tg)
    psi, g_psi = op.apply_arrays(grid, tg, FieldTrajectory.constant(grid, tg, 1.0).array())
    assert np.max(np.abs(psi)) == 0.0
    assert np.max(np.abs(g_psi)) == 0.0


def continuation_from(init, cost, m0, tg, schedule, obstacle_op, hamiltonian=None):
    """The last stage of the penalty continuation of forward_backward_solve
    along schedule with the first stage started from the density slices
    init (init[0] = m0): a warm start with m = init and u = psi(init), so
    that its shifted value w = u - psi(m) is 0, as in a cold start."""
    grid = m0.grid
    start = PenalizedTriple(
        u=FieldTrajectory(grid, tg, obstacle_op.apply_arrays(grid, tg, init)[0]),
        m=FieldTrajectory(grid, tg, init), alpha=FieldTrajectory.constant(grid, tg, 0.0),
        epsilon=schedule[0], iterations=0, residual_history=[], delta_band=1.0)

    def stage(eps, warm, strict):
        return forward_backward_solve(cost, m0, tg, eps, obstacle_op=obstacle_op,
                                      hamiltonian=hamiltonian,
                                      warm=start if warm is None else warm, strict=strict)

    return penalty_continuation(stage, lambda sol: None, schedule)[0]


def test_scaled_start_continuation_is_deterministic(setup):
    # the evolutive uniqueness probe of C06 compares continuations from
    # scaled starts; one start must give one trajectory, bitwise
    grid, tg, m0 = setup
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    op = ObstacleOperator.zero(grid, tg)
    init = np.tile(m0.values, (tg.n_steps + 1, 1)) * 1.5
    init[0] = m0.values

    def solve():
        return continuation_from(init, cost, m0, tg, default_eps_schedule(stages=5),
                                 op).m.array()

    assert np.array_equal(solve(), solve())


def test_nan_m0_is_rejected(setup):
    grid, tg, m0 = setup
    vals = m0.values.copy()
    vals[4] = np.nan
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    with pytest.raises(ValueError, match="m0 must be nonnegative"):
        forward_backward_solve(cost, ScalarField(grid, vals), tg, 0.1,
                               obstacle_op=ObstacleOperator.zero(grid, tg), strict=False)


def test_penalized_triple_rejects_a_nan_alpha(setup):
    grid, tg, m0 = setup
    alpha = np.zeros(grid.n_total)
    alpha[1] = np.nan
    with pytest.raises(ValueError, match=r"alpha must take values in \[0, 1\]"):
        PenalizedTriple(u=m0, m=m0, alpha=ScalarField(grid, alpha), epsilon=0.1, iterations=0,
                        residual_history=[], delta_band=1.0)


def test_obstacle_operator_validation(setup):
    grid, tg, _ = setup
    with pytest.raises(ValueError):
        ObstacleOperator(kind="heat_from_g")
    with pytest.raises(ValueError):
        ObstacleOperator(kind="constant_field")
    nonlocal_g = CostOperator.nonlocal_affine(grid, 0.0, 1.0, ScalarField.constant(grid, 1.0))
    with pytest.raises(ValueError):
        ObstacleOperator.heat_source(nonlocal_g)


def test_negative_cost_decouples_to_pure_heat(setup):
    grid, tg, m0 = setup
    cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, -1.0))
    op = ObstacleOperator.zero(grid, tg)
    sol, _ = solve_problem(as_scenario(cost, m0, tg, [1e-4], obstacle_op=op))
    heat = solve_density_parabolic(m0, None, tg)
    assert np.max(np.abs(sol.m.array() - heat.array())) <= 1e-8
    assert np.all(sol.u.array()[:-1] < 0)


def test_positive_cost_kills_mass(setup):
    grid, tg, m0 = setup
    eps = 1e-5
    cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, 0.5))
    op = ObstacleOperator.zero(grid, tg)
    sol, _ = solve_problem(as_scenario(cost, m0, tg, [eps], obstacle_op=op))
    # value stays within the penalized collapse of the obstacle
    assert np.max(np.abs(sol.u.array())) <= eps * 0.5 + 1e-10
    assert np.max(sol.m.array()[-1]) <= 1e-3 * np.max(m0.values)


def test_duality_residual_decreases_along_schedule(evolutive_psi0_solution):
    sc, sol, report, stage_reports = evolutive_psi0_solution
    duals = [r.report.r_duality for r in stage_reports]
    assert duals[-1] <= 1e-5
    assert duals[-1] <= duals[0]
    assert report.r_terminal == 0.0
    assert report.r_initial == 0.0
    assert report.r_subsolution <= 1e-9


def test_verifier_flags_raw_heat_flow(evolutive_psi0_solution):
    # replace the converged density by uncontrolled heat flow: the
    # contact region keeps unkilled mass, so the contact-zone integral
    # (and the mismatch of u against f of the wrong density) blow up
    sc, sol, report, _ = evolutive_psi0_solution
    heat = solve_density_parabolic(sc.m0, None, sc.timegrid)
    bad = verify_mixed_evolutive(sol.u, heat, sc.cost, sc.obstacle_op, sc.m0,
                                 delta_c=sol.delta_band)
    assert bad.r_contact > 1e-3
    assert bad.r_obstacle > 1e-3
    assert bad.r_duality > 1e-3


def test_zero_initial_density_trivial(setup):
    grid, tg, _ = setup
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    op = ObstacleOperator.zero(grid, tg)
    sol, _ = solve_problem(as_scenario(cost, ScalarField.zeros(grid), tg, [1e-4],
                                       obstacle_op=op))
    assert np.max(np.abs(sol.m.array())) == 0.0
    report = verify_mixed_evolutive(sol.u, sol.m, cost, op, ScalarField.zeros(grid),
                                    delta_c=sol.delta_band)
    assert report.r_contact == 0.0
    assert report.r_initial == 0.0


def test_mass_monotone_and_positive(evolutive_psi0_solution, evolutive_heat_g_solution):
    for sc, sol, report, _ in (evolutive_psi0_solution, evolutive_heat_g_solution):
        marr = sol.m.array()
        masses = marr.sum(axis=1) * sc.grid.cell_volume
        assert np.all(np.diff(masses) <= 1e-12)
        assert marr.min() >= -1e-12


def test_heat_g_duality(evolutive_heat_g_solution):
    _, sol, report, _ = evolutive_heat_g_solution
    assert report.r_duality <= 1e-5
    assert report.r_terminal == 0.0


def test_long_horizon_approaches_stationary_profile():
    # constant zero obstacle, time-constant monotone cost, long horizon:
    # the mid-horizon slice nears the stationary mixed solution of the
    # no-zero-order operator family
    grid = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(6.0, 120)
    rho_like = gaussian_density(grid, sigma=0.12, mass=0.4)
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.25))
    op = ObstacleOperator.zero(grid, tg)
    sol, _ = solve_problem(as_scenario(cost, rho_like, tg, default_eps_schedule(stages=6),
                                       obstacle_op=op))
    mid = sol.m.array()[60]
    # stationary analogue without the zero-order terms and without a source:
    # mass drains, so the long-run profile approaches zero
    assert np.max(np.abs(mid)) <= 1e-2


def test_two_dimensional_forward_backward():
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (7, 7))
    tg = build_timegrid(0.3, 6)
    m0 = gaussian_density(grid, sigma=0.15)
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    op = ObstacleOperator.zero(grid, tg)
    sol, _ = solve_problem(as_scenario(cost, m0, tg, [1e-3], obstacle_op=op))
    rep = verify_mixed_evolutive(sol.u, sol.m, cost, op, m0, delta_c=sol.delta_band)
    assert rep.r_continuation <= 1e-10
    assert rep.r_subsolution <= 1e-10
    marr = sol.m.array()
    assert marr.min() >= -1e-12
    assert np.all(np.diff(marr.sum(axis=1)) <= 1e-12)


def test_newton_obstacle_is_the_backward_heat_image(monkeypatch):
    # for heat_from_g the Newton unknown is the shifted value w = u - psi:
    # the w of the last Newton solve, from which alpha is built, is the
    # returned u less the backward heat image of the final density, and
    # the heat solve runs at most twice per stage in the solver, for the
    # start and for the result (the continuation runs without a verifier
    # here, which would add one heat solve per stage)
    sc = scenario_standard("evolutive_heat_g")
    newton = _coupled.semismooth_newton
    apply_arrays = ObstacleOperator.apply_arrays
    shifted, applies = [], []
    k_steps, n = sc.timegrid.n_steps, sc.grid.n_total

    def recording_newton(*args, **kwargs):
        out = newton(*args, **kwargs)
        # the unknowns start with w_0..w_{K-1}
        shifted.append(out[0][:k_steps * n].reshape(k_steps, n))
        return out

    def counting_apply(self, *args):
        applies.append(self.kind)
        return apply_arrays(self, *args)

    monkeypatch.setattr(_coupled, "semismooth_newton", recording_newton)
    monkeypatch.setattr(ObstacleOperator, "apply_arrays", counting_apply)
    sol, stages = penalty_continuation(
        lambda eps, warm, strict: _coupled.forward_backward_solve(
            sc.cost, sc.m0, sc.timegrid, eps, obstacle_op=sc.obstacle_op, warm=warm,
            strict=strict),
        lambda _: None, list(sc.eps_schedule))
    assert set(applies) == {"heat_from_g"} and len(applies) <= 2 * len(stages)
    w = shifted[-1]
    psi = apply_arrays(sc.obstacle_op, sc.grid, sc.timegrid, sol.m.array())[0]
    assert np.max(np.abs(psi)) > 0.01
    assert np.max(np.abs(sol.u.array()[:-1] - psi[:-1] - w)) <= 1e-10
    assert np.array_equal(sol.u.array()[-1], psi[-1])
    assert np.array_equal(sol.alpha.array()[:-1], _ramp(w / sol.delta_band))


@pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-4, 1.0 + 1e-4, 0.97, 1.03])
def test_heat_g_stages_take_at_most_three_passes(scale, newton_targets):
    # with psi solved inside the Newton and the band fixed at stage
    # entry, every stage is one pass, that is one Newton solve, whatever
    # the input (the pass count was 76-115 in total over the eight stages
    # under 3% perturbations when psi was lagged)
    sc = scenario_standard("evolutive_heat_g")
    m0 = ScalarField(sc.grid, scale * sc.m0.values)
    _, stages = solve_problem(as_scenario(sc.cost, m0, sc.timegrid, sc.eps_schedule,
                                          obstacle_op=sc.obstacle_op))
    assert len(stages) == 8 and len(newton_targets) == 8
    for stage, target in zip((sr.solution for sr in stages), newton_targets):
        assert stage.converged
        assert stage.residual_history[-1] <= target
        assert stage.iterations <= 12


def warm_up_case(name):
    # a registry scenario, or the 2D osmfg 9x9, K = 3, zero obstacle
    if name in ("evolutive_psi0", "control_smoothnorm"):
        return scenario_standard(name)
    grid, tg = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9)), build_timegrid(1.0, 3)
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    return as_scenario(cost, gaussian_density(grid), tg,
                       obstacle_op=ObstacleOperator.zero(grid, tg))


@pytest.mark.parametrize("name", ["evolutive_psi0", "control_smoothnorm", "osmfg_2d_9x9"])
def test_warm_up_stages_stop_at_a_penalty_scaled_target(name, newton_targets, monkeypatch):
    # a warm-up stage only starts the next, smaller penalty, so it stops
    # Newton at _WARM_UP epsilon (1 + max |f|); _WARM_UP = 0 runs every
    # stage to the strict target. The last stage, the certified one,
    # takes the same target and steps either way, and the answer moves
    # at round-off only
    sc = warm_up_case(name)
    runs = []
    for warm_up in (_coupled._WARM_UP, 0.0):
        monkeypatch.setattr(_coupled, "_WARM_UP", warm_up)
        sol, stages = solve_problem(sc)
        runs.append((sol, [sr.solution for sr in stages], newton_targets[:]))
        newton_targets.clear()
    (loose, loose_stages, loose_targets), (tight, tight_stages, tight_targets) = runs
    assert np.max(np.abs(loose.u.array() - tight.u.array())) <= 1e-12
    assert np.max(np.abs(loose.m.array() - tight.m.array())) <= 1e-12
    assert loose_targets[-1] == tight_targets[-1]
    assert loose_stages[-1].iterations == tight_stages[-1].iterations
    assert max(tight_targets) < min(loose_targets[:-1])
    assert (sum(stage.iterations for stage in loose_stages)
            < sum(stage.iterations for stage in tight_stages))
    for stage, target in zip(loose_stages[:-1], loose_targets):
        assert stage.converged and stage.residual_history[-1] <= target


def test_nonconvergence_reports_newton_norms(setup, monkeypatch):
    # the history of a time-dependent solve is that of its Newton: the
    # residual norm of the start, then one norm per step
    grid, _, m0 = setup
    tg = build_timegrid(0.5, 4)
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, -0.5))
    op = ObstacleOperator.zero(grid, tg)
    eps = 1e-3
    monkeypatch.setattr(_coupled, "_MAX_OUTER", 1)
    with pytest.raises(CoupledNonConvergence) as err:
        _coupled.forward_backward_solve(cost, m0, tg, eps, 1e-16, obstacle_op=op)
    norms = err.value.residual_history
    assert len(norms) == 2
    # the start is u = psi = 0 and m_k = m0: the value rows are -f(m0),
    # the density rows A0 m0 + ramp(0) m0 / eps with ramp(0) = 1/2
    a0 = elliptic_matrix(grid, with_zero_order=False)
    start = max(np.max(np.abs(cost.evaluate(m0.values))),
                np.max(np.abs(a0 @ m0.values + 0.5 * m0.values / eps)))
    assert norms[0] == pytest.approx(start, rel=1e-12)
    sol = _coupled.forward_backward_solve(cost, m0, tg, eps, 1e-16, obstacle_op=op, strict=False)
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.residual_history == norms


def stage_call(solver, moved):
    # one call of a stage solver (or of a continuation through it) on a
    # 1D grid and time grid, with the item named moved on a grid of the
    # same node count on (0, 2), or with "psi-time" a fixed obstacle on
    # a time grid of the same K on (0, 1): every array would fit
    grid, tg = build_grid(1, (0.0, 1.0), 15), build_timegrid(0.5, 4)
    other = build_grid(1, (0.0, 2.0), 15)
    n, k_steps = grid.n_total, tg.n_steps

    def on(name):
        return other if name == moved else grid

    cost = CostOperator.local_power(on("cost"), 1.0, 1.0, ScalarField.constant(on("cost"), -0.5))
    if solver in ("penalized_coupled_solve", "solve_problem-sosmfg"):
        rho = ScalarField.constant(on("rho"), 1.0)
        if solver == "solve_problem-sosmfg":
            schedule = default_eps_schedule(stages=2)
            return lambda: solve_problem(as_scenario(cost, rho, None, schedule))
        warm = None
        if moved in ("warm.u", "warm.m"):
            warm = PenalizedTriple(
                u=ScalarField(on("warm.u"), np.full(n, -0.1)),
                m=ScalarField(on("warm.m"), np.ones(n)), alpha=ScalarField.zeros(grid),
                epsilon=0.1, iterations=1, residual_history=[0.0], delta_band=1e-3)
        m_init = ScalarField.constant(on("m_init"), 1.0)
        return lambda: penalized_coupled_solve(cost, rho, 0.1, m_init=m_init, warm=warm)
    m0 = ScalarField(on("m0"), gaussian_density(grid).values)
    psi_grid, psi_tg = on("psi"), build_timegrid(1.0, 4) if moved == "psi-time" else tg
    op = ObstacleOperator.constant(FieldTrajectory(psi_grid, psi_tg, np.zeros((k_steps + 1, n))))
    if moved == "g_cost":
        op = ObstacleOperator.heat_source(
            CostOperator.local_power(other, 0.5, 1.0, ScalarField.zeros(other)))
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(on("hamiltonian"), 1.0))
    if solver == "solve_problem-osmfg":
        return lambda: solve_problem(as_scenario(cost, m0, tg, default_eps_schedule(stages=2),
                                                 obstacle_op=op))
    if solver == "solve_problem-cosmfg":
        return lambda: solve_problem(as_scenario(cost, m0, tg, default_eps_schedule(stages=2),
                                                 hamiltonian=ham))
    warm = None
    if moved in ("warm.u", "warm.m"):
        warm = PenalizedTriple(
            u=FieldTrajectory(on("warm.u"), tg, np.full((k_steps + 1, n), -0.1)),
            m=FieldTrajectory(on("warm.m"), tg, np.ones((k_steps + 1, n))),
            alpha=FieldTrajectory.constant(grid, tg, 0.0), epsilon=0.1, iterations=1,
            residual_history=[0.0], delta_band=1e-3)
    return lambda: forward_backward_solve(cost, m0, tg, 0.1, obstacle_op=op, warm=warm,
                                          hamiltonian=ham if moved == "hamiltonian" else None)


STAGE_CASES = (
    [("penalized_coupled_solve", moved) for moved in ("cost", "rho", "m_init", "warm.u", "warm.m")]
    + [("forward_backward_solve", moved) for moved in ("cost", "m0", "warm.u", "warm.m", "psi",
                                                         "psi-time", "g_cost", "hamiltonian")]
    + [("solve_problem-sosmfg", "cost"), ("solve_problem-osmfg", "psi"),
       ("solve_problem-osmfg", "psi-time"), ("solve_problem-cosmfg", "hamiltonian")])


@pytest.mark.parametrize("solver, moved", STAGE_CASES, ids=[f"{s}-{m}" for s, m in STAGE_CASES])
def test_stage_solvers_reject_data_on_another_grid_before_newton(solver, moved, monkeypatch):
    calls = []
    newton = _coupled.semismooth_newton

    def counted(*args, **kwargs):
        calls.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(_coupled, "semismooth_newton", counted)
    stage_call(solver, None)()
    assert calls
    calls.clear()
    with pytest.raises(ValueError, match="one grid and time grid"):
        stage_call(solver, moved)()
    assert calls == []
