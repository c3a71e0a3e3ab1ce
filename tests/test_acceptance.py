"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities (run with -s to see them inline).

Criteria are property-based at desk scale; every tolerance is pinned
here, none deferred to runtime configuration.
"""

import time

import numpy as np

from mfgstop.control import (
    Hamiltonian,
    control_objective,
    cosmfg_coupled_solve,
    face_drift,
)
from mfgstop.density import (
    FaceVelocities,
    KillingData,
    solve_density_on_set,
    solve_density_parabolic,
)
from mfgstop.evolutive import ObstacleOperator, osmfg_continuation
from mfgstop.grid import NodeMask, ScalarField, build_grid, inner
from mfgstop.obstacle import solve_obstacle_stationary
from mfgstop.scenarios import (
    raised_cosine_bump,
    scenario_nonexistence,
    scenario_nonuniqueness,
    scenario_standard,
)
from mfgstop.stationary import (
    continuation_solve,
    monotone_iteration_solve,
    uniqueness_probe,
    variational_minimize,
)
from oracles import killed_density, obstacle_oracle, operator, penalized_obstacle
from test_evolutive import continuation_from
from test_stationary import euler_lagrange_certificate


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_c01_obstacle_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        grid = build_grid(1, (0.0, 1.0), n)
        f = ScalarField(grid, rng.uniform(-2.0, 2.0, n))
        psi = ScalarField.zeros(grid)
        u_sor = solve_obstacle_stationary(f, psi)
        u_ref = obstacle_oracle(f, psi)
        worst = max(worst, float(np.max(np.abs(u_sor.values - u_ref.values))))
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(1, f"50 random instances, max gap {worst:.2e}, {elapsed:.1f}s")


def test_c02_analytic_convergence_order():
    errors = []
    for n in (31, 63, 127):
        grid = build_grid(1, (0.0, 1.0), n)
        u = solve_obstacle_stationary(ScalarField.constant(grid, -1.0),
                                      ScalarField.zeros(grid))
        x = grid.coordinates()[:, 0]
        exact = -(1.0 - np.cosh(x - 0.5) / np.cosh(0.5))
        errors.append(float(np.max(np.abs(u.values - exact))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    report(2, f"errors {['%.2e' % e for e in errors]}, observed orders "
              f"{['%.3f' % o for o in orders]}")


def test_c03_penalization_limits_monotone():
    grid = build_grid(1, (0.0, 1.0), 21)
    rng = np.random.default_rng(103)
    f = ScalarField(grid, 0.4 * rng.uniform(-1.0, 1.0, 21))
    psi = ScalarField.zeros(grid)
    u_limit = solve_obstacle_stationary(f, psi)
    eps_values = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    u_gaps = []
    for eps in eps_values:
        u_eps = penalized_obstacle(f, psi, eps)
        u_gaps.append(float(np.max(np.abs(u_eps.values - u_limit.values))))
    assert all(a >= b for a, b in zip(u_gaps, u_gaps[1:]))
    assert u_gaps[-1] <= 1e-6

    rho = raised_cosine_bump(grid, peak=0.25)
    x = grid.coordinates()[:, 0]
    active = NodeMask(grid, x > 0.75)
    m_limit = solve_density_on_set(NodeMask(grid, ~active.mask), rho)
    m_gaps = []
    for eps in eps_values:
        m_eps = killed_density(active.mask / eps, rho)
        m_gaps.append(float(np.max(np.abs(m_eps.values - m_limit.values))))
    assert all(a >= b for a, b in zip(m_gaps, m_gaps[1:]))
    assert m_gaps[-1] <= 1e-6
    report(3, f"u gaps {u_gaps[0]:.1e}->{u_gaps[-1]:.1e}, "
              f"m gaps {m_gaps[0]:.1e}->{m_gaps[-1]:.1e}, both monotone")


def test_c04_discrete_duality_inequality():
    rng = np.random.default_rng(104)
    worst_gap = np.inf
    worst_eq = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 32))
        grid = build_grid(1, (0.0, 1.0), n)
        rho = ScalarField(grid, np.abs(rng.normal(size=n)))
        omega = NodeMask(grid, rng.random(n) < 0.7)
        m = solve_density_on_set(omega, rho)
        u_vals = -np.abs(rng.normal(size=n))
        if trial % 2 == 0:
            # supported inside omega: the pairing must be an equality
            u_vals = np.where(omega.mask, u_vals, 0.0)
        u = ScalarField(grid, u_vals)
        gap = inner(ScalarField(grid, operator(grid) @ u_vals), m) - inner(u, rho)
        worst_gap = min(worst_gap, gap)
        if trial % 2 == 0:
            worst_eq = max(worst_eq, abs(gap))
    assert worst_gap >= -1e-9
    assert worst_eq <= 1e-9
    report(4, f"min pairing gap {worst_gap:.2e}, max |equality| defect {worst_eq:.2e}")


def test_c05_mixed_solution_existence(monotone_1d_solution, monotone_2d_solution):
    for label, (sc, u, m, reports) in (("monotone_1d", monotone_1d_solution),
                                       ("monotone_2d", monotone_2d_solution)):
        start = time.time()
        _, fresh_reports = continuation_solve(sc.cost, sc.rho, list(sc.eps_schedule))
        elapsed = time.time() - start
        rep = fresh_reports[-1].report
        for key, value in rep.to_dict().items():
            if key.startswith("r_"):
                assert value <= 1e-6, (label, key, value)
        assert elapsed < 60.0
    rep1 = monotone_1d_solution[3][-1].report
    report(5, f"all residuals <= 1e-6 on both scenarios "
              f"(1d duality {rep1.r_duality:.1e})")


def scaled_start_gap(solve, m0, timegrid, scales, kept=()):
    """The evolutive uniqueness probe: the max pairwise max-norm gap of
    the density trajectories in kept and of solve(init) over the scales
    s, init being s m0 on every slice but the first, m0 itself."""
    results = list(kept)
    for s in scales:
        init = np.tile(m0.values, (timegrid.n_steps + 1, 1)) * s
        init[0] = m0.values
        results.append(solve(init).m.array())
    return max(float(np.max(np.abs(a - b))) for i, a in enumerate(results)
               for b in results[i + 1:])


def test_c06_uniqueness_under_strict_monotonicity(evolutive_psi0_solution,
                                                  control_solution):
    sc = scenario_standard("monotone_1d")
    gap = uniqueness_probe(sc.cost, sc.rho, n_starts=5, seed=106)
    assert gap <= 1e-5

    # the evolutive probe: the stages of osmfg_continuation, the first
    # from the start, at five scales drawn as uniqueness_probe draws them
    ev = evolutive_psi0_solution[0]
    gap_ev = scaled_start_gap(
        lambda init: continuation_from(init, ev.cost, ev.m0, ev.timegrid,
                                       list(ev.eps_schedule), ev.obstacle_op),
        ev.m0, ev.timegrid, np.random.default_rng(106).uniform(0.0, 2.0, 5))
    assert gap_ev <= 1e-4

    # control analogue, the stages of cosmfg_coupled_solve; the cached
    # solution is the unit-scale start
    sc_c, sol_base, _ = control_solution
    zero = ObstacleOperator.zero(sc_c.m0.grid, sc_c.timegrid)
    gap_c = scaled_start_gap(
        lambda init: continuation_from(init, sc_c.cost, sc_c.m0, sc_c.timegrid,
                                       list(sc_c.eps_schedule), zero, sc_c.hamiltonian),
        sc_c.m0, sc_c.timegrid, (0.1, 0.5, 1.5, 1.9), kept=[sol_base.m.array()])
    assert gap_c <= 1e-4
    report(6, f"gaps: stationary {gap:.1e}, evolutive {gap_ev:.1e}, control {gap_c:.1e}")


def test_c07_nonuniqueness_counterexample():
    ev = scenario_nonuniqueness()
    assert ev.report_zero.max_residual <= 1e-8
    assert ev.report_star.max_residual <= 1e-8
    m_star_norm = float(np.max(np.abs(ev.m_star.values)))
    assert ev.gap >= 0.5 * m_star_norm
    report(7, f"two verified solutions, gap {ev.gap:.3f} >= {0.5 * m_star_norm:.3f}")


def test_c08_nonexistence_counterexample():
    ev = scenario_nonexistence()
    assert ev.final_report.max_residual <= 1e-5
    for stage in ev.stages:
        assert stage.contact_mass >= 10.0 * stage.report.r_contact
    assert ev.classical_floor > 0
    report(8, f"mixed residuals <= {ev.final_report.max_residual:.1e}, classical floor "
              f"{ev.classical_floor:.2e}, min ratio {min(s.ratio for s in ev.stages):.0f}x")


def test_c09_monotone_iteration_smallest_solution():
    sc = scenario_standard("anti_monotone_1d")
    zero = ScalarField.zeros(sc.grid)
    m_seq = [np.zeros(sc.grid.n_total)]
    u_seq = []
    # replay the ordered fixed point with public operations
    from mfgstop.grid import classify_nodes

    for _ in range(50):
        u = solve_obstacle_stationary(sc.cost(ScalarField(sc.grid, m_seq[-1])), zero)
        u_seq.append(u.values)
        continuation, _ = classify_nodes(u)
        m_next = solve_density_on_set(continuation, sc.rho).values
        m_seq.append(m_next)
        if np.max(np.abs(m_seq[-1] - m_seq[-2])) <= 1e-10:
            break
    n_iters = len(u_seq)
    assert n_iters <= 50
    m_viol = max(float(np.max(a - b, initial=0.0)) for a, b in zip(m_seq, m_seq[1:]))
    u_viol = max((float(np.max(b - a, initial=0.0)) for a, b in zip(u_seq, u_seq[1:])),
                 default=0.0)
    assert m_viol <= 1e-10
    assert u_viol <= 1e-10
    u_fix, m_fix, n_solver = monotone_iteration_solve(sc.cost, sc.rho)
    sol, _ = continuation_solve(sc.cost, sc.rho, list(sc.eps_schedule))
    m_cont = sol.m
    assert np.all(m_fix.values <= m_cont.values + 1e-6)
    report(9, f"{n_solver} iterations, monotonicity violations <= "
              f"{max(m_viol, u_viol):.1e}, smallest below continuation")


def test_c10_variational_consistency(monotone_1d_solution):
    sc, _, m_cont, _ = monotone_1d_solution
    m_var = variational_minimize(sc.cost.potential(), sc.rho)
    gap = float(np.max(np.abs(m_var.values - m_cont.values)))
    assert gap <= 1e-4
    certificate = euler_lagrange_certificate(sc.cost, m_var, sc.rho)
    assert certificate >= -1e-6
    report(10, f"route gap {gap:.2e}, Euler-Lagrange certificate {certificate:.2e}")


def test_c11_evolutive_duality_identity(evolutive_psi0_solution,
                                        evolutive_heat_g_solution):
    vals = []
    for sc, sol, rep, _ in (evolutive_psi0_solution, evolutive_heat_g_solution):
        assert rep.r_duality <= 1e-5, sc.name
        vals.append(rep.r_duality)
    report(11, f"duality residuals {vals[0]:.2e} (psi0), {vals[1]:.2e} (heat_g)")


def test_c12_control_reduction_fenchel_objective(evolutive_psi0_solution,
                                                 control_solution, lu_factors):
    sc, sol_o, _, _ = evolutive_psi0_solution
    ham0 = Hamiltonian.smoothed_norm(ScalarField.zeros(sc.grid))
    sol_c, _ = cosmfg_coupled_solve(sc.cost, ham0, sc.m0, sc.timegrid,
                                    list(sc.eps_schedule))
    red_u = float(np.max(np.abs(sol_c.u.array() - sol_o.u.array())))
    red_m = float(np.max(np.abs(sol_c.m.array() - sol_o.m.array())))
    assert max(red_u, red_m) <= 1e-8

    sc_c, sol, _rep = control_solution
    rng = np.random.default_rng(112)
    worst_fy = 0.0
    beta = sc_c.hamiltonian.beta.values
    for _ in range(1000):
        node = int(rng.integers(0, sc_c.grid.n_total))
        p = rng.normal(scale=3.0)
        a = rng.uniform(-0.999, 0.999) * beta[node]
        h_val = float(sc_c.hamiltonian.value([np.array([p])],
                                             weight=beta[node:node + 1])[0])
        l_val = float(sc_c.hamiltonian.conjugate([np.full(sc_c.grid.n_total, a)])[node])
        worst_fy = max(worst_fy, a * p - h_val - l_val)
    assert worst_fy <= 1e-10

    pot = sc_c.cost.potential()
    drift = face_drift(sc_c.hamiltonian, sol.u)
    base = control_objective(sol.m, drift, pot, sc_c.hamiltonian, sc_c.timegrid)
    tg = sc_c.timegrid
    x_faces = np.linspace(0, 1, sc_c.grid.n_interior[0] + 1)
    killing = KillingData(sol.alpha, sol.epsilon)
    checked = 0
    for shape_i, shape in enumerate([np.sin(np.pi * x_faces),
                                     np.sin(2 * np.pi * x_faces),
                                     np.cos(np.pi * x_faces),
                                     x_faces * (1 - x_faces),
                                     np.ones_like(x_faces)]):
        delta = 0.05 * shape
        drift_p = FaceVelocities(sc_c.grid, tg,
                                 (np.clip(drift.components[0] + delta, -0.995, 0.995),))
        m_p = solve_density_parabolic(sc_c.m0, killing, tg, drift_p)
        obj_p = control_objective(m_p, drift_p, pot, sc_c.hamiltonian, tg)
        assert base <= obj_p + 1e-6, (shape_i, base, obj_p)
        checked += 1
    assert lu_factors and all(kind == "band" for kind, _ in lu_factors)
    report(12, f"reduction gap {max(red_u, red_m):.1e}, Fenchel-Young defect "
               f"{worst_fy:.1e}, objective optimal vs {checked} perturbed controls")


def test_c13_structural_invariants_all_scenarios(monotone_1d_solution,
                                                 monotone_2d_solution,
                                                 evolutive_psi0_solution,
                                                 evolutive_heat_g_solution,
                                                 control_solution):
    checked = []
    # stationary scenarios: positivity, subsolution slack, determinism
    for sc, u, m, reports in (monotone_1d_solution, monotone_2d_solution):
        assert m.values.min() >= -1e-12
        assert np.min(sc.rho.values - operator(sc.grid) @ m.values) >= -1e-9
        sol, _ = continuation_solve(sc.cost, sc.rho, list(sc.eps_schedule))
        u2, m2 = sol.u, sol.m
        assert np.array_equal(m2.values, m.values)
        assert np.array_equal(u2.values, u.values)
        checked.append(sc.name)

    sc_a = scenario_standard("anti_monotone_1d")
    u_a, m_a, _ = monotone_iteration_solve(sc_a.cost, sc_a.rho)
    u_b, m_b, _ = monotone_iteration_solve(sc_a.cost, sc_a.rho)
    assert np.array_equal(m_a.values, m_b.values)
    assert m_a.values.min() >= -1e-12
    assert np.min(sc_a.rho.values - operator(sc_a.grid) @ m_a.values) >= -1e-9
    checked.append(sc_a.name)

    # time-dependent scenarios: positivity, mass monotonicity, determinism
    for sc, sol, *_ in (evolutive_psi0_solution, evolutive_heat_g_solution):
        marr = sol.m.array()
        assert marr.min() >= -1e-12
        masses = marr.sum(axis=1) * sc.grid.cell_volume
        assert np.all(np.diff(masses) <= 1e-12)
        sol2, _ = osmfg_continuation(sc.cost, sc.obstacle_op, sc.m0, sc.timegrid,
                                     list(sc.eps_schedule))
        assert np.array_equal(sol2.m.array(), marr)
        assert np.array_equal(sol2.u.array(), sol.u.array())
        checked.append(sc.name)

    sc_c, sol_c, _ = control_solution
    marr = sol_c.m.array()
    assert marr.min() >= -1e-12
    masses = marr.sum(axis=1) * sc_c.grid.cell_volume
    assert np.all(np.diff(masses) <= 1e-12)
    sol_c2, _ = cosmfg_coupled_solve(sc_c.cost, sc_c.hamiltonian, sc_c.m0,
                                     sc_c.timegrid, list(sc_c.eps_schedule))
    assert np.array_equal(sol_c2.m.array(), marr)
    checked.append(sc_c.name)
    report(13, f"positivity, subsolution, mass monotonicity, bitwise determinism "
               f"on {', '.join(checked)}")
