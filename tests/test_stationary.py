import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mfgstop.costs import CostOperator
from mfgstop.grid import ScalarField, build_grid, coarsen, elliptic_matrix, inner
from mfgstop import _coupled, obstacle
from mfgstop.obstacle import _base_operator, _shifted_factor, solve_obstacle_stationary
from mfgstop.scenarios import (
    raised_cosine_bump,
    run_scenario_evidence,
    scenario_nonexistence,
    scenario_standard,
)
from mfgstop.stationary import (
    CoupledNonConvergence,
    continuation_solve,
    default_eps_schedule,
    monotone_iteration_solve,
    penalized_coupled_solve,
    penalty_continuation,
    uniqueness_probe,
    variational_minimize,
    verify_mixed,
)
from oracles import operator


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, (0.0, 1.0), 31)


@pytest.fixture(scope="module")
def rho(grid):
    return raised_cosine_bump(grid)


def local_cost(grid, f0_value, a=1.0, p=1.0):
    return CostOperator.local_power(grid, a, p, ScalarField.constant(grid, f0_value))


def test_constant_negative_cost_decouples(grid, rho):
    # f < 0 everywhere keeps the obstacle inactive: no killing, m free
    cost = local_cost(grid, -1.0)
    triple = penalized_coupled_solve(cost, rho, 1e-4)
    free = spla.spsolve(elliptic_matrix(grid).tocsc(), rho.values)
    assert np.max(np.abs(triple.m.values - free)) <= 1e-9
    assert np.all(triple.u.values < 0)


def test_constant_positive_cost_kills_density(grid, rho):
    eps = 1e-5
    cost = CostOperator.local_power(grid, 0.0, 1.0, ScalarField.constant(grid, 1.0))
    triple = penalized_coupled_solve(cost, rho, eps)
    assert np.max(triple.u.values) >= 0.0
    assert np.max(triple.m.values) <= 2.0 * eps * np.max(rho.values)
    assert np.min(triple.alpha.values[triple.u.values > triple.delta_band] if
                  np.any(triple.u.values > triple.delta_band) else np.array([1.0])) == 1.0


def penalized_residuals(triple, cost, rho):
    """Max-norm residuals of the value and density equations at eps."""
    eps = triple.epsilon
    a = elliptic_matrix(rho.grid)
    u, m = triple.u.values, triple.m.values
    r_u = np.max(np.abs(a @ u + np.maximum(u, 0) / eps - cost.evaluate(m)))
    r_m = np.max(np.abs(a @ m + triple.alpha.values / eps * m - rho.values))
    return r_u, r_m


def test_coupled_self_consistency_residuals(grid, rho):
    # mixed-zone instance: killing pins the density inside the bump
    cost = local_cost(grid, -0.005)
    triple = penalized_coupled_solve(cost, rho, 1e-5)
    assert max(penalized_residuals(triple, cost, rho)) <= 1e-8
    assert np.all(triple.alpha.values >= 0) and np.all(triple.alpha.values <= 1)
    assert np.all(triple.alpha.values[triple.u.values > triple.delta_band] == 1.0)


def strictly_monotone_nonlocal(grid, rho):
    # f = -0.5 + <w, m> / <w, A^-1 rho>: f(0) < 0 < f(A^-1 rho)
    w = raised_cosine_bump(grid)
    free = ScalarField(grid, spla.spsolve(elliptic_matrix(grid).tocsc(), rho.values))
    cost = CostOperator.nonlocal_affine(grid, -0.5, 1.0 / inner(w, free), w)
    assert cost.monotonicity == "strict_monotone"
    return cost


@pytest.mark.parametrize("case", ["anti_monotone_1d", "strict_monotone"])
def test_nonlocal_self_consistency_residuals(grid, rho, case):
    # f = c0 + c1 <w, m> enters the Newton system through the bordered
    # unknown s = <w, m>; the residuals use the cost itself
    if case == "anti_monotone_1d":
        cost = scenario_standard(case).cost
    else:
        cost = strictly_monotone_nonlocal(grid, rho)
    triple = penalized_coupled_solve(cost, rho, 1e-3)
    assert triple.converged
    assert max(penalized_residuals(triple, cost, rho)) <= 1e-8
    if case == "strict_monotone":
        # f(0) = -0.5 < 0 < 0.5 = f(A^-1 rho): neither no killing nor full
        # killing is an equilibrium, so the exit rate takes interior values
        assert np.any((triple.alpha.values > 0) & (triple.alpha.values < 1))


def test_continuation_zero_source(grid):
    cost = local_cost(grid, -0.5)
    sol, reports = continuation_solve(cost, ScalarField.zeros(grid))
    m = sol.m
    assert np.max(np.abs(m.values)) == 0.0
    assert all(sr.report.max_residual <= 1e-8 for sr in reports)


def test_continuation_single_stage_equals_single_solve(grid, rho):
    cost = local_cost(grid, -0.5)
    sol, reports = continuation_solve(cost, rho, [1e-3])
    u1, m1 = sol.u, sol.m
    triple = penalized_coupled_solve(cost, rho, 1e-3)
    assert np.array_equal(m1.values, triple.m.values)
    assert np.array_equal(u1.values, triple.u.values)
    assert len(reports) == 1


def test_continuation_rejects_bad_schedule(grid, rho):
    # a NaN passes no comparison, so each of these fails the check
    # before any stage is solved, as does an infinite penalty
    cost = local_cost(grid, -0.5)
    nan, inf = float("nan"), float("inf")
    for schedule in ([1e-3, 1e-3], [], [nan], [0.1, nan], [nan, 0.1], [inf, 0.1], [0.1, -1.0]):
        with pytest.raises(ValueError, match="finite penalties"):
            continuation_solve(cost, rho, schedule)
    for epsilon in (nan, inf, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            penalized_coupled_solve(cost, rho, epsilon)


def test_nan_rho_is_rejected_strict_or_not(grid, rho):
    # a NaN passes no comparison, so only rho >= 0 is accepted, also by
    # a non-strict solve
    vals = rho.values.copy()
    vals[2] = np.nan
    for strict in (True, False):
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            penalized_coupled_solve(local_cost(grid, -0.5), ScalarField(grid, vals), 0.1,
                                    strict=strict)


def test_a_warm_up_stage_with_a_nan_residual_raises(grid, rho):
    # a non-strict stage may end short of tol_pde, but not at a NaN
    # residual, from which the next stage would start
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, np.nan))
    with pytest.raises(CoupledNonConvergence) as err:
        penalized_coupled_solve(cost, rho, 0.1, strict=False)
    assert np.isnan(err.value.residual_history[-1])


def test_continuation_contact_residuals_decrease(grid, rho):
    cost = local_cost(grid, -0.005)
    _, reports = continuation_solve(cost, rho, default_eps_schedule(stages=10))
    r_dual = [sr.report.r_duality for sr in reports]
    assert r_dual[-1] <= 1e-6
    assert r_dual[-1] <= r_dual[0] + 1e-12


def test_monotone_iteration_contact_everywhere(grid, rho):
    # f(0) > 0 makes stopping optimal immediately: the smallest solution is 0
    w = raised_cosine_bump(grid)
    cost = CostOperator.nonlocal_affine(grid, 1.0, -2.0, w)
    u, m, n_iter = monotone_iteration_solve(cost, rho)
    assert n_iter <= 2
    assert np.all(m.values == 0.0)
    assert np.all(u.values == 0.0)


def test_monotone_iteration_no_contact(grid, rho):
    w = raised_cosine_bump(grid)
    cost = CostOperator.nonlocal_affine(grid, -1.0, -1.0, w)
    u, m, n_iter = monotone_iteration_solve(cost, rho)
    free = spla.spsolve(elliptic_matrix(grid).tocsc(), rho.values)
    assert np.max(np.abs(m.values - free)) <= 1e-9
    assert n_iter <= 3


def test_monotone_iteration_requires_anti_monotone(grid, rho):
    with pytest.raises(ValueError):
        monotone_iteration_solve(local_cost(grid, -0.5), rho)


def test_monotone_iteration_below_continuation(grid, rho):
    sc = scenario_standard("anti_monotone_1d")
    u_it, m_it, n_iter = monotone_iteration_solve(sc.cost, sc.rho)
    sol, _ = continuation_solve(sc.cost, sc.rho, list(sc.eps_schedule))
    m_cont = sol.m
    assert n_iter <= 50
    assert np.all(m_it.values <= m_cont.values + 1e-6)


def test_variational_saturating_instance(grid, rho):
    # unconstrained minimizer far above feasibility: optimum saturates A m = rho
    cost = CostOperator.local_affine_shifted(grid, base=ScalarField.zeros(grid),
                                             m_ref=ScalarField.constant(grid, 10.0))
    m = variational_minimize(cost.potential(), rho)
    free = spla.spsolve(elliptic_matrix(grid).tocsc(), rho.values)
    assert np.max(np.abs(m.values - free)) <= 1e-8


def test_variational_zero_minimizer(grid, rho):
    cost = local_cost(grid, 0.0)
    m = variational_minimize(cost.potential(), rho)
    assert np.max(np.abs(m.values)) <= 1e-12


def euler_lagrange_certificate(cost, m, rho):
    """Min of <f(m), m' - m> over a battery of feasible m', with
    m' >= 0 and A m' <= rho: 0, A^-1 rho, its midpoints with 0 and with
    m, and the exclusion-set solves on four node sets drawn from seed 0,
    all by dense solves of oracles.operator. A minimizer of the
    variational problem has a nonnegative certificate."""
    grid, n = m.grid, m.grid.n_total
    a, r = operator(grid), rho.values
    free = np.linalg.solve(a, r)
    battery = [np.zeros(n), free, 0.5 * free, 0.5 * (m.values + free)]
    rng = np.random.default_rng(0)
    for _ in range(4):
        on = rng.random(n) < 0.5
        battery.append(np.zeros(n))
        battery[-1][on] = np.linalg.solve(a[np.ix_(on, on)], r[on])
    f_m = cost.evaluate(m.values)
    return min(float(f_m @ (mp - m.values)) * grid.cell_volume for mp in battery)


def test_variational_feasibility_and_certificate(grid, rho):
    cost = local_cost(grid, -0.005)
    m = variational_minimize(cost.potential(), rho)
    a = elliptic_matrix(grid)
    assert np.max(a @ m.values - rho.values) <= 1e-9
    assert np.min(m.values) >= 0.0
    assert euler_lagrange_certificate(cost, m, rho) >= -1e-6


def test_variational_fine_grid_kkt():
    # 255 nodes with a killing region: the whole active-set steps reach
    # the KKT point; a feasible density with a nonnegative certificate
    fine = build_grid(1, (0.0, 1.0), 255)
    rho_f = raised_cosine_bump(fine)
    cost = local_cost(fine, -0.005)
    m = variational_minimize(cost.potential(), rho_f)
    slack = rho_f.values - elliptic_matrix(fine) @ m.values
    assert np.min(slack) >= -1e-10 and np.max(slack) > 1e-3
    assert np.min(m.values) >= 0.0
    assert euler_lagrange_certificate(cost, m, rho_f) >= -1e-8


def test_variational_matches_scipy_qp_oracle(grid, rho):
    # the variational density against the QP it solves, by SLSQP:
    # min h (|m|^2 / 2 - 0.01 sum m) subject to A m <= rho and m >= 0
    from scipy.optimize import Bounds, LinearConstraint, minimize

    cost = local_cost(grid, -0.01)
    m = variational_minimize(cost.potential(), rho)
    n = grid.n_total
    h = grid.cell_volume
    a = elliptic_matrix(grid).toarray()
    res = minimize(lambda x: h * (0.5 * x @ x - 0.01 * x.sum()), np.zeros(n),
                   jac=lambda x: h * (x - 0.01), method="SLSQP",
                   constraints=[LinearConstraint(a, -np.inf, rho.values)],
                   bounds=Bounds(0.0, np.inf), options={"ftol": 1e-12})
    assert res.success
    assert np.max(np.abs(m.values - res.x)) <= 1e-6


def test_variational_requires_strict_monotone(grid, rho):
    with pytest.raises(ValueError):
        variational_minimize(CostOperator.local_power(
            grid, -1.0, 1.0, ScalarField.constant(grid, 1.0)).potential(), rho)


def test_variational_rejects_a_nonlocal_cost(grid, rho):
    # a nonlocal cost has no potential: potential() is None
    nonlocal_cost = CostOperator.nonlocal_affine(grid, 0.0, 1.0, ScalarField.constant(grid, 1.0))
    with pytest.raises(ValueError, match="strictly monotone local cost"):
        variational_minimize(nonlocal_cost.potential(), rho)


def test_verify_mixed_flags_constructed_violation(grid, rho):
    # (0, A^-1 rho) with f negative somewhere: the value equation residual shows
    cost = local_cost(grid, -0.5)
    free = ScalarField(grid, spla.spsolve(elliptic_matrix(grid).tocsc(), rho.values))
    report = verify_mixed(ScalarField.zeros(grid), free, cost, rho)
    assert report.r_obstacle > 0.1


def test_verify_mixed_trivial_pair(grid, rho):
    cost = CostOperator.local_power(grid, 1.0, 1.0, ScalarField.constant(grid, 0.2))
    u = solve_obstacle_stationary(cost(ScalarField.zeros(grid)), ScalarField.zeros(grid))
    report = verify_mixed(u, ScalarField.zeros(grid), cost, rho)
    assert report.max_residual <= 1e-10


def test_duality_identity_on_converged_solution(grid, rho):
    for f0 in (-0.5, -0.005):
        cost = local_cost(grid, f0)
        sol, reports = continuation_solve(cost, rho, default_eps_schedule(stages=10))
        u, m = sol.u, sol.m
        assert abs(inner(cost(m), m) - inner(u, rho)) <= 1e-6
        assert reports[-1].report.r_duality <= 1e-6


def test_subsolution_trivial_and_violating(grid, rho):
    # A m <= rho holds for m = 0 and fails by rho for m = 2 A^-1 rho
    cost, zero = local_cost(grid, -0.5), ScalarField.zeros(grid)
    assert verify_mixed(zero, zero, cost, rho).r_subsolution == 0.0
    m_big = ScalarField(grid, 2.0 * np.linalg.solve(operator(grid), rho.values))
    slack = verify_mixed(zero, m_big, cost, rho).r_subsolution
    assert abs(slack - np.max(rho.values)) <= 1e-9 * np.max(rho.values)


def test_uniqueness_probe_determinism(grid, rho):
    cost = local_cost(grid, -0.5)
    gap1 = uniqueness_probe(cost, rho, n_starts=3, seed=11)
    gap2 = uniqueness_probe(cost, rho, n_starts=3, seed=11)
    assert gap1 == gap2


def test_uniqueness_probe_requires_two_starts(grid, rho):
    with pytest.raises(ValueError):
        uniqueness_probe(local_cost(grid, -0.5), rho, n_starts=1)


def test_nonconvergence_reports_history(grid, rho, monkeypatch):
    cost = local_cost(grid, -0.005)
    monkeypatch.setattr(_coupled, "_MAX_OUTER", 1)
    with pytest.raises(CoupledNonConvergence) as err:
        penalized_coupled_solve(cost, rho, 1e-5, 1e-16)
    assert len(err.value.residual_history) >= 1


def test_stalled_newton_stops_early(grid, rho):
    # cold-started at a small eps this cost stalls (continuation from
    # eps = 0.1 converges); the driver gives up once the residual norm
    # has not halved over 20 steps instead of running to max_outer
    cost = strictly_monotone_nonlocal(grid, rho)
    with pytest.raises(CoupledNonConvergence) as err:
        penalized_coupled_solve(cost, rho, 1e-5)
    norms = err.value.residual_history
    assert len(norms) - 1 <= 40 < _coupled._MAX_OUTER
    assert norms[-1] > 0.5 * norms[-21]


def test_every_density_passes_subsolution(grid, rho):
    for f0 in (-0.5, -0.02, -0.005):
        sol, _ = continuation_solve(local_cost(grid, f0), rho)
        m = sol.m
        assert np.min(rho.values - operator(grid) @ m.values) >= -1e-9
        assert m.values.min() >= -1e-12


def test_2d_continuation_without_penalty_factors_a_once(monkeypatch, band_factors, lu_factors):
    # u stays below the obstacle at every Newton iterate of this 2D
    # continuation, so every step's value block Ju is A itself, and so
    # is the density block Jm of the last stage's step, whose exit rate
    # vanishes: A is factored once, at the cold start of the first
    # stage, and every such block of every stage solves with that
    # factor. The other factorizations are the density blocks with a
    # rate; a stage returns its Newton iterate, with no density solve
    # after it. Every one is a banded Cholesky factorization of A's band
    # storage plus the block's diagonal update d, and nothing factors by
    # LU (no step falls back to the whole Jacobian)
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.5))
    steps, factors = [], []
    schur, shifted_factor = _coupled._schur_step, _coupled._shifted_factor

    def recording_schur(*args):
        steps.append(args)
        return schur(*args)

    def recording_shifted_factor(*args):
        # the slice factors that the sweeps of a step wrap: the value
        # block first, then the density block
        factors.append(shifted_factor(*args))
        return factors[-1]

    monkeypatch.setattr(_coupled, "_schur_step", recording_schur)
    monkeypatch.setattr(_coupled, "_shifted_factor", recording_shifted_factor)
    sol, stages = continuation_solve(cost, raised_cosine_bump(g, peak=2.0), [1e-1, 1e-2, 1e-3])
    base = _shifted_factor(g, 0.0, 1.0)
    blocks = list(zip(factors[::2], factors[1::2]))
    assert np.max(sol.u.values) < 0.0
    assert [s.iterations for s in stages] == [3, 3, 1] and len(steps) == 4
    assert len(factors) == 2 * len(steps) and len(blocks) == 4
    assert all(solve_u is base for solve_u, _ in blocks)
    assert [solve_m is base for _, solve_m in blocks] == [False, False, False, True]
    assert all(band is _base_operator(g, 1.0).band for band, _ in band_factors)
    factored = [not np.any(d) for _, d in band_factors]
    assert factored[0] and factored.count(True) == 1
    # A and the three density blocks with a rate
    assert len(factored) == 1 + 3 and lu_factors == []


def flat_continuation(cost, rho, schedule=None):
    # every stage on rho's grid: penalty_continuation over one
    # penalized_coupled_solve per stage, verified as continuation_solve
    # verifies
    return penalty_continuation(
        lambda eps, warm, strict: penalized_coupled_solve(cost, rho, eps, strict=strict, warm=warm),
        lambda t: verify_mixed(t.u, t.m, cost, rho, delta_c=t.delta_band), schedule)


def grid_2d(n):
    return build_grid(2, ((0.0, 1.0), (0.0, 1.0)), n)


# the acceptance gates of the command-line tests (1e-6 on every
# residual) and of the benchmark configs (r_duality <= 1e-4)
GATES = [*((key, 1e-6) for key in ("r_obstacle", "r_continuation", "r_subsolution", "r_contact",
                                   "r_duality")), ("r_duality", 1e-4)]


@pytest.mark.parametrize("cost_kind,peak", [("local", 1.0), ("local", 250.0), ("nonlocal", 1.0)])
def test_nested_continuation_matches_the_flat_one(cost_kind, peak):
    # 31x31 nests once: stages 0-6 on the 15x15 grid of every second
    # node, the last on 31x31 from the prolonged coarse solution; the
    # fields agree with the all-fine continuation's to 1e-5 (8.5e-7 in
    # m at peak 250) and pass and fail the same gates
    g = grid_2d(31)
    rho = raised_cosine_bump(g, peak=peak)
    cost = local_cost(g, -0.5) if cost_kind == "local" else strictly_monotone_nonlocal(g, rho)
    nested, stages = continuation_solve(cost, rho)
    flat, flat_stages = flat_continuation(cost, rho)
    assert [sr.stage for sr in stages] == list(range(8))
    assert [sr.report.grid["n_interior"] for sr in stages] == [[15, 15]] * 7 + [[31, 31]]
    assert [sr.solution.u.grid for sr in stages] == [coarsen(g)[0]] * 7 + [g]
    assert nested.converged and nested.epsilon == flat.epsilon
    for a, b in ((nested.u, flat.u), (nested.m, flat.m)):
        assert np.max(np.abs(a.values - b.values)) <= 1e-5
    report, flat_report = stages[-1].report.to_dict(), flat_stages[-1].report.to_dict()
    assert [report[key] <= gate for key, gate in GATES] == [
        flat_report[key] <= gate for key, gate in GATES]


def test_nesting_recurses_to_the_15x15_grid():
    g = grid_2d(63)
    sol, stages = continuation_solve(local_cost(g, -0.5), raised_cosine_bump(g))
    assert [sr.report.grid["n_interior"][0] for sr in stages] == [15] * 6 + [31, 63]
    assert sol.u.grid == g and stages[-1].report.max_residual <= 1e-8


@pytest.mark.parametrize("case", ["1d", "15x15", "even_n", "anti_monotone", "neither",
                                  "one_stage"])
def test_continuation_stays_flat_where_it_does_not_nest(case):
    # 1D grids, coarse grids of fewer than 15 nodes per axis, even node
    # counts, costs that are not strictly monotone and one-stage
    # schedules run every stage on the given grid, bit for bit as the
    # flat continuation
    grid = {"1d": build_grid(1, (0.0, 1.0), 63), "15x15": grid_2d(15),
            "even_n": grid_2d((31, 32))}.get(case, grid_2d(31))
    cost = {"anti_monotone": local_cost(grid, 0.2, a=-0.1), "neither": local_cost(grid, -0.5, a=0.0)
            }.get(case, local_cost(grid, -0.5))
    rho = raised_cosine_bump(grid)
    schedule = [1e-3] if case == "one_stage" else None
    sol, stages = continuation_solve(cost, rho, schedule)
    flat, flat_stages = flat_continuation(cost, rho, schedule)
    for name in ("u", "m", "alpha"):
        assert getattr(sol, name).values.tobytes() == getattr(flat, name).values.tobytes()
    assert [(sr.stage, sr.iterations, sr.report) for sr in stages] == [
        (sr.stage, sr.iterations, sr.report) for sr in flat_stages]
    assert {sr.solution.u.grid for sr in stages} == {grid}


def test_nested_continuation_raises_at_the_fine_stage_only(monkeypatch):
    # the coarse stages are warm-up stages and return their last iterate;
    # the final fine stage is strict and reports its index
    g = grid_2d(31)
    monkeypatch.setattr(_coupled, "_MAX_OUTER", 1)
    with pytest.raises(CoupledNonConvergence) as err:
        continuation_solve(local_cost(g, -0.5), raised_cosine_bump(g), None, 1e-16)
    assert err.value.stage == 7


def test_nested_solve_finds_its_factors_and_orders_kept(monkeypatch):
    # the 63x63 continuation and the 1D scenarios of the stationary
    # benchmark workload, twice in one process: the second pass makes no
    # new elimination order (no kept order, banded or MMD, and no fresh
    # MMD ordering) and no new base factor, so the three grid levels and
    # the 1D grids do not evict each other's assemblers or factors from
    # the caches
    g = grid_2d(63)
    cost, rho = local_cost(g, -0.5), raised_cosine_bump(g)
    orderings, splu, elimination_order = [], spla.splu, obstacle._elimination_order

    def recording_splu(matrix, permc_spec=None, **kwargs):
        orderings.append(permc_spec == "MMD_AT_PLUS_A")
        return splu(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(obstacle, "_elimination_order",
                        lambda *args: orderings.append(True) or elimination_order(*args))
    counts = []
    for _ in range(2):
        del orderings[:]
        continuation_solve(cost, rho)
        for name in ("monotone_1d", "anti_monotone_1d"):
            run_scenario_evidence(scenario_standard(name))
        scenario_nonexistence()
        counts.append((sum(orderings), _base_operator.cache_info().misses))
    assert counts[0][0] >= 1 and counts[1] == (0, counts[0][1])
