import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from mfgstop import _coupled, obstacle
from mfgstop._coupled import (
    _frozen_system,
    _hamiltonian_positions,
    _hamiltonian_state,
    _jacobian_assembler,
    _ramp,
    forward_backward_solve,
)
from mfgstop.control import Hamiltonian, face_drift
from mfgstop.costs import CostOperator
from mfgstop.evolutive import ObstacleOperator, osmfg_continuation
from mfgstop.grid import (
    FieldTrajectory,
    ScalarField,
    _gradient_matrices,
    build_grid,
    build_timegrid,
    elliptic_matrix,
)
from mfgstop.obstacle import (
    ObstacleConvergenceError,
    _base_operator,
    _lu_factor,
    _lu_solve,
    _shifted_factor,
    _shifted_matrix,
    _space_time_operator,
    complementarity_residual,
    diagonal_update,
    semismooth_newton,
    solve_obstacle_stationary,
)
from mfgstop.scenarios import gaussian_density, raised_cosine_bump
from oracles import (
    drift_reference,
    obstacle_candidates,
    obstacle_oracle,
    parabolic_obstacle,
    penalized_obstacle,
)
from mfgstop.stationary import (
    CoupledNonConvergence,
    continuation_solve,
    penalized_coupled_solve,
    penalty_continuation,
    variational_minimize,
)


def cosh_profile(x):
    # closed form for -u'' + u = -1 on (0, 1), u(0) = u(1) = 0
    return -(1.0 - np.cosh(x - 0.5) / np.cosh(0.5))


def test_nonnegative_source_gives_zero():
    g = build_grid(1, (0.0, 1.0), 9)
    rng = np.random.default_rng(0)
    f = ScalarField(g, np.abs(rng.normal(size=9)))
    u = solve_obstacle_stationary(f, ScalarField.zeros(g))
    assert np.max(np.abs(u.values)) <= 1e-10


def test_inactive_constraint_matches_cosh_closed_form():
    g = build_grid(1, (0.0, 1.0), 31)
    u = solve_obstacle_stationary(ScalarField.constant(g, -1.0), ScalarField.zeros(g))
    x = g.coordinates()[:, 0]
    err = np.max(np.abs(u.values - cosh_profile(x)))
    assert err < 2e-4  # second-order accuracy at h = 1/32
    assert u.values[15] == pytest.approx(-(1.0 - 1.0 / np.cosh(0.5)), abs=2e-4)


def test_projected_sor_matches_active_set_oracle():
    g = build_grid(1, (0.0, 1.0), 8)
    psi = ScalarField.zeros(g)
    rng = np.random.default_rng(42)
    for _ in range(5):
        f = ScalarField(g, rng.uniform(-2.0, 2.0, 8))
        u = solve_obstacle_stationary(f, psi)
        u_ref = obstacle_oracle(f, psi)
        assert np.max(np.abs(u.values - u_ref.values)) <= 1e-9


def test_oracle_trivial_branches():
    # the exhaustive oracle of oracles.py: every node active, and none
    g = build_grid(1, (0.0, 1.0), 3)
    psi = ScalarField.zeros(g)
    u0 = obstacle_oracle(ScalarField.constant(g, 0.5), psi)
    assert np.all(u0.values == 0.0)
    f = ScalarField.constant(g, -1.0)
    u = obstacle_oracle(f, psi)
    free = spla.spsolve(elliptic_matrix(g).tocsc(), f.values)
    assert np.allclose(u.values, free, atol=1e-12)


def test_oracle_refuses_large_grids():
    g = build_grid(1, (0.0, 1.0), 17)
    with pytest.raises(AssertionError, match="2\\^n active sets"):
        obstacle_oracle(ScalarField.zeros(g), ScalarField.zeros(g))


def test_oracle_unique_candidate():
    # on the M-matrix A every active set that passes the test gives the
    # one solution, which the package's residual accepts
    g = build_grid(1, (0.0, 1.0), 10)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.uniform(-2.0, 2.0, 10))
    u, *others = obstacle_candidates(f, ScalarField.zeros(g))
    assert all(np.max(np.abs(v.values - u.values)) <= 1e-9 for v in others)
    assert complementarity_residual(elliptic_matrix(g), u.values, f.values,
                                    np.zeros(10)) <= 1e-9


@pytest.mark.parametrize("epsilon", [0.0, float("nan"), float("inf")])
def test_penalized_solvers_reject_a_penalty_that_is_not_positive_and_finite(epsilon):
    g = build_grid(1, (0.0, 1.0), 9)
    tg = build_timegrid(0.5, 2)
    with pytest.raises(ValueError, match="positive and finite"):
        forward_backward_solve(CostOperator.local_power(g, 1.0, 1.0, ScalarField.zeros(g)),
                               gaussian_density(g), tg, epsilon,
                               obstacle_op=ObstacleOperator.zero(g, tg))


def test_penalized_inactive_is_exact_linear_solve():
    # the penalized reference of oracles.py with no node above psi
    g = build_grid(1, (0.0, 1.0), 8)
    rng = np.random.default_rng(1)
    f = ScalarField(g, -np.abs(rng.normal(size=8)) - 0.1)
    u = penalized_obstacle(f, ScalarField.zeros(g), 1e-3)
    free = spla.spsolve(elliptic_matrix(g).tocsc(), f.values)
    assert np.max(np.abs(u.values - free)) <= 1e-11


def test_penalized_monotone_limit():
    g = build_grid(1, (0.0, 1.0), 12)
    psi = ScalarField.zeros(g)
    rng = np.random.default_rng(2)
    f = ScalarField(g, rng.uniform(-1.0, 1.0, 12) * 0.4)
    u = solve_obstacle_stationary(f, psi)
    gaps = []
    for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        ue = penalized_obstacle(f, psi, eps)
        gaps.append(np.max(np.abs(ue.values - u.values)))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-6


def test_penalized_positive_source_order_eps():
    # the penalized reference with every node above psi
    g = build_grid(1, (0.0, 1.0), 3)
    psi = ScalarField.zeros(g)
    a = elliptic_matrix(g).toarray()
    for eps in [1e-2, 1e-4]:
        u = penalized_obstacle(ScalarField.constant(g, 1.0), psi, eps)
        expected = np.linalg.solve(a + np.eye(3) / eps, np.ones(3))
        assert np.allclose(u.values, expected, atol=1e-12)
        assert np.max(np.abs(u.values)) <= eps


def test_semismooth_newton_on_penalized_obstacle():
    # A u + u^+ / eps = f: the driver lands within the penalty error
    # eps * max f^+ of the obstacle solution
    g = build_grid(1, (0.0, 1.0), 12)
    a = elliptic_matrix(g)
    f = 10.0 * np.sin(4 * np.pi * g.coordinates()[:, 0])
    eps = 1e-6

    def residual(v):
        return a @ v + np.maximum(v, 0.0) / eps - f

    def jacobian(v):
        return (a + sp.diags((v > 0) / eps)).tocsc()

    x0 = spla.spsolve(a.tocsc(), f)
    u, norms, iterations = semismooth_newton(residual, jacobian, x0, 1e-9, 50)
    assert norms[-1] <= 1e-9 and len(norms) >= 3
    assert iterations == len(norms)
    exact = solve_obstacle_stationary(ScalarField(g, f), ScalarField.zeros(g)).values
    assert np.max(np.abs(u - exact)) <= eps * np.max(f)
    _, norms1, iterations1 = semismooth_newton(residual, jacobian, x0, 1e-9, 1)
    assert iterations1 == 1 and len(norms1) == 2 and norms1[-1] > 1e-9


def test_singular_jacobian_ends_newton_without_raising():
    # an exactly singular Jacobian gives a NaN step: the driver returns,
    # short of target, instead of letting the LU's exception escape
    mat = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    b = np.array([1.0, 0.0])
    _, norms, _ = semismooth_newton(lambda x: mat @ x - b, lambda x: mat,
                                    np.zeros(2), 1e-10, 10)
    assert norms[0] == 1.0 and np.isnan(norms[-1])


def tridiagonal(wide):
    # a diagonally dominant tridiagonal matrix, which factors by banded
    # LU on its kept order; wide, bordered by a dense last row and
    # column, which leaves a half-bandwidth of at least (n - 1) / 2 in
    # any order, so that it factors by SuperLU on its kept MMD order
    n = 2 * obstacle._BAND_MAX + 4 if wide else 12
    static = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n)).tolil()
    if wide:
        static[-1, :-1] = -0.01
        static[:-1, -1] = -0.01
    return static.tocsr()


@pytest.mark.parametrize("wide", [False, True], ids=["band", "superlu"])
def test_singular_registered_jacobian_gives_nan(lu_factors, wide):
    # the factorization on an assembler's kept order, by banded LU or by
    # SuperLU, keeps the NaN contract: an exactly singular Jacobian (here
    # with a zero first row) ends the Newton short of target
    static = tridiagonal(wide)
    n = static.shape[0]
    first = static[[0]].tocoo()
    assemble = diagonal_update(static, first.row, first.col)
    b = np.ones(n)
    assert np.all(np.isnan(_lu_solve(assemble(-first.data), b)))
    _, norms, _ = semismooth_newton(lambda x: static @ x - b, lambda x: assemble(-first.data),
                                    np.zeros(n), 1e-10, 10)
    assert norms[0] == 1.0 and np.isnan(norms[-1])
    assert np.allclose(static @ _lu_solve(assemble(np.zeros(first.nnz)), b), b)
    assert lu_factors == [("superlu" if wide else "band", n)] * 3


def rcm_half_bandwidth(matrix):
    # the larger half-bandwidth of matrix in the reverse Cuthill-McKee
    # order of the pattern of matrix + matrix^T
    coo = sp.coo_matrix(matrix)
    pattern = sp.csr_matrix((np.ones(coo.nnz), (coo.row, coo.col)), shape=coo.shape)
    symmetric = (pattern + pattern.T).tocsr()
    position = np.argsort(reverse_cuthill_mckee(symmetric, symmetric_mode=True))
    return int(np.max(np.abs(position[coo.row] - position[coo.col])))


@pytest.mark.parametrize("shape", [(3, 3), (3, obstacle._BAND_MAX + 1)], ids=["band", "wide"])
def test_singular_matrix_in_2d_obstacle_raises_convergence_error(monkeypatch, shape):
    # the 2D stationary coupled solve takes -I / eps for A in its
    # residual and as the base operator of its slice blocks
    # A + diag(d), d the penalty indicator and the exit rate; its start,
    # from the factor of the true A kept before the swap, has w > 0 for
    # f > 0, so both blocks of the first step are the zero matrix or
    # indefinite, which neither banded Cholesky nor, on the grid wider
    # than obstacle._BAND_MAX, _lu_factor (by banded LU, its pattern
    # being diagonal) factors: the step is NaN and the solve ends short
    # of its target
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), shape)
    n, eps = g.n_total, 1e-3
    negative = sp.csr_matrix(sp.identity(n) * (-1.0 / eps))
    # the factor of the true A stays, its assembler and band storage go
    _shifted_factor(g, 0.0, 1.0)
    base = _base_operator(g, 1.0)
    monkeypatch.setattr(base, "assemble", diagonal_update(negative, np.arange(n), np.arange(n)))
    if base.band is not None:
        band = np.zeros(base.band.shape)
        band[-1] = -1.0 / eps
        monkeypatch.setattr(base, "band", band)
    cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, 1.0))
    with pytest.raises(CoupledNonConvergence, match=r"nan\]"):
        penalized_coupled_solve(cost, ScalarField.constant(g, 1.0), eps)


def wide_grid():
    # a 2D grid whose shifted operators B + diag(d) have a half-bandwidth
    # above obstacle._BAND_MAX both in the lexicographic order (the last
    # axis's node count) and in the reverse Cuthill-McKee order (about
    # the smaller axis's node count), so that _shifted_factor factors
    # them by SuperLU on their kept MMD orders
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (obstacle._BAND_MAX, obstacle._BAND_MAX + 1))
    assert _base_operator(g, 1.0).band is None
    b_op = _shifted_matrix(g, np.zeros(g.n_total), 1.0)
    assert rcm_half_bandwidth(b_op) > obstacle._BAND_MAX
    return g


def pattern_key(matrix):
    # the stored pattern of a matrix, in canonical CSC form
    csc = sp.csc_matrix(matrix).copy()
    csc.sum_duplicates()
    return matrix.shape, csc.indptr.tobytes(), csc.indices.tobytes()


def test_every_factorization_uses_the_symmetric_ordering(monkeypatch):
    # every factorization orders by MMD_AT_PLUS_A, or takes the NATURAL
    # order on a matrix already permuted into an order that
    # MMD_AT_PLUS_A computed (of a stand-in on the same pattern, so
    # the pattern in that order is the one factored)
    calls = []  # (ordering, pattern factored in the order it names)
    splu = spla.splu

    def recording_splu(matrix, permc_spec=None, **kwargs):
        lu = splu(matrix, permc_spec=permc_spec, **kwargs)
        perm = np.argsort(lu.perm_c)
        calls.append((permc_spec, pattern_key(sp.csc_matrix(matrix)[perm][:, perm])))
        return lu

    def no_spsolve(*args, **kwargs):
        raise AssertionError("spsolve called")

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(spla, "spsolve", no_spsolve)
    # the shifted operators of this grid factor by SuperLU on their kept
    # orders, neither by banded Cholesky nor by banded LU
    g = wide_grid()
    n = g.n_total
    cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.5))
    rng = np.random.default_rng(3)
    tg = build_timegrid(0.3, 2)
    counts = [0]
    for solve in (
        lambda: continuation_solve(cost, raised_cosine_bump(g), [1e-1, 1e-2, 1e-3]),
        lambda: forward_backward_solve(cost, gaussian_density(g, sigma=0.15), tg, 1e-3,
                                       obstacle_op=ObstacleOperator.zero(g, tg)),
        lambda: solve_obstacle_stationary(ScalarField(g, rng.uniform(-2.0, 2.0, n)),
                                          ScalarField(g, 0.1 * rng.normal(size=n))),
        # at peak 1 the starts of the variational route solve it, and
        # no step is taken; at peak 100 A^-1 rho exceeds the cap 0.5
        lambda: variational_minimize(cost.potential(), raised_cosine_bump(g, peak=100.0)),
    ):
        solve()
        counts.append(len(calls))
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert {spec for spec, _ in calls} == {"MMD_AT_PLUS_A", "NATURAL"}
    ordered = {key for spec, key in calls if spec == "MMD_AT_PLUS_A"}
    assert all(key in ordered for spec, key in calls if spec == "NATURAL")
    # one MMD ordering per assembler factored: one in the 2D
    # continuation (A + diag, kept per grid: the cold start and the two
    # diagonal blocks of every Newton step, over all stages), one in the
    # forward-backward solve (B + diag, kept per (grid, dt): its slice
    # blocks, on A's pattern and so in A's order); the starts of the
    # last two solves take A's kept factor, and their active-set
    # Jacobians are built by no diagonal_update, each ordered afresh
    natural = [{key for spec, key in calls[a:b] if spec == "NATURAL"}
               for a, b in zip(counts, counts[1:])]
    assert [len(keys) for keys in natural] == [1, 1, 0, 0] and natural[0] == natural[1]
    for a, b, orderings in zip(counts, counts[1:], [1, 1, None, None]):
        specs = [spec for spec, _ in calls[a:b]]
        assert specs.count("MMD_AT_PLUS_A") == (b - a if orderings is None else orderings)


def solution_arrays(sol):
    return [f.values if isinstance(f, ScalarField) else f.array() for f in (sol.u, sol.m)]


def recorded_orderings(monkeypatch):
    """The permc_spec of every SuperLU call from now on, in call order."""
    specs, splu = [], spla.splu

    def recording_splu(matrix, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    return specs


@pytest.mark.parametrize("problem", ["sosmfg", "osmfg"])
def test_cold_and_warm_order_cache_give_bitwise_identical_runs(monkeypatch, problem):
    # a matrix of a diagonal_update assembler is factored on its
    # pattern's order whether the assembler just computed the order or
    # kept it from an earlier run; on a grid whose shifted operators
    # factor by SuperLU
    g = wide_grid()
    cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.5))
    schedule = [1e-1, 1e-2, 1e-3]
    if problem == "sosmfg":
        def run():
            return continuation_solve(cost, raised_cosine_bump(g), schedule)[0]
    else:
        tg = build_timegrid(0.5, 3)

        def run():
            return osmfg_continuation(cost, ObstacleOperator.zero(g, tg),
                                      gaussian_density(g, sigma=0.15), tg, schedule)[0]
    # the autouse fixture of conftest starts the test without kept
    # assemblers, so the first run is cold
    specs = recorded_orderings(monkeypatch)
    cold = solution_arrays(run())
    cold_orderings = specs.count("MMD_AT_PLUS_A")
    del specs[:]
    warm = solution_arrays(run())
    assert cold_orderings >= 1 and specs.count("MMD_AT_PLUS_A") == 0
    for a, b in zip(cold, warm):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("wide", [False, True], ids=["band", "superlu"])
def test_an_assembler_orders_its_pattern_once_at_its_first_factorization(monkeypatch,
                                                                        lu_factors, wide):
    # an assembler computes its pattern's elimination order lazily, at
    # the first factorization of one of its matrices, and keeps it; two
    # assemblers of one static matrix order one pattern each, to the
    # same order and so to the same solution bits, by banded LU or by
    # SuperLU
    static = tridiagonal(wide)
    n = static.shape[0]
    rhs = np.arange(1.0, n + 1.0)
    specs = recorded_orderings(monkeypatch)
    elimination_order, orders = obstacle._elimination_order, []
    monkeypatch.setattr(obstacle, "_elimination_order",
                        lambda *args: orders.append(args) or elimination_order(*args))
    diagonal_update(static, np.arange(n), np.arange(n))(np.ones(n))
    assert specs == [] and orders == [] and lu_factors == []
    solutions = []
    for _ in range(2):
        assemble = diagonal_update(static, np.arange(n), np.arange(n))
        for vals in (np.linspace(0.0, 1.0, n), np.linspace(1.0, 2.0, n), np.zeros(n)):
            mat = assemble(vals)
            solutions.append(_lu_solve(mat, rhs))
            assert np.allclose(mat @ solutions[-1], rhs, rtol=1e-14, atol=0.0)
        assert len(orders) == 1
        assert lu_factors == [("superlu" if wide else "band", n)] * 3
        assert specs == (["MMD_AT_PLUS_A"] + ["NATURAL"] * 3 if wide else [])
        del specs[:], orders[:], lu_factors[:]
    for a, b in zip(solutions, solutions[3:]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("problem", ["osmfg_15x15_k3", "sosmfg_wide"])
def test_registered_orders_fill_like_a_fresh_ordering(monkeypatch, problem):
    # every factorization on an assembler's kept order (NATURAL
    # column order on the permuted matrix) against a fresh
    # MMD_AT_PLUS_A factorization of the same matrix with its zeros
    # dropped: over the run the fill is at most 5% more. One step may
    # fill more: at small eps most of the space-time ramp-slope block
    # (m_{k+1}, u_k) is zero, and a fresh order of the sparser pattern
    # fills 8.6% less on the last stage of the osmfg run (12.1% less on
    # one step, where partial pivoting adds fill to both). The osmfg run
    # takes every Newton step by the whole-Jacobian fallback of its
    # Schur step, and the 2D stationary solve factors only A + diag,
    # whose pattern is A's, on wide_grid() so that it factors by SuperLU
    splu = spla.splu
    fills, zeros_stored = [], []

    def recording_splu(matrix, permc_spec=None, **kwargs):
        lu = splu(matrix, permc_spec=permc_spec, **kwargs)
        if permc_spec == "NATURAL":
            dropped = sp.csc_matrix(matrix).copy()
            dropped.eliminate_zeros()
            zeros_stored.append(dropped.nnz < matrix.nnz)
            fresh = splu(dropped, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
            fills.append((lu.L.nnz + lu.U.nnz, fresh.L.nnz + fresh.U.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    if problem == "osmfg_15x15_k3":
        g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (15, 15))
        tg = build_timegrid(1.0, 3)
        cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.5))
        monkeypatch.setattr(_coupled, "_schur_step", lambda *args: args[-1]())
        osmfg_continuation(cost, ObstacleOperator.zero(g, tg), gaussian_density(g), tg)
    else:
        # at f0 = -0.005 the continuation factors 18 times on kept
        # orders; an even node count on the first axis does not nest the
        # continuation on a coarser grid
        g = wide_grid()
        cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.005))
        continuation_solve(cost, raised_cosine_bump(g))
    assert len(fills) >= 10
    assert any(zeros_stored) == (problem == "osmfg_15x15_k3")
    assert sum(fill for fill, _ in fills) <= 1.05 * sum(fresh for _, fresh in fills)
    for fill, fresh in fills:
        assert fill <= 1.15 * fresh


def test_active_set_jacobian_fills_no_more_than_the_operator(monkeypatch):
    # rows scaled by D = diag(M) keep M's diagonal in every active-set
    # Jacobian, so the LU fills no more than M's; unscaled identity rows
    # make the ordering pivot off the diagonal and fill more
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (31, 31))
    lu_m = spla.splu(elliptic_matrix(g).tocsc(), permc_spec="MMD_AT_PLUS_A",
                     options={"SymmetricMode": True})
    fills = []
    splu = spla.splu

    def recording_splu(matrix, **kwargs):
        lu = splu(matrix, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    rng = np.random.default_rng(12)
    f = ScalarField(g, rng.uniform(-2.0, 2.0, g.n_total))
    psi = ScalarField(g, 0.1 * rng.normal(size=g.n_total))
    u = solve_obstacle_stationary(f, psi)
    assert complementarity_residual(elliptic_matrix(g), u.values, f.values, psi.values) <= 1e-10
    assert len(fills) >= 4
    assert max(fills) <= lu_m.L.nnz + lu_m.U.nnz


def test_lu_solve_matches_spsolve_on_nonsymmetric_values():
    # the whole 2D stationary Newton Jacobian, which the block solve
    # falls back to: A on both diagonal blocks, nonsymmetric values,
    # exact zeros among the value-dependent entries
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    n, eps, band = 81, 1e-4, 0.02
    rng = np.random.default_rng(7)
    cost = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3))
    uv = band_offsets(rng, n, band)
    mv = rng.choice([-0.2, 0.0, 0.3, 1.1], size=n)
    _, jacobian, _, _ = stationary_frozen_system(cost, g, raised_cosine_bump(g).values, eps, band)
    jac = jacobian(np.concatenate([uv, mv])).matrix()
    assert np.any((np.abs(uv) < band) & (mv == 0.0)) and np.any(cost.derivative(mv) == 0.0)
    assert abs(jac - jac.T).max() > 0.0
    rhs = rng.normal(size=2 * n)
    expected = spla.spsolve(jac, rhs)
    assert np.max(np.abs(_lu_solve(jac, rhs) - expected)) <= 1e-12 * np.max(np.abs(expected))


def low_and_high_fill_matrix(pattern, rng):
    # a matrix of a diagonal_update assembler too wide for banded LU and
    # whether its kept order fills below obstacle._NARROW_PANEL_FILL per
    # column: the 1D K=50 space-time Jacobian of 63 nodes (half-bandwidth
    # 102, 50 per column), the slice block B + diag of wide_grid() (32)
    # and the 2D cosmfg 15x15 K=5 Jacobian (162)
    if pattern == "slice_2d":
        g = wide_grid()
        return _shifted_matrix(g, rng.uniform(0.0, 100.0, g.n_total), 0.2), True
    with_h = pattern == "cosmfg_2d"
    g = (build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (15, 15)) if with_h
         else build_grid(1, (0.0, 1.0), 63))
    k_steps = 5 if with_h else 50
    n_u = k_steps * g.n_total
    n_vals = 4 * n_u - g.n_total + (len(_hamiltonian_positions(g, 5)[0]) if with_h else 0)
    return (_jacobian_assembler(g, 1.0 / k_steps, k_steps, 1, with_h, False)(
        rng.uniform(-1.0, 1.0, n_vals)), not with_h)


@pytest.mark.parametrize("pattern", ["space_time_1d", "slice_2d", "cosmfg_2d"])
def test_panel_width_follows_the_fill_of_the_kept_order(monkeypatch, pattern):
    # a kept order below the fill constant factors with one-column
    # SuperLU panels, one above it with SuperLU's default panel; the
    # panel width changes only the order of arithmetic inside SuperLU,
    # so the L + U fill is the default panel's, entry for entry, and two
    # factorizations of one matrix solve to the same bits
    calls, splu = [], spla.splu

    def recording_splu(matrix, permc_spec=None, **kwargs):
        lu = splu(matrix, permc_spec=permc_spec, **kwargs)
        if permc_spec == "NATURAL":
            default = splu(matrix, permc_spec="NATURAL", options={"SymmetricMode": True})
            calls.append((kwargs.get("panel_size"), lu.L.nnz + lu.U.nnz,
                          default.L.nnz + default.U.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", recording_splu)
    rng = np.random.default_rng(29)
    matrix, narrow = low_and_high_fill_matrix(pattern, rng)
    order = matrix.elimination_order()
    assert isinstance(order, obstacle._EliminationOrder)
    assert (order.fill < obstacle._NARROW_PANEL_FILL) == narrow
    rhs = rng.normal(size=matrix.shape[0])
    solutions = [_lu_solve(matrix, rhs) for _ in range(2)]
    assert solutions[0].tobytes() == solutions[1].tobytes()
    expected = spla.spsolve(matrix, rhs)
    assert np.linalg.norm(solutions[0] - expected) <= 1e-12 * np.linalg.norm(expected)
    assert [panel for panel, _, _ in calls] == [1 if narrow else None] * 2
    assert all(fill == default for _, fill, default in calls)


@pytest.mark.parametrize("nodes, k_steps, lag, with_h, half_bandwidth", [
    (31, 5, 1, False, 12), (31, 5, 1, True, 12), (31, 5, 0, False, 11), (31, 1, 0, False, 2),
    (31, 50, 1, False, 62), (31, 50, 1, True, 63), (63, 50, 1, False, 102),
], ids=["space_time", "space_time_hamiltonian", "space_time_lag0", "stationary", "k50",
        "k50_hamiltonian", "k50_63_nodes"])
def test_band_lu_factor_matches_spsolve(lu_factors, nodes, k_steps, lag, with_h,
                                        half_bandwidth):
    # the 1D Newton Jacobians keep the reverse Cuthill-McKee order of
    # their pattern, and those of a half-bandwidth up to
    # obstacle._BAND_MAX in it factor by banded LU: on 31 nodes the K=5
    # space-time Jacobians, with and without a Hamiltonian and with lag
    # 1 and 0, the stationary one and the K=50 ones of the registry
    # scenarios. The K=50 one of 63 nodes is wider and takes SuperLU.
    # Either solves as spsolve does, to round-off, and two
    # factorizations of one matrix solve to the same bits
    g = build_grid(1, (0.0, 1.0), nodes)
    n_u = k_steps * g.n_total
    n_vals = (4 * n_u - lag * g.n_total
              + (len(_hamiltonian_positions(g, k_steps)[0]) if with_h else 0))
    rng = np.random.default_rng(33)
    vals = rng.uniform(-1.0, 1.0, n_vals) * 10.0 ** rng.integers(0, 4, n_vals)
    matrix = _jacobian_assembler(g, 1.0 / k_steps, k_steps, lag, with_h, False)(vals)
    assert rcm_half_bandwidth(matrix) == half_bandwidth
    narrow = half_bandwidth <= obstacle._BAND_MAX
    order = matrix.elimination_order()
    assert isinstance(order, obstacle._BandOrder) == narrow
    if narrow:
        assert max(order.kl, order.ku) == half_bandwidth
    rhs = rng.normal(size=matrix.shape[0])
    solutions = [_lu_solve(matrix, rhs) for _ in range(2)]
    assert lu_factors == [("band" if narrow else "superlu", matrix.shape[0])] * 2
    assert solutions[0].tobytes() == solutions[1].tobytes()
    expected = spla.spsolve(matrix, rhs)
    assert np.max(np.abs(solutions[0] - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("pattern, half_bandwidth", [
    ("space_time_1d", 12), ("stationary_1d", 2), ("shifted_15x65", 16), ("shifted_79x79", 79),
])
def test_elimination_order_kind_and_half_bandwidths(pattern, half_bandwidth):
    # the reverse Cuthill-McKee order leaves these half-bandwidths on the
    # 1D K=5 space-time and stationary Jacobian patterns and on two
    # shifted operators B; the patterns within obstacle._BAND_MAX get
    # a _BandOrder of that many entries below and above the diagonal, B
    # on 79x79 the MMD _EliminationOrder
    if pattern.startswith("shifted"):
        shape = (15, 65) if pattern == "shifted_15x65" else (79, 79)
        g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), shape)
        matrix = _shifted_matrix(g, np.ones(g.n_total), 0.2)
    else:
        k_steps, lag = (5, 1) if pattern == "space_time_1d" else (1, 0)
        g = build_grid(1, (0.0, 1.0), 31)
        n_vals = 4 * k_steps * g.n_total - lag * g.n_total
        matrix = _jacobian_assembler(g, 1.0 / k_steps, k_steps, lag, False, False)(np.ones(n_vals))
    assert rcm_half_bandwidth(matrix) == half_bandwidth
    order = matrix.elimination_order()
    assert np.array_equal(np.sort(order.perm), np.arange(matrix.shape[0]))
    if half_bandwidth <= obstacle._BAND_MAX:
        assert isinstance(order, obstacle._BandOrder)
        assert (order.kl, order.ku) == (half_bandwidth, half_bandwidth)
    else:
        assert isinstance(order, obstacle._EliminationOrder)


@pytest.mark.parametrize("excess", [0, 1], ids=["at", "above"])
def test_band_constant_splits_banded_lu_from_superlu(lu_factors, excess):
    # a matrix that stores every diagonal within half-bandwidth b, which
    # no order narrows: banded LU at b = obstacle._BAND_MAX, SuperLU just
    # above it
    b = obstacle._BAND_MAX + excess
    n = 4 * b
    rng = np.random.default_rng(37)
    offsets = list(range(-b, b + 1))
    static = sp.diags([rng.uniform(-1.0, 1.0, n - abs(k)) for k in offsets], offsets)
    matrix = diagonal_update(static, np.arange(n), np.arange(n))(rng.uniform(b, 2 * b, n))
    rhs = rng.normal(size=n)
    expected = spla.spsolve(matrix, rhs)
    assert np.max(np.abs(_lu_solve(matrix, rhs) - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert lu_factors == [("superlu" if excess else "band", n)]


def test_diagonal_update_without_value_positions_gives_the_static_matrix():
    # no value-dependent positions: every call gives static, on its
    # pattern plus the diagonal, with float values
    static = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]]))
    matrix = diagonal_update(static, [], [])(np.array([]))
    assert matrix.dtype == np.float64 and matrix.nnz == 4
    assert np.array_equal(matrix.toarray(), static.toarray())
    identity = diagonal_update(sp.identity(3), [], [])(np.array([]))
    assert np.array_equal(_lu_solve(identity, np.arange(3.0)), np.arange(3.0))


def shifted_system(bounds, shape, dt, shift, seed):
    # a grid on the box bounds, a diagonal update d >= 0 of B = -lap +
    # I/dt (zero, or random with a third of its entries zero) and a
    # right-hand side
    g = build_grid(len(shape), bounds, list(shape))
    rng = np.random.default_rng(seed)
    d = np.zeros(g.n_total)
    if shift == "random":
        d = np.where(rng.random(g.n_total) < 1 / 3, 0.0, rng.uniform(0.0, 100.0, g.n_total))
    return g, d, rng.normal(size=g.n_total)


@pytest.mark.parametrize("shift", ["zero", "random"])
@pytest.mark.parametrize("dt", [1.0, 0.2])
@pytest.mark.parametrize("bounds, shape", [
    ([(0.0, 1.0)], (31,)),
    ([(0.0, 1.0), (0.0, 1.0)], (15, 15)),
    ([(0.0, 1.0), (0.0, 3.0)], (7, 5)),
], ids=["1d_31", "2d_15x15", "2d_7x5_unequal_spacing"])
def test_band_factor_of_a_shifted_operator_matches_lu_factor(band_factors, bounds, shape, dt,
                                                             shift):
    # B + diag(d) of a grid whose half-bandwidth is at most
    # obstacle._BAND_MAX factors by banded Cholesky, once, and solves as
    # the SuperLU factorization on B's kept order does, to round-off
    g, d, rhs = shifted_system(bounds, shape, dt, shift, seed=32)
    solve = _shifted_factor(g, d, dt)
    assert len(band_factors) == 1 and band_factors[0][0] is _base_operator(g, dt).band
    # half-bandwidth: 1 in 1D, the last axis's node count in 2D
    assert band_factors[0][0].shape == ((shape[1] if len(shape) == 2 else 1) + 1, g.n_total)
    expected = _lu_factor(_shifted_matrix(g, d, dt))(rhs)
    assert np.max(np.abs(solve(rhs) - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_shifted_operator_wider_than_the_band_constant_factors_by_lu(monkeypatch,
                                                                    band_factors):
    # above obstacle._BAND_MAX the kept factor of B and the factor of
    # B + diag(d) are SuperLU factorizations on B's kept order
    g, d, rhs = shifted_system([(0.0, 1.0), (0.0, 1.0)], wide_grid().shape, 0.2, "random",
                               seed=33)
    lu_factor, factored = obstacle._lu_factor, []

    def recording_lu_factor(matrix):
        factored.append(matrix.data)
        return lu_factor(matrix)

    monkeypatch.setattr(obstacle, "_lu_factor", recording_lu_factor)
    for shift in (d, np.zeros(g.n_total)):
        b_op = _shifted_matrix(g, shift, 0.2)
        expected = spla.spsolve(b_op, rhs)
        step = _shifted_factor(g, shift, 0.2)(rhs)
        assert np.array_equal(factored[-1], b_op.data)
        assert np.max(np.abs(step - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert band_factors == [] and len(factored) == 2


@pytest.mark.parametrize("wide", [False, True], ids=["band", "wide"])
def test_nan_in_the_shift_gives_a_nan_solve(wide):
    # a NaN in d gives NaNs, by banded Cholesky as by SuperLU, not an
    # exception, so a Newton step on that Jacobian ends the solve short
    # of its target with a NaN norm
    shape = wide_grid().shape if wide else (15, 15)
    g, d, rhs = shifted_system([(0.0, 1.0), (0.0, 1.0)], shape, 0.2, "random", seed=34)
    d[g.n_total // 2] = np.nan
    assert np.any(np.isnan(_shifted_factor(g, d, 0.2)(rhs)))
    b_op = _shifted_matrix(g, np.zeros(g.n_total), 0.2)
    _, norms, it = semismooth_newton(
        lambda x: b_op @ x - rhs, lambda x: d, np.zeros(g.n_total), 1e-10, 10,
        solve=lambda shift, r: _shifted_factor(g, shift, 0.2)(r))
    assert not norms[0] <= 1e-10 and np.isnan(norms[-1]) and it == 1


@pytest.mark.parametrize("shape", [(9,), (7, 5)], ids=["1d", "2d"])
def test_unit_time_step_operator_is_the_stationary_operator(shape):
    # the stationary system is the one-slice case of the time-dependent
    # one at dt = 1: B = A0 + I/dt is then A = -lap + id, bitwise in
    # pattern and values, so the factor of B kept for dt = 1 is A's
    dim = len(shape)
    g = build_grid(dim, [(0.0, 1.0)] * dim, list(shape))
    b = _shifted_matrix(g, np.zeros(g.n_total), 1.0)
    a = elliptic_matrix(g).tocsc()
    assert a.has_canonical_format and b.has_canonical_format
    assert np.array_equal(b.indptr, a.indptr) and np.array_equal(b.indices, a.indices)
    assert np.array_equal(b.data, a.data)
    rhs = np.random.default_rng(23).normal(size=g.n_total)
    expected = spla.spsolve(a, rhs)
    solve = _shifted_factor(g, 0.0, 1.0)
    assert np.max(np.abs(solve(rhs) - expected)) <= 1e-13 * np.max(np.abs(expected))


def assert_on_fixed_pattern(jacobian, x, oracle, rtol=0.0):
    # every call of one assembler returns one canonical CSC pattern, which
    # holds every entry of the oracle and stores zeros where a value
    # vanishes; the values equal the oracle's, bitwise for rtol = 0
    jac = jacobian(x)
    assert jac.format == "csc" and jac.has_canonical_format
    for other in (jacobian(2.0 * x), jacobian(np.zeros_like(x))):
        assert np.array_equal(other.indptr, jac.indptr)
        assert np.array_equal(other.indices, jac.indices)
    stored = np.zeros(jac.shape, dtype=bool)
    coo = jac.tocoo()
    stored[coo.row, coo.col] = True
    dense, expected = jac.toarray(), oracle.toarray()
    assert np.all(stored[expected != 0.0])
    assert np.any(stored & (dense == 0.0))
    if rtol == 0.0:
        assert np.array_equal(dense, expected)
    else:
        assert np.max(np.abs(dense - expected)) <= rtol * np.max(np.abs(dense))


def band_offsets(rng, shape, band):
    # nodes above, inside (both sides of 0, and at 0) and below the band
    return band * rng.choice([-3.0, -0.5, 0.0, 0.25, 0.5, 3.0], size=shape)


def hamiltonian_blocks_1d(g, ham, u_k, m_next):
    # derivatives of H(x, D_sel u_k) and of -div(m_{k+1} b(u_k)) in u_k,
    # written out per node and per face on a 1D grid: the upwind choice
    # of _hamiltonian_state, and on face f between nodes L = f - 1 and
    # R = f the flux F = b+ m_R + b- m_L with b = D_pH((u_R - u_L)/h)
    n, h = g.n_total, g.spacing[0]
    state = _hamiltonian_state(g, ham, u_k[None])
    slope, bw = state.slope[0][0], state.backward[0][0]
    d_value = sp.diags([np.where(bw, -slope, 0.0)[1:] / h, np.where(bw, slope, -slope) / h,
                        np.where(bw, 0.0, slope)[:-1] / h], [-1, 0, 1])
    beta = ham.face_weights[0]
    u_pad, m_pad = np.pad(u_k, 1), np.pad(m_next, 1)
    d_drift = np.zeros((n, n))
    for f in range(n + 1):
        q = (u_pad[f + 1] - u_pad[f]) / h
        b = beta[f] * q / np.sqrt(1.0 + q * q)
        flux_slope = (m_pad[f + 1] if b > 0 else m_pad[f]) * beta[f] / (1.0 + q * q) ** 1.5
        for row, row_sign in ((f - 1, -1.0), (f, 1.0)):
            for col, col_sign in ((f - 1, -1.0), (f, 1.0)):
                if 0 <= row < n and 0 <= col < n:
                    d_drift[row, col] += row_sign * col_sign * flux_slope / h**2
    return d_value, sp.csr_matrix(d_drift)


@pytest.mark.parametrize("drift, heat", [(False, False), (True, False), (False, True)],
                         ids=["False", "True", "heat_from_g"])
def test_frozen_jacobian_matches_block_assembly(drift, heat):
    # oracle: the whole block grid in the shifted unknowns (w, m) built
    # with sp.bmat and sp.diags at every step; f = m^2 + f0 gives
    # -f'(m) = 0 and g = m^2 / 2 gives g'(m) = 0 where m <= 0, and with
    # heat_from_g the source derivative is -(f' + g'). Without drift the
    # obstacle is a random fixed trajectory or the heat image of g; with
    # drift it is zero (w = u), and a smoothed-norm Hamiltonian adds H
    # to the value rows, the drift operator to the density rows and the
    # derivatives of both in w (hamiltonian_blocks_1d)
    g = build_grid(1, (0.0, 1.0), 7)
    n, k_steps, dt, eps, band = 7, 3, 0.1, 1e-3, 0.05
    tg = build_timegrid(k_steps * dt, k_steps)
    rng = np.random.default_rng(11)
    cost = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3))
    g_cost = CostOperator.local_power(g, 0.5, 2.0, ScalarField.zeros(g)) if heat else None
    a0 = elliptic_matrix(g, with_zero_order=False)
    psi_arr = np.zeros((k_steps + 1, n)) if drift else rng.normal(size=(k_steps + 1, n))
    w = band_offsets(rng, (k_steps + 1, n), band)
    w[k_steps] = 0.0
    m = rng.choice([-0.2, 0.0, 0.3, 1.1], size=(k_steps + 1, n))
    op = (ObstacleOperator.heat_source(g_cost) if heat
          else ObstacleOperator.constant(FieldTrajectory(g, tg, psi_arr)))
    psi_arr, g_arr = op.apply_arrays(g, tg, m)
    u = psi_arr + w
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(g, 1.0)) if drift else None
    div_ops = [None] * k_steps
    h_vals = np.zeros((k_steps, n))
    if drift:
        faces = face_drift(ham, FieldTrajectory(g, tg, u)).components
        div_ops = [sp.csr_matrix(drift_reference(g, [c[k] for c in faces], m[k + 1])[1])
                   for k in range(k_steps)]
        h_vals = _hamiltonian_state(g, ham, u[:k_steps]).values
    residual, jacobian, _, unstack = _frozen_system(
        cost, g_cost, g_arr[:k_steps], ham, g, m[0], dt, eps, band, lag=1)
    x = np.concatenate([w[:k_steps].ravel(), m[1:].ravel()])
    w_x, m_x = unstack(x)
    assert np.array_equal(w_x, w) and np.array_equal(m_x, m)

    eye_dt = sp.identity(n, format="csr") / dt
    b_op = (a0 + eye_dt).tocsr()
    ops = [b_op if d is None else b_op + d for d in div_ops]
    # the residual against the slice-by-slice form in u = w + psi, with
    # u_K = psi_K: the shift by L psi_k = -g_k holds to round-off
    slices = [[b_op @ u[k] - u[k + 1] / dt + np.maximum(w[k], 0.0) / eps + h_vals[k]
               - cost.evaluate(m[k]) for k in range(k_steps)],
              [ops[k] @ m[k + 1] - m[k] / dt + _ramp(w[k] / band) / eps * m[k + 1]
               for k in range(k_steps)]]
    expected = np.concatenate(slices, axis=None)
    assert np.max(np.abs(residual(x) - expected)) <= 1e-13 * np.max(np.abs(expected))

    blocks_u = [[None] * (2 * k_steps) for _ in range(k_steps)]
    blocks_m = [[None] * (2 * k_steps) for _ in range(k_steps)]
    for k in range(k_steps):
        blocks_u[k][k] = b_op + sp.diags((w[k] > 0).astype(float) / eps)
        if k + 1 < k_steps:
            blocks_u[k][k + 1] = -eye_dt
        if k >= 1:
            fprime = cost.derivative(m[k])
            if heat:
                fprime = fprime + g_cost.derivative(m[k])
            blocks_u[k][k_steps + k - 1] = sp.diags(-fprime)
        dsigma = np.where(np.abs(w[k]) < band, 0.5 / band, 0.0)
        blocks_m[k][k_steps + k] = ops[k] + sp.diags(_ramp(w[k] / band) / eps)
        if k >= 1:
            blocks_m[k][k_steps + k - 1] = -eye_dt
        blocks_m[k][k] = sp.diags(dsigma * m[k + 1] / eps)
        if drift:
            d_value, d_drift = hamiltonian_blocks_1d(g, ham, w[k], m[k + 1])
            blocks_u[k][k] = blocks_u[k][k] + d_value
            blocks_m[k][k] = blocks_m[k][k] + d_drift
    oracle = sp.bmat(blocks_u + blocks_m, format="csc")
    # the zero entries are really there, and stored
    assert np.any(cost.derivative(m[1:k_steps]) == 0.0)
    assert np.any((np.abs(w[:k_steps]) < band) & (m[1:] == 0.0))
    # with drift, the Hamiltonian entries are sums over nodes and faces,
    # taken in another order than the oracle's
    assert_on_fixed_pattern(lambda x: jacobian(x).matrix(), x, oracle, 1e-13 if drift else 0.0)


def central_difference_jacobian(residual, x, step=1e-6):
    cols = []
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = step
        cols.append((residual(x + e) - residual(x - e)) / (2 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize("shape", [(7,), (4, 4)], ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["smoothed_norm", "quadratic"])
def test_hamiltonian_jacobian_matches_finite_differences(shape, kind):
    # the Hamiltonian and drift blocks against central differences of
    # the residual, at a point away from every kink: each upwind choice
    # and face-velocity sign is decided by a margin larger than the
    # step, and w = u (the zero obstacle) stays off 0 and off the band
    # edges, inside the band at some nodes and outside it at others
    dim = len(shape)
    g = build_grid(dim, [(0.0, 1.0)] * dim, list(shape))
    n, k_steps, dt, eps, band = g.n_total, 3, 0.1, 1e-3, 0.05
    rng = np.random.default_rng(3)
    cost = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3))
    if kind == "smoothed_norm":
        ham = Hamiltonian.smoothed_norm(ScalarField(g, rng.uniform(0.5, 1.5, n)))
    else:
        ham = Hamiltonian.quadratic(g, outside_assumptions=True)
    size = (k_steps, n)
    w = rng.normal(size=size)
    w += 1.1 * band * np.sign(w)
    inside = rng.random(size) < 0.3
    w[inside] = band * np.sign(w[inside]) * rng.uniform(0.1, 0.9, np.count_nonzero(inside))
    w = np.vstack([w, np.zeros((1, n))])
    m = rng.uniform(0.2, 1.0, size=(k_steps + 1, n))
    margin = 1e-3
    state = _hamiltonian_state(g, ham, w[:k_steps])
    for a, (bwd, fwd) in enumerate(_gradient_matrices(g)[0]):
        # the slope at the selected difference is off 0, and the two
        # candidate differences are apart, both by more than the step
        assert np.all(np.abs(state.slope[a]) > margin)
        assert np.all(np.abs((fwd @ w[:k_steps].T) - (bwd @ w[:k_steps].T)) > margin)
    tg = build_timegrid(k_steps * dt, k_steps)
    assert all(np.all(np.abs(b) > margin)
               for b in face_drift(ham, FieldTrajectory(g, tg, w)).components)

    residual, jacobian, _, _ = _frozen_system(
        cost, None, np.zeros(size), ham, g, m[0], dt, eps, band, lag=1)
    x = np.concatenate([w[:k_steps].ravel(), m[1:].ravel()])
    jac = jacobian(x).matrix().toarray()
    fd = central_difference_jacobian(residual, x)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))
    # the Hamiltonian blocks are really there
    n_u = k_steps * n
    assert np.max(np.abs(jac[n_u:, :n_u] - np.diag(np.diag(jac[n_u:, :n_u])))) > 0.1


@pytest.mark.parametrize("shape", [(7,), (4, 4)], ids=["1d", "2d"])
def test_jacobian_away_from_the_last_residual_recomputes_the_hamiltonian(shape):
    # the Jacobian reuses the Hamiltonian data of the last residual only
    # at that residual's iterate: at any other point it is the Jacobian
    # built after a residual there, to the bit
    dim = len(shape)
    g = build_grid(dim, [(0.0, 1.0)] * dim, list(shape))
    n, k_steps, dt, eps, band = g.n_total, 3, 0.1, 1e-3, 0.05
    rng = np.random.default_rng(5)
    cost = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3))
    ham = Hamiltonian.smoothed_norm(ScalarField(g, rng.uniform(0.5, 1.5, n)))
    residual, jacobian, _, _ = _frozen_system(
        cost, None, np.zeros((k_steps, n)), ham, g, rng.uniform(0.2, 1.0, n), dt, eps, band,
        lag=1)
    x1, x2 = (np.concatenate([rng.normal(size=k_steps * n), rng.uniform(0.2, 1.0, k_steps * n)])
              for _ in range(2))
    residual(x1)
    missed = jacobian(x2).matrix()
    residual(x2)
    kept = jacobian(x2).matrix()
    assert np.array_equal(missed.indptr, kept.indptr)
    assert np.array_equal(missed.indices, kept.indices)
    assert missed.data.tobytes() == kept.data.tobytes()
    assert not np.array_equal(jacobian(x1).matrix().data, kept.data)


def stationary_frozen_system(cost, g, rho_v, eps, band):
    # the stationary penalized system: the one-slice case of the
    # time-dependent one, with dt = 1, m_0 = rho and lag 0
    return _frozen_system(cost, None, np.zeros((1, g.n_total)), None, g, rho_v, 1.0, eps, band,
                          lag=0)


def stationary_system(g, local, eps, band, uv, mv):
    # the cost, the pairing weights, the stacked unknown and the
    # penalized system at (uv, mv), with its oracle Jacobian built by
    # sp.bmat and sp.diags: f = m^2 + f0 gives -f'(m) = 0 where m <= 0
    n = g.n_total
    a = elliptic_matrix(g)
    bump = raised_cosine_bump(g)
    if local:
        cost, w = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3)), None
    else:
        cost = CostOperator.nonlocal_affine(g, -0.5, 2.0, bump)
        w = bump.values * g.cell_volume
        assert np.any(w == 0.0)
    x = np.concatenate([uv, mv] if local else [uv, mv, [w @ mv]])
    system = stationary_frozen_system(cost, g, bump.values, eps, band)
    dsigma = np.where(np.abs(uv) < band, 0.5 / band, 0.0)
    j11 = a + sp.diags((uv > 0).astype(float) / eps)
    j21 = sp.diags(dsigma * mv / eps)
    j22 = a + sp.diags(_ramp(uv / band) / eps)
    if local:
        oracle = sp.bmat([[j11, sp.diags(-cost.derivative(mv))], [j21, j22]], format="csc")
    else:
        oracle = sp.bmat([[j11, None, sp.csr_matrix(np.full((n, 1), -cost.c1))],
                          [j21, j22, None],
                          [None, sp.csr_matrix(-w[None, :]), sp.identity(1)]], format="csc")
    return cost, x, system, oracle


@pytest.mark.parametrize("local", [True, False])
def test_stationary_jacobian_matches_block_assembly(local):
    g = build_grid(1, (0.0, 1.0), 9)
    n, eps, band = 9, 1e-4, 0.02
    rng = np.random.default_rng(5)
    uv = band_offsets(rng, n, band)
    mv = rng.choice([-0.2, 0.0, 0.3, 1.1], size=n)
    cost, x, (_, jacobian, _, _), oracle = stationary_system(g, local, eps, band, uv, mv)
    if local:
        assert np.any(cost.derivative(mv) == 0.0)
    assert np.any((np.abs(uv) < band) & (mv == 0.0))
    assert_on_fixed_pattern(lambda x: jacobian(x).matrix(), x, oracle)


def per_system_assembler(g, dt, k_steps, lag, ham, cost):
    # the assembler as each system built its own: the border of a
    # nonlocal cost (column -c1, row -<w, .>) in the static part, and
    # value positions without it
    n = g.n_total
    n_u = k_steps * n
    static = _space_time_operator(g, dt, k_steps)
    diag = np.arange(n_u)
    rows, cols = [diag, n_u + diag, n_u + diag], [diag, diag, n_u + diag]
    if cost.is_local:
        rows.append(diag[lag * n:])
        cols.append(n_u + diag[:n_u - lag * n])
    else:
        column = np.concatenate([np.full(n, -cost.c1), np.zeros(n)])[:, None]
        row = np.concatenate([np.zeros(n), -cost.weight.values * g.cell_volume])[None, :]
        static = sp.bmat([[static, sp.csr_matrix(column)],
                          [sp.csr_matrix(row), sp.identity(1)]])
    if ham is not None:
        h_rows, h_cols, _ = _hamiltonian_positions(g, k_steps)
        rows.append(h_rows)
        cols.append(h_cols)
    return diagonal_update(static, np.concatenate(rows), np.concatenate(cols))


KEPT_CASES = {
    "1d": ((9,), "local", False), "1d-h": ((9,), "local", True),
    "2d": ((4, 4), "local", False), "2d-h": ((4, 4), "local", True),
    "1d-stationary": ((9,), "stationary", False),
    "1d-nonlocal": ((9,), "nonlocal", False), "2d-nonlocal": ((4, 4), "nonlocal", False),
}


@pytest.mark.parametrize("shape, kind, with_h", KEPT_CASES.values(), ids=KEPT_CASES.keys())
def test_kept_assembler_matches_the_per_system_build(shape, kind, with_h):
    # the Jacobian assembler is built once per structure (grid, dt, K,
    # lag, with H, bordered) and kept: the system of a second penalty
    # stage takes it from the cache, and every Jacobian equals the one of
    # an assembler built for its own system bitwise, in data, indices
    # and indptr (the nonlocal weight here is positive everywhere)
    dim = len(shape)
    g = build_grid(dim, [(0.0, 1.0)] * dim, list(shape))
    n = g.n_total
    rng = np.random.default_rng(37)
    stationary = kind != "local"
    k_steps, dt, lag = (1, 1.0, 0) if stationary else (3, 0.1, 1)
    if kind == "nonlocal":
        cost = CostOperator.nonlocal_affine(g, -0.5, 2.0, ScalarField(g, rng.uniform(0.5, 1.5, n)))
    else:
        cost = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3))
    ham = Hamiltonian.smoothed_norm(ScalarField(g, rng.uniform(0.5, 1.5, n))) if with_h else None
    m0 = rng.uniform(0.2, 1.0, n)
    x = np.concatenate([band_offsets(rng, k_steps * n, 0.05),
                        rng.choice([-0.2, 0.0, 0.3, 1.1], size=k_steps * n)])
    if kind == "nonlocal":
        x = np.append(x, 0.4)
    _jacobian_assembler.cache_clear()
    for eps, band in ((1e-2, 0.1), (1e-3, 0.05)):
        _, jacobian, _, _ = _frozen_system(cost, None, np.zeros((k_steps, n)), ham, g, m0, dt,
                                           eps, band, lag=lag)
        jac = jacobian(x)
        got = jac.matrix()
        vals = [jac.penalty, jac.slope, jac.rate]
        if jac.fprime is not None:
            vals.append(jac.fprime)
        extra = list(jac.extra[1:] if kind == "nonlocal" else jac.extra)
        expected = per_system_assembler(g, dt, k_steps, lag, ham, cost)(
            np.concatenate(vals + extra, axis=None))
        for field in ("data", "indices", "indptr"):
            assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field
    info = _jacobian_assembler.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_kept_border_stores_zeros_where_the_weight_vanishes():
    # the kept assembler names every position of the border row, so
    # where the weight of <w, .> vanishes it stores a zero that the
    # per-system build did not store; the values are equal bitwise
    g = build_grid(1, (0.0, 1.0), 9)
    n, eps, band = 9, 1e-4, 0.02
    rng = np.random.default_rng(5)
    uv, mv = band_offsets(rng, n, band), rng.choice([-0.2, 0.0, 0.3, 1.1], size=n)
    cost, x, (_, jacobian, _, _), _ = stationary_system(g, False, eps, band, uv, mv)
    jac = jacobian(x)
    got = jac.matrix()
    expected = per_system_assembler(g, 1.0, 1, 0, None, cost)(
        np.concatenate([jac.penalty, jac.slope, jac.rate], axis=None))
    assert got.toarray().tobytes() == expected.toarray().tobytes()
    zero_weight = np.flatnonzero(cost.weight.values == 0.0)
    assert len(zero_weight) and got.nnz == expected.nnz + len(zero_weight)
    assert np.all(got.toarray()[2 * n, n + zero_weight] == 0.0)


@pytest.mark.parametrize("band_nodes", [True, False], ids=["band", "no_band"])
@pytest.mark.parametrize("local", [True, False], ids=["local", "nonlocal"])
def test_stationary_block_solve_matches_the_whole_jacobian(monkeypatch, local, band_nodes):
    # the 2D Newton step from the two diagonal blocks and the GMRES
    # solve of the density Schur complement, against spsolve of the
    # whole oracle Jacobian, which the solve does not assemble; without
    # band nodes the Schur complement is Jm itself and GMRES is not called
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    n, eps, band = 81, 1e-4, 0.02
    rng = np.random.default_rng(13)
    uv = band_offsets(rng, n, band) if band_nodes else band * rng.choice([-3.0, 3.0], size=n)
    mv = rng.choice([-0.2, 0.0, 0.3, 1.1], size=n)
    _, x, (_, jacobian, solve, _), oracle = stationary_system(g, local, eps, band, uv, mv)
    gmres, calls = _coupled._gmres, []

    def recording_gmres(*args):
        calls.append(gmres(*args))
        return calls[-1]

    monkeypatch.setattr(_coupled, "_gmres", recording_gmres)
    monkeypatch.setattr(sp, "bmat", None)
    assert np.any(np.abs(uv) < band) == band_nodes
    rhs = rng.normal(size=len(x))
    expected = spla.spsolve(oracle, rhs)
    step = solve(jacobian(x), rhs)
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert len(calls) == band_nodes and all(y is not None for y in calls)


@pytest.mark.parametrize("local", [True, False], ids=["local", "nonlocal"])
def test_stationary_block_solve_falls_back_on_a_gmres_miss(monkeypatch, lu_factors, local):
    # a _gmres that returns None: the step is the LU solve of the whole
    # Jacobian, on the assembler kept for its structure (by banded LU
    # for a local cost; the dense border of a nonlocal one takes SuperLU)
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    n, eps, band = 81, 1e-4, 0.02
    rng = np.random.default_rng(17)
    uv = band_offsets(rng, n, band)
    mv = rng.choice([-0.2, 0.0, 0.3, 1.1], size=n)
    _, x, (_, jacobian, solve, _), oracle = stationary_system(g, local, eps, band, uv, mv)
    monkeypatch.setattr(_coupled, "_gmres", lambda apply, b: None)
    rhs = rng.normal(size=len(x))
    expected = spla.spsolve(oracle, rhs)
    step = solve(jacobian(x), rhs)
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert lu_factors == [("band" if local else "superlu", len(x))]


def test_schur_step_restarts_a_missed_gmres_cycle_instead_of_falling_back(band_factors,
                                                                         lu_factors):
    # with Ju = Jm = I, F = -I and S = diag(0..59) the Schur operator is
    # diag(1..60), on which 50 Arnoldi steps leave the true residual
    # above 1e-13: the second cycle starts from the first's iterate (its
    # first apply is at the normalized true residual there, not at the
    # right-hand side), converges, and the step is the solution of the
    # block system, with no fallback. Then on a 31x31 stationary
    # continuation no step falls back: every factorization, by banded
    # Cholesky or LU, is of an N x N block. The stages run on this grid,
    # one penalized_coupled_solve each, where continuation_solve would nest
    n = 60
    slope = np.arange(float(n))
    rng = np.random.default_rng(43)
    r_u, r_m = rng.normal(size=n), rng.normal(size=n)
    applied = []

    def solve_m(v):
        applied.append(v.copy())
        return v

    def fallback():
        raise AssertionError("fell back")

    du, dm = _coupled._schur_step(lambda v: v, solve_m, slope, lambda v: -v, r_u, r_m, fallback)
    whole = np.block([[np.eye(n), -np.eye(n)], [np.diag(slope), np.eye(n)]])
    expected = np.linalg.solve(whole, np.concatenate([r_u, r_m]))
    assert np.max(np.abs(np.concatenate([du, dm]) - expected)) <= 1e-12 * np.max(np.abs(expected))
    b, first = r_m - slope * r_u, applied[50]
    miss = b - (first - slope * -first)
    assert np.linalg.norm(miss) > 1e-13 * np.linalg.norm(b)
    assert np.array_equal(applied[51], miss / np.linalg.norm(miss))
    assert 52 < len(applied) <= 102

    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (31, 31))
    cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.5))
    rho = raised_cosine_bump(g, peak=250.0)
    sol, _ = penalty_continuation(
        lambda eps, warm, strict: penalized_coupled_solve(cost, rho, eps, strict=strict, warm=warm),
        lambda triple: None)
    assert sol.converged
    assert {n for _, n in lu_factors} | {band.shape[1] for band, _ in band_factors} == {g.n_total}


def identity_plus_rank(rank, n=200):
    # I + U V^T with random U, V (n x rank), and a random right-hand side
    rng = np.random.default_rng(41 + rank)
    return (np.eye(n) + rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n)) / np.sqrt(n),
            rng.normal(size=n))


def recording(a, applied):
    # the operator v -> a v, appending a copy of every v to applied
    def apply(v):
        applied.append(v.copy())
        return a @ v

    return apply


@pytest.mark.parametrize("rank", [1, 3, 8])
def test_gmres_solves_identity_plus_rank_r_in_r_plus_two_applies(rank):
    # the form of the density Schur complement: r + 1 Arnoldi steps and
    # the true residual, whose apply is at the returned x
    a, b = identity_plus_rank(rank)
    applied = []
    x = _coupled._gmres(recording(a, applied), b)
    expected = np.linalg.solve(a, b)
    assert len(applied) <= rank + 2 and np.array_equal(applied[-1], x)
    assert np.linalg.norm(b - a @ x) <= 1e-13 * np.linalg.norm(b)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_gmres_gives_none_after_one_apply_of_a_nan_operator():
    applied = []
    assert _coupled._gmres(recording(np.full((30, 30), np.nan), applied), np.ones(30)) is None
    assert len(applied) == 1


def test_gmres_gives_none_where_two_cycles_cannot_solve():
    # the cyclic shift of 120 nodes from e_0: no Krylov space of a cycle
    # reaches the solution e_119, so both cycles of 50 steps miss
    n, applied = 120, []
    b = np.zeros(n)
    b[0] = 1.0
    assert _coupled._gmres(recording(np.roll(np.eye(n), 1, axis=0), applied), b) is None
    assert len(applied) == 2 * 51


def test_gmres_is_bitwise_deterministic():
    a, b = identity_plus_rank(8)
    first, second = (_coupled._gmres(recording(a, []), b) for _ in range(2))
    assert first.tobytes() == second.tobytes()


def space_time_system(obstacle, band_nodes, zero_slice=None):
    # the penalized forward-backward system in (w, m) on a 2D 7x7 grid
    # with K = 4 at a random iterate, and its oracle Jacobian built by
    # sp.bmat and sp.diags: f = m^2 + f0 gives -f'(m) = 0 where m <= 0,
    # and a heat_from_g obstacle with g = m^2 / 2 adds -g'(m) to the
    # source derivative. Without band nodes every w is off the band;
    # zero_slice puts one slice below it, so its penalty and exit rate
    # vanish
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (7, 7))
    n, k_steps, dt, eps, band = g.n_total, 4, 0.1, 1e-3, 0.05
    tg = build_timegrid(k_steps * dt, k_steps)
    rng = np.random.default_rng(19)
    cost = CostOperator.local_power(g, 1.0, 2.0, ScalarField.constant(g, -0.3))
    g_cost = None
    if obstacle == "heat_from_g":
        g_cost = CostOperator.local_power(g, 0.5, 2.0, ScalarField.zeros(g))
        op = ObstacleOperator.heat_source(g_cost)
    elif obstacle == "zero":
        op = ObstacleOperator.zero(g, tg)
    else:
        op = ObstacleOperator.constant(FieldTrajectory(g, tg, rng.normal(size=(k_steps + 1, n))))
    if band_nodes:
        w = band_offsets(rng, (k_steps + 1, n), band)
    else:
        w = band * rng.choice([-3.0, 3.0], size=(k_steps + 1, n))
    if zero_slice is not None:
        w[zero_slice] = -3.0 * band
    m = rng.choice([-0.2, 0.0, 0.3, 1.1], size=(k_steps + 1, n))
    g_arr = op.apply_arrays(g, tg, m)[1]
    system = _frozen_system(cost, g_cost, g_arr[:k_steps], None, g, m[0], dt, eps, band,
                            lag=1)
    x = np.concatenate([w[:k_steps].ravel(), m[1:].ravel()])
    b_op = elliptic_matrix(g, with_zero_order=False) + sp.identity(n) / dt
    blocks = [[None] * (2 * k_steps) for _ in range(2 * k_steps)]
    for k in range(k_steps):
        blocks[k][k] = b_op + sp.diags((w[k] > 0).astype(float) / eps)
        blocks[k_steps + k][k] = sp.diags(np.where(np.abs(w[k]) < band, 0.5 / band, 0.0)
                                          * m[k + 1] / eps)
        blocks[k_steps + k][k_steps + k] = b_op + sp.diags(_ramp(w[k] / band) / eps)
        if k + 1 < k_steps:
            blocks[k][k + 1] = -sp.identity(n) / dt
        if k >= 1:
            fprime = cost.derivative(m[k])
            if g_cost is not None:
                fprime = fprime + g_cost.derivative(m[k])
            blocks[k][k_steps + k - 1] = sp.diags(-fprime)
            blocks[k_steps + k][k_steps + k - 1] = -sp.identity(n) / dt
    return x, system, sp.bmat(blocks, format="csc")


@pytest.mark.parametrize("band_nodes", [True, False], ids=["band", "no_band"])
@pytest.mark.parametrize("obstacle", ["zero", "constant_field", "heat_from_g"])
def test_time_dependent_block_solve_matches_the_whole_jacobian(monkeypatch, obstacle,
                                                               band_nodes):
    # the 2D Newton step from the backward and forward sweeps and the
    # GMRES solve of the density Schur complement, against spsolve of
    # the whole oracle Jacobian, which the solve does not assemble;
    # without band nodes GMRES is not called
    x, (_, jacobian, solve, _), oracle = space_time_system(obstacle, band_nodes)
    gmres, calls = _coupled._gmres, []

    def recording_gmres(*args):
        calls.append(gmres(*args))
        return calls[-1]

    def no_assembly(*args):
        raise AssertionError("whole Jacobian assembled")

    monkeypatch.setattr(_coupled, "_gmres", recording_gmres)
    monkeypatch.setattr(_coupled, "diagonal_update", no_assembly)
    rhs = np.random.default_rng(23).normal(size=len(x))
    expected = spla.spsolve(oracle, rhs)
    step = solve(jacobian(x), rhs)
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert len(calls) == band_nodes and all(y is not None for y in calls)


def test_time_dependent_block_solve_falls_back_on_a_gmres_miss(monkeypatch, lu_factors):
    # a _gmres that returns None: the step is the LU solve of the whole
    # space-time Jacobian, on the assembler kept for its structure
    x, (_, jacobian, solve, _), oracle = space_time_system("constant_field", True)
    monkeypatch.setattr(_coupled, "_gmres", lambda apply, b: None)
    rhs = np.random.default_rng(29).normal(size=len(x))
    expected = spla.spsolve(oracle, rhs)
    step = solve(jacobian(x), rhs)
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert [n for _, n in lu_factors] == [len(x)]


@pytest.mark.parametrize("band_nodes", [True, False], ids=["band", "no_band"])
def test_time_dependent_block_solve_factors_each_nonzero_block_once(band_factors, lu_factors,
                                                                   band_nodes):
    # one factorization per slice block B + diag(d) with d != 0, and one
    # of B shared by the blocks with d = 0 (here the penalty and the
    # exit rate of slice 2), kept for the process: the later steps of
    # the stage, and a later system on the same grid and dt (here one
    # with a heat_from_g obstacle, whose heat steps solve with B too),
    # factor B no more. On this 7x7 grid every slice block factors by
    # banded Cholesky, and nothing factors by LU
    for obstacle, b_factored in (("zero", (1, 0)), ("heat_from_g", (0, 0))):
        del band_factors[:]
        x, (_, jacobian, solve, _), oracle = space_time_system(obstacle, band_nodes,
                                                               zero_slice=2)
        assert band_factors == []
        jac = jacobian(x)
        blocks = list(jac.penalty) + list(jac.rate)
        nonzero = sum(bool(np.any(d)) for d in blocks)
        assert 2 <= len(blocks) - nonzero < len(blocks)
        rhs = np.random.default_rng(31).normal(size=len(x))
        expected = spla.spsolve(oracle, rhs)
        for b_count in b_factored:
            del band_factors[:]
            step = solve(jac, rhs)
            assert [np.any(d) for _, d in band_factors].count(True) == nonzero
            assert len(band_factors) == nonzero + b_count
            assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert lu_factors == []


@pytest.mark.parametrize("obstacle", ["zero", "heat_from_g"])
def test_time_dependent_block_solve_keeps_the_newton_counts(monkeypatch, obstacle):
    # a 2D osmfg continuation by the block solve and by the LU of the
    # whole Jacobian (every Schur step taking its fallback): equal Newton
    # counts per stage, and fields equal to round-off. A heat_from_g
    # obstacle (g = m^2 / 2) is solved in w = u - psi on the same sweeps
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (9, 9))
    tg = build_timegrid(0.5, 3)
    cost = CostOperator.local_power(g, 1.0, 1.0, ScalarField.constant(g, -0.5))
    op = (ObstacleOperator.zero(g, tg) if obstacle == "zero" else
          ObstacleOperator.heat_source(CostOperator.local_power(g, 0.5, 2.0, ScalarField.zeros(g))))

    def run():
        return osmfg_continuation(cost, op, gaussian_density(g, sigma=0.15), tg)

    schur, steps = _coupled._schur_step, []

    def recording_schur(*args):
        steps.append(obstacle)
        return schur(*args)

    monkeypatch.setattr(_coupled, "_schur_step", recording_schur)
    block, block_stages = run()
    assert len(steps) >= len(block_stages)
    monkeypatch.setattr(_coupled, "_schur_step", lambda *args: args[-1]())
    whole, whole_stages = run()
    assert [s.iterations for s in block_stages] == [s.iterations for s in whole_stages]
    for a, b in zip(solution_arrays(block), solution_arrays(whole)):
        assert np.max(np.abs(a - b)) <= 1e-14


def test_comparison_principle():
    g = build_grid(1, (0.0, 1.0), 15)
    psi = ScalarField.zeros(g)
    rng = np.random.default_rng(3)
    f1_vals = rng.uniform(-2.0, 2.0, 15)
    f2_vals = f1_vals + np.abs(rng.normal(size=15))
    u1 = solve_obstacle_stationary(ScalarField(g, f1_vals), psi)
    u2 = solve_obstacle_stationary(ScalarField(g, f2_vals), psi)
    assert np.all(u1.values <= u2.values + 1e-9)


def test_nonconvergence_reports_residual(monkeypatch):
    # from the solution without obstacle this source needs three
    # active-set steps; two are allowed. No node is near a tie: the start
    # is at least 0.02 from the obstacle, and the two branches of the min
    # differ by at least 5 at every node of every step, so the active
    # sets do not depend on the round-off of the factorization
    g = build_grid(1, (0.0, 1.0), 15)
    f = ScalarField(g, 10.0 * np.sin(3 * np.pi * g.coordinates()[:, 0]))
    monkeypatch.setattr(obstacle, "_TOL", 1e-12)
    monkeypatch.setattr(obstacle, "_MAX_ITER", 2)
    with pytest.raises(ObstacleConvergenceError) as err:
        solve_obstacle_stationary(f, ScalarField.zeros(g))
    assert err.value.residual > 0 and err.value.iterations == 2
    monkeypatch.undo()
    monkeypatch.setattr(obstacle, "_MAX_ITER", 3)
    solve_obstacle_stationary(f, ScalarField.zeros(g))


def test_fine_grid_obstacle_takes_whole_active_set_steps():
    # from the unconstrained start the free boundary moves a few nodes a
    # step while the residual norm grows; backtracking on that norm stalls
    g = build_grid(1, (0.0, 1.0), 255)
    f = ScalarField(g, 10.0 * np.sin(4 * np.pi * g.coordinates()[:, 0]))
    u = solve_obstacle_stationary(f, ScalarField.zeros(g))
    assert complementarity_residual(elliptic_matrix(g), u.values, f.values,
                                    np.zeros(255)) <= 1e-10


@pytest.mark.parametrize("n", [1023, 2047])
def test_fine_grid_obstacle_gate_scales_with_the_operator(n):
    # the round-off of f - M u grows like diag(M) ~ 2/h^2, past a fixed
    # 1e-10 at these sizes: the gate is scaled by the size of the data
    g = build_grid(1, (0.0, 1.0), n)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.uniform(-2.0, 2.0, n))
    psi = ScalarField(g, 0.1 * rng.normal(size=n))
    u = solve_obstacle_stationary(f, psi)
    m = elliptic_matrix(g)
    scale = 1.0 + np.max(np.abs(f.values) + abs(m) @ np.maximum(np.abs(u.values),
                                                                 np.abs(psi.values)))
    assert complementarity_residual(m, u.values, f.values, psi.values) <= 1e-10 * scale


def test_parabolic_zero_when_source_nonnegative():
    # the parabolic reference of oracles.py, against which
    # test_control.py judges the controlled solve with H = 0
    g = build_grid(1, (0.0, 1.0), 9)
    tg = build_timegrid(1.0, 20)
    f = FieldTrajectory.constant(g, tg, 0.3)
    psi = FieldTrajectory.constant(g, tg, 0.0)
    u = parabolic_obstacle(f, psi)
    assert np.max(np.abs(u.array())) <= 1e-10


def test_parabolic_long_horizon_approaches_stationary():
    # time-constant data: slice 0 nears the stationary solution of the
    # -lap obstacle problem once the horizon dwarfs the relaxation time
    g = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(5.0, 100)
    f = FieldTrajectory.constant(g, tg, -0.7)
    psi = FieldTrajectory.constant(g, tg, 0.0)
    u = parabolic_obstacle(f, psi)
    a0 = elliptic_matrix(g, with_zero_order=False)
    assert complementarity_residual(a0, u.array()[0], f.array()[0], psi.array()[0]) <= 1e-6


def test_parabolic_slice0_cauchy_in_dt():
    g = build_grid(1, (0.0, 1.0), 9)
    rng = np.random.default_rng(4)
    fvals = rng.uniform(-1.0, 0.2, 9)

    def solve(n_steps):
        tg = build_timegrid(0.5, n_steps)
        f = FieldTrajectory(g, tg, np.tile(fvals, (n_steps + 1, 1)))
        psi = FieldTrajectory.constant(g, tg, 0.0)
        return parabolic_obstacle(f, psi).array()[0]

    u1, u2, u4 = solve(10), solve(20), solve(40)
    gap12 = np.max(np.abs(u1 - u2))
    gap24 = np.max(np.abs(u2 - u4))
    assert gap24 <= 0.75 * gap12  # first-order stepping contracts the gaps


def test_converged_solution_satisfies_complementarity_bounds():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (5, 5))
    rng = np.random.default_rng(5)
    f = ScalarField(g, rng.uniform(-2.0, 2.0, 25))
    psi = ScalarField(g, 0.1 * rng.normal(size=25))
    u = solve_obstacle_stationary(f, psi)
    assert np.all(u.values <= psi.values + 1e-12)
    res = complementarity_residual(elliptic_matrix(g), u.values, f.values, psi.values)
    assert res <= 1e-10
