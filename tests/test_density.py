import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgstop import density
from mfgstop._coupled import _divergence, _drift_values, _hamiltonian_positions
from mfgstop.density import (
    FaceVelocities,
    KillingData,
    solve_density_on_set,
    solve_density_parabolic,
)
from mfgstop.grid import (
    FieldTrajectory,
    NodeMask,
    ScalarField,
    build_grid,
    build_timegrid,
    elliptic_matrix,
)
from mfgstop.obstacle import _shifted_factor
from mfgstop.scenarios import raised_cosine_bump
from oracles import drift_reference, killed_density, operator


def test_empty_set_gives_zero():
    g = build_grid(1, (0.0, 1.0), 9)
    m = solve_density_on_set(NodeMask(g, np.zeros(9, bool)), ScalarField.constant(g, 1.0))
    assert np.all(m.values == 0.0)


def test_full_set_matches_cosh_closed_form():
    g = build_grid(1, (0.0, 1.0), 31)
    m = solve_density_on_set(NodeMask(g, np.ones(g.n_total, bool)), ScalarField.constant(g, 1.0))
    x = g.coordinates()[:, 0]
    exact = 1.0 - np.cosh(x - 0.5) / np.cosh(0.5)
    assert np.max(np.abs(m.values - exact)) < 2e-4
    assert m.values[15] == pytest.approx(1.0 - 1.0 / np.cosh(0.5), abs=2e-4)


def test_restricted_solve_matches_dense_oracle():
    g = build_grid(1, (0.0, 1.0), 31)
    rho = raised_cosine_bump(g)
    x = g.coordinates()[:, 0]
    mask = NodeMask(g, x < 0.5)
    m = solve_density_on_set(mask, rho)
    a = elliptic_matrix(g).toarray()
    idx = np.flatnonzero(mask.mask)
    expected = np.zeros(31)
    expected[idx] = np.linalg.solve(a[np.ix_(idx, idx)], rho.values[idx])
    assert np.max(np.abs(m.values - expected)) <= 1e-12
    assert np.all(m.values >= -1e-12)
    assert np.all(m.values[~mask.mask] == 0.0)


GRID_5X5 = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (5, 5))
node_masks = st.lists(st.booleans(), min_size=25, max_size=25).map(np.array)
densities = st.lists(st.floats(0.0, 10.0), min_size=25, max_size=25).map(np.array)
deterministic = settings(derandomize=True, deadline=None, max_examples=50, database=None)


@deterministic
@given(node_masks, densities)
def test_exclusion_solve_is_a_nonnegative_subsolution(mask, rho_vals):
    rho = ScalarField(GRID_5X5, rho_vals)
    m = solve_density_on_set(NodeMask(GRID_5X5, mask), rho).values
    assert np.all(m >= -1e-12)
    assert np.all(m[~mask] == 0.0)
    assert np.all(elliptic_matrix(GRID_5X5) @ m <= rho_vals + 1e-12)


@deterministic
@given(node_masks, node_masks, densities)
def test_exclusion_solve_grows_with_the_set(mask, extra, rho_vals):
    rho = ScalarField(GRID_5X5, rho_vals)
    m_small = solve_density_on_set(NodeMask(GRID_5X5, mask), rho).values
    m_big = solve_density_on_set(NodeMask(GRID_5X5, mask | extra), rho).values
    assert np.all(m_big >= m_small - 1e-12)


face_values = st.lists(st.floats(-5.0, 5.0), min_size=60, max_size=60).map(np.array)
rates = st.lists(st.floats(0.0, 1.0), min_size=25, max_size=25).map(np.array)


@deterministic
@given(densities, node_masks, rates, st.sampled_from([1e-3, 1e-1, 10.0]), face_values)
def test_parabolic_solve_never_gains_mass(m0_vals, mask, alpha, eps, faces):
    # killing only removes mass and the Dirichlet closure only lets it
    # leak, whatever the drift
    # time-constant data: alpha = 0 off the node mask
    tg = build_timegrid(0.4, 4)
    killing = KillingData(FieldTrajectory(GRID_5X5, tg, np.tile(alpha * mask, (5, 1))), eps)
    drift = FaceVelocities(GRID_5X5, tg, (np.broadcast_to(faces[:30].reshape(6, 5), (4, 6, 5)),
                                          np.broadcast_to(faces[30:].reshape(5, 6), (4, 5, 6))))
    traj = solve_density_parabolic(ScalarField(GRID_5X5, m0_vals), killing, tg, drift)
    masses = traj.array().sum(axis=1) * GRID_5X5.cell_volume
    assert np.all(np.diff(masses) <= 1e-12 * max(1.0, masses[0]))


def test_rejects_negative_source():
    g = build_grid(1, (0.0, 1.0), 5)
    with pytest.raises(ValueError):
        solve_density_on_set(NodeMask(g, np.ones(g.n_total, bool)), ScalarField.constant(g, -1.0))


def test_rejects_a_nan_source_or_start():
    g = build_grid(1, (0.0, 1.0), 5)
    nan = ScalarField(g, np.array([0.1, np.nan, 0.1, 0.1, 0.1]))
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        solve_density_on_set(NodeMask(g, np.ones(g.n_total, bool)), nan)
    with pytest.raises(ValueError, match="m0 must be nonnegative"):
        solve_density_parabolic(nan, None, build_timegrid(1.0, 2))


def test_penalized_with_empty_active_set_matches_full_solve():
    g = build_grid(1, (0.0, 1.0), 15)
    rho = raised_cosine_bump(g)
    m = killed_density(np.zeros(15), rho)
    m_full = solve_density_on_set(NodeMask(g, np.ones(g.n_total, bool)), rho)
    assert np.max(np.abs(m.values - m_full.values)) <= 1e-12


def test_penalized_limit_is_exclusion_solve():
    g = build_grid(1, (0.0, 1.0), 21)
    rho = raised_cosine_bump(g)
    x = g.coordinates()[:, 0]
    active = NodeMask(g, x > 0.6)
    m_limit = solve_density_on_set(NodeMask(g, ~active.mask), rho)
    gaps = []
    for eps in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        m_eps = killed_density(active.mask / eps, rho)
        gaps.append(np.max(np.abs(m_eps.values - m_limit.values)))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-5


def test_killing_data_validation():
    g = build_grid(1, (0.0, 1.0), 5)
    tg = build_timegrid(1.0, 2)
    for alpha in (2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"alpha must take values in \[0, 1\]"):
            KillingData(FieldTrajectory.constant(g, tg, alpha), 1e-3)
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            KillingData(FieldTrajectory.constant(g, tg, 0.0), epsilon)


def test_subsolution_slack_of_exclusion_solves():
    g = build_grid(1, (0.0, 1.0), 21)
    rho = raised_cosine_bump(g)
    rng = np.random.default_rng(0)
    for _ in range(10):
        mask = NodeMask(g, rng.random(21) < 0.6)
        m = solve_density_on_set(mask, rho)
        assert np.min(rho.values - operator(g) @ m.values) >= -1e-12


def test_parabolic_mass_non_increasing_and_positive():
    g = build_grid(1, (0.0, 1.0), 21)
    tg = build_timegrid(1.0, 30)
    x = g.coordinates()[:, 0]
    m0 = ScalarField(g, np.sin(np.pi * x))
    traj = solve_density_parabolic(m0, None, tg)
    masses = traj.array().sum(axis=1) * g.cell_volume
    assert np.all(np.diff(masses) <= 1e-14)
    assert traj.array().min() >= -1e-12


def test_parabolic_strong_killing_wipes_first_slice():
    g = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(1.0, 50)
    x = g.coordinates()[:, 0]
    m0 = ScalarField(g, np.sin(np.pi * x))
    kd = KillingData(FieldTrajectory.constant(g, tg, 1.0), 1e-8)
    traj = solve_density_parabolic(m0, kd, tg)
    assert np.max(np.abs(traj.array()[1])) <= 1e-6 * np.max(np.abs(m0.values))


def test_zero_drift_matches_heat_flow():
    g = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(0.5, 20)
    x = g.coordinates()[:, 0]
    m0 = ScalarField(g, np.sin(np.pi * x))
    plain = solve_density_parabolic(m0, None, tg)
    zero = FaceVelocities(g, tg, (np.zeros((tg.n_steps,) + g.face_shape(0)),))
    drifted = solve_density_parabolic(m0, None, tg, zero)
    assert np.array_equal(plain.array(), drifted.array())


def test_zero_alpha_kills_nothing():
    # alpha = 0 on every node gives a zero rate: the heat flow, bitwise
    g = build_grid(1, (0.0, 1.0), 15)
    tg = build_timegrid(0.5, 20)
    m0 = raised_cosine_bump(g)
    kd = KillingData(FieldTrajectory.constant(g, tg, 0.0), 1e-6)
    assert not np.any(kd.rate())
    plain = solve_density_parabolic(m0, None, tg)
    assert np.array_equal(solve_density_parabolic(m0, kd, tg).array(), plain.array())


def test_killed_density_factors_once_by_cholesky(lu_factors, band_factors):
    # the stationary killed density (A + diag(rate)) m = rho on 31x31, as
    # the dt = 1 shifted operator: one banded Cholesky factor and no LU
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (31, 31))
    rate = (g.coordinates()[:, 0] > 0.6) / 1e-3
    rho = raised_cosine_bump(g)
    m = _shifted_factor(g, rate, 1.0)(rho.values)
    assert lu_factors == [] and len(band_factors) == 1
    a = elliptic_matrix(g) + sp.diags(rate)
    assert np.max(np.abs(a @ m - rho.values)) <= 1e-10 * np.max(rho.values)


@pytest.mark.parametrize("killing", [False, True], ids=["heat", "constant_killing"])
def test_parabolic_steps_without_drift_factor_once_by_cholesky(lu_factors, band_factors,
                                                               killing):
    # 20 steps of B + diag(V) on 31x31 with no drift factor each step
    # once by banded Cholesky and call no LU; without killing every step
    # takes B's own factor, kept after its first use
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (31, 31))
    tg = build_timegrid(0.5, 20)
    kd = KillingData(FieldTrajectory.constant(g, tg, 1.0), 1e-2) if killing else None
    traj = solve_density_parabolic(raised_cosine_bump(g), kd, tg)
    assert lu_factors == [] and len(band_factors) == (tg.n_steps if killing else 1)
    assert all(np.any(d) == killing for _, d in band_factors)
    # the steps solve B + diag(V) m_{k+1} = m_k / dt
    b = elliptic_matrix(g, with_zero_order=False) + sp.identity(g.n_total) / tg.dt
    if kd is not None:
        b = b + sp.diags(kd.rate()[0])
    m = traj.array()
    assert np.max(np.abs(m[1:] @ b.T - m[:-1] / tg.dt)) <= 1e-10 * np.max(m[0]) / tg.dt


def test_drift_preserves_positivity_and_mass_monotonicity():
    g = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (7, 7))
    tg = build_timegrid(0.5, 15)
    rng = np.random.default_rng(1)
    comps = []
    for axis in range(2):
        shape = [7, 7]
        shape[axis] += 1
        comps.append(np.broadcast_to(rng.normal(scale=2.0, size=tuple(shape)), (15, *shape)))
    faces = FaceVelocities(g, tg, tuple(comps))
    m0 = raised_cosine_bump(g)
    traj = solve_density_parabolic(m0, None, tg, faces)
    masses = traj.array().sum(axis=1) * g.cell_volume
    assert traj.array().min() >= -1e-12
    assert np.all(np.diff(masses) <= 1e-14)


def drift_matrix(grid, comps):
    """The drift operator div of each time step of the face velocities
    comps (per axis, (K, *face shape)) as one dense (K, N, N) array, at
    the drift stencils of the Newton Jacobian with their values."""
    stencils = _hamiltonian_positions(grid, 1)[2][-2 * grid.dim:]
    rows = np.concatenate([s[0] for s in stencils])
    cols = np.concatenate([s[1] for s in stencils])
    shape = (grid.n_total, grid.n_total)
    return np.array([sp.csr_matrix((values, (rows, cols)), shape=shape).toarray()
                     for values in np.hstack(_drift_values(grid, comps))])


def test_drift_matrix_column_sums_nonnegative():
    # column sums = net boundary outflow per unit density; mass can only leak
    g = build_grid(1, (0.0, 1.0), 9)
    rng = np.random.default_rng(2)
    col = drift_matrix(g, (rng.normal(size=(1, 10)),))[0].sum(axis=0)
    assert np.all(col >= -1e-14)


@pytest.mark.parametrize("k_steps", [1, 3])
@pytest.mark.parametrize("shape", [(31,), (9, 9), (15, 15)], ids=["31", "9x9", "15x15"])
def test_drift_operator_matches_the_node_by_node_reference(shape, k_steps):
    # signed face velocities with exact zeros, on axes of unequal spacing:
    # the matrix-free divergence of the Newton residuals, the drift
    # stencils with their values, and the assembled drifted density step
    # B + diag(rate) + div of each time step
    dim = len(shape)
    g = build_grid(dim, [(0.0, 1.0 + axis) for axis in range(dim)], list(shape))
    rng = np.random.default_rng(k_steps)
    comps = []
    for axis in range(dim):
        size = (k_steps,) + g.face_shape(axis)
        comps.append(rng.normal(size=size) * (rng.random(size) < 0.7))
    assert all(np.any(c == 0.0) for c in comps)
    m = rng.uniform(0.1, 2.0, size=(k_steps, g.n_total))
    div = _divergence(g, comps, m)
    mats = drift_matrix(g, comps)
    dt = 0.1
    rate = rng.uniform(0.0, 10.0, size=(k_steps, g.n_total))
    values = np.hstack([rate, *_drift_values(g, comps)])
    for k in range(k_steps):
        ref_div, ref_mat = drift_reference(g, [c[k] for c in comps], m[k])
        assert np.max(np.abs(mats[k] - ref_mat)) <= 1e-15 * np.max(np.abs(ref_mat))
        assert np.max(np.abs(div[k] - ref_div)) <= 1e-13 * np.max(np.abs(ref_div))
        ref_step = operator(g, 1.0 / dt) + np.diag(rate[k]) + ref_mat
        step = density._drifted_step(g, dt)(values[k]).toarray()
        assert np.max(np.abs(step - ref_step)) <= 1e-15 * np.max(np.abs(ref_step))


def test_killing_monotonicity():
    g = build_grid(1, (0.0, 1.0), 15)
    rho = raised_cosine_bump(g)
    rng = np.random.default_rng(3)
    alpha1 = rng.uniform(0.0, 0.5, 15)
    alpha2 = alpha1 + rng.uniform(0.0, 0.5, 15)
    tg = build_timegrid(1.0, 5)
    m1, m2 = (solve_density_parabolic(
        rho, KillingData(FieldTrajectory(g, tg, np.tile(alpha, (6, 1))), 1e-3), tg).array()
              for alpha in (alpha1, alpha2))
    assert np.all(m2 <= m1 + 1e-14)


def test_discrete_parabolic_pairing_inequality():
    # for nonpositive test trajectories vanishing at the horizon, the
    # pairing with the density dominates the initial term, with equality
    # when there is no killing
    g = build_grid(1, (0.0, 1.0), 11)
    tg = build_timegrid(1.0, 20)
    dt = tg.dt
    a0 = elliptic_matrix(g, with_zero_order=False)
    x = g.coordinates()[:, 0]
    m0 = ScalarField(g, np.sin(np.pi * x))
    rng = np.random.default_rng(4)
    # alpha = 0 off x > 0.5
    alpha = rng.uniform(0, 1, 11) * (x > 0.5)
    kd = KillingData(FieldTrajectory(g, tg, np.tile(alpha, (tg.n_steps + 1, 1))), 1e-2)
    for killing in (None, kd):
        traj = solve_density_parabolic(m0, killing, tg)
        marr = traj.array()
        v = -np.abs(rng.normal(size=(tg.n_steps + 1, 11)))
        v[-1] = 0.0
        total = 0.0
        for k in range(tg.n_steps):
            lv = (v[k] - v[k + 1]) / dt + a0 @ v[k]
            total += dt * float(np.dot(lv, marr[k + 1])) * g.cell_volume
        initial = float(np.dot(v[0], m0.values)) * g.cell_volume
        if killing is None:
            assert total == pytest.approx(initial, abs=1e-12)
        else:
            assert total >= initial - 1e-12
