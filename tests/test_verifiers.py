"""The three verifiers against a reference written node by node.

The reference shares no code with the package's residual core: it
applies the 3-point (1D) / 5-point (2D) stencil of -lap with zero
Dirichlet values outside node by node (oracles.neg_laplacian),
evaluates the costs and the obstacles from their formulas, and sums
the pairings over slices and nodes in Python loops. The candidates are seeded random pairs with
some nodes in contact, so that no residual is zero.
"""

import numpy as np
import pytest

from mfgstop.control import Hamiltonian, verify_cosmfg
from mfgstop.costs import CostOperator
from mfgstop.evolutive import ObstacleOperator, verify_mixed_evolutive
from mfgstop.grid import FieldTrajectory, ScalarField, build_grid, build_timegrid
from mfgstop.stationary import MixedSolutionReport, verify_mixed
from oracles import neg_laplacian, operator

GRIDS = {"1d": (15,), "2d": (7, 7)}
DELTA_C = 1e-3
TOL = {"rel": 1e-12, "abs": 1e-12}


def make_grid(shape, upper=1.0):
    dim = len(shape)
    return build_grid(dim, [(0.0, upper)] * dim, list(shape))


def pairing(a, b, volume):
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total * volume


def cost_of(spec, m, volume):
    """f(m) from the formulas: a m^p + f0 or c0 + c1 <w, m>."""
    if spec["kind"] == "local_power":
        return np.array([spec["a"] * mi ** spec["p"] + f0 for mi, f0 in zip(m, spec["f0"])])
    return np.full(len(m), spec["c0"] + spec["c1"] * pairing(spec["w"], m, volume))


def cost_operator(grid, spec):
    if spec["kind"] == "local_power":
        return CostOperator.local_power(grid, spec["a"], spec["p"], ScalarField(grid, spec["f0"]))
    return CostOperator.nonlocal_affine(grid, spec["c0"], spec["c1"], ScalarField(grid, spec["w"]))


def cost_spec(rng, n, local):
    if local:
        return {"kind": "local_power", "a": 0.7, "p": 2.0, "f0": rng.uniform(-1.0, 1.0, n)}
    return {"kind": "nonlocal_affine", "c0": 0.3, "c1": -1.5, "w": rng.uniform(0.0, 2.0, n)}


def below(rng, psi):
    """A value under psi: on it at about a third of the nodes (contact),
    further below than DELTA_C elsewhere."""
    gap = rng.uniform(0.01, 0.5, psi.shape)
    gap[rng.random(psi.shape) < 0.35] = 0.0
    return psi - gap


def reference_residuals(shape, spacing, dt, u, m, f, psi, g, lap_u, delta_c, div_m=None):
    """The five conditions of the K-slice system, node by node: u, m with
    slices 0..K, f, psi, g and L u (without the time difference) with
    slices 0..K-1, and the drift term -div(m_{k+1} b_k) of the density
    equations (None for none); the duality pairs against the slice-0
    data."""
    volume = float(np.prod(spacing))
    r_obs = r_cont = r_sub = contact = total = 0.0
    for k in range(len(f)):
        lap_m = neg_laplacian(shape, spacing, m[k + 1])
        if div_m is not None:
            lap_m = lap_m + div_m[k]
        for i in range(len(m[k])):
            l_u = (u[k][i] - u[k + 1][i]) / dt + lap_u[k][i]
            r_obs = max(r_obs, abs(min(psi[k][i] - u[k][i], f[k][i] - l_u)))
            r_m = (m[k + 1][i] - m[k][i]) / dt + lap_m[i]
            r_sub = max(r_sub, r_m)
            term = dt * (f[k][i] + g[k][i]) * m[k + 1][i] * volume
            total += term
            if u[k][i] - psi[k][i] < -delta_c:
                r_cont = max(r_cont, abs(r_m))
            else:
                contact += term
    start = pairing(u[0] - psi[0], m[0], volume)
    return {"r_obstacle": r_obs, "r_continuation": r_cont, "r_subsolution": r_sub,
            "r_contact": abs(contact), "r_duality": abs(total - start)}


def hamiltonian_terms(shape, spacing, beta, u, m):
    """H(x, D_sel u) and the drift term -div(m b) node by node, for the
    smoothed norm H = beta (sqrt(1 + |p|^2) - 1) or, with beta None, the
    quadratic H = |p|^2 / 2, values outside the grid 0:

    - along each axis a node takes the backward difference where
      D_pH(x, q)_a > 0 at the forward differences q, the forward one
      elsewhere, and H is evaluated at the selected gradient;
    - on the face between nodes L and R of axis a the gradient is
      (u_R - u_L)/h_a along a and, across it, the mean of the nodal
      central differences of the face's nodes inside the grid, and beta
      is the mean of theirs;
    - the face drift is b = D_pH(face beta, face gradient)_a, and the
      upwind flux F = b+ m_R + b- m_L enters L as -F/h_a and R as +F/h_a.
    """
    dim = len(shape)

    def inside(node):
        return all(0 <= c < n for c, n in zip(node, shape))

    def at(v, node):
        return v[np.ravel_multi_index(node, shape)] if inside(node) else 0.0

    def step(node, axis, by):
        return node[:axis] + (node[axis] + by,) + node[axis + 1:]

    def d_ph(p, weight):
        if beta is None:
            return list(p)
        return [weight * x / np.sqrt(1.0 + sum(y * y for y in p)) for x in p]

    def value(p, weight):
        sq = sum(x * x for x in p)
        return 0.5 * sq if beta is None else weight * (np.sqrt(1.0 + sq) - 1.0)

    h_vals, div = np.zeros(len(u)), np.zeros(len(u))
    for node in np.ndindex(*shape):
        i = np.ravel_multi_index(node, shape)
        weight = None if beta is None else beta[i]
        fwd = [(at(u, step(node, a, 1)) - u[i]) / spacing[a] for a in range(dim)]
        bwd = [(u[i] - at(u, step(node, a, -1))) / spacing[a] for a in range(dim)]
        p = [b if s > 0 else f for b, f, s in zip(bwd, fwd, d_ph(fwd, weight))]
        h_vals[i] = value(p, weight)
    for axis in range(dim):
        h = spacing[axis]
        for right in np.ndindex(*(n + (a == axis) for a, n in enumerate(shape))):
            left = step(right, axis, -1)
            nodes = [x for x in (left, right) if inside(x)]
            grad = [(at(u, right) - at(u, left)) / h if c == axis
                    else sum((at(u, step(x, c, 1)) - at(u, step(x, c, -1))) / (2 * spacing[c])
                             for x in nodes) / len(nodes)
                    for c in range(dim)]
            weight = None if beta is None else sum(at(beta, x) for x in nodes) / len(nodes)
            b = d_ph(grad, weight)[axis]
            flux = max(b, 0.0) * at(m, right) + min(b, 0.0) * at(m, left)
            for x, sign in ((left, -1.0), (right, 1.0)):
                if inside(x):
                    div[np.ravel_multi_index(x, shape)] += sign * flux / h
    return h_vals, div


def assert_matches(report, expected):
    got = report.to_dict()
    for key, want in expected.items():
        assert want > 0.0, key
        assert got[key] == pytest.approx(want, **TOL), key


@pytest.mark.parametrize("with_psi", [False, True], ids=["no_psi", "psi"])
@pytest.mark.parametrize("local", [True, False], ids=["local", "nonlocal"])
@pytest.mark.parametrize("shape", GRIDS.values(), ids=GRIDS.keys())
def test_stationary_verifier_matches_the_reference(shape, local, with_psi):
    # the stationary system: A = -lap + id, f + g = f - A psi, and the
    # duality term <u - psi, rho>
    grid = make_grid(shape)
    n, spacing = grid.n_total, grid.spacing
    rng = np.random.default_rng(41)
    spec = cost_spec(rng, n, local)
    psi = rng.uniform(-0.3, 0.3, n) if with_psi else np.zeros(n)
    u = below(rng, psi)
    m = rng.uniform(0.0, 1.0, n)
    rho = rng.uniform(0.0, 2.0, n)
    f = cost_of(spec, m, grid.cell_volume)
    a_psi = neg_laplacian(shape, spacing, psi) + psi
    # the stationary operator is the unit step: (u - u_1)/1 + A0 u with u_1 = 0
    expected = reference_residuals(shape, spacing, 1.0, [u, np.zeros(n)], [rho, m], [f], [psi],
                                   [-a_psi], [neg_laplacian(shape, spacing, u)], DELTA_C)
    report = verify_mixed(ScalarField(grid, u), ScalarField(grid, m), cost_operator(grid, spec),
                          ScalarField(grid, rho), delta_c=DELTA_C,
                          psi=ScalarField(grid, psi) if with_psi else None)
    assert_matches(report, expected)
    assert report.delta_c == DELTA_C


def backward_heat(grid, dt, g):
    """psi_K = 0 and (psi_k - psi_{k+1})/dt - lap psi_k = -g_k, by dense
    solves of the stencil's matrix."""
    matrix = operator(grid, 1.0 / dt)
    psi = np.zeros_like(g)
    for k in range(len(g) - 2, -1, -1):
        psi[k] = np.linalg.solve(matrix, psi[k + 1] / dt - g[k])
    return psi


@pytest.mark.parametrize("obstacle", ["constant_field", "heat_from_g"])
@pytest.mark.parametrize("shape", GRIDS.values(), ids=GRIDS.keys())
def test_evolutive_verifier_matches_the_reference(shape, obstacle):
    grid = make_grid(shape)
    n, spacing, k_steps = grid.n_total, grid.spacing, 3
    tg = build_timegrid(0.3, k_steps)
    dt = tg.dt
    rng = np.random.default_rng(43)
    spec = cost_spec(rng, n, True)
    m = rng.uniform(0.0, 1.0, (k_steps + 1, n))
    m0 = m[0] + rng.uniform(-1e-3, 1e-3, n)
    if obstacle == "heat_from_g":
        g_spec = {"kind": "local_power", "a": 0.5, "p": 1.0, "f0": rng.uniform(-0.5, 0.5, n)}
        g = np.stack([cost_of(g_spec, m_k, grid.cell_volume) for m_k in m])
        psi = backward_heat(grid, dt, g)
        op = ObstacleOperator.heat_source(cost_operator(grid, g_spec))
    else:
        psi = rng.uniform(-0.3, 0.3, (k_steps + 1, n))
        g = np.stack([(psi[k + 1] - psi[k]) / dt - neg_laplacian(shape, spacing, psi[k])
                      for k in range(k_steps)])
        op = ObstacleOperator.constant(FieldTrajectory(grid, tg, psi))
    u = below(rng, psi)
    u[k_steps] = psi[k_steps] + rng.uniform(-0.1, 0.1, n)
    f = [cost_of(spec, m[k], grid.cell_volume) for k in range(k_steps)]
    lap_u = [neg_laplacian(shape, spacing, u[k]) for k in range(k_steps)]
    expected = reference_residuals(shape, spacing, dt, u, m, f, psi, g, lap_u, DELTA_C)
    expected["r_terminal"] = max(abs(a - b) for a, b in zip(u[k_steps], psi[k_steps]))
    expected["r_initial"] = max(abs(a - b) for a, b in zip(m[0], m0))
    report = verify_mixed_evolutive(FieldTrajectory(grid, tg, u), FieldTrajectory(grid, tg, m),
                                    cost_operator(grid, spec), op, ScalarField(grid, m0),
                                    delta_c=DELTA_C)
    assert_matches(report, expected)


@pytest.mark.parametrize("shape", GRIDS.values(), ids=GRIDS.keys())
def test_controlled_verifier_without_h_matches_the_reference(shape):
    # with beta = 0 the Hamiltonian and its drift vanish: the evolutive
    # conditions with psi = g = 0, and the pairing with phi = u is
    # sum_k dt <(u_k - u_{k+1})/dt - lap u_k, m_{k+1}> - <u_0, m_0>
    grid = make_grid(shape)
    n, spacing, k_steps = grid.n_total, grid.spacing, 2
    tg = build_timegrid(0.2, k_steps)
    rng = np.random.default_rng(47)
    spec = cost_spec(rng, n, True)
    zero = np.zeros((k_steps + 1, n))
    u = below(rng, zero)
    m = rng.uniform(0.0, 1.0, (k_steps + 1, n))
    f = [cost_of(spec, m[k], grid.cell_volume) for k in range(k_steps)]
    lap_u = [neg_laplacian(shape, spacing, u[k]) for k in range(k_steps)]
    expected = reference_residuals(shape, spacing, tg.dt, u, m, f, zero, zero, lap_u, DELTA_C)
    expected["r_hjb"] = expected.pop("r_obstacle")
    del expected["r_duality"]
    diagnostic = -pairing(u[0], m[0], grid.cell_volume)
    for k in range(k_steps):
        l_u = (u[k] - u[k + 1]) / tg.dt + lap_u[k]
        diagnostic += tg.dt * pairing(l_u, m[k + 1], grid.cell_volume)
    report = verify_cosmfg(FieldTrajectory(grid, tg, u), FieldTrajectory(grid, tg, m),
                           cost_operator(grid, spec),
                           Hamiltonian.smoothed_norm(ScalarField.zeros(grid)),
                           ScalarField(grid, m[0]), delta_c=DELTA_C)
    assert_matches(report, expected)
    assert report.duality_diagnostic == pytest.approx(diagnostic, **TOL)


@pytest.mark.parametrize("kind", ["smoothed_norm", "quadratic"])
@pytest.mark.parametrize("shape", GRIDS.values(), ids=GRIDS.keys())
def test_controlled_verifier_matches_the_reference_hamiltonian_terms(shape, kind):
    # H(x, D_sel u_k) in the value equations and -div(m_{k+1} b_k) in the
    # density equations, from hamiltonian_terms; the pairing with phi = u
    # is sum_k dt (<(u_k - u_{k+1})/dt - lap u_k, m_{k+1}>
    # + <u_k, -div(m_{k+1} b_k)>) - <u_0, m_0>
    grid = make_grid(shape)
    n, spacing, k_steps = grid.n_total, grid.spacing, 3
    tg = build_timegrid(0.3, k_steps)
    rng = np.random.default_rng(53)
    spec = cost_spec(rng, n, True)
    zero = np.zeros((k_steps + 1, n))
    u = below(rng, zero)
    # some nodes above the obstacle, so that boundary faces carry flux
    above = rng.random(u.shape) < 0.2
    u[above] = rng.uniform(0.01, 0.3, np.count_nonzero(above))
    m = rng.uniform(0.0, 1.0, (k_steps + 1, n))
    if kind == "smoothed_norm":
        beta = rng.uniform(0.5, 2.0, n) * (rng.random(n) < 0.8)
        ham = Hamiltonian.smoothed_norm(ScalarField(grid, beta))
    else:
        beta, ham = None, Hamiltonian.quadratic(grid, outside_assumptions=True)
    terms = [hamiltonian_terms(shape, spacing, beta, u[k], m[k + 1]) for k in range(k_steps)]
    lap_u = [neg_laplacian(shape, spacing, u[k]) for k in range(k_steps)]
    f = [cost_of(spec, m[k], grid.cell_volume) for k in range(k_steps)]
    expected = reference_residuals(shape, spacing, tg.dt, u, m, f, zero, zero,
                                   [lap + h_vals for lap, (h_vals, _) in zip(lap_u, terms)],
                                   DELTA_C, div_m=[div for _, div in terms])
    expected["r_hjb"] = expected.pop("r_obstacle")
    del expected["r_duality"]
    diagnostic = -pairing(u[0], m[0], grid.cell_volume)
    for k, (_, div) in enumerate(terms):
        l_u = (u[k] - u[k + 1]) / tg.dt + lap_u[k]
        diagnostic += tg.dt * (pairing(l_u, m[k + 1], grid.cell_volume)
                               + pairing(u[k], div, grid.cell_volume))
    report = verify_cosmfg(FieldTrajectory(grid, tg, u), FieldTrajectory(grid, tg, m),
                           cost_operator(grid, spec), ham, ScalarField(grid, m[0]),
                           delta_c=DELTA_C)
    assert_matches(report, expected)
    assert report.duality_diagnostic == pytest.approx(diagnostic, **TOL)


def verifier_inputs(verifier, grid, other):
    """A verifier and its arguments on grid, with the item named by
    other (or none) moved to another grid with the same node count."""
    n, k_steps = grid.n_total, 2
    tg = build_timegrid(0.2, k_steps)
    moved = make_grid(grid.n_interior, upper=2.0)

    def on(name):
        return moved if name == other else grid

    rng = np.random.default_rng(53)
    cost = CostOperator.local_power(on("cost"), 1.0, 1.0, ScalarField.constant(on("cost"), -0.5))
    if verifier == "verify_mixed":
        u, m = (ScalarField(on(name), rng.uniform(-1.0, 0.0, n)) for name in ("u", "m"))
        return verify_mixed, (u, m, cost, ScalarField.constant(on("m0"), 1.0))
    u, m = (FieldTrajectory(on(name), tg, rng.uniform(-1.0, 0.0, (k_steps + 1, n)))
            for name in ("u", "m"))
    m0 = ScalarField(on("m0"), m.array()[0])
    if verifier == "verify_mixed_evolutive":
        return verify_mixed_evolutive, (u, m, cost, ObstacleOperator.zero(grid, tg), m0)
    ham = Hamiltonian.smoothed_norm(ScalarField.constant(on("hamiltonian"), 1.0))
    return verify_cosmfg, (u, m, cost, ham, m0)


CASES = [(verifier, other)
         for verifier in ("verify_mixed", "verify_mixed_evolutive", "verify_cosmfg")
         for other in ("m", "cost", "m0") + (("hamiltonian",) if verifier == "verify_cosmfg"
                                             else ())]


@pytest.mark.parametrize("verifier, other", CASES, ids=[f"{v}-{o}" for v, o in CASES])
def test_verifiers_reject_data_on_another_grid(verifier, other):
    # the other grid has the node count of the candidate's, so every
    # array would fit; rho stands in for m0 in the stationary verifier
    grid = make_grid((15,))
    func, args = verifier_inputs(verifier, grid, None)
    func(*args)
    func, args = verifier_inputs(verifier, grid, other)
    with pytest.raises(ValueError, match="one grid"):
        func(*args)


def test_trajectories_on_another_time_grid_are_rejected():
    grid = make_grid((15,))
    func, (u, m, cost, op, m0) = verifier_inputs("verify_mixed_evolutive", grid, None)
    longer = FieldTrajectory(grid, build_timegrid(0.4, 2), m.array())
    with pytest.raises(ValueError, match="time grid"):
        func(u, longer, cost, op, m0)


@pytest.mark.parametrize("verifier", ["verify_mixed", "verify_mixed_evolutive", "verify_cosmfg"])
def test_a_nan_in_the_candidate_shows_in_the_report(verifier):
    # one NaN node in the value (in its slice K-1 for a trajectory)
    grid = make_grid((15,))
    func, (u, *rest) = verifier_inputs(verifier, grid, None)
    if verifier == "verify_mixed":
        values = np.array(u.values)
        values[3] = np.nan
        u = ScalarField(grid, values)
    else:
        values = np.array(u.array())
        values[-2, 3] = np.nan
        u = FieldTrajectory(grid, u.timegrid, values)
    report = func(u, *rest).to_dict()
    assert np.isnan(report["r_hjb" if verifier == "verify_cosmfg" else "r_obstacle"])


@pytest.mark.parametrize("field", range(5))
def test_max_residual_is_nan_for_a_nan_residual(field):
    # a NaN in any of the five residuals, not only the first, so that no
    # gate on max_residual confirms on it
    residuals = [0.0] * 5
    residuals[field] = float("nan")
    assert np.isnan(MixedSolutionReport(*residuals, 1e-12, {}).max_residual)
