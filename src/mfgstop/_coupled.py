"""Shared solver and verifier core for the time-dependent coupled systems.

The penalized forward-backward system is solved by a semismooth Newton
method on the joint space-time unknowns (value trajectory, density
trajectory), with the exit rate realized as a continuous ramp across
the classification band (a concrete selection of the free interior
alpha). Solving the pair jointly is what keeps contact plateaus
stable; split forward/backward sweeps flap on the free-boundary
classification.

Every obstacle is solved in the shifted value w = u - psi(m): with
L u_k = (u_k - u_{k+1})/dt + A0 u_k, both obstacle kinds give
L psi_k = -g_k (g_k = g(m_k) for an obstacle generated from a source g
by the backward heat equation, heat_from_g; data for a fixed psi), so w
solves the zero-obstacle system with source f(m_k) + g_k and w_K = 0,
and psi(m) is evaluated only to rebuild u from the final density. The
Hamiltonian value at the upwind gradient and the induced face drift are
Newton terms as well, with their derivatives in the Jacobian; they
take the zero obstacle, on which w = u. Only the classification band
is fixed, once per penalty stage from the stage-entry iterate, as in
the stationary solver; each stage is one Newton solve.

On grids of dim >= 2 without a Hamiltonian, each linear Newton step of
the joint system (not a split of the nonlinear one) is solved by time
sweeps: the value block of the Jacobian is block upper bidiagonal in
time and the density block block lower bidiagonal, so each is inverted
by one backward or forward sweep of N x N slice solves, and the
coupling is eliminated through the density Schur complement
(stationary._schur_step), as in the iterative strategies of Achdou and
Perez for linearized discrete MFG systems (Netw. Heterog. Media 7(2),
2012). 1D grids and the controlled system factor the whole space-time
Jacobian.

Discrete pairing conventions (they close the duality identity exactly,
see the verifiers): the value equation at slice k uses source f(m_k)
(f(m_k) + g_k for w) for k = 0..K-1; the density step k -> k+1 uses
the exit rate ramped from slice k; time integrals pair slice-k
integrands with m_{k+1}.

The controlled system is the evolutive one with the zero obstacle plus
a Hamiltonian term and its induced drift, in the solver and in the
verifier alike: _hamiltonian_terms is the one source of H and of the
drift operator, and _slice_residuals the one slice-residual core.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag as dense_block_diag

from .costs import CostOperator
from .density import FaceVelocities, _drift_triplets
from .grid import (
    FieldTrajectory,
    Grid,
    ScalarField,
    TimeGrid,
    _face_nodes,
    _gradient_matrices,
    elliptic_matrix,
)
from .obstacle import _shifted_factor, diagonal_update, semismooth_newton
from .stationary import (
    CoupledConfig,
    CoupledNonConvergence,
    PenalizedTriple,
    _BlockJacobian,
    _ramp,
    _schur_step,
    _whole_step,
)

__all__ = ["forward_backward_solve"]


def _node_gradients(grid: Grid, u: np.ndarray):
    """Per-axis forward and backward differences with Dirichlet closure
    of the slices u, shaped (..., N)."""
    one_sided, _ = _gradient_matrices(grid)
    fwd = [(f @ u.T).T for _, f in one_sided]
    bwd = [(b @ u.T).T for b, _ in one_sided]
    return fwd, bwd


def _upwind_hamiltonian(grid: Grid, hamiltonian, u: np.ndarray):
    """Upwind nodal H(x, Du) of the slices u (..., N): the difference
    choice follows the sign of D_pH.

    The selection is iterated to a fixed point from p = 0, for at most
    four passes, so that the solver and the verifier resolve it
    identically. Returns the values, the selected gradient p and, per
    axis, the mask of the nodes that take the backward difference.
    """
    fwd, bwd = _node_gradients(grid, u)
    p = [np.zeros(u.shape) for _ in range(grid.dim)]
    backward = None
    for _ in range(4):
        v = hamiltonian.gradient(p)
        backward = [v[a] > 0 for a in range(grid.dim)]
        p_new = [np.where(backward[a], bwd[a], fwd[a]) for a in range(grid.dim)]
        settled = all(np.array_equal(p_new[a], p[a]) for a in range(grid.dim))
        p = p_new
        if settled:
            break
    return hamiltonian.value(p), p, backward


def _face_gradients(grid: Grid, u: np.ndarray):
    """Per axis, the gradient components on that axis' faces of the
    slices u (..., N), shaped (..., *axis face shape): the normal one
    from the face difference, the transverse one (2D) averaged from
    nodal central differences."""
    _, face_grad = _gradient_matrices(grid)
    out = []
    for axis, mats in enumerate(face_grad):
        out.append([(g @ u.T).T.reshape(u.shape[:-1] + grid.face_shape(axis)) for g in mats])
    return out


def _face_drift(grid: Grid, hamiltonian, u: np.ndarray):
    """D_pH(x, grad u) on the faces of the slices u (..., N): per axis an
    array shaped (..., *axis face shape)."""
    return tuple(hamiltonian.gradient(p_face, weight=hamiltonian.face_weight(grid, axis))[axis]
                 for axis, p_face in enumerate(_face_gradients(grid, u)))


def _hamiltonian_terms(grid: Grid, hamiltonian, u_arr: np.ndarray):
    """Hamiltonian data of the value slices 0..K-1 of u_arr, evaluated on
    the whole (K, N) array: upwind values H(x, Du_k) as a (K, N) array,
    and one block-diagonal (KN, KN) operator m_k -> -div(m_k b_k) of the
    face drifts b_k = D_pH(x, grad u_k). Without a Hamiltonian: zeros
    and no operator."""
    steps = len(u_arr) - 1
    if hamiltonian is None:
        return np.zeros((steps, grid.n_total)), None
    u = u_arr[:steps]
    rows, cols, vals = _drift_triplets(grid, _face_drift(grid, hamiltonian, u))
    size = steps * grid.n_total
    return (_upwind_hamiltonian(grid, hamiltonian, u)[0],
            sp.csr_matrix((vals, (rows, cols)), shape=(size, size)))


def _pair_stencil(a, b):
    """Positions of a.T @ diag(w) @ b for sparse a and b with one row
    per face (or node): rows, columns, coefficients and faces such that
    the product is the sum of coefficient * w[face] at (row, column)."""
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    face = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    partners = np.diff(b.indptr)[face]
    ia = np.repeat(np.arange(a.nnz), partners)
    ib = (np.repeat(b.indptr[face] - (np.cumsum(partners) - partners), partners)
          + np.arange(partners.sum()))
    return a.indices[ia], b.indices[ib], a.data[ia] * b.data[ib], face[ia]


def _hamiltonian_jacobian(grid: Grid, hamiltonian, k_steps: int):
    """Positions of the derivatives of the Hamiltonian terms in the joint
    Jacobian (value rows from 0, density rows from n_u = K N), and
    values(u, m), their values at the value slices u_0..u_{K-1} and the
    density slices m_1..m_K:

    - value rows, u_k: D_pH(x, p) . D_sel, with p and the upwind
      differences D_sel selected by _upwind_hamiltonian;
    - density rows, m_{k+1}: the drift operator div_k itself;
    - density rows, u_k: per face the slope of the upwind flux in b
      (m on the side the flux takes) times D_ppH times the stencils of
      the face gradient (the face difference, and in 2D the transverse
      average of central differences).
    """
    n = grid.n_total
    one_sided, face_grad = _gradient_matrices(grid)
    identity = sp.identity(n, format="csr")
    node_stencils = [_pair_stencil(identity, d) for pair in one_sided for d in pair]
    face_stencils = [_pair_stencil(mats[axis], g)
                     for axis, mats in enumerate(face_grad) for g in mats]

    n_u = k_steps * n
    offset = n * np.arange(k_steps)[:, None]
    drift_rows, drift_cols, _ = _drift_triplets(
        grid, [np.zeros((k_steps, mats[0].shape[0])) for mats in face_grad])
    rows = np.concatenate([(offset + s[0]).ravel() for s in node_stencils]
                          + [(n_u + offset + s[0]).ravel() for s in face_stencils]
                          + [n_u + drift_rows])
    cols = np.concatenate([(offset + s[1]).ravel() for s in node_stencils + face_stencils]
                          + [n_u + drift_cols])

    def values(u, m):
        _, p, backward = _upwind_hamiltonian(grid, hamiltonian, u)
        slope = hamiltonian.gradient(p)
        weights = []
        for axis in range(grid.dim):
            weights += [np.where(backward[axis], slope[axis], 0.0),
                        np.where(backward[axis], 0.0, slope[axis])]
        # m with a zero column last, so that index -1 (outside) reads 0
        m_pad = np.pad(m, ((0, 0), (0, 1)))
        drift = []
        for axis, p_face in enumerate(_face_gradients(grid, u)):
            beta = hamiltonian.face_weight(grid, axis)
            b = hamiltonian.gradient(p_face, weight=beta)[axis]
            hess = hamiltonian.hessian(p_face, weight=beta)[axis]
            left, right = _face_nodes(grid, axis)
            b_flat = b.reshape(k_steps, -1)
            flux_slope = np.where(b_flat > 0, m_pad[:, right], m_pad[:, left])
            weights += [flux_slope * h_c.reshape(k_steps, -1) for h_c in hess]
            drift.append(b)
        vals = [s[2] * w[:, s[3]] for s, w in zip(node_stencils + face_stencils, weights)]
        return np.concatenate(vals + [_drift_triplets(grid, drift)[2]], axis=None)

    return rows, cols, values


def _slice_residuals(grid: Grid, dt: float, cost: CostOperator, u_arr, m_arr, psi_arr, g_arr,
                     h_vals, div, delta_c: float):
    """Slice-by-slice residuals shared by the time-dependent verifiers.

    With f_k = f(m_k), L u_k = (u_k - u_{k+1})/dt + A0 u_k + H_k and
    (H_k, div) from _hamiltonian_terms, returns the max over slices of
    |min(psi_k - u_k, f_k - L u_k)| (complementarity), of the density
    residual (m_{k+1} - m_k)/dt + (A0 + div_k) m_{k+1} on the
    continuation set {u_k - psi_k < -delta_c} and of its positive part
    (subsolution), then the sums of dt <f_k + g_k, m_{k+1}> over the
    contact set and over all nodes.
    """
    a0 = elliptic_matrix(grid, with_zero_order=False)
    vol = grid.cell_volume
    steps = len(h_vals)
    drift_m = None if div is None else (div @ m_arr[1:].ravel()).reshape(steps, -1)
    r_comp = 0.0
    r_cont = 0.0
    r_sub = 0.0
    contact_sum = 0.0
    total_sum = 0.0
    for k in range(steps):
        f_k = cost.evaluate(m_arr[k])
        lu = (u_arr[k] - u_arr[k + 1]) / dt + a0 @ u_arr[k] + h_vals[k]
        comp = np.minimum(psi_arr[k] - u_arr[k], f_k - lu)
        r_comp = max(r_comp, float(np.max(np.abs(comp))))
        fp_resid = (m_arr[k + 1] - m_arr[k]) / dt + a0 @ m_arr[k + 1]
        if drift_m is not None:
            fp_resid = fp_resid + drift_m[k]
        continuation = u_arr[k] - psi_arr[k] < -delta_c
        contact = ~continuation
        r_cont = max(r_cont, float(np.max(np.abs(fp_resid[continuation]), initial=0.0)))
        r_sub = max(r_sub, float(np.max(fp_resid, initial=0.0)))
        integrand = (f_k + g_arr[k]) * m_arr[k + 1]
        contact_sum += dt * float(np.sum(integrand[contact])) * vol
        total_sum += dt * float(np.sum(integrand)) * vol
    return r_comp, r_cont, r_sub, contact_sum, total_sum


def forward_backward_solve(
    cost: CostOperator,
    m0: ScalarField,
    timegrid: TimeGrid,
    epsilon: float,
    config: CoupledConfig | None = None,
    *,
    obstacle_op,
    hamiltonian=None,
    m_traj_init: np.ndarray | None = None,
    warm: PenalizedTriple | None = None,
    strict: bool = True,
) -> PenalizedTriple:
    """Solve the penalized forward-backward system at one penalty level.

    The solve runs in the shifted value w = u - psi(m). Every obstacle
    kind has L psi_k = -g_k (ObstacleOperator.apply_arrays), so w solves
    the zero-obstacle system with source f(m_k) + g_k and w_K = 0:
    g_k = g(m_k) for a heat_from_g obstacle, data for a fixed one. The
    classification band is fixed from the start iterate by config.band,
    with the scale max over slices 0..K-1 of |f(m_k) + g_k|; then one
    joint semismooth Newton resolves the system in the stacked unknowns
    (w_0..w_{K-1}, m_1..m_K), and u = w + psi(m) is rebuilt from the
    final density. The Hamiltonian value and the face drift are
    evaluated at every Newton iterate; they need the zero obstacle, on
    which w = u (the controlled system passes it), and any other
    obstacle with a hamiltonian raises ValueError. Local costs only;
    nonlocal couplings have no nodal derivative for the Newton blocks.
    Each Newton step is the solve of _frozen_system: time sweeps and a
    density Schur complement on grids of dim >= 2 without a
    Hamiltonian, the LU of the whole Jacobian otherwise.

    The start is the density trajectory m_traj_init (default m0 in
    every slice) and w = 0. A warm start, the previous stage's
    solution, replaces both: its m and w = u - psi(m), with the ramp
    position of w (hence the exit rate) kept continuous by rescaling
    band nodes from its band to the new one. The solve has converged
    when the final Newton residual norm is at most config.tol_pde;
    strict=False returns the last iterate with converged=False instead
    of raising (used for warm-up continuation stages).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not cost.is_local:
        raise ValueError("time-dependent solvers require a local cost operator")
    cfg = config or CoupledConfig()
    grid = m0.grid
    if np.any(m0.values < -1e-12):
        raise ValueError("m0 must be nonnegative")
    steps = timegrid.n_steps
    g_cost = obstacle_op.g_cost if obstacle_op.kind == "heat_from_g" else None

    if warm is not None:
        m_traj_init = warm.m.array()
    m_arr = (np.tile(m0.values, (steps + 1, 1)) if m_traj_init is None
             else np.array(m_traj_init, dtype=float, copy=True))
    m_arr[0] = m0.values
    psi_arr, g_arr = obstacle_op.apply_arrays(grid, timegrid, m_arr)
    if hamiltonian is not None and np.any(psi_arr):
        raise ValueError("a Hamiltonian needs the zero obstacle")
    f_arr = cost.evaluate(m_arr)
    band = cfg.band(epsilon, float(np.max(np.abs(f_arr[:steps] + g_arr[:steps]))))
    if warm is None:
        w_arr = np.zeros((steps, grid.n_total))
    else:
        w_arr = warm.u.array()[:steps] - psi_arr[:steps]
        w_arr[np.abs(w_arr) <= warm.delta_band] *= band / warm.delta_band

    residual, jacobian, solve, unstack = _frozen_system(
        cost, g_cost, g_arr[:steps], hamiltonian, grid, m0.values, timegrid.dt, epsilon, band)
    x0 = np.concatenate([w_arr.ravel(), m_arr[1:].ravel()])
    target = min(cfg.tol_pde, 1e-10) * (1.0 + float(np.max(np.abs(f_arr))))
    x, norms, iterations = semismooth_newton(residual, jacobian, x0, target, cfg.max_outer,
                                             solve=solve)
    converged = norms[-1] <= cfg.tol_pde
    if strict and not converged:
        raise CoupledNonConvergence("forward-backward Newton did not converge", norms)

    w_arr, m_arr = unstack(x)
    u_arr = w_arr + obstacle_op.apply_arrays(grid, timegrid, m_arr)[0]
    rate = _ramp(w_arr[:steps] / band) / epsilon
    drift = None
    if hamiltonian is not None:
        comps = _face_drift(grid, hamiltonian, u_arr[:steps])
        drift = tuple(FaceVelocities(grid, tuple(c[k] for c in comps)) for k in range(steps))
    return PenalizedTriple(
        u=FieldTrajectory(grid, timegrid, u_arr),
        m=FieldTrajectory(grid, timegrid, m_arr),
        alpha=FieldTrajectory(grid, timegrid,
                              np.clip(np.vstack([rate, rate[-1:]]) * epsilon, 0.0, 1.0)),
        drift=drift,
        epsilon=epsilon,
        iterations=iterations,
        residual_history=norms,
        delta_band=band,
        converged=converged,
    )


def _frozen_system(cost, g_cost, g_arr, hamiltonian, grid, m0_vals, dt, epsilon, band):
    """Residual, Jacobian, Newton solve and unstacking of the
    forward-backward system in the shifted value w = u - psi at one
    penalty level with the classification band frozen.

    Unknowns x = [w_0..w_{K-1}, m_1..m_K], with K = len(g_arr); w_K = 0
    and m_0 are data. The value equations carry the penalty w^+/eps, the
    upwind Hamiltonian H(x, D_sel w_k) and the source f(m_k) + g_k, with
    g_k = g_cost(m_k) for a heat_from_g obstacle (g_cost given) and the
    data g_arr[k] otherwise; the density equations carry the ramped exit
    rate and the drift term div_k(w_k) m_{k+1}.

    Everything is built once here: the static part from Kronecker
    products over the time slices, B = A0 + I/dt on every diagonal block
    with -I/dt above it for w and below it for m, and the positions of
    the value-dependent Jacobian entries. The residual is static @ x
    plus the data slice m_0 plus nodewise terms on whole (K, N) arrays
    plus, with a Hamiltonian, div_k(w_k) m_{k+1} from
    _hamiltonian_terms. jacobian(x) is a _BlockJacobian: the penalty
    indicator, the ramp slope times m, the ramped exit rate and the
    source derivative -(f'(m) + g'(m)) (-f'(m) for a fixed obstacle), as
    (K, N) and (K-1, N) arrays, with a Hamiltonian the blocks of
    _hamiltonian_jacobian in extra. Its matrix() adds them to the
    static part through one diagonal_update assembler, built on first
    use.

    solve(jacobian, rhs) is the Newton step. On grids of dim >= 2
    without a Hamiltonian the Jacobian is [[Ju, F], [S, Jm]]: Ju is
    block upper bidiagonal with B + diag(indicator_k) on the diagonal
    and -I/dt above it, so Ju^-1 is one backward sweep; Jm is block
    lower bidiagonal with B + diag(rate_k) and -I/dt below it, so Jm^-1
    is one forward sweep; S = diag(slope_k m_{k+1}) sits at (m_{k+1},
    w_k) and F, the source derivative, at (w_k, m_k). The step is
    _schur_step on these sweeps. Every slice block is factored on the
    cached order of B's pattern through obstacle._shifted_factor, and
    the blocks with d = 0 share the one factor of B that the process
    keeps per (grid, dt). On a GMRES miss the step falls back to the LU
    of the whole Jacobian. Otherwise every step is that LU.
    """
    a0 = elliptic_matrix(grid, with_zero_order=False)
    n = a0.shape[0]
    k_steps = len(g_arr)
    n_u = k_steps * n
    eye_dt = sp.identity(n, format="csr") / dt
    b_op = (a0 + eye_dt).tocsr()
    # slice couplings: w_{k+1} in the rows of slice k, m_k in the rows
    # of m_{k+1}
    upper = np.eye(k_steps, k=1)
    static = (sp.kron(sp.identity(2 * k_steps), b_op)
              - sp.kron(dense_block_diag(upper, upper.T), eye_dt)).tocsr()
    # the data slice m_0 enters the residual as a constant
    const = np.zeros(static.shape[0])
    const[n_u:n_u + n] = -m0_vals / dt

    def unstack(x):
        # value and density slices 0..K
        return (np.vstack([x[:n_u].reshape(k_steps, n), np.zeros((1, n))]),
                np.vstack([m0_vals[None, :], x[n_u:].reshape(k_steps, n)]))

    def source(m):
        return cost.evaluate(m) + (g_arr if g_cost is None else g_cost.evaluate(m))

    def residual(x):
        w, m = unstack(x)
        h_vals, div = _hamiltonian_terms(grid, hamiltonian, w)
        nodewise = [np.maximum(w[:k_steps], 0.0) / epsilon + h_vals - source(m[:k_steps]),
                    _ramp(w[:k_steps] / band) / epsilon * m[1:]]
        if div is not None:
            nodewise[1] = nodewise[1] + (div @ m[1:].ravel()).reshape(k_steps, n)
        return static @ x + const + np.concatenate(nodewise, axis=None)

    diag = np.arange(n_u)
    # rows and columns of: the penalty indicator (w_k, w_k), the ramp
    # slope times m (m_{k+1}, w_k), the exit rate (m_{k+1}, m_{k+1}) and
    # the source derivative (w_k, m_k) for k >= 1
    rows = [diag, n_u + diag, n_u + diag, diag[n:]]
    cols = [diag, diag, n_u + diag, n_u + diag[:-n]]
    hamiltonian_values = None
    if hamiltonian is not None:
        h_rows, h_cols, hamiltonian_values = _hamiltonian_jacobian(grid, hamiltonian, k_steps)
        rows.append(h_rows)
        cols.append(h_cols)

    @functools.cache
    def assembler():
        return diagonal_update(static, np.concatenate(rows), np.concatenate(cols))

    def jacobian(x):
        w, m = unstack(x)
        v = w[:k_steps]
        fprime = cost.derivative(m[1:k_steps])
        if g_cost is not None:
            fprime = fprime + g_cost.derivative(m[1:k_steps])
        extra = () if hamiltonian_values is None else (hamiltonian_values(v, m[1:]),)
        return _BlockJacobian(
            penalty=(v > 0).astype(float) / epsilon,
            slope=np.where(np.abs(v) < band, 0.5 / band, 0.0) * m[1:] / epsilon,
            rate=_ramp(v / band) / epsilon, fprime=-fprime, assembler=assembler, extra=extra)

    # in 1D the LU of the whole Jacobian beats the sweeps and the Schur
    # step: through them the perfbench evolutive_heat_g solve took
    # 0.124 s against 0.087 s, and the registry evolutive_psi0 0.81 s
    # against 0.52 s, with equal Newton counts (2-vCPU host)
    if grid.dim < 2 or hamiltonian is not None:
        return residual, jacobian, _whole_step, unstack

    def sweep(diagonals, backward):
        # Ju^-1 (backward) or Jm^-1 (forward): per slice the solve of
        # B + diag(d_k), B's cached factor where d_k vanishes, with the
        # -I/dt coupling to the slice solved before it
        factors = [_shifted_factor(grid, d, dt) for d in diagonals]
        order = range(k_steps - 1, -1, -1) if backward else range(k_steps)

        def solve(r):
            r = r.reshape(k_steps, n)
            out = np.empty_like(r)
            carry = np.zeros(n)
            for k in order:
                carry = out[k] = factors[k](r[k] + carry / dt)
            return out.ravel()

        return solve

    def block_solve(jac, rhs):
        def apply_f(dm):
            out = np.zeros((k_steps, n))
            out[1:] = jac.fprime * dm.reshape(k_steps, n)[:-1]
            return out.ravel()

        du, dm = _schur_step(sweep(jac.penalty, True), sweep(jac.rate, False),
                             jac.slope.ravel(), apply_f, rhs[:n_u], rhs[n_u:],
                             lambda: np.split(_whole_step(jac, rhs), 2))
        return np.concatenate([du, dm])

    return residual, jacobian, block_solve, unstack

