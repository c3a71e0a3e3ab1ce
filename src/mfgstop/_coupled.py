"""Shared solver and verifier core of the penalized coupled systems.

The penalized system is solved by a semismooth Newton method on the
joint unknowns (value, density), with the exit rate realized as a
continuous ramp across the classification band (a concrete selection
of the free interior alpha). Solving the pair jointly is what keeps
contact plateaus stable; split forward/backward sweeps flap on the
free-boundary classification. One builder, _frozen_system, makes the
Newton system of the K-slice forward-backward system and of the
stationary one, which is its one-slice case: dt = 1, m_0 = rho, and
the value source paired with the new density. One function,
_penalized_stage, runs a penalty stage of either: forward_backward_solve
is its K-slice call and stationary.penalized_coupled_solve its
one-slice call. The records of every coupled solve (PenalizedTriple,
CoupledNonConvergence) live here; stationary exports them.

Every obstacle is solved in the shifted value w = u - psi(m): with
L u_k = (u_k - u_{k+1})/dt + A0 u_k, both obstacle kinds give
L psi_k = -g_k (g_k = g(m_k) for an obstacle generated from a source g
by the backward heat equation, heat_from_g; data for a fixed psi), so w
solves the zero-obstacle system with source f(m_k) + g_k and w_K = 0,
and psi(m) is evaluated only to rebuild u from the final density. The
Hamiltonian value at the upwind gradient and the induced face drift are
Newton terms as well, with their derivatives in the Jacobian; they
take the zero obstacle, on which w = u. Only the classification band
is fixed, once per penalty stage from the stage-entry iterate; each
stage is one Newton solve, run to a looser target in the warm-up stages
of a continuation, which only start the next penalty (_WARM_UP).

The package steps time in one loop, _sweep, an implicit Euler sweep of
N x N slice solves: the Newton step's block sweeps below, the backward
heat image of a heat_from_g obstacle (evolutive.ObstacleOperator) and
the density flow (density.solve_density_parabolic) are its calls.

On grids of dim >= 2 without a Hamiltonian, each linear Newton step of
the joint system (not a split of the nonlinear one) is solved by time
sweeps: the value block of the Jacobian is block upper bidiagonal in
time and the density block block lower bidiagonal, so each is inverted
by one backward or forward _sweep (obstacle._shifted_factor factors the
slice blocks B + diag(d), which are symmetric positive definite, by
banded Cholesky), and the coupling is eliminated through the density
Schur complement (_schur_step), as in the iterative strategies of
Achdou and Perez for linearized discrete MFG systems (Netw. Heterog.
Media 7(2), 2012); the stationary step is the one-slice case of the
same solve.
The Schur complement is solved by the module's own restarted GMRES
(_gmres), whose last operator apply leaves the density step and the
value correction of the Newton step behind. 1D grids and the
controlled system factor the whole Jacobian, by banded LU on 1D grids
of up to 31 nodes at any K (obstacle._lu_factor).

Discrete pairing conventions (they close the duality identity exactly,
see the verifiers): the value equation at slice k uses source f(m_k)
(f(m_k) + g_k for w) for k = 0..K-1; the density step k -> k+1 uses
the exit rate ramped from slice k; time integrals pair slice-k
integrands with m_{k+1}.

The controlled system is the evolutive one with the zero obstacle plus
a Hamiltonian term and its induced drift, in the solver and in the
verifier alike: _hamiltonian_state is the one source of H and of the
face drift. The state is made once per Newton iterate, by the residual,
and the Jacobian at that iterate reuses it. The drift term
-div(m_k b_k) is applied to the density slices by their upwind face
fluxes, without a matrix (_divergence); in the Jacobian it is
D^T (diag(b+) S_R + diag(b-) S_L) per axis, laid out from the face
difference D and the face-node selectors S_L, S_R of
grid._gradient_matrices like the other Hamiltonian entries, whose
positions are kept per (grid, K) (_hamiltonian_positions), with its
values from _drift_values, which the drifted density steps share. The
diagonal_update assembler of the Jacobian is kept per structure
(_jacobian_assembler).

As _frozen_system is the one builder of the Newton systems,
_residuals is the one residual core of their verifiers: the stationary
verify_mixed is its one-slice call, verify_mixed_evolutive and
verify_cosmfg its K-slice calls, each after the package's one grid
check, grid._on_grid, which also checks the data and warm start of
every stage solver before its first Newton step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .costs import CostOperator
from .grid import (
    DELTA_C_FLOOR,
    FieldTrajectory,
    Grid,
    ScalarField,
    TimeGrid,
    _checked,
    _face_nodes,
    _gradient_matrices,
    _on_grid,
    default_contact_threshold,
    elliptic_matrix,
)
from .obstacle import (
    _lu_solve,
    _shifted_factor,
    _space_time_operator,
    diagonal_update,
    semismooth_newton,
)

__all__ = ["forward_backward_solve"]


# Newton step cap of every coupled solve, stationary or time-dependent
_MAX_OUTER = 3000

# Newton target of a warm-up penalty stage, relative to its epsilon: the
# next stage divides epsilon by 4, which puts its start residual at 9-140
# on the perfbench time-dependent inputs and 33-2100 on the K = 50
# registry ones, so a tighter warm start buys nothing (1e-2 sent one
# Schur step of a 31x31 stationary continuation to the whole LU; 1e-1
# moved a warm-up certificate by 100%; BENCH_45.json)
_WARM_UP = 1e-3


def _band(epsilon: float, scale: float) -> float:
    """The classification band around w = 0 at penalty epsilon for the
    source scale |ftilde|_inf: max(DELTA_C_FLOOR, epsilon * scale / 2).
    It is fixed once per penalty stage, from the stage-entry iterate;
    the band actually used is recorded on the result and fed to the
    verifier as its contact threshold."""
    return max(DELTA_C_FLOOR, 0.5 * epsilon * scale)


class CoupledNonConvergence(RuntimeError):
    def __init__(self, message: str, residual_history: list[float], stage: int | None = None):
        where = f" at stage {stage}" if stage is not None else ""
        tail = residual_history[-3:] if residual_history else []
        super().__init__(f"{message}{where}; last residuals {tail}")
        self.message = message
        self.residual_history = residual_history
        self.stage = stage


@dataclass(frozen=True, eq=False)
class PenalizedTriple:
    """(u, m, alpha) at one penalty level: ScalarFields for the
    stationary system, FieldTrajectorys for the time-dependent ones.
    iterations and residual_history (the norm of the start and after
    every step) are those of the level's one Newton solve. converged
    says that the last norm is at most tol_pde for a strict solve, and
    at most the looser target of a warm-up solve (strict=False), which
    stops at max(_WARM_UP epsilon, min(tol_pde, 1e-10)) (1 + max |f|)."""

    u: ScalarField | FieldTrajectory
    m: ScalarField | FieldTrajectory
    alpha: ScalarField | FieldTrajectory
    epsilon: float
    iterations: int
    residual_history: list[float]
    delta_band: float
    converged: bool = True

    def __post_init__(self):
        _checked(self.alpha.values, "alpha", 0, 1, slack=1e-12)
        _checked(self.delta_band, "delta_band", 0, above=True)


@dataclass(frozen=True, eq=False)
class _BlockJacobian:
    """The Newton Jacobian of a penalized coupled system at one iterate,
    [[Ju, F], [S, Jm]], by its value-dependent diagonals: the penalty
    indicator of Ju, S = diag(slope), the exit rate of Jm, and F =
    diag(fprime) for a local cost, the derivative of the source (-f'(m),
    or -(f'(m) + g'(m)) with a heat_from_g obstacle). For a nonlocal
    cost fprime is None: F is the bordered column -c1 of the unknown
    s = <w, m>. extra holds the values of that border (the column and
    the row -<w, .>) or of the Hamiltonian entries of the controlled
    system. matrix() assembles the whole Jacobian with the
    _jacobian_assembler of structure, built on first use and kept."""

    penalty: np.ndarray
    slope: np.ndarray
    rate: np.ndarray
    fprime: np.ndarray | None
    structure: tuple
    extra: tuple = ()

    def matrix(self):
        vals = [self.penalty, self.slope, self.rate]
        if self.fprime is not None:
            vals.append(self.fprime)
        return _jacobian_assembler(*self.structure)(
            np.concatenate(vals + list(self.extra), axis=None))


@functools.lru_cache(maxsize=8)
def _jacobian_assembler(grid: Grid, dt: float, k_steps: int, lag: int, with_h: bool,
                        bordered: bool):
    """The diagonal_update assembler of the Newton Jacobians of
    _frozen_system with this structure, built once and kept: the static
    part _space_time_operator(grid, dt, K), with a unit diagonal entry
    for the bordered unknown s, and the positions of the values of
    _BlockJacobian.matrix in their order: the penalty indicator
    (w_k, w_k), the ramp slope times m (m_{k+1}, w_k) and the exit rate
    (m_{k+1}, m_{k+1}); then the source derivative (w_k, m_{k+1-lag})
    where m_{k+1-lag} is an unknown, or, bordered, the column -c1 (w, s)
    and the row -<w, .> (s, m); then with a Hamiltonian the positions
    of _hamiltonian_positions. The static part holds no cost data, so
    the stages of a continuation and the systems of one grid share it.
    """
    n_u = k_steps * grid.n_total
    static = _space_time_operator(grid, dt, k_steps)
    diag = np.arange(n_u)
    rows = [diag, n_u + diag, n_u + diag]
    cols = [diag, diag, n_u + diag]
    if bordered:
        static = sp.block_diag([static, sp.identity(1)])
        rows += [diag, np.full(n_u, 2 * n_u)]
        cols += [np.full(n_u, 2 * n_u), n_u + diag]
    else:
        shift = lag * grid.n_total
        rows.append(diag[shift:])
        cols.append(n_u + diag[:n_u - shift])
    if with_h:
        h_rows, h_cols, _ = _hamiltonian_positions(grid, k_steps)
        rows.append(h_rows)
        cols.append(h_cols)
    return diagonal_update(static, np.concatenate(rows), np.concatenate(cols))


def _whole_step(jac, rhs):
    """The Newton step by the LU of the whole Jacobian jac.matrix()."""
    return _lu_solve(jac.matrix(), rhs)


def _sweep(factors, r, dt, backward):
    """The package's one time loop, an implicit Euler sweep over the
    slices of r (K, N): out_k = factors[k](r_k + out_prev / dt), out_prev
    the slice solved just before (zero at the first), for k from K - 1
    down to 0 (backward) or from 0 up (forward); (K, N). It inverts the
    block bidiagonal matrix with the inverses of factors on the diagonal
    and -I/dt above it (backward) or below it (forward)."""
    out = np.empty_like(r)
    prev = np.zeros(r.shape[1])
    for k in range(len(r) - 1, -1, -1) if backward else range(len(r)):
        prev = out[k] = factors[k](r[k] + prev / dt)
    return out


def _gmres(apply, b):
    """x with |b - apply(x)| <= 1e-13 |b| by GMRES from x = 0, or None.

    Up to two cycles of 50 Arnoldi steps, the second restarted from the
    first's iterate. Each Arnoldi step orthogonalizes apply(v) against
    the kept basis rows by classical Gram-Schmidt done twice; Givens
    rotations on Python floats reduce the Hessenberg column, and a cycle
    ends when the rotated residual is at most the tolerance (a happy
    breakdown among them) or after 50 steps, by back substitution on
    the triangle and the true residual b - apply(x). So the last call
    of apply is at the returned x. None if both cycles miss, and at once
    if a norm is not finite or a rotated column vanishes. b is nonzero.
    """
    norm = np.linalg.norm(b)
    tol = 1e-13 * norm
    x, r = np.zeros_like(b), b
    for _cycle in range(2):
        basis = np.empty((51, len(b)))
        basis[0] = r / norm
        rhs, rotations, columns = [float(norm)], [], []
        for j in range(50):
            w = apply(basis[j])
            h = basis[:j + 1] @ w
            w = w - h @ basis[:j + 1]
            h2 = basis[:j + 1] @ w
            w -= h2 @ basis[:j + 1]
            h_next = float(np.linalg.norm(w))
            col = (h + h2).tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            d = math.hypot(col[j], h_next)
            if not 0.0 < d < math.inf:
                return None
            c, s = col[j] / d, h_next / d
            rotations.append((c, s))
            columns.append(col[:j] + [d])
            rhs[j:] = c * rhs[j], -s * rhs[j]
            if abs(rhs[j + 1]) <= tol:
                break
            basis[j + 1] = w / h_next
        y = rhs[:len(columns)]
        for i in range(len(y) - 1, -1, -1):
            y[i] = (y[i] - sum(columns[k][i] * y[k] for k in range(i + 1, len(y)))) / columns[i][i]
        x = x + np.asarray(y) @ basis[:len(y)]
        r = b - apply(x)
        norm = np.linalg.norm(r)
        if norm <= tol:
            return x
        if not np.isfinite(norm):
            return None
    return None


def _schur_step(solve_u, solve_m, slope, apply_f, r_u, r_m, fallback):
    """Newton step (du, dm) of a block system [[Ju, F], [S, Jm]] with
    S = diag(slope), from the solves of its diagonal blocks.

    With du = Ju^-1 (r_u - F dm), dm solves the Schur complement
    (Jm - S Ju^-1 F) dm = r_m - S Ju^-1 r_u. _gmres solves it right-
    preconditioned by Jm, dm = Jm^-1 y, where the operator
    y -> y - S Ju^-1 F Jm^-1 y is the identity plus a matrix of rank at
    most the number of nonzeros of slope. Each apply of the operator
    keeps dm = Jm^-1 y and z = Ju^-1 F dm, and the last apply of _gmres
    is at the y it returns, so the step is (Ju^-1 r_u - z, dm) with no
    further sweep. Without nonzeros of slope, or at y = 0, the step is
    one apply at y and _gmres is not called. If _gmres returns None,
    the step is fallback().
    """
    u_r = solve_u(r_u)
    kept = []

    def schur(y):
        dm = solve_m(y)
        kept[:] = dm, solve_u(apply_f(dm))
        return y - slope * kept[1]

    y = r_m - slope * u_r
    if not (np.any(slope) and np.any(y)):
        schur(y)
    elif _gmres(schur, y) is None:
        return fallback()
    dm, z = kept
    return u_r - z, dm


def _ramp(s):
    """Piecewise-linear exit-rate profile across the classification band."""
    return np.clip(0.5 * (s + 1.0), 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class _HamiltonianState:
    """The Hamiltonian data of value slices u (K, N), made once by
    _hamiltonian_state and shared by the residual, the Jacobian and the
    verifier at one iterate:

    - values: the upwind H(x, D_sel u_k), (K, N);
    - slope, backward: per axis D_pH(x, p) at the selected gradient p,
      and the nodes that take the backward difference;
    - face_p, drift: per axis the face gradient components and the face
      drift b_k = D_pH(x, grad u_k), (K, *axis face shape), at the
      Hamiltonian's face weights; _divergence applies the drift to
      density slices.
    """

    values: np.ndarray
    slope: list
    backward: list
    face_p: list
    drift: tuple


def _hamiltonian_state(grid: Grid, hamiltonian, u: np.ndarray) -> _HamiltonianState:
    """The _HamiltonianState of the value slices u (K, N): the one place
    that evaluates the upwind H, the face gradients and the face drift.

    The upwind choice is made in one pass: along each axis a, a node
    takes the backward difference where D_pH(x, q)_a > 0, q the vector
    of the forward differences of u (Dirichlet closure), and the forward
    difference q_a elsewhere; H and the slope D_pH are then evaluated
    once at the selected gradient p. For both kinds D_pH(x, p)_a has the
    sign of p_a where beta > 0 and is 0 where beta = 0, so the backward
    difference is taken where q_a > 0 and beta > 0. At a local minimum
    along a (forward difference > 0 >= backward difference) neither
    difference has a D_pH of its own sign, and the rule takes the
    backward one. D_pH is evaluated 2 + dim times: for the choice, for
    the slope and for the drift on the faces of each axis.
    """
    one_sided, face_grad, _ = _gradient_matrices(grid)
    fwd = [(f @ u.T).T for _, f in one_sided]
    backward = [v > 0 for v in hamiltonian.gradient(fwd)]
    p = [np.where(bw, (b @ u.T).T, d) for (b, _), bw, d in zip(one_sided, backward, fwd)]
    face_p = [[(g @ u.T).T.reshape(u.shape[:-1] + grid.face_shape(axis)) for g in mats]
              for axis, mats in enumerate(face_grad)]
    drift = tuple(hamiltonian.gradient(p_face, weight=beta)[axis]
                  for axis, (p_face, beta) in enumerate(zip(face_p, hamiltonian.face_weights)))
    return _HamiltonianState(hamiltonian.value(p), hamiltonian.gradient(p), backward, face_p,
                             drift)


def _upwind_density(grid: Grid, drift, m: np.ndarray) -> list:
    """Per axis the density that the upwind flux through each face takes
    from the slices m (K, N) under the face drift b = drift[axis]: m_R
    where b > 0 and m_L elsewhere, 0 outside the grid; (K, faces)
    arrays. The flux b+ m_R + b- m_L is b times it, and its derivative
    in b is it."""
    # m with a zero column last, so that index -1 (outside) reads 0
    m_pad = np.zeros((len(m), m.shape[1] + 1))
    m_pad[:, :-1] = m
    out = []
    for axis, b in enumerate(drift):
        left, right = _face_nodes(grid, axis)
        out.append(np.where(b.reshape(len(m), -1) > 0, m_pad[:, right], m_pad[:, left]))
    return out


def _divergence(grid: Grid, drift, m: np.ndarray) -> np.ndarray:
    """-div(m_k b_k) of the density slices m (K, N) under the face drift
    b_k = drift[axis][k] (K, *axis face shape), without a matrix: the
    upwind fluxes F = b m_up (_upwind_density), and -diff(F) / h along
    each axis; (K, N)."""
    out = np.zeros((len(m),) + grid.shape)
    for axis, (b, m_up) in enumerate(zip(drift, _upwind_density(grid, drift, m))):
        out -= np.diff(b * m_up.reshape(b.shape), axis=axis + 1) / grid.spacing[axis]
    return out.reshape(len(m), -1)


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


@functools.lru_cache(maxsize=8)
def _hamiltonian_positions(grid: Grid, k_steps: int):
    """Positions of the derivatives of the Hamiltonian terms in the joint
    Jacobian of K slices (value rows from 0, density rows from
    n_u = K N), and the stencils that _hamiltonian_values fills in:

    - value rows, u_k: D_pH(x, p) . D_sel, with p and the upwind
      differences D_sel selected by _hamiltonian_state;
    - density rows, u_k: per face the slope of the upwind flux in b
      (m on the side the flux takes) times D_ppH times the stencils of
      the face gradient (the face difference, and in 2D the transverse
      average of central differences);
    - density rows, m_{k+1}: the drift operator div_k itself, per axis
      D^T diag(b-) S_L + D^T diag(b+) S_R with the face difference D
      and the face-node selectors S_L, S_R.

    Built once per (grid, K) and kept.
    """
    n = grid.n_total
    one_sided, face_grad, selectors = _gradient_matrices(grid)
    identity = sp.identity(n, format="csr")
    stencils = ([_pair_stencil(identity, d) for pair in one_sided for d in pair]
                + [_pair_stencil(mats[axis], g) for axis, mats in enumerate(face_grad)
                   for g in mats]
                + [_pair_stencil(mats[axis], s) for axis, mats in enumerate(face_grad)
                   for s in selectors[axis]])
    n_nodes = n_drift = 2 * grid.dim  # the node stencils come first, the drift last
    n_u = k_steps * n
    offset = n * np.arange(k_steps)[:, None]
    rows = np.concatenate([(offset + s[0]).ravel() for s in stencils[:n_nodes]]
                          + [(n_u + offset + s[0]).ravel() for s in stencils[n_nodes:]])
    cols = np.concatenate([(offset + s[1]).ravel() for s in stencils[:-n_drift]]
                          + [(n_u + offset + s[1]).ravel() for s in stencils[-n_drift:]])
    for arr in (rows, cols, *(a for s in stencils for a in s)):
        arr.flags.writeable = False
    return rows, cols, stencils


def _hamiltonian_values(grid: Grid, hamiltonian, state: _HamiltonianState, m: np.ndarray):
    """The values at the positions of _hamiltonian_positions of the
    derivatives of the Hamiltonian terms at the state of the value slices
    u_0..u_{K-1} and the density slices m_1..m_K: only D_ppH, the flux
    slope and the parts b+, b- of the face drift are computed, the rest
    is read from the state."""
    k_steps = len(m)
    weights = []
    for slope, backward in zip(state.slope, state.backward):
        weights += [np.where(backward, slope, 0.0), np.where(backward, 0.0, slope)]
    for axis, (p_face, flux_slope) in enumerate(
            zip(state.face_p, _upwind_density(grid, state.drift, m))):
        hess = hamiltonian.hessian(p_face, weight=hamiltonian.face_weights[axis])[axis]
        weights += [flux_slope * h_c.reshape(k_steps, -1) for h_c in hess]
    stencils = _hamiltonian_positions(grid, k_steps)[2]
    return np.concatenate([s[2] * w[:, s[3]] for s, w in zip(stencils, weights)]
                          + _drift_values(grid, state.drift), axis=None)


def _drift_values(grid: Grid, drift) -> list:
    """The values of the drift operators div_k of the face drift b_k =
    drift[axis][k] (K, *axis face shape) at the drift stencils of
    _hamiltonian_positions (its last 2 dim), for the Jacobian and the
    drifted density steps: per stencil its coefficients times b- (S_L)
    or b+ (S_R) at its faces, (K, entries)."""
    k_steps = len(drift[0])
    stencils = _hamiltonian_positions(grid, k_steps)[2][-2 * grid.dim:]
    out = []
    for b, left, right in zip(drift, stencils[::2], stencils[1::2]):
        b = b.reshape(k_steps, -1)
        out += [left[2] * np.minimum(b, 0.0)[:, left[3]],
                right[2] * np.maximum(b, 0.0)[:, right[3]]]
    return out


def _residuals(grid: Grid, dt: float, lag: int, cost: CostOperator, hamiltonian, u_arr, m_arr,
               psi_arr, g_arr, delta_c: float | None) -> dict:
    """The residual core of every verifier, on whole (K, N) arrays: the
    K-slice system of _frozen_system (lag 1), or the stationary one as
    its one-slice case (dt = 1, u_1 = 0, m_0 = rho, lag 0, and
    g = -A psi for an obstacle psi, so that f + g = f - A psi).

    u_arr, m_arr, psi_arr and g_arr hold the slices 0..K. With
    f_k = f(m_{k+1-lag}), L u_k = (u_k - u_{k+1})/dt + A0 u_k + H_k and
    r_k = (m_{k+1} - m_k)/dt + A0 m_{k+1} + div_k m_{k+1}, H_k and the
    face drift of div_k (_divergence) from one _hamiltonian_state of
    u_0..u_{K-1} (zero without a Hamiltonian),
    returns the report fields, maxima and sums over all slices and nodes:

    - r_obstacle: max |min(psi_k - u_k, f_k - L u_k)|;
    - r_continuation: max |r_k| on {u_k - psi_k < -delta_c};
    - r_subsolution: max r_k^+;
    - r_contact: |sum of dt <f_k + g_k, m_{k+1}> on the other nodes|;
    - r_duality: |that sum over all nodes - <u_0 - psi_0, m_0>|;
    - delta_c (grid.default_contact_threshold of u_arr and psi_arr for
      None) and the grid metadata; a NaN, infinite or negative delta_c
      raises ValueError, as it would misclassify the contact nodes;
    - with a Hamiltonian, pairing: the signed integration-by-parts
      pairing with phi = u, sum_k dt (<(u_k - u_{k+1})/dt + A0 u_k,
      m_{k+1}> + <u_k, div_k m_{k+1}>) - <u_0 - psi_0, m_0>.

    Pairings are sums times the cell volume.
    """
    steps = len(m_arr) - 1
    u, m, psi = u_arr[:steps], m_arr[1:], psi_arr[:steps]
    delta_c = (default_contact_threshold(u_arr, psi_arr) if delta_c is None
               else _checked(delta_c, "delta_c", 0))
    a0 = elliptic_matrix(grid, with_zero_order=False)
    vol = grid.cell_volume
    f = cost.evaluate(m_arr[1 - lag:steps + 1 - lag])
    l_u = (u - u_arr[1:]) / dt + (a0 @ u.T).T
    r_m = (m - m_arr[:-1]) / dt + (a0 @ m.T).T
    start = float(np.dot(u_arr[0] - psi_arr[0], m_arr[0])) * vol
    out = {}
    if hamiltonian is not None:
        state = _hamiltonian_state(grid, hamiltonian, u)
        div_m = _divergence(grid, state.drift, m)
        out["pairing"] = dt * float(np.sum(l_u * m + u * div_m)) * vol - start
        l_u = l_u + state.values
        r_m = r_m + div_m
    continuation = u - psi < -delta_c
    integrand = (f + g_arr[:steps]) * m
    return dict(
        out,
        r_obstacle=float(np.max(np.abs(np.minimum(psi - u, f - l_u)))),
        r_continuation=float(np.max(np.abs(r_m[continuation]), initial=0.0)),
        r_subsolution=float(np.max(r_m, initial=0.0)),
        r_contact=abs(dt * float(np.sum(integrand[~continuation])) * vol),
        r_duality=abs(dt * float(np.sum(integrand)) * vol - start),
        delta_c=float(delta_c), grid=grid.metadata())


def _penalized_stage(cost, g_cost, g_arr, hamiltonian, grid, m_arr, dt, epsilon, lag,
                     tol_pde, w_start, warm_band, strict):
    """One penalty stage of a coupled system: one semismooth Newton solve
    of _frozen_system in the shifted value w = u - psi(m), for the
    K-slice system (lag 1) and for the stationary one as its one-slice
    case (dt = 1, lag 0) alike.

    The start is the density slices m_arr (0..K, row 0 the data m_0)
    with the g slices g_arr (0..K-1) at them, and the value slices
    w_start (0..K-1). The classification band is fixed from it by
    _band, with the scale max over k < K of |f(m_{k+1-lag}) + g_k|.
    A warm start, the solution of the stage with band warm_band (None
    for a cold start), has its band nodes rescaled to the new band, so
    that the ramp position of w, hence the exit rate, stays continuous.
    A nonlocal cost appends the bordered unknown s = <w, m_1>. Newton
    runs to the target t (1 + max |f(m_arr[1-lag:])|), each step the
    solve of _frozen_system (time sweeps and a density Schur complement
    on grids of dim >= 2 without a Hamiltonian, the LU of the whole
    Jacobian otherwise), with the Hamiltonian terms evaluated once per
    iterate, for at most _MAX_OUTER steps. A strict stage, the one a
    continuation certifies, takes t = min(tol_pde, 1e-10) and has
    converged when its last residual norm is at most tol_pde; strict
    raises CoupledNonConvergence otherwise. A warm-up stage (strict
    False) only starts the next, smaller penalty, so it takes
    t = max(_WARM_UP epsilon, min(tol_pde, 1e-10)) and has converged
    when its last norm is at most its own target. A last norm that is
    not finite raises, strict or not, so no later stage starts from a
    NaN iterate.

    An epsilon or tol_pde that is not positive and finite raises
    ValueError before any Newton step (grid._checked).

    Returns the w and m slices 0..K of the last iterate and the other
    fields of the stage's PenalizedTriple (epsilon, iterations,
    residual_history, delta_band, converged).
    """
    epsilon = _checked(epsilon, "epsilon", 0, above=True)
    tol_pde = _checked(tol_pde, "tol_pde", 0, above=True)
    steps = len(m_arr) - 1
    f_arr = cost.evaluate(m_arr[1 - lag:])
    band = _band(epsilon, float(np.max(np.abs(f_arr[:steps] + g_arr))))
    w_arr = np.array(w_start, dtype=float)
    if warm_band is not None:
        w_arr[np.abs(w_arr) <= warm_band] *= band / warm_band
    x0 = [w_arr.ravel(), m_arr[1:].ravel()]
    if not cost.is_local:
        x0.append([(cost.weight.values * grid.cell_volume) @ m_arr[1]])
    residual, jacobian, solve, unstack = _frozen_system(
        cost, g_cost, g_arr, hamiltonian, grid, m_arr[0], dt, epsilon, band, lag)
    tight = min(tol_pde, 1e-10)
    target = (tight if strict else max(_WARM_UP * epsilon, tight)) * (
        1.0 + float(np.max(np.abs(f_arr))))
    x, norms, iterations = semismooth_newton(residual, jacobian, np.concatenate(x0), target,
                                             _MAX_OUTER, solve=solve)
    converged = norms[-1] <= (tol_pde if strict else target)
    if not np.isfinite(norms[-1]) or strict and not converged:
        raise CoupledNonConvergence("penalized Newton did not converge", norms)
    return (*unstack(x), dict(epsilon=epsilon, iterations=iterations, residual_history=norms,
                              delta_band=band, converged=converged))


def forward_backward_solve(
    cost: CostOperator,
    m0: ScalarField,
    timegrid: TimeGrid,
    epsilon: float,
    tol_pde: float = 1e-8,
    *,
    obstacle_op,
    hamiltonian=None,
    warm: PenalizedTriple | None = None,
    strict: bool = True,
) -> PenalizedTriple:
    """Solve the penalized forward-backward system at one penalty level:
    the K-slice call of _penalized_stage.

    Every obstacle kind has L psi_k = -g_k (ObstacleOperator.apply_arrays),
    so w = u - psi(m) solves the zero-obstacle system with source
    f(m_k) + g_k and w_K = 0: g_k = g(m_k) for a heat_from_g obstacle,
    data for a fixed one; u = w + psi(m) is rebuilt from the final
    density. The Hamiltonian terms need the zero obstacle, on which
    w = u (the controlled system passes it), and any other obstacle with
    a hamiltonian raises ValueError (control.face_drift gives the drift
    of the returned u). Local costs only; nonlocal couplings have no
    nodal derivative for the Newton blocks.

    The start is m0 in every slice and w = 0; a warm start, the
    previous stage's solution, replaces both by its m and
    w = u - psi(m). The cost, the obstacle's psi and g, the Hamiltonian
    and the warm start must lie on the grid of m0, and trajectories on
    timegrid, or ValueError is raised before any Newton step
    (grid._on_grid), as it is for an m0 that is not nonnegative and
    finite (grid._checked). A strict solve runs Newton to
    min(tol_pde, 1e-10) (1 + max |f|) and has converged when its
    residual norm is at most tol_pde, or raises CoupledNonConvergence.
    strict=False makes a warm-up continuation stage: Newton stops at the
    looser max(_WARM_UP epsilon, min(tol_pde, 1e-10)) (1 + max |f|), and
    the last iterate is returned, with converged saying whether it met
    that target, instead of raising.
    """
    if not cost.is_local:
        raise ValueError("time-dependent solvers require a local cost operator")
    grid = _on_grid(m0.grid, timegrid, cost, obstacle_op.psi, obstacle_op.g_cost, hamiltonian,
                    getattr(warm, "u", None), getattr(warm, "m", None))
    _checked(m0.values, "m0", 0, slack=1e-12)
    steps = timegrid.n_steps
    g_cost = obstacle_op.g_cost if obstacle_op.kind == "heat_from_g" else None

    m_arr = np.tile(m0.values, (steps + 1, 1)) if warm is None else warm.m.array().copy()
    m_arr[0] = m0.values
    psi_arr, g_arr = obstacle_op.apply_arrays(grid, timegrid, m_arr)
    if hamiltonian is not None and np.any(psi_arr):
        raise ValueError("a Hamiltonian needs the zero obstacle")
    if warm is None:
        w_start, warm_band = np.zeros((steps, grid.n_total)), None
    else:
        w_start, warm_band = warm.u.array()[:steps] - psi_arr[:steps], warm.delta_band

    w_arr, m_arr, stage = _penalized_stage(
        cost, g_cost, g_arr[:steps], hamiltonian, grid, m_arr, timegrid.dt, epsilon, 1,
        tol_pde, w_start, warm_band, strict)
    u_arr = w_arr + obstacle_op.apply_arrays(grid, timegrid, m_arr)[0]
    alpha = _ramp(w_arr[:steps] / stage["delta_band"])
    return PenalizedTriple(
        u=FieldTrajectory(grid, timegrid, u_arr),
        m=FieldTrajectory(grid, timegrid, m_arr),
        alpha=FieldTrajectory(grid, timegrid, np.vstack([alpha, alpha[-1:]])),
        **stage)


def _frozen_system(cost, g_cost, g_arr, hamiltonian, grid, m0_vals, dt, epsilon, band, lag):
    """Residual, Jacobian, Newton solve and unstacking of a penalized
    coupled system in the shifted value w = u - psi at one penalty level
    with the classification band frozen: the K-slice forward-backward
    system (lag 1), or the stationary one as its one-slice case (dt = 1,
    so B = A; m0_vals = rho; lag 0).

    Unknowns x = [w_0..w_{K-1}, m_1..m_K], with K = len(g_arr); w_K = 0
    and m_0 are data. The value equations carry the penalty w^+/eps, the
    upwind Hamiltonian H(x, D_sel w_k) and the source f(m_j) + g_k with
    j = k + 1 - lag, g_k = g_cost(m_j) for a heat_from_g obstacle and the
    data g_arr[k] otherwise; the density equations carry the ramped exit
    rate and the drift term div_k(w_k) m_{k+1}. A nonlocal cost
    f = c0 + c1 <w, m> (one slice only) enters through one bordered
    unknown s = <w, m_1> last in x: source c0 + c1 s, a row
    s - <w, m_1> = 0 and a column -c1 in the value rows.

    The residual is the static part obstacle._space_time_operator (B on
    the diagonal blocks, -I/dt above them for w and below them for m)
    times x, plus the data slice m_0 and nodewise terms on whole (K, N)
    arrays. jacobian(x) is a _BlockJacobian: the penalty indicator, the
    ramp slope times m, the exit rate and the source derivative
    -(f'(m) + g'(m)) (none for a nonlocal cost), with a Hamiltonian the
    values of _hamiltonian_values in extra (after the border values of
    a nonlocal cost), added to the static part by the diagonal_update
    assembler kept per structure (_jacobian_assembler). With a
    Hamiltonian the residual keeps its iterate and its
    _hamiltonian_state, and jacobian(x) reuses that state where x equals
    the kept iterate and makes a new one anywhere else.

    solve(jacobian, rhs) is the Newton step. On grids of dim >= 2
    without a Hamiltonian it is _schur_step on [[Ju, F], [S, Jm]]: Ju is
    block upper bidiagonal (B + diag(indicator_k), -I/dt above), so
    Ju^-1 is one backward sweep; Jm is block lower bidiagonal
    (B + diag(rate_k), -I/dt below), so Jm^-1 is one forward sweep;
    S = diag(slope_k m_{k+1}) and F sits at (w_k, m_{k+1-lag}). A
    nonlocal cost eliminates ds = r_s + <w, dm> first, so
    F dm = -c1 <w, dm> 1 and r_u gains c1 r_s. Slice blocks are factored
    by obstacle._shifted_factor, the blocks with d = 0 sharing the
    factor of B kept per (grid, dt). Where _gmres returns None, on 1D
    grids and with a Hamiltonian, the step is the LU of the whole
    Jacobian.
    """
    n = grid.n_total
    k_steps = len(g_arr)
    n_u = k_steps * n
    static = _space_time_operator(grid, dt, k_steps)
    # the data slice m_0 enters the residual as a constant
    const = np.zeros(2 * n_u)
    const[n_u:n_u + n] = -m0_vals / dt
    # quadrature weights of the pairing <w, m> of the bordered unknown,
    # and the values of its column -c1 and row -<w, .> in the Jacobian
    pair, border = None, ()
    if not cost.is_local:
        pair = cost.weight.values * grid.cell_volume
        border = (np.concatenate([np.full(n_u, -cost.c1), -pair]),)
    structure = (grid, dt, k_steps, lag, hamiltonian is not None, pair is not None)
    zero_h = np.zeros((k_steps, n))

    def unstack(x):
        # value and density slices 0..K
        return (np.vstack([x[:n_u].reshape(k_steps, n), np.zeros((1, n))]),
                np.vstack([m0_vals[None, :], x[n_u:2 * n_u].reshape(k_steps, n)]))

    def source(x, m):
        if pair is not None:
            return cost.c0 + cost.c1 * x[-1]
        m = m[1 - lag:k_steps + 1 - lag]
        return cost.evaluate(m) + (g_arr if g_cost is None else g_cost.evaluate(m))

    # the iterate of the last residual and its _HamiltonianState, which
    # the Jacobian reuses: Newton takes the Jacobian at the iterate whose
    # residual it accepted
    last = [None, None]

    def residual(x):
        w, m = unstack(x)
        h_vals = zero_h
        if hamiltonian is not None:
            last[:] = x.copy(), _hamiltonian_state(grid, hamiltonian, w[:k_steps])
            h_vals = last[1].values
        nodewise = [np.maximum(w[:k_steps], 0.0) / epsilon + h_vals - source(x, m),
                    _ramp(w[:k_steps] / band) / epsilon * m[1:]]
        if hamiltonian is not None:
            nodewise[1] = nodewise[1] + _divergence(grid, last[1].drift, m[1:])
        r = static @ x[:2 * n_u] + const + np.concatenate(nodewise, axis=None)
        return r if pair is None else np.append(r, x[-1] - pair @ m[1])

    def jacobian(x):
        w, m = unstack(x)
        v = w[:k_steps]
        fprime = None
        extra = border
        if pair is None:
            fprime = -cost.derivative(m[1:k_steps + 1 - lag])
            if g_cost is not None:
                fprime = fprime - g_cost.derivative(m[1:k_steps + 1 - lag])
        if hamiltonian is not None:
            state = (last[1] if np.array_equal(x, last[0])
                     else _hamiltonian_state(grid, hamiltonian, v))
            extra += (_hamiltonian_values(grid, hamiltonian, state, m[1:]),)
        return _BlockJacobian(
            penalty=(v > 0).astype(float) / epsilon,
            slope=np.where(np.abs(v) < band, 0.5 / band, 0.0) * m[1:] / epsilon,
            rate=_ramp(v / band) / epsilon, fprime=fprime, structure=structure, extra=extra)

    # on 31 nodes the 1D whole Jacobian takes banded LU at any K. At
    # K = 5 that beats the sweeps and the Schur step: through them the
    # perfbench evolutive_heat_g seed-0 solve took 0.018 s against
    # 0.008-0.013 s and scenario_nonexistence 0.010-0.011 s against
    # 0.005 s. At the registry's K = 50 the sweeps were faster:
    # evolutive_psi0 0.11-0.14 s against 0.16-0.26 s, with equal Newton
    # counts (in-process best of 3-5, 2-vCPU host; BENCH_38.json)
    if grid.dim < 2 or hamiltonian is not None:
        return residual, jacobian, _whole_step, unstack

    def sweep(diagonals, backward):
        # Ju^-1 (backward) or Jm^-1 (forward): _sweep on the factors of
        # B + diag(d_k), B's kept factor where d_k vanishes
        factors = [_shifted_factor(grid, d, dt) for d in diagonals]
        return lambda r: _sweep(factors, r.reshape(k_steps, n), dt, backward).ravel()

    def block_solve(jac, rhs):
        r_u, r_m = rhs[:n_u], rhs[n_u:2 * n_u]
        if pair is None:
            def apply_f(dm):
                out = np.zeros((k_steps, n))
                out[lag:] = jac.fprime * dm.reshape(k_steps, n)[:k_steps - lag]
                return out.ravel()
        else:
            r_u = r_u + cost.c1 * rhs[-1]

            def apply_f(dm):
                return np.full(n, -cost.c1 * (pair @ dm))

        du, dm = _schur_step(sweep(jac.penalty, True), sweep(jac.rate, False),
                             jac.slope.ravel(), apply_f, r_u, r_m,
                             lambda: np.split(_whole_step(jac, rhs)[:2 * n_u], 2))
        return np.concatenate([du, dm] if pair is None else [du, dm, [rhs[-1] + pair @ dm]])

    return residual, jacobian, block_solve, unstack
