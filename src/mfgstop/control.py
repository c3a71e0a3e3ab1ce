"""The controlled system: Hamilton-Jacobi-Bellman obstacle equation with
a convex Hamiltonian, drifted forward equation with killing, the coupled
solver, its verifier, and the Fenchel-conjugate control objective.

The drift fed to the density is D_pH(x, grad u) on faces; upwind
differences keep every system matrix an M-matrix, so positivity and
mass monotonicity survive the drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._coupled import _face_drift, _pad_axis, _upwind_hamiltonian, forward_backward_continuation
from .costs import CostOperator, PotentialOperator
from .density import FaceVelocities, drift_divergence_matrix
from .grid import (
    DELTA_C_FLOOR,
    FieldTrajectory,
    Grid,
    ScalarField,
    TimeGrid,
    elliptic_matrix,
)
from .stationary import CoupledConfig

__all__ = [
    "Hamiltonian",
    "ControlMixedReport",
    "solve_hjb_obstacle",
    "cosmfg_coupled_solve",
    "verify_cosmfg",
    "fenchel_conjugate",
    "fenchel_closed_form",
    "control_objective",
]


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Convex Hamiltonian H(x, p) with gradient D_pH.

    smoothed_norm: H = beta(x) (sqrt(1 + |p|^2) - 1), Lipschitz in p.
    quadratic:     H = |p|^2 / 2; not globally Lipschitz, construction
                   requires outside_assumptions=True to acknowledge it.
    """

    kind: str
    grid: Grid
    beta: ScalarField | None = None
    outside_assumptions: bool = False

    def __post_init__(self):
        if self.kind not in ("smoothed_norm", "quadratic"):
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "smoothed_norm":
            if self.beta is None or self.beta.grid != self.grid:
                raise ValueError("smoothed_norm needs a beta field on the grid")
            if np.any(self.beta.values < 0):
                raise ValueError("beta must be nonnegative")
        if self.kind == "quadratic" and not self.outside_assumptions:
            raise ValueError(
                "quadratic Hamiltonian is not globally Lipschitz; "
                "pass outside_assumptions=True to use it anyway")

    @staticmethod
    def smoothed_norm(beta: ScalarField) -> "Hamiltonian":
        return Hamiltonian(kind="smoothed_norm", grid=beta.grid, beta=beta)

    @staticmethod
    def quadratic(grid: Grid, outside_assumptions: bool = False) -> "Hamiltonian":
        return Hamiltonian(kind="quadratic", grid=grid, outside_assumptions=outside_assumptions)

    def _weight(self, weight):
        if weight is not None:
            return weight
        return self.beta.values if self.kind == "smoothed_norm" else None

    def value(self, p_components, weight=None) -> np.ndarray:
        """H(x, p) for per-axis arrays of p components."""
        sq = sum(np.asarray(p) ** 2 for p in p_components)
        if self.kind == "smoothed_norm":
            return self._weight(weight) * (np.sqrt(1.0 + sq) - 1.0)
        return 0.5 * sq

    def gradient(self, p_components, weight=None):
        """D_pH(x, p), one array per axis."""
        sq = sum(np.asarray(p) ** 2 for p in p_components)
        if self.kind == "smoothed_norm":
            scale = self._weight(weight) / np.sqrt(1.0 + sq)
            return [scale * np.asarray(p) for p in p_components]
        return [np.asarray(p).copy() for p in p_components]

    def at_zero(self) -> np.ndarray:
        """H(x, 0) on the nodes (zero for both supported kinds)."""
        return np.zeros(self.grid.n_total)

    def face_weight(self, grid: Grid, axis: int):
        """beta averaged onto axis faces (boundary faces copy the
        interior neighbor); None for beta-free kinds."""
        if self.kind != "smoothed_norm":
            return None
        shaped = self.beta.values.reshape(grid.shape)
        padded = _pad_axis(shaped, axis, "edge")
        n = grid.shape[axis]
        return 0.5 * (np.take(padded, range(0, n + 1), axis=axis)
                      + np.take(padded, range(1, n + 2), axis=axis))

    def radial(self, beta_value: float, r: np.ndarray | float):
        """H as a function of |p| at one point (both kinds are radial)."""
        if self.kind == "smoothed_norm":
            return beta_value * (np.sqrt(1.0 + np.square(r)) - 1.0)
        return 0.5 * np.square(r)


@dataclass(frozen=True)
class ControlMixedReport:
    """Residuals of the controlled mixed-solution conditions, plus the
    signed integration-by-parts diagnostic evaluated with phi = u."""

    r_hjb: float
    r_continuation: float
    r_subsolution: float
    r_contact: float
    r_boundary_terminal: float
    duality_diagnostic: float
    delta_c: float
    grid: dict

    @property
    def max_residual(self) -> float:
        return max(self.r_hjb, self.r_continuation, self.r_subsolution,
                   self.r_contact, self.r_boundary_terminal)

    def to_dict(self) -> dict:
        return {
            "r_hjb": self.r_hjb,
            "r_continuation": self.r_continuation,
            "r_subsolution": self.r_subsolution,
            "r_contact": self.r_contact,
            "r_boundary_terminal": self.r_boundary_terminal,
            "duality_diagnostic": self.duality_diagnostic,
            "delta_c": self.delta_c,
            "grid": self.grid,
        }


def solve_hjb_obstacle(
    m_traj: FieldTrajectory,
    cost: CostOperator,
    hamiltonian: Hamiltonian,
    timegrid: TimeGrid,
    epsilon: float,
    config: CoupledConfig | None = None,
) -> FieldTrajectory:
    """Backward penalized HJB obstacle solve for a frozen density.

    Implicit diffusion plus penalty; the Hamiltonian is lagged on the
    previous inner iterate's upwind gradient, iterated per slice until
    the update stalls below tolerance. Terminal value 0.
    """
    import scipy.sparse as sp

    from .obstacle import _penalized_newton
    from .stationary import CoupledNonConvergence

    cfg = config or CoupledConfig()
    grid = m_traj.grid
    steps = timegrid.n_steps
    dt = timegrid.dt
    b = (elliptic_matrix(grid, with_zero_order=False)
         + sp.identity(grid.n_total, format="csr") / dt).tocsr()
    zero = np.zeros(grid.n_total)
    u_arr = np.zeros((steps + 1, grid.n_total))
    m_arr = m_traj.array()
    for k in range(steps - 1, -1, -1):
        rhs = u_arr[k + 1] / dt + cost.evaluate(m_arr[k])
        u_k = u_arr[k + 1]
        for _inner in range(60):
            h_val, _ = _upwind_hamiltonian(grid, hamiltonian, u_k)
            u_next = _penalized_newton(b, rhs - h_val, zero, epsilon, grid, cfg.inner, u_k)
            delta = float(np.max(np.abs(u_next - u_k)))
            u_k = u_next
            if delta <= max(cfg.inner.tol, 1e-13):
                break
        else:
            raise CoupledNonConvergence(f"HJB inner loop stalled at slice {k}", [])
        u_arr[k] = u_k
    return FieldTrajectory(grid, timegrid, u_arr)


def cosmfg_coupled_solve(
    cost: CostOperator,
    hamiltonian: Hamiltonian,
    m0: ScalarField,
    timegrid: TimeGrid,
    eps_schedule=None,
    config: CoupledConfig | None = None,
    m_traj_init: np.ndarray | None = None,
):
    """Forward-backward continuation for the controlled system.

    Returns (solution, report) where the report verifies the final
    stage. The drift is D_pH(x, grad u) on faces, recomputed every
    sweep from the current value trajectory.
    """
    from .stationary import default_eps_schedule

    schedule = list(eps_schedule) if eps_schedule is not None else default_eps_schedule()
    sol, _stages = forward_backward_continuation(
        cost, m0, timegrid, schedule, config,
        hamiltonian=hamiltonian, m_traj_init=m_traj_init,
    )
    report = verify_cosmfg(sol.u, sol.m, cost, hamiltonian, m0, delta_c=sol.delta_band)
    return sol, report


def verify_cosmfg(
    u: FieldTrajectory,
    m: FieldTrajectory,
    cost: CostOperator,
    hamiltonian: Hamiltonian,
    m0: ScalarField,
    delta_c: float | None = None,
) -> ControlMixedReport:
    """Residuals of the controlled mixed-solution conditions.

    The drift in the density residual is recomputed from u exactly as
    the solver builds it. The diagnostic field evaluates the discrete
    integration-by-parts pairing with phi = u; it vanishes with the
    others on a converged solution but is reported signed.
    """
    grid = u.grid
    timegrid = u.timegrid
    steps = timegrid.n_steps
    dt = timegrid.dt
    a0 = elliptic_matrix(grid, with_zero_order=False)
    u_arr = u.array()
    m_arr = m.array()
    f_arr = np.stack([cost.evaluate(m_arr[k]) for k in range(steps + 1)])
    h0 = hamiltonian.at_zero()
    if delta_c is None:
        delta_c = max(DELTA_C_FLOOR, 1e-8 * float(np.max(np.abs(u_arr), initial=0.0)))
    vol = grid.cell_volume

    r_hjb = 0.0
    r_cont = 0.0
    r_sub = 0.0
    contact_sum = 0.0
    duality = 0.0
    for k in range(steps):
        h_val, _ = _upwind_hamiltonian(grid, hamiltonian, u_arr[k])
        lu = (u_arr[k] - u_arr[k + 1]) / dt + a0 @ u_arr[k] + h_val
        comp = np.minimum(-u_arr[k], f_arr[k] - lu)
        r_hjb = max(r_hjb, float(np.max(np.abs(comp))))
        drift_k = _face_drift(grid, hamiltonian, u_arr[k])
        div_k = drift_divergence_matrix(grid, drift_k)
        fp_resid = (m_arr[k + 1] - m_arr[k]) / dt + (a0 + div_k) @ m_arr[k + 1]
        continuation = u_arr[k] < -delta_c
        contact = ~continuation
        r_cont = max(r_cont, float(np.max(np.abs(fp_resid[continuation]), initial=0.0)))
        r_sub = max(r_sub, float(np.max(fp_resid, initial=0.0)))
        integrand = (f_arr[k] - h0) * m_arr[k + 1]
        contact_sum += dt * float(np.sum(integrand[contact])) * vol
        # integration-by-parts pairing with phi = u: adjoint drift term
        lphi = (u_arr[k] - u_arr[k + 1]) / dt + a0 @ u_arr[k] + div_k.T @ u_arr[k]
        duality += dt * float(np.dot(lphi, m_arr[k + 1])) * vol
    duality -= float(np.dot(u_arr[0], m0.values)) * vol
    r_bt = max(float(np.max(np.abs(u_arr[steps]))),
               float(np.max(np.abs(m_arr[0] - m0.values))))
    return ControlMixedReport(
        r_hjb=r_hjb,
        r_continuation=r_cont,
        r_subsolution=max(r_sub, 0.0),
        r_contact=abs(contact_sum),
        r_boundary_terminal=r_bt,
        duality_diagnostic=duality,
        delta_c=float(delta_c),
        grid=grid.metadata(),
    )


def fenchel_closed_form(hamiltonian: Hamiltonian, node: int, velocity) -> float:
    """Closed-form conjugate, the oracle for the lattice routine."""
    speed = float(np.linalg.norm(np.atleast_1d(np.asarray(velocity, dtype=float))))
    if hamiltonian.kind == "quadratic":
        return 0.5 * speed**2
    beta = float(hamiltonian.beta.values[node])
    if speed == 0.0:
        return 0.0
    if speed >= beta:
        return np.inf
    return beta * (1.0 - np.sqrt(1.0 - (speed / beta) ** 2))


def fenchel_conjugate(hamiltonian: Hamiltonian, node: int, velocity) -> float:
    """L(x, a) = sup_p (a . p - H(x, p)) by radial lattice search plus
    local refinement; returns +inf when the supremum is unbounded.

    Both supported Hamiltonians are radial in p, so the supremum
    reduces to a scalar maximization along the direction of a.
    """
    from scipy.optimize import minimize_scalar

    speed = float(np.linalg.norm(np.atleast_1d(np.asarray(velocity, dtype=float))))
    beta = float(hamiltonian.beta.values[node]) if hamiltonian.kind == "smoothed_norm" else None
    if speed == 0.0:
        return 0.0
    if beta is not None and speed >= beta - 1e-15:
        return np.inf

    def objective(r):
        return speed * r - hamiltonian.radial(beta if beta is not None else 0.0, r)

    r_hi = 1.0
    for _ in range(80):
        lattice = np.linspace(0.0, r_hi, 129)
        vals = objective(lattice)
        best = int(np.argmax(vals))
        if best < len(lattice) - 1:
            break
        r_hi *= 2.0
        if r_hi > 1e12:
            return np.inf
    lo = lattice[max(best - 1, 0)]
    hi = lattice[min(best + 1, len(lattice) - 1)]
    res = minimize_scalar(lambda r: -objective(r), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(max(-res.fun, objective(lattice[best])))


def _faces_to_nodes(grid: Grid, faces: FaceVelocities):
    """Average the two adjacent faces per axis onto each node."""
    out = []
    for axis in range(grid.dim):
        comp = faces.components[axis]
        n = grid.shape[axis]
        lower = np.take(comp, range(0, n), axis=axis)
        upper = np.take(comp, range(1, n + 1), axis=axis)
        out.append((0.5 * (lower + upper)).ravel())
    return out


def control_objective(
    m: FieldTrajectory,
    drift: tuple[FaceVelocities, ...],
    potential: PotentialOperator,
    hamiltonian: Hamiltonian,
    timegrid: TimeGrid,
    feasibility_tol: float = 1e-8,
) -> float:
    """Running cost of a feasible (control, density) pair:
    sum over time of F(m) - H(x, 0) m + L(x, a) m.

    The pair must satisfy the discrete inequality
    dm/dt - lap m - div(a m) <= feasibility_tol nodewise; violating
    slices are reported in the raised error. The conjugate L is
    evaluated at face velocities averaged onto nodes.
    """
    grid = m.grid
    steps = timegrid.n_steps
    dt = timegrid.dt
    a0 = elliptic_matrix(grid, with_zero_order=False)
    m_arr = m.array()
    bad_slices = []
    total = 0.0
    h0 = hamiltonian.at_zero()
    vol = grid.cell_volume
    for k in range(steps):
        div_k = drift_divergence_matrix(grid, drift[k])
        resid = (m_arr[k + 1] - m_arr[k]) / dt + (a0 + div_k) @ m_arr[k + 1]
        if float(np.max(resid, initial=0.0)) > feasibility_tol:
            bad_slices.append(k)
            continue
        nodal = _faces_to_nodes(grid, drift[k])
        l_vals = np.array([
            fenchel_closed_form(hamiltonian, i, [c[i] for c in nodal])
            for i in range(grid.n_total)
        ])
        mass = m_arr[k + 1]
        if np.any(np.isinf(l_vals) & (mass > 1e-14)):
            return np.inf
        l_term = np.where(mass > 1e-14, l_vals * mass, 0.0)
        total += dt * float(np.sum(potential.evaluate(mass) - h0 * mass + l_term)) * vol
    if bad_slices:
        raise ValueError(f"control/density pair infeasible at slices {bad_slices}")
    return total
