"""The controlled system: Hamilton-Jacobi-Bellman obstacle equation with
a convex Hamiltonian, drifted forward equation with killing, its
verifier, and the control objective, whose running cost is the
Hamiltonian's own Fenchel conjugate (Hamiltonian.conjugate).

The system is the evolutive one with the zero obstacle plus the
Hamiltonian term and its drift: scenarios.solve_problem runs the
evolutive solver with ObstacleOperator.zero and the Hamiltonian, and the
verifier the residual core of the evolutive verifier with psi = g = 0.

The drift fed to the density is D_pH(x, grad u) on faces; upwind
differences keep every system matrix an M-matrix, so positivity and
mass monotonicity survive the drift.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ._coupled import _divergence, _hamiltonian_state, _residuals
from .costs import CostOperator, PotentialOperator
from .density import FaceVelocities
from .grid import (
    FieldTrajectory,
    Grid,
    ScalarField,
    TimeGrid,
    _checked,
    _face_nodes,
    _on_grid,
    elliptic_matrix,
)

__all__ = [
    "Hamiltonian",
    "ControlMixedReport",
    "verify_cosmfg",
    "face_drift",
    "control_objective",
]


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Convex Hamiltonian H(x, p) with gradient D_pH, Hessian D_ppH and
    Fenchel conjugate L(x, a) = sup_p (a . p - H(x, p)).

    smoothed_norm: H = beta(x) (sqrt(1 + |p|^2) - 1), Lipschitz in p;
                   L = beta (1 - sqrt(1 - (|a| / beta)^2)) on |a| <= beta,
                   +inf outside.
    quadratic:     H = |p|^2 / 2, L = |a|^2 / 2; not globally Lipschitz,
                   construction requires outside_assumptions=True to
                   acknowledge it.

    face_weights holds per axis beta averaged onto the axis faces (a
    boundary face copies its interior neighbour), computed once here and
    read-only; None per axis for beta-free kinds.
    """

    kind: str
    grid: Grid
    beta: ScalarField | None = None
    outside_assumptions: bool = False
    face_weights: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("smoothed_norm", "quadratic"):
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        _on_grid(self.grid, None, self.beta)
        if self.kind == "smoothed_norm":
            if self.beta is None:
                raise ValueError("smoothed_norm needs a beta field")
            _checked(self.beta.values, "beta", 0)
        if self.kind == "quadratic" and not self.outside_assumptions:
            raise ValueError(
                "quadratic Hamiltonian is not globally Lipschitz; "
                "pass outside_assumptions=True to use it anyway")
        weights = [None] * self.grid.dim
        if self.kind == "smoothed_norm":
            beta = self.beta.values
            for axis in range(self.grid.dim):
                left, right = _face_nodes(self.grid, axis)
                weight = 0.5 * (beta[np.where(left >= 0, left, right)]
                                + beta[np.where(right >= 0, right, left)])
                weights[axis] = weight.reshape(self.grid.face_shape(axis))
                weights[axis].flags.writeable = False
        object.__setattr__(self, "face_weights", tuple(weights))

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

    def hessian(self, p_components, weight=None):
        """D_ppH(x, p) as rows of per-axis arrays: entry [a][c] is
        d^2 H / dp_a dp_c."""
        dim = len(p_components)
        if self.kind == "quadratic":
            ones = np.ones(np.shape(p_components[0]))
            return [[ones if a == c else 0.0 * ones for c in range(dim)] for a in range(dim)]
        s2 = 1.0 + sum(np.asarray(p) ** 2 for p in p_components)
        scale = self._weight(weight) / np.sqrt(s2)
        return [[scale * (float(a == c) - p_components[a] * p_components[c] / s2)
                 for c in range(dim)] for a in range(dim)]

    def conjugate(self, a_components) -> np.ndarray:
        """L(x, a) = sup_p (a . p - H(x, p)) for per-axis arrays of a
        components whose last axis runs over the grid nodes. For
        smoothed_norm the supremum is approached as |p| -> inf on the
        sphere |a| = beta, where it is beta, and is +inf outside the ball
        (so beta = 0 gives 0 at a = 0 only); a NaN a or beta gives NaN."""
        sq = sum(np.asarray(a, dtype=float) ** 2 for a in a_components)
        if self.kind == "quadratic":
            return 0.5 * sq
        beta = self.beta.values
        speed = np.sqrt(sq)
        outside = speed > beta
        ratio = np.divide(speed, beta, out=np.zeros(np.shape(outside)), where=~outside & (speed != 0))
        return np.where(outside, np.inf, beta * (1.0 - np.sqrt(1.0 - ratio ** 2)))


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

    def to_dict(self) -> dict:
        return asdict(self)


def verify_cosmfg(
    u: FieldTrajectory,
    m: FieldTrajectory,
    cost: CostOperator,
    hamiltonian: Hamiltonian,
    m0: ScalarField,
    delta_c: float | None = None,
) -> ControlMixedReport:
    """Residuals of the controlled mixed-solution conditions.

    These are the evolutive residuals of _coupled._residuals with the
    zero obstacle, with H(x, Du) in the value operator and the drift in
    the density residual, both from the _hamiltonian_state the solver
    builds. The diagnostic field is the core's discrete
    integration-by-parts pairing with phi = u; it vanishes with the
    others on a converged solution but is reported signed. u, m, the
    cost, m0 and the Hamiltonian must share one grid, or ValueError is
    raised.
    """
    grid = _on_grid(u.grid, u.timegrid, m, cost, m0, hamiltonian)
    u_arr = u.array()
    m_arr = m.array()
    zero = np.zeros_like(u_arr)
    res = _residuals(grid, u.timegrid.dt, 1, cost, hamiltonian, u_arr, m_arr, zero, zero, delta_c)
    return ControlMixedReport(
        r_hjb=res["r_obstacle"],
        r_continuation=res["r_continuation"],
        r_subsolution=res["r_subsolution"],
        r_contact=res["r_contact"],
        r_boundary_terminal=max(float(np.max(np.abs(u_arr[-1]))),
                                float(np.max(np.abs(m_arr[0] - m0.values)))),
        duality_diagnostic=res["pairing"],
        delta_c=res["delta_c"],
        grid=res["grid"],
    )


def face_drift(hamiltonian: Hamiltonian, u: FieldTrajectory) -> FaceVelocities:
    """The face drift D_pH(x, grad u_k) of the value slices u_0..u_{K-1}
    of u at the time steps k: the drift of their one _hamiltonian_state,
    as the controlled solver and verifier make it."""
    grid = _on_grid(u.grid, u.timegrid, hamiltonian)
    drift = _hamiltonian_state(grid, hamiltonian, u.array()[:u.timegrid.n_steps]).drift
    return FaceVelocities(grid, u.timegrid, drift)


def control_objective(
    m: FieldTrajectory,
    drift: FaceVelocities,
    potential: PotentialOperator,
    hamiltonian: Hamiltonian,
    timegrid: TimeGrid,
) -> float:
    """Running cost of a feasible (control, density) pair:
    sum over time of F(m) + L(x, a) m (H(x, 0) = 0 for both kinds).

    The pair must satisfy the discrete inequality
    dm/dt - lap m - div(a m) <= 1e-8 nodewise at every slice, checked
    for all slices before any conjugate is evaluated; the violating
    slices are listed in the raised ValueError. The drift of step k
    acts on slice k + 1. The conjugate L is evaluated, in one
    Hamiltonian.conjugate call for all slices, at the face velocities
    averaged onto the nodes along each axis. Nodes with mass <= 1e-14
    contribute 0, and a pair with more mass where L is infinite costs
    inf. Data off the grid of m, or m or the drift off timegrid, raises
    ValueError.
    """
    grid = _on_grid(m.grid, timegrid, m, drift, potential, hamiltonian)
    steps = timegrid.n_steps
    dt = timegrid.dt
    a0 = elliptic_matrix(grid, with_zero_order=False)
    m_arr = m.array()
    b = drift.components
    resid = (m_arr[1:] - m_arr[:-1]) / dt + (a0 @ m_arr[1:].T).T + _divergence(grid, b, m_arr[1:])
    bad_slices = np.flatnonzero(np.max(resid, axis=1) > 1e-8)
    if bad_slices.size:
        raise ValueError(f"control/density pair infeasible at slices {bad_slices.tolist()}")
    # per axis the mean of the two faces of each node, (K, N)
    nodal = [0.5 * (np.take(c, range(n), axis=axis + 1)
                    + np.take(c, range(1, n + 1), axis=axis + 1)).reshape(steps, -1)
             for axis, (c, n) in enumerate(zip(b, grid.shape))]
    l_vals = hamiltonian.conjugate(nodal)
    mass = m_arr[1:]
    carried = mass > 1e-14
    if np.any(np.isinf(l_vals) & carried):
        return np.inf
    l_term = mass * np.where(carried, l_vals, 0.0)
    return dt * float(np.sum(potential.evaluate(mass) + l_term)) * grid.cell_volume
