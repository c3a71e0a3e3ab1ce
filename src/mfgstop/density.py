"""Density-side solvers: the exclusion-set elliptic equation and the
killed, drifted forward equation by implicit Euler with conservative
upwind fluxes. The drift operator is built from the face difference
and the face-node selectors of grid._gradient_matrices; the Newton
systems of the controlled problem apply it without a matrix
(_coupled._divergence).

All system matrices are M-matrices, so every produced density is
nonnegative (up to roundoff) and total mass is non-increasing in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .grid import (
    FieldTrajectory,
    Grid,
    NodeMask,
    ScalarField,
    TimeGrid,
    _gradient_matrices,
    _on_grid,
    elliptic_matrix,
)
from .obstacle import _lu_factor, _lu_solve, _shifted_factor, _shifted_matrix

__all__ = [
    "KillingData",
    "FaceVelocities",
    "solve_density_on_set",
    "solve_density_parabolic",
    "drift_divergence_matrix",
]


@dataclass(frozen=True, eq=False)
class KillingData:
    """Exit-rate data: rate alpha/epsilon acts on the active node set."""

    alpha: ScalarField
    active: NodeMask
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        _on_grid(self.alpha.grid, None, self.active)
        v = self.alpha.values
        if not np.all((v >= -1e-15) & (v <= 1 + 1e-15)):
            raise ValueError("alpha must take values in [0, 1]")

    def rate(self) -> np.ndarray:
        """Nodal killing rate alpha/epsilon, zero off the active set."""
        return np.where(self.active.mask, self.alpha.values / self.epsilon, 0.0)


@dataclass(frozen=True, eq=False)
class FaceVelocities:
    """Per-axis velocities on cell faces (including boundary faces).

    Axis k carries an array shaped like the grid with axis k extended by
    one: faces between consecutive nodes plus the two boundary faces.
    """

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise ValueError("one component per axis required")
        comps = []
        for axis, comp in enumerate(self.components):
            shape = self.grid.face_shape(axis)
            c = np.array(comp, dtype=float, copy=True)
            if c.shape != shape:
                raise ValueError(f"axis {axis} faces must have shape {shape}, got {c.shape}")
            c.setflags(write=False)
            comps.append(c)
        object.__setattr__(self, "components", tuple(comps))

    @staticmethod
    def zeros(grid: Grid) -> "FaceVelocities":
        return FaceVelocities(grid, tuple(np.zeros(grid.face_shape(axis))
                                          for axis in range(grid.dim)))


def _require_nonnegative(values: np.ndarray, what: str) -> None:
    if np.any(values < -1e-12):
        raise ValueError(f"{what} must be nonnegative, min = {values.min():.3e}")


def solve_density_on_set(omega: NodeMask, source: ScalarField) -> ScalarField:
    """Solve (-lap + id) m = rho on omega with m = 0 elsewhere.

    Off-set nodes are eliminated exactly (not penalized), so m = 0 there
    holds to machine precision.
    """
    grid = _on_grid(source.grid, None, omega)
    _require_nonnegative(source.values, "rho")
    m = np.zeros(grid.n_total)
    idx = np.flatnonzero(omega.mask)
    if idx.size:
        a = elliptic_matrix(grid).tocsc()
        m[idx] = _lu_solve(a[np.ix_(idx, idx)], source.values[idx])
    return ScalarField(grid, m)


def drift_divergence_matrix(grid: Grid, faces: FaceVelocities) -> sp.csr_matrix:
    """Matrix of m -> -div(m b) with conservative upwind face fluxes:
    the sum over axes of D^T (diag(b+) S_R + diag(b-) S_L), with D the
    face difference and S_L, S_R the selectors of the nodes left and
    right of the faces (grid._gradient_matrices).

    The flux F = b+ m_R + b- m_L through a face takes m from the side
    the mass moves away from, so off-diagonal entries stay nonpositive
    and column sums telescope to boundary outflow only (mass can only
    leak).
    """
    _, face_grad, selectors = _gradient_matrices(_on_grid(grid, None, faces))
    return sum(mats[axis].T @ (sp.diags(np.maximum(b, 0.0).ravel()) @ right
                               + sp.diags(np.minimum(b, 0.0).ravel()) @ left)
               for axis, (b, mats, (left, right))
               in enumerate(zip(faces.components, face_grad, selectors))).tocsr()


def _per_step(traj, single: type, steps: int) -> list:
    """The data of each of the time steps 0..steps-1: traj itself when
    it is None or one object of type single (time-constant data),
    traj[k] at step k otherwise."""
    if traj is None or isinstance(traj, single):
        return [traj] * steps
    return [traj[k] for k in range(steps)]


def solve_density_parabolic(
    m0: ScalarField,
    killing_traj: Sequence[KillingData] | KillingData | None,
    timegrid: TimeGrid,
    drift_traj: Sequence[FaceVelocities] | FaceVelocities | None = None,
) -> FieldTrajectory:
    """Forward implicit Euler for dm/dt - lap m + V m - div(m b) = 0.

    killing_traj / drift_traj give per-step data (step k advances slice k
    to k+1); a single object means time-constant data. Implicit stepping
    is unconditionally stable and preserves nonnegativity. Data off the
    grid of m0 raises ValueError before the first step.

    A step without drift (None, or zero on every face) factors B +
    diag(V) by obstacle._shifted_factor, a drifted step by LU; a step
    with the data objects of the step before reuses its factor.
    """
    killing = _per_step(killing_traj, KillingData, timegrid.n_steps)
    drift = _per_step(drift_traj, FaceVelocities, timegrid.n_steps)
    grid = _on_grid(m0.grid, None, *(kd.alpha for kd in killing if kd is not None), *drift)
    _require_nonnegative(m0.values, "m0")
    dt = timegrid.dt
    m_arr = np.empty((timegrid.n_steps + 1, grid.n_total))
    m_arr[0] = m0.values
    step = solve = None
    for k, data in enumerate(zip(killing, drift)):
        if data != step:
            kd, dv = step = data
            rate = np.zeros(grid.n_total) if kd is None else kd.rate()
            if dv is None or not any(np.any(b) for b in dv.components):
                solve = _shifted_factor(grid, rate, dt)
            else:
                solve = _lu_factor(_shifted_matrix(grid, rate, dt)
                                   + drift_divergence_matrix(grid, dv))
        m_arr[k + 1] = solve(m_arr[k] / dt)
    return FieldTrajectory(grid, timegrid, m_arr)
