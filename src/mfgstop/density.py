"""Density-side solvers: the exclusion-set elliptic equation, penalized
killing-potential solves, the drifted forward equation by implicit Euler
with conservative upwind fluxes, and the subsolution slack check.

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
    _face_nodes,
    elliptic_matrix,
)
from .obstacle import _lu_solve

__all__ = [
    "KillingData",
    "FaceVelocities",
    "solve_density_on_set",
    "solve_density_penalized",
    "check_subsolution",
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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.alpha.grid != self.active.grid:
            raise ValueError("alpha and active mask must share one grid")
        v = self.alpha.values
        if np.any(v < -1e-15) or np.any(v > 1 + 1e-15):
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
    grid = source.grid
    if omega.grid != grid:
        raise ValueError("mask and source must share one grid")
    _require_nonnegative(source.values, "rho")
    m = np.zeros(grid.n_total)
    idx = np.flatnonzero(omega.mask)
    if idx.size:
        a = elliptic_matrix(grid).tocsc()
        m[idx] = _lu_solve(a[np.ix_(idx, idx)], source.values[idx])
    return ScalarField(grid, m)


def solve_density_penalized(killing: KillingData, source: ScalarField) -> ScalarField:
    """Solve (-lap + id + diag(alpha/eps on active)) m = rho."""
    grid = source.grid
    if killing.alpha.grid != grid:
        raise ValueError("killing data and source must share one grid")
    _require_nonnegative(source.values, "rho")
    a = elliptic_matrix(grid) + sp.diags(killing.rate())
    return ScalarField(grid, _lu_solve(a, source.values))


def check_subsolution(m: ScalarField, source: ScalarField) -> ScalarField:
    """Slack rho - (-lap + id) m; nonnegative slack certifies a subsolution."""
    if m.grid != source.grid:
        raise ValueError("fields must share one grid")
    a = elliptic_matrix(m.grid)
    return ScalarField(m.grid, source.values - a @ m.values)


def _drift_triplets(grid: Grid, components):
    """Rows, columns and values of the block-diagonal matrix of
    m_k -> -div(m_k b_k), one block per slice k of the face velocities
    components[axis], arrays shaped (K, *axis face shape).

    The flux through a face with velocity b takes m from the side the
    mass moves away from, so off-diagonal entries stay nonpositive and
    column sums telescope to boundary outflow only (mass can only leak).
    The rows and columns depend on the grid and K only.
    """
    rows, cols, vals = [], [], []
    for axis, b in enumerate(components):
        h = grid.spacing[axis]
        left, right = _face_nodes(grid, axis)
        b = b.reshape(len(b), -1)
        offset = grid.n_total * np.arange(len(b))[:, None]
        bp = np.maximum(b, 0.0) / h
        bm = np.minimum(b, 0.0) / h
        # flux F = b+ m_R + b- m_L enters row L as -F/h and row R as +F/h;
        # the outside value is 0
        for row, col, val in ((left, right, -bp), (left, left, -bm),
                              (right, right, bp), (right, left, bm)):
            keep = (row >= 0) & (col >= 0)
            rows.append((row[keep] + offset).ravel())
            cols.append((col[keep] + offset).ravel())
            vals.append(val[:, keep].ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def drift_divergence_matrix(grid: Grid, faces: FaceVelocities) -> sp.csr_matrix:
    """Matrix of m -> -div(m b) with conservative upwind face fluxes."""
    if faces.grid != grid:
        raise ValueError("faces must live on the grid")
    rows, cols, vals = _drift_triplets(grid, [c[None] for c in faces.components])
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_total, grid.n_total))


def _step_data(traj, single: type, k: int):
    """The data of time step k: traj itself when it is None or one
    object of type single (time-constant data), traj[k] otherwise."""
    if traj is None or isinstance(traj, single):
        return traj
    return traj[k]


def solve_density_parabolic(
    m0: ScalarField,
    killing_traj: Sequence[KillingData] | KillingData | None,
    timegrid: TimeGrid,
    drift_traj: Sequence[FaceVelocities] | FaceVelocities | None = None,
) -> FieldTrajectory:
    """Forward implicit Euler for dm/dt - lap m + V m - div(m b) = 0.

    killing_traj / drift_traj give per-step data (step k advances slice k
    to k+1); a single object means time-constant data. Implicit stepping
    is unconditionally stable and preserves nonnegativity.
    """
    grid = m0.grid
    _require_nonnegative(m0.values, "m0")
    dt = timegrid.dt
    base = (elliptic_matrix(grid, with_zero_order=False)
            + sp.identity(grid.n_total, format="csr") / dt).tocsr()
    m_arr = np.empty((timegrid.n_steps + 1, grid.n_total))
    m_arr[0] = m0.values
    for k in range(timegrid.n_steps):
        mat = base
        kd = _step_data(killing_traj, KillingData, k)
        if kd is not None:
            mat = mat + sp.diags(kd.rate())
        dv = _step_data(drift_traj, FaceVelocities, k)
        if dv is not None:
            mat = mat + drift_divergence_matrix(grid, dv)
        m_arr[k + 1] = _lu_solve(mat, m_arr[k] / dt)
    return FieldTrajectory(grid, timegrid, m_arr)
