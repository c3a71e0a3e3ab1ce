"""Density-side solvers: the exclusion-set elliptic equation and the
killed, drifted forward equation by implicit Euler with conservative
upwind fluxes, whose killing data and face drift of the K time steps are
one record each. The K steps are one forward _coupled._sweep, and a
drifted step is assembled on the drift stencils of the controlled
problem's Newton Jacobian (_coupled._drift_values).

All system matrices are M-matrices, so every produced density is
nonnegative (up to roundoff) and total mass is non-increasing in time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._coupled import _drift_values, _hamiltonian_positions, _sweep
from .grid import (
    FieldTrajectory,
    Grid,
    NodeMask,
    ScalarField,
    TimeGrid,
    _checked,
    _on_grid,
    elliptic_matrix,
)
from .obstacle import _lu_factor, _lu_solve, _shifted_factor, _shifted_matrix, diagonal_update

__all__ = [
    "KillingData",
    "FaceVelocities",
    "solve_density_on_set",
    "solve_density_parabolic",
]


@dataclass(frozen=True, eq=False)
class KillingData:
    """Exit rate alpha_k / epsilon at time step k of alpha's time grid
    (row K of alpha is not read, as in PenalizedTriple.alpha)."""

    alpha: FieldTrajectory
    epsilon: float

    def __post_init__(self):
        _checked(self.epsilon, "epsilon", 0, above=True)
        _checked(self.alpha.values, "alpha", 0, 1, slack=1e-15)

    def rate(self) -> np.ndarray:
        """The nodal killing rates alpha_k / epsilon of the steps, (K, N)."""
        return self.alpha.values[:-1] / self.epsilon


@dataclass(frozen=True, eq=False)
class FaceVelocities:
    """Velocities on the cell faces (including boundary faces) of the K
    steps of a time grid.

    Axis k carries a read-only (K, *face shape) array, the face shape
    being the grid's with axis k extended by one: faces between
    consecutive nodes plus the two boundary faces. A NaN or infinite
    velocity raises ValueError (grid._checked).
    """

    grid: Grid
    timegrid: TimeGrid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise ValueError("one component per axis required")
        comps = []
        for axis, comp in enumerate(self.components):
            shape = (self.timegrid.n_steps,) + self.grid.face_shape(axis)
            c = np.array(comp, dtype=float, copy=True)
            if c.shape != shape:
                raise ValueError(f"axis {axis} faces must have shape {shape}, got {c.shape}")
            _checked(c, f"components[{axis}]")
            c.setflags(write=False)
            comps.append(c)
        object.__setattr__(self, "components", tuple(comps))


def solve_density_on_set(omega: NodeMask, source: ScalarField) -> ScalarField:
    """Solve (-lap + id) m = rho on omega with m = 0 elsewhere.

    Off-set nodes are eliminated exactly (not penalized), so m = 0 there
    holds to machine precision.
    """
    grid = _on_grid(source.grid, None, omega)
    _checked(source.values, "rho", 0, slack=1e-12)
    m = np.zeros(grid.n_total)
    idx = np.flatnonzero(omega.mask)
    if idx.size:
        a = elliptic_matrix(grid).tocsc()
        m[idx] = _lu_solve(a[np.ix_(idx, idx)], source.values[idx])
    return ScalarField(grid, m)


@functools.lru_cache(maxsize=8)
def _drifted_step(grid: Grid, dt: float):
    """The diagonal_update assembler of the drifted density steps
    B + diag(rate) + div, B = -lap + I/dt, kept per (grid, dt) with the
    elimination order of its pattern: its values are the rate on the
    diagonal, then those of _coupled._drift_values at the drift
    stencils of _coupled._hamiltonian_positions."""
    n = grid.n_total
    stencils = _hamiltonian_positions(grid, 1)[2][-2 * grid.dim:]
    return diagonal_update(_shifted_matrix(grid, np.zeros(n), dt),
                           np.concatenate([np.arange(n)] + [s[0] for s in stencils]),
                           np.concatenate([np.arange(n)] + [s[1] for s in stencils]))


def solve_density_parabolic(
    m0: ScalarField,
    killing: KillingData | None,
    timegrid: TimeGrid,
    drift: FaceVelocities | None = None,
) -> FieldTrajectory:
    """Forward implicit Euler for dm/dt - lap m + V m - div(m b) = 0.

    Step k advances slice k to k + 1 with the killing rate and the face
    drift of step k (None: none). Implicit stepping is unconditionally
    stable and preserves nonnegativity. Data off the grid of m0 or off
    timegrid raises ValueError before the first step.

    Each step is factored once, and the K steps are one forward
    _coupled._sweep from m0 / dt. A step whose drift operator vanishes
    factors B + diag(V) by obstacle._shifted_factor (B's kept factor
    where V vanishes too); a drifted step factors its _drifted_step
    matrix by LU on the assembler's kept order.
    """
    grid = _on_grid(m0.grid, timegrid, None if killing is None else killing.alpha, drift)
    _checked(m0.values, "m0", 0, slack=1e-12)
    n, dt = grid.n_total, timegrid.dt
    rates = np.zeros((timegrid.n_steps, n)) if killing is None else killing.rate()
    # per step the values of the drifted step: the rate, then the drift's
    steps = rates if drift is None else np.hstack([rates, *_drift_values(grid, drift.components)])
    factors = [_lu_factor(_drifted_step(grid, dt)(values)) if np.any(values[n:])
               else _shifted_factor(grid, values[:n], dt) for values in steps]
    r = np.zeros((timegrid.n_steps, n))
    r[0] = m0.values / dt
    return FieldTrajectory(grid, timegrid, np.vstack([m0.values, _sweep(factors, r, dt, False)]))
