"""The time-dependent system with m-dependent obstacles: obstacle
operators (fixed trajectories, or obstacles generated from a local
source by the backward heat equation), the penalty continuation of the
forward-backward penalized solver, and the evolutive mixed-solution
verifier.

For obstacles built from a source g, the quantity (d/dt + lap) psi(m)
is returned as g(m) exactly rather than by differencing psi, so the
contact-zone integrand f(m) + (d/dt + lap) psi(m) carries no extra
discretization error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._coupled import _residuals, _sweep, forward_backward_solve
from .costs import CostOperator
from .grid import (
    FieldTrajectory,
    Grid,
    ScalarField,
    TimeGrid,
    _on_grid,
    elliptic_matrix,
)
from .obstacle import _shifted_factor
from .stationary import penalty_continuation

__all__ = [
    "ObstacleOperator",
    "EvolutiveMixedReport",
    "osmfg_continuation",
    "verify_mixed_evolutive",
]


@dataclass(frozen=True, eq=False)
class ObstacleOperator:
    """Obstacle as a fixed trajectory or as the backward-heat image of a
    local source g(m) with terminal and boundary values zero."""

    kind: str  # "constant_field" | "heat_from_g"
    psi: FieldTrajectory | None = None
    g_cost: CostOperator | None = None

    def __post_init__(self):
        if self.kind not in ("constant_field", "heat_from_g"):
            raise ValueError(f"unknown obstacle kind {self.kind!r}")
        if self.kind == "constant_field" and self.psi is None:
            raise ValueError("constant_field obstacle needs a trajectory")
        if self.kind == "heat_from_g":
            if self.g_cost is None:
                raise ValueError("heat_from_g obstacle needs a source cost")
            if not self.g_cost.is_local:
                raise ValueError("obstacle sources must be local costs")

    @staticmethod
    def constant(psi: FieldTrajectory) -> "ObstacleOperator":
        return ObstacleOperator(kind="constant_field", psi=psi)

    @staticmethod
    def zero(grid: Grid, timegrid: TimeGrid) -> "ObstacleOperator":
        return ObstacleOperator(kind="constant_field",
                                psi=FieldTrajectory.constant(grid, timegrid, 0.0))

    @staticmethod
    def heat_source(g_cost: CostOperator) -> "ObstacleOperator":
        return ObstacleOperator(kind="heat_from_g", g_cost=g_cost)

    def apply_arrays(self, grid: Grid, timegrid: TimeGrid, m_arr: np.ndarray):
        """(psi(m), (d/dt + lap) psi(m)) as (K+1, N) arrays on the
        density slices m_arr.

        heat_from_g integrates d psi/dt = -lap psi + g(m) backward from
        psi(T) = 0 by implicit Euler and returns the source g(m) itself
        as the second array (no differencing); constant_field returns
        the stored trajectory and its discrete (d/dt + lap) image. The K
        backward heat steps are one backward _coupled._sweep of -g_k
        with the factor of B = A0 + I/dt that the process keeps per
        (grid, dt) (obstacle._shifted_factor), shared with the solver's
        sweeps and with every later call. A psi or g off grid and
        timegrid raises ValueError."""
        _on_grid(grid, timegrid, self.psi, self.g_cost)
        steps = timegrid.n_steps
        dt = timegrid.dt
        if self.kind == "heat_from_g":
            g_arr = self.g_cost.evaluate(m_arr)
            psi_arr = np.zeros_like(m_arr)
            psi_arr[:steps] = _sweep([_shifted_factor(grid, 0.0, dt)] * steps, -g_arr[:steps], dt,
                                     True)
            return psi_arr, g_arr
        psi_arr = self.psi.array()
        if psi_arr.shape != m_arr.shape:
            raise ValueError("fixed obstacle trajectory does not match the timegrid/grid")
        a0 = elliptic_matrix(grid, with_zero_order=False)
        g_arr = np.empty_like(psi_arr)
        g_arr[:steps] = (psi_arr[1:] - psi_arr[:-1]) / dt - (a0 @ psi_arr[:-1].T).T
        g_arr[steps] = (psi_arr[steps] - psi_arr[steps - 1]) / dt - a0 @ psi_arr[steps]
        return psi_arr, g_arr


@dataclass(frozen=True)
class EvolutiveMixedReport:
    """Residuals of the evolutive mixed-solution conditions."""

    r_obstacle: float
    r_continuation: float
    r_subsolution: float
    r_contact: float
    r_duality: float
    r_terminal: float
    r_initial: float
    delta_c: float
    grid: dict

    def to_dict(self) -> dict:
        return asdict(self)


def osmfg_continuation(
    cost: CostOperator,
    obstacle_op: ObstacleOperator,
    m0: ScalarField,
    timegrid: TimeGrid,
    eps_schedule=None,
    tol_pde: float = 1e-8,
):
    """Penalty continuation for the evolutive system: warm-started
    forward_backward_solve stages along a decreasing schedule, the first
    from m0 in every slice.

    Returns (solution, stages): the final PenalizedTriple, whose fields
    are trajectories, and one StageReport per stage, with the
    verify_mixed_evolutive report of its (u, m).
    """

    def solve_stage(eps, warm, strict):
        return forward_backward_solve(cost, m0, timegrid, eps, tol_pde, obstacle_op=obstacle_op,
                                      warm=warm, strict=strict)

    def verify(sol):
        return verify_mixed_evolutive(sol.u, sol.m, cost, obstacle_op, m0, delta_c=sol.delta_band)

    return penalty_continuation(solve_stage, verify, eps_schedule)


def verify_mixed_evolutive(
    u: FieldTrajectory,
    m: FieldTrajectory,
    cost: CostOperator,
    obstacle_op: ObstacleOperator,
    m0: ScalarField,
    delta_c: float | None = None,
) -> EvolutiveMixedReport:
    """Residuals of every evolutive mixed-solution condition, from the
    residual core _coupled._residuals of K slices (lag 1).

    Discrete operators mirror the solver: backward differences in time
    for the value, forward implicit steps for the density, slice-k
    integrands paired with m_{k+1}. The duality residual is
    |sum_k dt <f(m_k) + g_k, m_{k+1}> - <u_0 - psi_0, m_0>|. u, m, the
    cost, m0 and the obstacle's data must share one grid (and u, m and
    a fixed obstacle one time grid), or ValueError is raised.
    """
    grid = _on_grid(u.grid, u.timegrid, m, cost, m0, obstacle_op.psi, obstacle_op.g_cost)
    u_arr = u.array()
    m_arr = m.array()
    psi_arr, g_arr = obstacle_op.apply_arrays(grid, u.timegrid, m_arr)
    return EvolutiveMixedReport(
        **_residuals(grid, u.timegrid.dt, 1, cost, None, u_arr, m_arr, psi_arr, g_arr, delta_c),
        r_terminal=float(np.max(np.abs(u_arr[-1] - psi_arr[-1]))),
        r_initial=float(np.max(np.abs(m_arr[0] - m0.values))))
