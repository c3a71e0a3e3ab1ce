"""The coupled stationary system: penalized solves with an exit-rate dual
variable, continuation in the penalty parameter, ordered fixed-point
iteration for anti-monotone costs, the relaxed variational problem by
semismooth Newton on its KKT system, a multi-start uniqueness probe,
and the mixed-solution verifier.

A mixed solution couples an obstacle problem for the value u with a
density m that solves the source equation on the continuation set
{u < 0}, stays a subsolution everywhere, and carries no cost mass on
the contact set (sum of f(m) m there vanishes). The certificate
<f(m), m> = <u, rho> ties the two sides together and is reported as
r_duality.

The penalized system is the one-slice case of the time-dependent one,
and each penalty stage of it is run by the same _coupled._penalized_stage
(dt = 1, m_0 = rho, lag 0); PenalizedTriple and CoupledNonConvergence
live in _coupled and are exported here.
scenarios.solve_problem runs every problem's continuation through
penalty_continuation, the stationary one via _continuation, which runs
the early stages of a strictly monotone 2D one on coarser grids.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.sparse as sp

from ._coupled import (
    CoupledNonConvergence,
    PenalizedTriple,
    _penalized_stage,
    _ramp,
    _residuals,
)
from .costs import ANTI_MONOTONE, STRICT_MONOTONE, CostOperator, PotentialOperator
from .density import solve_density_on_set
from .grid import ScalarField, _checked, _count, _on_grid, classify_nodes, coarsen, elliptic_matrix
from .obstacle import (
    _MAX_ITER,
    _TOL,
    _shifted_factor,
    row_select,
    semismooth_newton,
    solve_obstacle_stationary,
)

__all__ = [
    "PenalizedTriple",
    "MixedSolutionReport",
    "StageReport",
    "CoupledNonConvergence",
    "penalized_coupled_solve",
    "penalty_continuation",
    "default_eps_schedule",
    "monotone_iteration_solve",
    "variational_minimize",
    "verify_mixed",
    "uniqueness_probe",
]


@dataclass(frozen=True)
class MixedSolutionReport:
    """Named residuals of every mixed-solution condition."""

    r_obstacle: float
    r_continuation: float
    r_subsolution: float
    r_contact: float
    r_duality: float
    delta_c: float
    grid: dict

    @property
    def max_residual(self) -> float:
        # np.max, not max: a NaN anywhere is the result
        return float(np.max([self.r_obstacle, self.r_continuation, self.r_subsolution,
                             self.r_contact, self.r_duality]))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class StageReport:
    """One stage of a penalty continuation: its index, the stage's
    PenalizedTriple and the verifier's report of it."""

    stage: int
    solution: PenalizedTriple
    report: object

    @property
    def epsilon(self) -> float:
        return self.solution.epsilon

    @property
    def iterations(self) -> int:
        return self.solution.iterations


def penalized_coupled_solve(
    cost: CostOperator,
    rho: ScalarField,
    epsilon: float,
    tol_pde: float = 1e-8,
    m_init: ScalarField | None = None,
    strict: bool = True,
    warm: PenalizedTriple | None = None,
) -> PenalizedTriple:
    """Solve the penalized coupled system at one penalty level: the
    one-slice call of _coupled._penalized_stage.

    Unknowns (u, m) jointly solve
        A u + u^+ / eps          = f(m)
        A m + ramp(u/band)/eps m = rho,
    the exit rate ramped across the classification band |u| <= band, a
    concrete choice of the free interior alpha (alpha = 1 above the
    band, 0 below, linear inside). This is the time-dependent system
    with one slice: dt = 1, so B = A0 + I/dt is A, the data slice m_0 is
    rho, and the value source is paired with the new density (lag 0). A
    nonlocal cost f = c0 + c1 <w, m> enters through one bordered scalar
    unknown s = <w, m>. The returned (u, m) is the last Newton iterate.

    The start is m_init (default A^-1 rho) and the value of the
    unconstrained equation for f(m), both solved with the factor of A
    that the process keeps per grid (obstacle._shifted_factor at dt = 1). A
    warm start, the previous stage's solution, replaces both by its
    (u, m). The cost, m_init and the warm start must lie on the grid of
    rho, or ValueError is raised before any Newton step (grid._on_grid),
    as it is for a rho that is not nonnegative and finite.
    The solve has converged when its residual norm is at most tol_pde;
    strict=False returns the last iterate with converged=False instead
    of raising (used for warm-up continuation stages).
    """
    grid = _on_grid(rho.grid, None, cost, m_init, getattr(warm, "u", None),
                    getattr(warm, "m", None))
    _checked(rho.values, "rho", 0, slack=1e-12)
    if warm is not None:
        m, u, warm_band = warm.m.values, warm.u.values, warm.delta_band
    else:
        m = _shifted_factor(grid, 0.0, 1.0)(rho.values) if m_init is None else m_init.values
        # cold start from the unconstrained value equation
        u, warm_band = _shifted_factor(grid, 0.0, 1.0)(cost.evaluate(m)), None
    u, m, stage = _penalized_stage(cost, None, np.zeros((1, grid.n_total)), None, grid,
                                   np.stack([rho.values, m]), 1.0, epsilon, 0, tol_pde, u[None],
                                   warm_band, strict)
    return PenalizedTriple(u=ScalarField(grid, u[0]), m=ScalarField(grid, m[1]),
                           alpha=ScalarField(grid, _ramp(u[0] / stage["delta_band"])), **stage)


def default_eps_schedule(start: float = 0.1, factor: float = 4.0, stages: int = 8) -> list[float]:
    """The stages penalties start / factor**j, j = 0..stages-1; ValueError
    unless start > 0, factor > 1, stages >= 1 and each factor**j is a float."""
    start = _checked(start, "start", 0, above=True)
    factor = _checked(factor, "factor", 1, above=True)
    stages = _count(stages, "stages", 1)
    try:
        return [start / factor**j for j in range(stages)]
    except OverflowError:
        raise ValueError(f"eps_schedule: {factor:g}**{stages - 1} is too large "
                         "for a float") from None


def _checked_schedule(eps_schedule=None) -> list[float]:
    """The penalty schedule as a list of floats, default_eps_schedule()
    for None; raises ValueError unless it is nonempty and
    inf > e_0 > ... > e_last > 0 holds as one chain (a NaN fails every
    comparison)."""
    schedule = (default_eps_schedule() if eps_schedule is None
                else [float(e) for e in eps_schedule])
    chain = [np.inf, *schedule, 0.0]
    if not (schedule and all(e1 > e2 for e1, e2 in zip(chain, chain[1:]))):
        raise ValueError("eps_schedule must be a nonempty, strictly decreasing sequence "
                         "of positive, finite penalties")
    return schedule


def penalty_continuation(solve_stage, verify, eps_schedule=None):
    """The mixed solution as the limit of penalized solutions: one
    solve_stage(eps, warm, strict) per penalty of the checked schedule
    (default_eps_schedule() for None), warm-started from the previous
    stage's solution (None at the first) and strict at the last stage
    only, each verified by verify(solution).

    Returns (final solution, [StageReport]); a CoupledNonConvergence is
    re-raised with its stage index.
    """
    schedule = _checked_schedule(eps_schedule)
    sol = None
    stages: list[StageReport] = []
    for j, eps in enumerate(schedule):
        try:
            sol = solve_stage(eps, sol, j == len(schedule) - 1)
        except CoupledNonConvergence as err:
            raise CoupledNonConvergence(err.message, err.residual_history, stage=j) from err
        stages.append(StageReport(stage=j, solution=sol, report=verify(sol)))
    return sol, stages


def _nests(cost: CostOperator, grid, schedule) -> bool:
    """Whether _continuation runs the early stages on a coarser grid."""
    return (grid.dim >= 2 and all(n % 2 == 1 and n // 2 >= 15 for n in grid.n_interior)
            and len(schedule) >= 2 and cost.monotonicity == STRICT_MONOTONE)


def _continuation(cost, rho, eps_schedule, tol_pde=1e-8, m_init=None, strict=True):
    """Penalty continuation for the stationary system: warm-started
    penalized_coupled_solve stages along a decreasing schedule, the
    first from m_init, the last strict only when strict.

    On 2D grids the early stages run on coarser grids (nested iteration,
    as in full multigrid) when every axis has n = 2 n_c + 1 nodes with
    n_c >= 15, the schedule has at least 2 stages and the cost is
    strictly monotone: the continuation of schedule[:-1] runs, nested
    again where it can, on grid.coarsen's grid with rho, the cost's
    fields and m_init restricted to its nodes, and only the last stage
    runs on this grid, warm-started from the prolonged coarse (u, m,
    alpha). The mixed solution of a strictly monotone cost is unique, so
    the early stages change the cost of the solve, not its answer (up to
    the classification band, which each stage sets from its entry
    iterate).
    Other costs may have several solutions, and the stages may steer
    which one is found, so they stay on the fine grid; so do 1D grids,
    where the stages are cheap. The time-dependent continuations do not
    nest: one fine stage from a coarse 2D osmfg start did not converge.
    Coarse stages are warm-up stages like every stage but the last, so
    only the final fine stage can raise; a cost or m_init off the grid
    of rho, or a schedule that _checked_schedule rejects, raises
    ValueError before any stage.

    Returns (solution, stages): the final PenalizedTriple and one
    StageReport per stage, with the verify_mixed report of its (u, m)
    on the grid the stage ran on.
    """
    _on_grid(rho.grid, None, cost, m_init)
    schedule = _checked_schedule(eps_schedule)

    def verify(triple):
        return verify_mixed(triple.u, triple.m, cost, rho, delta_c=triple.delta_band)

    if not _nests(cost, rho.grid, schedule):
        def solve_stage(eps, warm, last):
            return penalized_coupled_solve(cost, rho, eps, tol_pde, m_init=m_init,
                                           strict=strict and last, warm=warm)

        return penalty_continuation(solve_stage, verify, schedule)
    coarse, restrict, prolong = coarsen(rho.grid)
    warm, stages = _continuation(cost.restricted(coarse, restrict), restrict(rho), schedule[:-1],
                                 tol_pde, None if m_init is None else restrict(m_init),
                                 strict=False)
    warm = replace(warm, u=prolong(warm.u), m=prolong(warm.m), alpha=prolong(warm.alpha))
    stage = len(schedule) - 1
    try:
        sol = penalized_coupled_solve(cost, rho, schedule[-1], tol_pde, strict=strict, warm=warm)
    except CoupledNonConvergence as err:
        raise CoupledNonConvergence(err.message, err.residual_history, stage=stage) from err
    return sol, stages + [StageReport(stage=stage, solution=sol, report=verify(sol))]


def monotone_iteration_solve(cost: CostOperator, rho: ScalarField):
    """Ordered fixed point for anti-monotone costs, from m = 0 upward.

    Each step solves the obstacle problem for u from f(m), then the
    density equation on the continuation set {u < -delta_c}, delta_c
    the default contact threshold. The m iterates must be nondecreasing
    and the u iterates nonincreasing nodewise, to 1e-10; a violation
    means the cost is mis-tagged or delta_c is too coarse, and raises.
    The iteration stops once successive densities agree to 1e-10, at
    most 50 steps. Converges to the smallest solution.

    Returns (u, m, steps).
    """
    if cost.monotonicity != ANTI_MONOTONE:
        raise ValueError(f"monotone iteration needs an anti-monotone cost, got {cost.monotonicity!r}")
    grid = rho.grid
    zero = ScalarField.zeros(grid)
    m = ScalarField.zeros(grid)
    u_prev = None
    tol = 1e-10
    for n in range(1, 51):
        u = solve_obstacle_stationary(cost(m), zero)
        if u_prev is not None and np.any(u.values > u_prev.values + tol):
            raise RuntimeError("u iterates not nonincreasing; cost mis-tagged or delta_c too large")
        continuation, _ = classify_nodes(u)
        m_next = solve_density_on_set(continuation, rho)
        if np.any(m_next.values < m.values - tol):
            raise RuntimeError("m iterates not nondecreasing; cost mis-tagged or delta_c too large")
        gap = float(np.max(np.abs(m_next.values - m.values)))
        if gap <= tol:
            return u, m_next, n
        m = m_next
        u_prev = u
    raise CoupledNonConvergence("monotone iteration did not converge", [gap])


def variational_minimize(potential: PotentialOperator, rho: ScalarField) -> ScalarField:
    """Minimize the integrated potential over {m >= 0, A m <= rho}.

    Semismooth Newton in whole active-set steps on the discrete KKT
    system in x = [u, m], the value u being the multiplier of A m <= rho
    (negated and divided by the cell volume):
        min(-D u, rho - A m) = 0,
        min(D m, f(m) - A u) = 0,
    with D = diag(A) scaling the rows as in the obstacle solve. Where the
    first min takes its rho - A m branch, the node's two rows trade
    places, so every row of the Jacobian sits on a nonzero diagonal entry
    and the LU keeps to the fill of the ordering. The start is the
    density capped at the cost's zero crossing (an obstacle problem) and
    the value of the obstacle problem for its cost. The potential must be
    strictly convex (cost strictly increasing in m; not None, as for a
    nonlocal cost) and on the grid of rho, or ValueError is raised.
    """
    if potential is None or potential.cost.monotonicity != STRICT_MONOTONE:
        raise ValueError("variational route requires a strictly monotone local cost")
    cost = potential.cost
    grid = _on_grid(rho.grid, None, potential)
    a = elliptic_matrix(grid)
    n = grid.n_total
    d = a.diagonal()
    rho_v = rho.values
    dd = sp.diags(d)
    assemble = row_select(sp.bmat([[-dd, None], [None, dd]]),
                          sp.bmat([[None, -a], [-a, None]]))

    def linearization(x):
        """The min terms, the branch mask and the row order at x."""
        uv, mv = x[:n], x[n:]
        g = np.concatenate([-d * uv, d * mv])
        h = np.concatenate([rho_v - a @ mv, cost.evaluate(mv) - a @ uv])
        mask = g <= h
        swap = np.flatnonzero(~mask[:n])
        order = np.arange(2 * n)
        order[swap], order[swap + n] = swap + n, swap
        return np.minimum(g, h), mask, order

    def residual(x):
        r, _, order = linearization(x)
        return r[order]

    def jacobian(x):
        _, mask, order = linearization(x)
        # f'(m) on the rows of the second min that take its cost branch
        fp = np.where(mask[n:], 0.0, cost.derivative(x[n:]))
        return (assemble(mask) + sp.diags(np.concatenate([np.zeros(n), fp])))[order]

    m0 = solve_obstacle_stationary(rho, ScalarField(grid, cost.zero_crossing()))
    u0 = solve_obstacle_stationary(cost(m0), ScalarField.zeros(grid))
    x, norms, _ = semismooth_newton(residual, jacobian, np.concatenate([u0.values, m0.values]),
                                    _TOL, _MAX_ITER, full_steps=True)
    u, m = x[:n], x[n:]
    kkt = np.concatenate([np.minimum(-u, rho_v - a @ m), np.minimum(m, cost.evaluate(m) - a @ u)])
    if not float(np.max(np.abs(kkt))) <= _TOL:
        raise CoupledNonConvergence("variational Newton did not converge", norms)
    return ScalarField(grid, np.maximum(m, 0.0))


def verify_mixed(
    u: ScalarField,
    m: ScalarField,
    cost: CostOperator,
    rho: ScalarField,
    delta_c: float | None = None,
    psi: ScalarField | None = None,
) -> MixedSolutionReport:
    """Compute the five mixed-solution residuals for a candidate pair.

    The residuals are those of the time-dependent residual core,
    _coupled._residuals, in its one-slice case, as the solver's system
    is: dt = 1, u_1 = 0, m_0 = rho, lag 0. With an obstacle psi the pair
    is checked in shifted form v = u - psi with g = -A psi, so the
    effective cost is f(m) - A psi; psi = 0 gives the plain system. u,
    m, the cost, rho and psi must share one grid, or ValueError is
    raised. The contact threshold actually used is recorded.
    """
    grid = _on_grid(u.grid, None, m, cost, rho, psi)
    zero = np.zeros(grid.n_total)
    psi_vals = zero if psi is None else psi.values
    g = zero if psi is None else -(elliptic_matrix(grid) @ psi_vals)
    return MixedSolutionReport(**_residuals(
        grid, 1.0, 0, cost, None, np.stack([u.values, zero]), np.stack([rho.values, m.values]),
        np.stack([psi_vals, zero]), np.stack([g, zero]), delta_c))


def uniqueness_probe(
    cost: CostOperator,
    rho: ScalarField,
    n_starts: int = 5,
    seed: int = 0,
    eps_schedule=None,
) -> float:
    """Max pairwise density gap over continuation runs from scaled starts.

    Starts are s_k * (A^-1 rho) with n_starts deterministic draws
    s_k ~ U[0, 2) from the seed. Strictly monotone costs give a gap at
    solver precision; non-monotone costs can land on distinct solutions.
    """
    n_starts = _count(n_starts, "n_starts", 2)
    seed = _count(seed, "seed", 0)
    grid = rho.grid
    m_base = _shifted_factor(grid, 0.0, 1.0)(rho.values)
    solves = (_continuation(cost, rho, eps_schedule, m_init=ScalarField(grid, s * m_base))
              for s in np.random.default_rng(seed).uniform(0.0, 2.0, n_starts))
    results = [sol.m.values for sol, _ in solves]
    return max(0.0, *(float(np.max(np.abs(a - b)))
                      for i, a in enumerate(results) for b in results[i + 1:]))
