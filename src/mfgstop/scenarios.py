"""Canonical instances and counterexample constructions, built
programmatically and fed to the solvers and verifiers: a registry of
standard regression fixtures plus the three special constructions
(non-uniqueness, non-existence of classical solutions, and obstacle-
induced non-uniqueness for strictly monotone costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import Hamiltonian, cosmfg_coupled_solve, verify_cosmfg
from .costs import CostOperator
from .evolutive import ObstacleOperator, osmfg_continuation, verify_mixed_evolutive
from .grid import (
    Grid,
    ScalarField,
    TimeGrid,
    build_grid,
    build_timegrid,
    default_contact_threshold,
    elliptic_matrix,
    inner,
)
from .obstacle import _shifted_factor
from .stationary import (
    MixedSolutionReport,
    continuation_solve,
    default_eps_schedule,
    verify_mixed,
)

__all__ = [
    "Scenario",
    "STANDARD_NAMES",
    "scenario_standard",
    "scenario_nonuniqueness",
    "scenario_nonexistence",
    "scenario_obstacle_nonuniqueness",
    "raised_cosine_bump",
    "gaussian_density",
    "solve_problem",
    "verify_problem",
    "run_scenario_evidence",
]


def raised_cosine_bump(grid: Grid, peak: float = 1.0) -> ScalarField:
    """Smooth nonnegative bump supported in the middle third of the box."""
    coords = grid.coordinates()
    centre = np.array([(a + b) / 2 for a, b in grid.bounds])
    radius = min((b - a) / 6 for a, b in grid.bounds)
    r = np.linalg.norm(coords - centre, axis=1)
    vals = np.where(r <= radius, 0.5 * peak * (1.0 + np.cos(np.pi * r / radius)), 0.0)
    return ScalarField(grid, vals)


def gaussian_density(grid: Grid, sigma: float = 0.1, mass: float = 1.0) -> ScalarField:
    """Gaussian bump at the domain centre, normalized to a discrete mass."""
    coords = grid.coordinates()
    centre = np.array([(a + b) / 2 for a, b in grid.bounds])
    r2 = np.sum((coords - centre) ** 2, axis=1)
    vals = np.exp(-r2 / (2 * sigma**2))
    total = float(np.sum(vals)) * grid.cell_volume
    return ScalarField(grid, vals * (mass / total))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully specified instance: grids, data, and the expected outcome."""

    name: str
    problem: str  # "sosmfg" | "osmfg" | "cosmfg"
    grid: Grid
    cost: CostOperator
    expected_outcome: str
    rho: ScalarField | None = None
    m0: ScalarField | None = None
    timegrid: TimeGrid | None = None
    obstacle_op: ObstacleOperator | None = None
    hamiltonian: Hamiltonian | None = None
    eps_schedule: tuple[float, ...] = field(default_factory=lambda: tuple(default_eps_schedule()))


def _monotone_cost(grid: Grid) -> CostOperator:
    return CostOperator.local_power(grid, a=1.0, p=1.0, f0=ScalarField.constant(grid, -0.5))


def _build_monotone_1d() -> Scenario:
    grid = build_grid(1, (0.0, 1.0), 31)
    return Scenario(
        name="monotone_1d", problem="sosmfg", grid=grid,
        cost=_monotone_cost(grid), rho=raised_cosine_bump(grid),
        expected_outcome="unique_mixed",
    )


def _build_monotone_2d() -> Scenario:
    grid = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (15, 15))
    return Scenario(
        name="monotone_2d", problem="sosmfg", grid=grid,
        cost=_monotone_cost(grid), rho=raised_cosine_bump(grid),
        expected_outcome="unique_mixed",
    )


def _build_anti_monotone_1d() -> Scenario:
    # bistable by construction: f(0) > 0 (so (0, 0) solves the system)
    # while f at the unconstrained density is negative (so it solves too)
    grid = build_grid(1, (0.0, 1.0), 31)
    rho = raised_cosine_bump(grid)
    weight = raised_cosine_bump(grid)
    m_star = ScalarField(grid, _shifted_factor(grid, 0.0, 1.0)(rho.values))
    pairing = inner(weight, m_star)
    c0 = 0.25
    c1 = -(c0 + 0.5) / pairing
    cost = CostOperator.nonlocal_affine(grid, c0=c0, c1=c1, weight=weight)
    return Scenario(
        name="anti_monotone_1d", problem="sosmfg", grid=grid,
        cost=cost, rho=rho, expected_outcome="multiple_classical",
    )


def _build_evolutive_psi0() -> Scenario:
    grid = build_grid(1, (0.0, 1.0), 31)
    tg = build_timegrid(1.0, 50)
    return Scenario(
        name="evolutive_psi0", problem="osmfg", grid=grid,
        cost=_monotone_cost(grid), m0=gaussian_density(grid), timegrid=tg,
        obstacle_op=ObstacleOperator.zero(grid, tg),
        expected_outcome="unique_mixed",
    )


def _build_evolutive_heat_g() -> Scenario:
    grid = build_grid(1, (0.0, 1.0), 31)
    tg = build_timegrid(1.0, 50)
    g_cost = CostOperator.local_power(grid, a=0.5, p=1.0, f0=ScalarField.zeros(grid))
    return Scenario(
        name="evolutive_heat_g", problem="osmfg", grid=grid,
        cost=_monotone_cost(grid), m0=gaussian_density(grid), timegrid=tg,
        obstacle_op=ObstacleOperator.heat_source(g_cost),
        expected_outcome="unique_mixed",
    )


def _build_control_smoothnorm() -> Scenario:
    grid = build_grid(1, (0.0, 1.0), 31)
    tg = build_timegrid(1.0, 50)
    return Scenario(
        name="control_smoothnorm", problem="cosmfg", grid=grid,
        cost=_monotone_cost(grid), m0=gaussian_density(grid), timegrid=tg,
        hamiltonian=Hamiltonian.smoothed_norm(ScalarField.constant(grid, 1.0)),
        expected_outcome="unique_mixed",
    )


_REGISTRY = {
    "monotone_1d": _build_monotone_1d,
    "monotone_2d": _build_monotone_2d,
    "anti_monotone_1d": _build_anti_monotone_1d,
    "evolutive_psi0": _build_evolutive_psi0,
    "evolutive_heat_g": _build_evolutive_heat_g,
    "control_smoothnorm": _build_control_smoothnorm,
}

STANDARD_NAMES = tuple(sorted(_REGISTRY))


def scenario_standard(name: str) -> Scenario:
    """Deterministic fully specified instance from the registry."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; registered: {', '.join(STANDARD_NAMES)}")
    return builder()


# ---------------------------------------------------------------------------
# Counterexample constructions


@dataclass(frozen=True, eq=False)
class NonuniquenessEvidence:
    scenario: Scenario
    m_star: ScalarField
    u_star: ScalarField
    report_zero: MixedSolutionReport
    report_star: MixedSolutionReport
    gap: float


def scenario_nonuniqueness() -> NonuniquenessEvidence:
    """Two verified solutions for one non-monotone nonlocal cost.

    The cost f(m) = 1 - 2 <w, m> / <w, m*> (w the distance to the
    domain centre) gives f(m*) = -1 and f(0) = +1, so both (0, 0) and
    (u*, m*) with u* solving the linear equation with source -1 pass
    the mixed-solution verifier. The grid has 31 interior nodes on
    (0, 1).
    """
    grid = build_grid(1, (0.0, 1.0), 31)
    rho = raised_cosine_bump(grid)
    solve = _shifted_factor(grid, 0.0, 1.0)
    m_star = ScalarField(grid, solve(rho.values))
    coords = grid.coordinates()
    centre = np.array([(lo + hi) / 2 for lo, hi in grid.bounds])
    weight = ScalarField(grid, np.linalg.norm(coords - centre, axis=1))
    e_star = inner(weight, m_star)
    cost = CostOperator.nonlocal_affine(grid, c0=1.0, c1=-2.0 / e_star, weight=weight)
    f_star = cost(m_star).values
    f_zero = cost(ScalarField.zeros(grid)).values
    if np.max(np.abs(f_star + 1.0)) > 1e-12 or np.max(np.abs(f_zero - 1.0)) > 1e-12:
        raise AssertionError("cost normalization failed: expected f(m*) = -1, f(0) = +1")
    u_star = ScalarField(grid, solve(f_star))
    zero = ScalarField.zeros(grid)
    delta_c = default_contact_threshold(u_star.values, zero.values)
    if np.any(u_star.values >= -delta_c):
        raise RuntimeError("contact set of u* is nonempty; refine the grid")
    report_zero = verify_mixed(zero, zero, cost, rho, delta_c=delta_c)
    report_star = verify_mixed(u_star, m_star, cost, rho, delta_c=delta_c)
    scenario = Scenario(name="nonuniqueness", problem="sosmfg", grid=grid, cost=cost,
                        rho=rho, expected_outcome="multiple_classical")
    return NonuniquenessEvidence(
        scenario=scenario, m_star=m_star, u_star=u_star,
        report_zero=report_zero, report_star=report_star,
        gap=float(np.max(np.abs(m_star.values))),
    )


@dataclass(frozen=True)
class NonexistenceStage:
    epsilon: float
    report: MixedSolutionReport
    contact_mass: float
    ratio: float


@dataclass(frozen=True, eq=False)
class NonexistenceEvidence:
    scenario: Scenario
    u_star: ScalarField
    m_star: ScalarField
    stages: tuple[NonexistenceStage, ...]
    u: ScalarField
    m: ScalarField
    final_report: MixedSolutionReport
    classical_floor: float


def scenario_nonexistence(ball_radius: float = 0.0) -> NonexistenceEvidence:
    """Strictly monotone cost with no classical solution.

    The cost is built so that the natural candidate pair (u*, m*) has
    u* vanishing only at the centre (or on a small ball) while m* stays
    strictly positive there, so no classical solution can exist. The
    penalty continuation along default_eps_schedule() still converges to
    a mixed solution; the mass on the contact band stays above a positive
    floor at every stage, which is the reported evidence of genuinely
    mixed behavior. The grid has 31 interior nodes on (0, 1).
    """
    grid = build_grid(1, (0.0, 1.0), 31)
    rho = raised_cosine_bump(grid)
    a = elliptic_matrix(grid)
    m_star_vals = _shifted_factor(grid, 0.0, 1.0)(rho.values)
    if np.any(m_star_vals <= 0):
        raise AssertionError("m* must be strictly positive at interior nodes")
    m_star = ScalarField(grid, m_star_vals)
    x = grid.coordinates()[:, 0]
    x0_index = int(np.argmin(np.abs(x - 0.5)))
    x0 = x[x0_index]
    profile = -np.sin(np.pi * x) * np.maximum(np.abs(x - x0) - ball_radius, 0.0) ** 2
    base_raw = a @ profile
    flat = profile == 0.0
    denom = float(np.max(base_raw[flat]))
    if denom <= 0:
        raise AssertionError("touching set must carry positive elliptic image")
    # scale so the cost's zero level on the touching set keeps most of m*
    # (and the discrete contact integral of base * m stays small)
    scale = 0.1 * float(np.min(m_star_vals[flat])) / denom
    u_star = ScalarField(grid, scale * profile)
    base = ScalarField(grid, a @ u_star.values)
    cost = CostOperator.local_affine_shifted(grid, base=base, m_ref=m_star)
    if np.max(np.abs(cost(m_star).values - base.values)) > 1e-12:
        raise AssertionError("construction must satisfy A u* = f(m*) nodewise")

    # tabulate the contact-band mass of every stage's solution against epsilon
    triple, stages = continuation_solve(cost, rho)
    stage_rows = []
    for sr in stages:
        contact = sr.solution.u.values >= -sr.solution.delta_band
        contact_mass = float(np.sum(sr.solution.m.values[contact])) * grid.cell_volume
        stage_rows.append(NonexistenceStage(
            epsilon=sr.epsilon, report=sr.report, contact_mass=contact_mass,
            ratio=contact_mass / max(sr.report.r_contact, 1e-30)))
    scenario = Scenario(name="nonexistence", problem="sosmfg", grid=grid, cost=cost,
                        rho=rho, expected_outcome="no_classical_mixed_exists",
                        eps_schedule=tuple(sr.epsilon for sr in stages))
    return NonexistenceEvidence(
        scenario=scenario, u_star=u_star, m_star=m_star,
        stages=tuple(stage_rows), u=triple.u, m=triple.m,
        final_report=stages[-1].report,
        classical_floor=min(row.contact_mass for row in stage_rows),
    )


@dataclass(frozen=True, eq=False)
class ObstacleNonuniquenessEvidence:
    scenario: Scenario
    u_star: ScalarField
    m_star: ScalarField
    u_low: ScalarField
    psi_at_m_star: ScalarField
    psi_at_zero: ScalarField
    report_star: MixedSolutionReport
    report_low: MixedSolutionReport
    gap: float


def scenario_obstacle_nonuniqueness() -> ObstacleNonuniquenessEvidence:
    """For the strictly monotone cost of the registry scenarios, an
    m-dependent obstacle that admits two verified solutions: the
    interpolation psi(m) between u* (at m = m*) and u_low (at m = 0)
    makes both endpoints solve the system. The grid has 31 interior
    nodes on (0, 1); nodes where m* is below 1e-10 max(m*) take
    psi = u_low.
    """
    grid = build_grid(1, (0.0, 1.0), 31)
    rho = raised_cosine_bump(grid)
    cost = _monotone_cost(grid)
    solve = _shifted_factor(grid, 0.0, 1.0)
    m_star_vals = solve(rho.values)
    m_star = ScalarField(grid, m_star_vals)
    u_star = ScalarField(grid, solve(cost(m_star).values))
    u_low = ScalarField(grid, solve(cost(ScalarField.zeros(grid)).values))
    floor = 1e-10 * float(np.max(m_star_vals))
    guarded = m_star_vals < floor
    if np.any(guarded & (rho.values > 0)):
        raise RuntimeError("ratio floor triggered at interior nodes carrying mass; refine the grid")

    def psi_of(m: ScalarField) -> ScalarField:
        frac = np.where(guarded, 0.0, m.values / np.where(guarded, 1.0, m_star_vals))
        return ScalarField(grid, u_star.values * frac + (1.0 - frac) * u_low.values)

    psi_star = psi_of(m_star)
    psi_zero = psi_of(ScalarField.zeros(grid))
    if np.max(np.abs(psi_star.values - u_star.values)) > 1e-13 * (1 + u_star.max_abs()):
        raise AssertionError("psi(m*) must equal u* nodewise")
    if np.max(np.abs(psi_zero.values - u_low.values)) > 1e-13 * (1 + u_low.max_abs()):
        raise AssertionError("psi(0) must equal u_low nodewise")
    report_star = verify_mixed(u_star, m_star, cost, rho, psi=psi_star)
    report_low = verify_mixed(u_low, ScalarField.zeros(grid), cost, rho, psi=psi_zero)
    scenario = Scenario(name="obstacle_nonuniqueness", problem="sosmfg", grid=grid,
                        cost=cost, rho=rho, expected_outcome="multiple_with_obstacle")
    return ObstacleNonuniquenessEvidence(
        scenario=scenario, u_star=u_star, m_star=m_star, u_low=u_low,
        psi_at_m_star=psi_star, psi_at_zero=psi_zero,
        report_star=report_star, report_low=report_low,
        gap=float(np.max(np.abs(m_star_vals))),
    )


# ---------------------------------------------------------------------------
# One problem, its continuation and its verifier; spec is a Scenario or a
# cli.RunConfig, read by the fields the two share: problem, cost, rho, m0,
# timegrid, obstacle_op, hamiltonian and eps_schedule


def solve_problem(spec, tol_pde: float = 1e-8):
    """The penalty continuation of spec's problem along its eps_schedule:
    continuation_solve (sosmfg), osmfg_continuation (osmfg) or
    cosmfg_coupled_solve (cosmfg), a stage converged at a residual norm
    of at most tol_pde. Returns its (solution, stages)."""
    if spec.problem == "sosmfg":
        return continuation_solve(spec.cost, spec.rho, spec.eps_schedule, tol_pde)
    if spec.problem == "osmfg":
        return osmfg_continuation(spec.cost, spec.obstacle_op, spec.m0, spec.timegrid,
                                  spec.eps_schedule, tol_pde)
    return cosmfg_coupled_solve(spec.cost, spec.hamiltonian, spec.m0, spec.timegrid,
                                spec.eps_schedule, tol_pde)


def verify_problem(spec, u, m, delta_c: float | None = None):
    """The report of spec's verifier on the candidate (u, m): verify_mixed
    (sosmfg), verify_mixed_evolutive (osmfg) or verify_cosmfg (cosmfg),
    with contact threshold delta_c (None for the verifier's default)."""
    if spec.problem == "sosmfg":
        return verify_mixed(u, m, spec.cost, spec.rho, delta_c=delta_c)
    if spec.problem == "osmfg":
        return verify_mixed_evolutive(u, m, spec.cost, spec.obstacle_op, spec.m0,
                                      delta_c=delta_c)
    return verify_cosmfg(u, m, spec.cost, spec.hamiltonian, spec.m0, delta_c=delta_c)


# ---------------------------------------------------------------------------
# Evidence runs of the registry scenarios (used by `mfgstop scenario`)


def run_scenario_evidence(scenario: Scenario) -> dict:
    """Solve a registry scenario by penalty continuation (solve_problem).

    Returns a dict with the final solution, the verifier report of the
    last stage, the stage list, the minimum density and the largest mass
    increase between time slices (0 for the stationary problem).
    """
    sol, stages = solve_problem(scenario)
    m_arr = np.atleast_2d(sol.m.values)
    masses = m_arr.sum(axis=1) * scenario.grid.cell_volume
    return {"name": scenario.name, "problem": scenario.problem,
            "expected_outcome": scenario.expected_outcome, "solution": sol,
            "report": stages[-1].report, "stage_reports": stages,
            "min_density": float(np.min(m_arr)),
            "mass_monotone_violation": float(np.max(np.diff(masses), initial=0.0))}
