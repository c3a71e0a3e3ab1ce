"""The one problem record (Scenario), built from a run config's problem
part by problem_from_config, and the one map from it to its solve and
its verifier: solve_problem, the one entry of the penalty continuation
of every problem, and verify_problem. Also a registry of standard
regression fixtures, each a config body, plus the three special
constructions (non-uniqueness, non-existence of classical solutions,
and obstacle-induced non-uniqueness for strictly monotone costs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._coupled import forward_backward_solve
from .control import Hamiltonian, verify_cosmfg
from .costs import CostOperator
from .evolutive import ObstacleOperator, verify_mixed_evolutive
from .grid import (
    FieldTrajectory,
    Grid,
    ScalarField,
    TimeGrid,
    _checked,
    _count,
    build_grid,
    build_timegrid,
    default_contact_threshold,
    elliptic_matrix,
    inner,
)
from .obstacle import _shifted_factor
from .stationary import (
    MixedSolutionReport,
    _checked_schedule,
    _continuation,
    default_eps_schedule,
    penalty_continuation,
    verify_mixed,
)

__all__ = [
    "Scenario",
    "problem_from_config",
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
    """Gaussian bump at the domain centre, normalized to a discrete mass.
    ValueError unless sigma is positive and finite and mass finite
    (grid._checked), and naming sigma where it is too narrow to leave
    mass on the grid, so that the normalized field would not be finite."""
    sigma = _checked(sigma, "sigma", 0, above=True)
    mass = _checked(mass, "mass")
    coords = grid.coordinates()
    centre = np.array([(a + b) / 2 for a, b in grid.bounds])
    r2 = np.sum((coords - centre) ** 2, axis=1)
    with np.errstate(all="ignore"):
        vals = np.exp(-r2 / (2 * sigma**2))
        vals = vals * (mass / (np.sum(vals) * grid.cell_volume))
    return ScalarField(grid, _checked(vals, f"the gaussian of sigma={sigma:g} on this grid"))


# the fields each problem needs besides its grid and cost
_NEEDS = {"sosmfg": ("rho",), "osmfg": ("timegrid", "m0"),
          "cosmfg": ("timegrid", "m0", "hamiltonian")}


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully specified problem: grids, data, penalty schedule, and the
    expected outcome. A problem outside sosmfg, osmfg and cosmfg, or
    without the fields it needs (sosmfg rho; osmfg timegrid and m0;
    cosmfg those and a hamiltonian), raises ValueError naming it."""

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

    def __post_init__(self):
        if self.problem not in _NEEDS:
            raise ValueError(f"problem must be one of {sorted(_NEEDS)}, got {self.problem!r}")
        missing = [name for name in _NEEDS[self.problem] if getattr(self, name) is None]
        if missing:
            raise ValueError(f"problem {self.problem!r} needs {' and '.join(missing)}")


# ---------------------------------------------------------------------------
# The problem part of a run config (see README for the schema)


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _numbers(values, where: str) -> np.ndarray:
    """values as a float array if it is a JSON list whose entries are
    numbers that grid._checked takes, or lists of them; anything else
    raises ValueError."""
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers, got "
                          f"{type(values).__name__} {values!r}")
    # a long list of floats passes in one C-level sweep of its types
    if set(map(type, values)) - {float}:
        for i, value in enumerate(values):
            (_numbers if isinstance(value, list) else _checked)(value, f"{where}[{i}]")
    return _checked(values, where)


def _reject_non_finite(node, where: str = "config"):
    """Raise ValueError at a NaN or infinite number anywhere in a parsed
    config; Python's json reads the tokens NaN, Infinity and 1e999."""
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{where}.{key}")
    elif isinstance(node, list):
        try:  # a long list of finite numbers passes in one C-level sweep
            if all(map(math.isfinite, node)):
                return
        except (TypeError, OverflowError):  # it holds more than floats
            pass
        for i, value in enumerate(node):
            _reject_non_finite(value, f"{where}[{i}]")
    elif isinstance(node, float):
        _checked(node, where)


def _build_field(grid, spec, what: str) -> ScalarField:
    """The field spec on grid; ValueError unless every value is finite:
    each kind checks its numbers, and a gaussian of sigma 0 or too narrow
    for the grid (gaussian_density) holds no finite values."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what}: field spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "constant":
        built = ScalarField.constant(grid, _checked(_require(spec, "value", what), f"{what}.value"))
    elif kind == "raised_cosine":
        built = raised_cosine_bump(grid, peak=_checked(spec.get("peak", 1.0), f"{what}.peak"))
    elif kind == "gaussian":
        sigma = _checked(spec.get("sigma", 0.1), f"{what}.sigma", 0)
        mass = _checked(spec.get("mass", 1.0), f"{what}.mass")
        try:
            built = gaussian_density(grid, sigma=sigma, mass=mass)
        except ValueError:
            raise ValueError(f"{what} must hold finite values") from None
    elif kind == "values":
        built = ScalarField(grid, _numbers(_require(spec, "values", what), f"{what}.values"))
    else:
        raise ConfigError(f"{what}: unknown field kind {kind!r}")
    return built


def _build_cost(grid, spec) -> CostOperator:
    kind = _require(spec, "kind", "cost")
    if kind == "local_power":
        return CostOperator.local_power(
            grid, a=_checked(_require(spec, "a", "cost"), "cost.a"),
            p=_checked(spec.get("p", 1.0), "cost.p"),
            f0=_build_field(grid, _require(spec, "f0", "cost"), "cost.f0"))
    if kind == "nonlocal_affine":
        return CostOperator.nonlocal_affine(
            grid, c0=_checked(_require(spec, "c0", "cost"), "cost.c0"),
            c1=_checked(_require(spec, "c1", "cost"), "cost.c1"),
            weight=_build_field(grid, _require(spec, "weight", "cost"), "cost.weight"))
    if kind == "local_affine_shifted":
        return CostOperator.local_affine_shifted(
            grid, base=_build_field(grid, _require(spec, "base", "cost"), "cost.base"),
            m_ref=_build_field(grid, _require(spec, "m_ref", "cost"), "cost.m_ref"))
    raise ConfigError(f"unknown cost kind {kind!r}")


def problem_from_config(raw: dict, name: str = "config",
                        expected_outcome: str = "unknown") -> Scenario:
    """The problem a parsed run config describes (its keys problem, grid,
    timegrid, cost, rho or m0, obstacle, hamiltonian and eps_schedule),
    named name; ValueError on a value the schema or the solvers reject,
    a ConfigError where the schema names the fault (a missing key, an
    unknown kind, a bad penalty schedule)."""
    _reject_non_finite(raw)
    problem = _require(raw, "problem")
    if problem not in _NEEDS:
        raise ConfigError(f"problem must be one of {sorted(_NEEDS)}")
    gspec = _require(raw, "grid")
    n_interior = _require(gspec, "n_interior", "grid")
    for k in n_interior if isinstance(n_interior, list) else [n_interior]:
        _count(k, "grid.n_interior")
    grid = build_grid(_count(_require(gspec, "dim", "grid"), "grid.dim"),
                      _numbers(_require(gspec, "bounds", "grid"), "grid.bounds"), n_interior)
    timegrid = None
    if problem != "sosmfg":
        tspec = _require(raw, "timegrid")
        timegrid = build_timegrid(
            _checked(_require(tspec, "horizon", "timegrid"), "timegrid.horizon"),
            _count(_require(tspec, "n_steps", "timegrid"), "timegrid.n_steps"))
    cost = _build_cost(grid, _require(raw, "cost"))
    if problem != "sosmfg" and not cost.is_local:
        raise ConfigError(f"problem {problem!r} needs a local cost, got {cost.kind!r}")
    what = "rho" if problem == "sosmfg" else "m0"
    source = _build_field(grid, _require(raw, what), what)
    _checked(source.values, what, 0, slack=1e-12)
    obstacle_op = None
    if problem == "osmfg":
        ospec = raw.get("obstacle", {"kind": "zero"})
        okind = _require(ospec, "kind", "obstacle")
        if okind == "zero":
            obstacle_op = ObstacleOperator.zero(grid, timegrid)
        elif okind == "constant_field":
            psi = _build_field(grid, _require(ospec, "psi", "obstacle"), "obstacle.psi")
            obstacle_op = ObstacleOperator.constant(FieldTrajectory(
                grid, timegrid, np.tile(psi.values, (timegrid.n_steps + 1, 1))))
        elif okind == "heat_from_g":
            obstacle_op = ObstacleOperator.heat_source(
                _build_cost(grid, _require(ospec, "g", "obstacle")))
        else:
            raise ConfigError(f"unknown obstacle kind {okind!r}")
    hamiltonian = None
    if problem == "cosmfg":
        hspec = _require(raw, "hamiltonian")
        hkind = _require(hspec, "kind", "hamiltonian")
        if hkind == "smoothed_norm":
            hamiltonian = Hamiltonian.smoothed_norm(
                _build_field(grid, _require(hspec, "beta", "hamiltonian"), "hamiltonian.beta"))
        elif hkind == "quadratic":
            outside = hspec.get("outside_assumptions", False)
            if not isinstance(outside, bool):
                raise ConfigError("hamiltonian.outside_assumptions must be true or false, "
                                  f"got {outside!r}")
            hamiltonian = Hamiltonian.quadratic(grid, outside_assumptions=outside)
        else:
            raise ConfigError(f"unknown hamiltonian kind {hkind!r}")
    es = raw.get("eps_schedule", {})
    spec = isinstance(es, dict)
    if spec:
        es = (_checked(es.get("start", 0.1), "eps_schedule.start"),
              _checked(es.get("factor", 4.0), "eps_schedule.factor"),
              _count(es.get("stages", 8), "eps_schedule.stages"))
    elif es is not None:
        es = _numbers(es, "eps_schedule")
    try:
        eps_schedule = tuple(_checked_schedule(default_eps_schedule(*es) if spec else es))
    except ValueError:
        raise ConfigError("eps_schedule must be a nonempty, strictly decreasing "
                          "sequence of positive penalties") from None
    return Scenario(name=name, problem=problem, grid=grid, cost=cost,
                    expected_outcome=expected_outcome,
                    rho=source if what == "rho" else None, m0=source if what == "m0" else None,
                    timegrid=timegrid, obstacle_op=obstacle_op, hamiltonian=hamiltonian,
                    eps_schedule=eps_schedule)


# ---------------------------------------------------------------------------
# The registry: one config body per scenario, with its expected outcome

_UNIT_31 = {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [31]}
_MONOTONE_COST = {"kind": "local_power", "a": 1.0, "p": 1.0,
                  "f0": {"kind": "constant", "value": -0.5}}
_BUMP = {"kind": "raised_cosine"}
_TIME_DEPENDENT = {"grid": _UNIT_31, "timegrid": {"horizon": 1.0, "n_steps": 50},
                   "cost": _MONOTONE_COST, "m0": {"kind": "gaussian"}}

_REGISTRY = {
    "monotone_1d": ("unique_mixed", {
        "problem": "sosmfg", "grid": _UNIT_31, "cost": _MONOTONE_COST, "rho": _BUMP}),
    "monotone_2d": ("unique_mixed", {
        "problem": "sosmfg", "grid": {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]],
                                      "n_interior": [15, 15]},
        "cost": _MONOTONE_COST, "rho": _BUMP}),
    # bistable by construction: f(0) = c0 > 0, so (0, 0) solves the
    # system, while c1 = -(c0 + 0.5) / <weight, A^-1 rho> puts f at the
    # unconstrained density A^-1 rho at -0.5, so it solves too
    "anti_monotone_1d": ("multiple_classical", {
        "problem": "sosmfg", "grid": _UNIT_31, "rho": _BUMP, "cost": {
            "kind": "nonlocal_affine", "c0": 0.25, "c1": -136.65074987544517, "weight": _BUMP}}),
    "evolutive_psi0": ("unique_mixed", {
        "problem": "osmfg", **_TIME_DEPENDENT, "obstacle": {"kind": "zero"}}),
    "evolutive_heat_g": ("unique_mixed", {
        "problem": "osmfg", **_TIME_DEPENDENT, "obstacle": {"kind": "heat_from_g", "g": {
            "kind": "local_power", "a": 0.5, "p": 1.0, "f0": {"kind": "constant", "value": 0.0}}}}),
    "control_smoothnorm": ("unique_mixed", {
        "problem": "cosmfg", **_TIME_DEPENDENT,
        "hamiltonian": {"kind": "smoothed_norm", "beta": {"kind": "constant", "value": 1.0}}}),
}

STANDARD_NAMES = tuple(sorted(_REGISTRY))


def scenario_standard(name: str) -> Scenario:
    """Deterministic fully specified instance from the registry."""
    try:
        expected_outcome, config = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; registered: {', '.join(STANDARD_NAMES)}")
    return problem_from_config(config, name, expected_outcome)


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

    scenario = Scenario(name="nonexistence", problem="sosmfg", grid=grid, cost=cost,
                        rho=rho, expected_outcome="no_classical_mixed_exists")
    # tabulate the contact-band mass of every stage's solution against epsilon
    triple, stages = solve_problem(scenario)
    stage_rows = []
    for sr in stages:
        contact = sr.solution.u.values >= -sr.solution.delta_band
        contact_mass = float(np.sum(sr.solution.m.values[contact])) * grid.cell_volume
        stage_rows.append(NonexistenceStage(
            epsilon=sr.epsilon, report=sr.report, contact_mass=contact_mass,
            ratio=contact_mass / max(sr.report.r_contact, 1e-30)))
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
    cost = _build_cost(grid, _MONOTONE_COST)
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
# One problem, its continuation and its verifier


def solve_problem(scenario: Scenario, tol_pde: float = 1e-8):
    """The penalty continuation of the scenario's problem: the one
    stationary.penalty_continuation along its eps_schedule, each stage
    converged at a residual norm of at most tol_pde and verified by
    verify_problem at its classification band. sosmfg stages are
    penalized_coupled_solve, nested on coarser grids by
    stationary._continuation; osmfg and cosmfg stages are
    forward_backward_solve with the scenario's obstacle (the zero one
    for cosmfg) and Hamiltonian. Returns its (solution, stages)."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"solve_problem takes a Scenario, got {type(scenario).__name__}")
    if scenario.problem == "sosmfg":
        return _continuation(scenario.cost, scenario.rho, scenario.eps_schedule, tol_pde)
    obstacle_op = scenario.obstacle_op or ObstacleOperator.zero(scenario.grid, scenario.timegrid)

    def solve_stage(eps, warm, strict):
        return forward_backward_solve(scenario.cost, scenario.m0, scenario.timegrid, eps, tol_pde,
                                      obstacle_op=obstacle_op, hamiltonian=scenario.hamiltonian,
                                      warm=warm, strict=strict)

    def verify(sol):
        return verify_problem(scenario, sol.u, sol.m, sol.delta_band)

    return penalty_continuation(solve_stage, verify, scenario.eps_schedule)


def verify_problem(scenario: Scenario, u, m, delta_c: float | None = None):
    """The report of the scenario's verifier on the candidate (u, m):
    verify_mixed (sosmfg), verify_mixed_evolutive (osmfg) or
    verify_cosmfg (cosmfg), with contact threshold delta_c (None for the
    verifier's default)."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"verify_problem takes a Scenario, got {type(scenario).__name__}")
    if scenario.problem == "sosmfg":
        return verify_mixed(u, m, scenario.cost, scenario.rho, delta_c=delta_c)
    if scenario.problem == "osmfg":
        return verify_mixed_evolutive(u, m, scenario.cost, scenario.obstacle_op, scenario.m0,
                                      delta_c=delta_c)
    return verify_cosmfg(u, m, scenario.cost, scenario.hamiltonian, scenario.m0,
                         delta_c=delta_c)


# ---------------------------------------------------------------------------
# Evidence runs of the registry scenarios (used by `mfgstop scenario`)


def run_scenario_evidence(scenario: Scenario) -> dict:
    """Solve a registry scenario by penalty continuation (solve_problem).

    Returns a dict with the problem, its expected outcome, the final
    solution, the verifier report of the last stage, the minimum density
    and the largest mass increase between time slices (0 for the
    stationary problem).
    """
    sol, stages = solve_problem(scenario)
    m_arr = np.atleast_2d(sol.m.values)
    masses = m_arr.sum(axis=1) * scenario.grid.cell_volume
    return {"problem": scenario.problem, "expected_outcome": scenario.expected_outcome,
            "solution": sol, "report": stages[-1].report, "min_density": float(np.min(m_arr)),
            "mass_monotone_violation": float(np.max(np.diff(masses), initial=0.0))}
