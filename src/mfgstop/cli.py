"""Batch front-end: parse a run configuration, dispatch the solvers,
write field dumps, verification reports and convergence tables, and
return a contract-stable exit status.

Exit codes: 0 converged and verified within the configured acceptance
thresholds; 1 verification failed; 2 invalid configuration or input
file, or an output that cannot be written; 3 solver non-convergence
(partial artifacts are still written).

Determinism: identical configuration and seed produce bitwise-identical
artifacts (no timestamps; canonical JSON; fixed float formatting).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .control import ControlMixedReport, Hamiltonian
from .costs import ANTI_MONOTONE, STRICT_MONOTONE, CostOperator
from .evolutive import EvolutiveMixedReport, ObstacleOperator
from .grid import (
    FieldTrajectory,
    ScalarField,
    _on_grid,
    build_grid,
    build_timegrid,
    read_field_csv,
    read_trajectory_csv,
    write_field_csv,
    write_trajectory_csv,
)
from .obstacle import ObstacleConvergenceError, solve_obstacle_stationary
from .scenarios import (
    STANDARD_NAMES,
    gaussian_density,
    raised_cosine_bump,
    run_scenario_evidence,
    scenario_nonexistence,
    scenario_nonuniqueness,
    scenario_obstacle_nonuniqueness,
    scenario_standard,
    solve_problem,
    verify_problem,
)
from .stationary import (
    CoupledNonConvergence,
    MixedSolutionReport,
    _checked_schedule,
    default_eps_schedule,
    monotone_iteration_solve,
    variational_minimize,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NO_CONVERGENCE = 3

_METHODS = {"continuation", "monotone_iteration", "variational"}
# the report each problem writes; its fields other than delta_c and
# grid are the residuals an acceptance threshold may name
_REPORTS = {"sosmfg": MixedSolutionReport, "osmfg": EvolutiveMixedReport,
            "cosmfg": ControlMixedReport}
_PROBLEMS = set(_REPORTS)


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _integer(value, where: str) -> int:
    """value if it is a JSON integer; a float or a bool, which int()
    would truncate silently, raises ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _number(value, where: str) -> float:
    """value as a float if it is a finite JSON number; a string or a
    bool, which float() would read ("inf", true), raises ConfigError,
    as does a NaN, an infinity or an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {type(value).__name__} {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _numbers(values, where: str) -> np.ndarray:
    """values as a float array if it is a JSON list whose entries are
    numbers that _number takes, or lists of them; anything else raises
    ConfigError."""
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers, got "
                          f"{type(values).__name__} {values!r}")
    # a long list of floats passes in one C-level sweep of its types
    if set(map(type, values)) - {float}:
        for i, value in enumerate(values):
            if isinstance(value, list):
                _numbers(value, f"{where}[{i}]")
            else:
                _number(value, f"{where}[{i}]")
    numbers = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(numbers)):
        raise ConfigError(f"{where} must hold finite numbers")
    return numbers


def _reject_non_finite(node, where: str = "config"):
    """Raise ConfigError at a NaN or infinite number anywhere in a parsed
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
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{where} must be finite, got {node!r}")


def _build_field(grid, spec, what: str) -> ScalarField:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what}: field spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "constant":
        return ScalarField.constant(grid, _number(_require(spec, "value", what), f"{what}.value"))
    if kind == "raised_cosine":
        return raised_cosine_bump(grid, peak=_number(spec.get("peak", 1.0), f"{what}.peak"))
    if kind == "gaussian":
        return gaussian_density(grid, sigma=_number(spec.get("sigma", 0.1), f"{what}.sigma"),
                                mass=_number(spec.get("mass", 1.0), f"{what}.mass"))
    if kind == "values":
        return ScalarField(grid, _numbers(_require(spec, "values", what), f"{what}.values"))
    raise ConfigError(f"{what}: unknown field kind {kind!r}")


def _build_cost(grid, spec) -> CostOperator:
    kind = _require(spec, "kind", "cost")
    if kind == "local_power":
        return CostOperator.local_power(
            grid, a=_number(_require(spec, "a", "cost"), "cost.a"),
            p=_number(spec.get("p", 1.0), "cost.p"),
            f0=_build_field(grid, _require(spec, "f0", "cost"), "cost.f0"))
    if kind == "nonlocal_affine":
        return CostOperator.nonlocal_affine(
            grid, c0=_number(_require(spec, "c0", "cost"), "cost.c0"),
            c1=_number(_require(spec, "c1", "cost"), "cost.c1"),
            weight=_build_field(grid, _require(spec, "weight", "cost"), "cost.weight"))
    if kind == "local_affine_shifted":
        return CostOperator.local_affine_shifted(
            grid, base=_build_field(grid, _require(spec, "base", "cost"), "cost.base"),
            m_ref=_build_field(grid, _require(spec, "m_ref", "cost"), "cost.m_ref"))
    raise ConfigError(f"unknown cost kind {kind!r}")


class RunConfig:
    """Validated run configuration (see README for the schema); sha256
    is the hex SHA-256 of the config file's bytes."""

    def __init__(self, raw: dict, sha256: str):
        _reject_non_finite(raw)
        self.raw = raw
        self.sha256 = sha256
        self.problem = _require(raw, "problem")
        if self.problem not in _PROBLEMS:
            raise ConfigError(f"problem must be one of {sorted(_PROBLEMS)}")
        self.method = raw.get("method", "continuation")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {sorted(_METHODS)}")
        if self.method != "continuation" and self.problem != "sosmfg":
            raise ConfigError(f"method {self.method!r} is only available for problem 'sosmfg'")
        gspec = _require(raw, "grid")
        n_interior = _require(gspec, "n_interior", "grid")
        for k in n_interior if isinstance(n_interior, list) else [n_interior]:
            _integer(k, "grid.n_interior")
        self.grid = build_grid(_integer(_require(gspec, "dim", "grid"), "grid.dim"),
                               _numbers(_require(gspec, "bounds", "grid"), "grid.bounds"),
                               n_interior)
        self.timegrid = None
        if self.problem in ("osmfg", "cosmfg"):
            tspec = _require(raw, "timegrid")
            self.timegrid = build_timegrid(_number(_require(tspec, "horizon", "timegrid"),
                                                   "timegrid.horizon"),
                                           _integer(_require(tspec, "n_steps", "timegrid"),
                                                    "timegrid.n_steps"))
        self.cost = _build_cost(self.grid, _require(raw, "cost"))
        if self.problem != "sosmfg" and not self.cost.is_local:
            raise ConfigError(f"problem {self.problem!r} needs a local cost, "
                              f"got {self.cost.kind!r}")
        if self.method == "monotone_iteration" and self.cost.monotonicity != ANTI_MONOTONE:
            raise ConfigError("method 'monotone_iteration' needs an anti-monotone cost, "
                              f"got {self.cost.monotonicity!r}")
        if self.method == "variational" and (self.cost.monotonicity != STRICT_MONOTONE
                                             or not self.cost.is_local):
            raise ConfigError("method 'variational' needs a strictly monotone local cost")
        what = "rho" if self.problem == "sosmfg" else "m0"
        source = _build_field(self.grid, _require(raw, what), what)
        if np.any(source.values < -1e-12):
            raise ConfigError(f"{what} must be nonnegative")
        self.rho = source if what == "rho" else None
        self.m0 = source if what == "m0" else None
        self.obstacle_op = None
        if self.problem == "osmfg":
            ospec = raw.get("obstacle", {"kind": "zero"})
            okind = _require(ospec, "kind", "obstacle")
            if okind == "zero":
                self.obstacle_op = ObstacleOperator.zero(self.grid, self.timegrid)
            elif okind == "constant_field":
                psi = _build_field(self.grid, _require(ospec, "psi", "obstacle"), "obstacle.psi")
                self.obstacle_op = ObstacleOperator.constant(FieldTrajectory(
                    self.grid, self.timegrid, np.tile(psi.values, (self.timegrid.n_steps + 1, 1))))
            elif okind == "heat_from_g":
                self.obstacle_op = ObstacleOperator.heat_source(
                    _build_cost(self.grid, _require(ospec, "g", "obstacle")))
            else:
                raise ConfigError(f"unknown obstacle kind {okind!r}")
        self.hamiltonian = None
        if self.problem == "cosmfg":
            hspec = _require(raw, "hamiltonian")
            hkind = _require(hspec, "kind", "hamiltonian")
            if hkind == "smoothed_norm":
                beta = _build_field(self.grid, _require(hspec, "beta", "hamiltonian"), "hamiltonian.beta")
                self.hamiltonian = Hamiltonian.smoothed_norm(beta)
            elif hkind == "quadratic":
                outside = hspec.get("outside_assumptions", False)
                if not isinstance(outside, bool):
                    raise ConfigError("hamiltonian.outside_assumptions must be true or false, "
                                      f"got {outside!r}")
                self.hamiltonian = Hamiltonian.quadratic(self.grid, outside_assumptions=outside)
            else:
                raise ConfigError(f"unknown hamiltonian kind {hkind!r}")
        es = raw.get("eps_schedule", {})
        if isinstance(es, dict):
            factor = _number(es.get("factor", 4.0), "eps_schedule.factor")
            if not factor > 1:
                raise ConfigError("eps_schedule.factor must exceed 1")
            stages = _integer(es.get("stages", 8), "eps_schedule.stages")
            es = default_eps_schedule(_number(es.get("start", 0.1), "eps_schedule.start"),
                                      factor, stages)
        elif es is not None:
            es = _numbers(es, "eps_schedule")
        try:
            self.eps_schedule = _checked_schedule(es)
        except ValueError:
            raise ConfigError("eps_schedule must be a nonempty, strictly decreasing "
                              "sequence of positive penalties") from None
        tols = _require(raw, "tolerances")
        self.acceptance = _require(tols, "acceptance", "tolerances")
        if not isinstance(self.acceptance, dict) or not self.acceptance:
            raise ConfigError("tolerances.acceptance must map residual names to thresholds")
        residuals = {f.name for f in dataclasses.fields(_REPORTS[self.problem])} - {"delta_c", "grid"}
        for key, val in self.acceptance.items():
            if key not in residuals:
                raise ConfigError(f"tolerances.acceptance: {key!r} is not a residual of problem "
                                  f"{self.problem!r}; choose from {sorted(residuals)}")
            if not _number(val, f"tolerances.acceptance[{key!r}]") > 0:
                raise ConfigError(f"tolerances.acceptance[{key!r}] must be positive")
        self.tol_pde = _number(tols.get("pde", 1e-8), "tolerances.pde")
        if not self.tol_pde > 0:
            raise ConfigError("tolerances.pde must be positive")
        self.seed = _integer(raw.get("seed", 0), "seed")
        self.output_dir = raw.get("output_dir")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string path")


def load_config(path) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        raw = json.loads(data.decode("utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}")
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    try:
        return RunConfig(raw, hashlib.sha256(data).hexdigest())
    except (TypeError, OverflowError, MemoryError) as err:
        # a value of the wrong JSON type, such as null for a number, an
        # integer too large for a float, or sizes too large to allocate
        raise ConfigError(f"{path}: {err}")
    except RecursionError:
        raise ConfigError(f"{path}: config nested too deeply") from None


def _json_dump(obj, path):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _output_root(cfg_dir: str | None) -> str:
    env = os.environ.get("MFGSTOP_OUT")
    root = cfg_dir or env or "mfgstop_out"
    os.makedirs(root, exist_ok=True)
    return root


def _report_residuals(report) -> dict:
    """The r_* entries of a report, in field order."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
            if f.name.startswith("r_")}


def _write_convergence_table(rows, path):
    """One line per (stage, epsilon, iterations, report) row: the three
    leading cells, the grid the report is on (its interior node counts,
    e.g. 15x15), then the report's residuals."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("stage,epsilon,iterations,grid," + ",".join(_report_residuals(rows[0][3])) + "\n")
        for stage, epsilon, iterations, report in rows:
            cells = [str(stage), format(epsilon, ".17g"), str(iterations),
                     "x".join(map(str, report.grid["n_interior"]))]
            cells += [format(v, ".17g") for v in _report_residuals(report).values()]
            fh.write(",".join(cells) + "\n")


def _check_acceptance(report_dict: dict, acceptance: dict) -> list[str]:
    """One line per threshold not met, in key order, naming the magnitude
    compared with it; a missing or non-finite residual fails."""
    failures = []
    for key, threshold in sorted(acceptance.items()):
        value = abs(report_dict.get(key, float("nan")))
        if not value <= float(threshold):
            failures.append(f"|{key}| = {value:.3e} > {float(threshold):.3e}")
    return failures


def _into_output(out_dir: str | None, write) -> int:
    """write(out) on the output root out (_output_root(out_dir)), made
    if missing; exit 2 with "cannot write output" where the root or an
    artifact under it cannot be written. The solves write no file, so
    an OSError comes from the output."""
    try:
        return write(_output_root(out_dir))
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    try:
        cfg = load_config(config_path)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out_dir = out_override or cfg.output_dir
    try:
        solved = _solve(cfg)
    except (CoupledNonConvergence, ObstacleConvergenceError) as err:
        return _into_output(out_dir, lambda out: _write_failure(err, out))
    except MemoryError as err:
        # sizes too large to allocate are a config error, found before
        # the output root is made
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return _into_output(out_dir, lambda out: _write_run(cfg, *solved, out))


def _solve(cfg: RunConfig):
    """Solve cfg by its method: (u, m, report, stage_rows)."""
    if cfg.method == "continuation":
        sol, stages = solve_problem(cfg, cfg.tol_pde)
        return (sol.u, sol.m, stages[-1].report,
                [(sr.stage, sr.epsilon, sr.iterations, sr.report) for sr in stages])
    # the two direct routes of sosmfg
    if cfg.method == "monotone_iteration":
        u, m, iterations = monotone_iteration_solve(cfg.cost, cfg.rho)
    else:
        m = variational_minimize(cfg.cost.potential(), cfg.rho)
        u = solve_obstacle_stationary(cfg.cost(m), ScalarField.zeros(cfg.grid))
        iterations = 1
    report = verify_problem(cfg, u, m)
    return u, m, report, [(0, 0.0, iterations, report)]


def _write_failure(err, out: str) -> int:
    """Write the failure.json of a solve that did not converge under out."""
    if isinstance(err, CoupledNonConvergence):
        failure = {"error": str(err), "residual_history": err.residual_history,
                   "stage": err.stage}
    else:
        failure = {"error": str(err), "residual": err.residual, "iterations": err.iterations}
    _json_dump(failure, os.path.join(out, "failure.json"))
    print(f"solver did not converge: {err}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _write_run(cfg: RunConfig, u, m, report, stage_rows, out: str) -> int:
    """Write the artifacts of a solved cfg under out and check its
    acceptance thresholds."""
    if cfg.problem == "sosmfg":
        write_field_csv(u, os.path.join(out, "u.csv"))
        write_field_csv(m, os.path.join(out, "m.csv"))
    else:
        write_trajectory_csv(u, out, "u")
        write_trajectory_csv(m, out, "m")
    report_dict = report.to_dict()
    _json_dump(report_dict, os.path.join(out, "report.json"))
    _write_convergence_table(stage_rows, os.path.join(out, "convergence.csv"))
    manifest = {
        "config_sha256": cfg.sha256,
        "delta_c": report_dict.get("delta_c"),
        "version": __version__,
        "problem": cfg.problem,
        "method": cfg.method,
        "seed": cfg.seed,
    }
    _json_dump(manifest, os.path.join(out, "manifest.json"))
    failures = _check_acceptance(report_dict, cfg.acceptance)
    for failure in failures:
        print(f"acceptance failed: {failure}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _run_band(u_path: str, cfg: RunConfig) -> float | None:
    """The contact threshold of the run that wrote u_path: delta_c of
    the manifest.json beside it, if that manifest's config_sha256 is
    cfg's and its delta_c is finite and positive; None (the verifier's
    default) for anything else, a missing or unreadable manifest
    included: one nested too deeply to parse as well."""
    path = os.path.join(os.path.dirname(os.path.abspath(u_path)), "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(manifest, dict) or manifest.get("config_sha256") != cfg.sha256:
        return None
    delta_c = manifest.get("delta_c")
    # a bool is no number here, and an int past the float range no float
    if type(delta_c) in (int, float) and 0 < delta_c <= sys.float_info.max:
        return float(delta_c)
    return None


def cmd_verify(u_path: str, m_path: str, config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    delta_c = _run_band(u_path, cfg)
    try:
        if cfg.problem == "sosmfg":
            u = read_field_csv(cfg.grid, u_path)
            m = read_field_csv(cfg.grid, m_path)
        else:
            u = read_trajectory_csv(cfg.grid, u_path)
            m = read_trajectory_csv(cfg.grid, m_path)
            _on_grid(cfg.grid, cfg.timegrid, u, m)
        report = verify_problem(cfg, u, m, delta_c)
    except (OSError, ValueError, RecursionError) as err:
        print(f"cannot verify: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    report_dict = report.to_dict()
    print(json.dumps(report_dict, sort_keys=True, indent=1))
    failures = _check_acceptance(report_dict, cfg.acceptance)
    for failure in failures:
        print(f"verification failed: {failure}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


_SCENARIOS = STANDARD_NAMES + ("nonuniqueness", "nonexistence", "nonexistence_ball",
                                "obstacle_nonuniqueness")


def cmd_scenario(name: str, out_dir: str | None) -> int:
    if name not in _SCENARIOS:
        print(f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return _into_output(out_dir, lambda out: _scenario(name, out))


def _scenario(name: str, out: str) -> int:
    """Run the evidence of scenario name and write its bundle under out."""
    try:
        if name == "nonuniqueness":
            ev = scenario_nonuniqueness()
            bundle = {
                "name": name,
                "expected_outcome": ev.scenario.expected_outcome,
                "gap": ev.gap,
                "report_zero": ev.report_zero.to_dict(),
                "report_star": ev.report_star.to_dict(),
            }
            ok = (ev.report_zero.max_residual <= 1e-8 and ev.report_star.max_residual <= 1e-8
                  and ev.gap >= 0.5 * float(np.max(np.abs(ev.m_star.values))))
            write_field_csv(ev.m_star, os.path.join(out, "m_star.csv"))
            write_field_csv(ev.u_star, os.path.join(out, "u_star.csv"))
        elif name in ("nonexistence", "nonexistence_ball"):
            ev = scenario_nonexistence(ball_radius=0.07 if name.endswith("ball") else 0.0)
            bundle = {
                "name": name,
                "expected_outcome": ev.scenario.expected_outcome,
                "classical_floor": ev.classical_floor,
                "final_report": ev.final_report.to_dict(),
                "stages": [{"epsilon": s.epsilon, "contact_mass": s.contact_mass,
                            "ratio": s.ratio, **_report_residuals(s.report)}
                           for s in ev.stages],
            }
            ok = (ev.final_report.max_residual <= 1e-5 and ev.classical_floor > 0
                  and all(s.ratio >= 10 for s in ev.stages))
            write_field_csv(ev.m, os.path.join(out, "m.csv"))
            write_field_csv(ev.u, os.path.join(out, "u.csv"))
        elif name == "obstacle_nonuniqueness":
            ev = scenario_obstacle_nonuniqueness()
            bundle = {
                "name": name,
                "expected_outcome": ev.scenario.expected_outcome,
                "gap": ev.gap,
                "report_star": ev.report_star.to_dict(),
                "report_low": ev.report_low.to_dict(),
            }
            ok = ev.report_star.max_residual <= 1e-8 and ev.report_low.max_residual <= 1e-8
        else:
            evidence = run_scenario_evidence(scenario_standard(name))
            report = evidence["report"]
            bundle = {
                "name": name,
                "expected_outcome": evidence["expected_outcome"],
                "report": report.to_dict(),
                "min_density": evidence["min_density"],
                "mass_monotone_violation": evidence["mass_monotone_violation"],
            }
            # the controlled problem reports its duality signed
            duality = report.to_dict().get(
                "duality_diagnostic" if evidence["problem"] == "cosmfg" else "r_duality", math.nan)
            ok = (evidence["min_density"] >= -1e-12
                  and evidence["mass_monotone_violation"] <= 1e-12
                  and abs(duality) <= 1e-4)
    except (CoupledNonConvergence, ObstacleConvergenceError) as err:
        print(f"scenario solver did not converge: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    bundle["confirmed"] = bool(ok)
    _json_dump(bundle, os.path.join(out, f"scenario_{name}.json"))
    print(json.dumps({"scenario": name, "confirmed": bool(ok)}, sort_keys=True))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="mfgstop",
        description="Solvers and verifiers for mean-field optimal-stopping systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured problem and write artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")

    p_ver = sub.add_parser("verify", help="re-verify externally produced fields")
    p_ver.add_argument("--u", required=True, help="value field CSV (or trajectory manifest)")
    p_ver.add_argument("--m", required=True, help="density field CSV (or trajectory manifest)")
    p_ver.add_argument("--config", required=True)

    p_sc = sub.add_parser("scenario", help="run a registered scenario's evidence bundle")
    p_sc.add_argument("name")
    p_sc.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "verify":
        return cmd_verify(args.u, args.m, args.config)
    return cmd_scenario(args.name, args.out)


if __name__ == "__main__":
    sys.exit(main())
