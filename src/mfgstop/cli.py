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
from .control import ControlMixedReport
from .costs import ANTI_MONOTONE, STRICT_MONOTONE
from .evolutive import EvolutiveMixedReport
from .grid import (
    ScalarField,
    _on_grid,
    read_field_csv,
    read_trajectory_csv,
    write_field_csv,
    write_trajectory_csv,
)
from .obstacle import ObstacleConvergenceError, solve_obstacle_stationary
from .scenarios import (
    STANDARD_NAMES,
    ConfigError,
    Scenario,
    _integer,
    _number,
    _require,
    problem_from_config,
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


@dataclasses.dataclass(frozen=True, eq=False, kw_only=True)
class RunConfig(Scenario):
    """A config file's problem (scenarios.problem_from_config) with its
    run settings (see README for the schema); sha256 is the hex SHA-256
    of the file's bytes."""

    method: str
    acceptance: dict
    tol_pde: float
    seed: int
    output_dir: str | None
    sha256: str


def _run_config(raw: dict, sha256: str) -> RunConfig:
    """The problem of a parsed config and its run settings, checked."""
    problem = problem_from_config(raw)
    method = raw.get("method", "continuation")
    if method not in _METHODS:
        raise ConfigError(f"method must be one of {sorted(_METHODS)}")
    if method != "continuation" and problem.problem != "sosmfg":
        raise ConfigError(f"method {method!r} is only available for problem 'sosmfg'")
    if method == "monotone_iteration" and problem.cost.monotonicity != ANTI_MONOTONE:
        raise ConfigError("method 'monotone_iteration' needs an anti-monotone cost, "
                          f"got {problem.cost.monotonicity!r}")
    if method == "variational" and (problem.cost.monotonicity != STRICT_MONOTONE
                                    or not problem.cost.is_local):
        raise ConfigError("method 'variational' needs a strictly monotone local cost")
    tols = _require(raw, "tolerances")
    acceptance = _require(tols, "acceptance", "tolerances")
    if not isinstance(acceptance, dict) or not acceptance:
        raise ConfigError("tolerances.acceptance must map residual names to thresholds")
    report = _REPORTS[problem.problem]
    residuals = {f.name for f in dataclasses.fields(report)} - {"delta_c", "grid"}
    for key, val in acceptance.items():
        if key not in residuals:
            raise ConfigError(f"tolerances.acceptance: {key!r} is not a residual of problem "
                              f"{problem.problem!r}; choose from {sorted(residuals)}")
        if not _number(val, f"tolerances.acceptance[{key!r}]") > 0:
            raise ConfigError(f"tolerances.acceptance[{key!r}] must be positive")
    tol_pde = _number(tols.get("pde", 1e-8), "tolerances.pde")
    if not tol_pde > 0:
        raise ConfigError("tolerances.pde must be positive")
    seed = _integer(raw.get("seed", 0), "seed")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")
    return RunConfig(**vars(problem), method=method, acceptance=acceptance, tol_pde=tol_pde,
                     seed=seed, output_dir=output_dir, sha256=sha256)


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
        return _run_config(raw, hashlib.sha256(data).hexdigest())
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
