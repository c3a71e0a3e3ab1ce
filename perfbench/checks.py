"""The benchmark's own acceptance gate and determinism digest.

The gate does not rely on the CLI's acceptance check, which skips keys
that are absent from a report and lets NaN through. It applies what
``mfgstop scenario`` applies to registry scenarios:

- the duality residual ``r_duality`` (``|duality_diagnostic|`` for the
  controlled problem) is at most DUALITY_MAX;
- the minimum density is at least DENSITY_MIN;
- the total mass of a density trajectory never increases by more than
  MASS_INCREASE_MAX from one slice to the next.

A missing key or file, a non-finite residual, an empty density or a
wrong number of slices is a failure too. Every function returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

DUALITY_MAX = 1e-4
DENSITY_MIN = -1e-12
MASS_INCREASE_MAX = 1e-12

# files of a run directory that the determinism digest leaves out: the
# run manifest records the config hash and seed, not solver output
DIGEST_EXCLUDED = {"manifest.json"}


def residuals(report: dict) -> dict[str, object]:
    """Every residual of a verifier report: the ``r_*`` keys and the
    controlled problem's duality diagnostic."""
    return {k: v for k, v in report.items() if k.startswith("r_") or k == "duality_diagnostic"}


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def gate_report(report, problem: str) -> list[str]:
    """Residual checks on one verifier report."""
    if not isinstance(report, dict):
        return ["report is missing or not an object"]
    failures = []
    found = residuals(report)
    if not found:
        failures.append("report has no residuals")
    for key, value in sorted(found.items()):
        if not _finite_number(value):
            failures.append(f"{key} is not a finite number: {value!r}")
    duality_key = "duality_diagnostic" if problem == "cosmfg" else "r_duality"
    if duality_key not in report:
        failures.append(f"{duality_key} is missing")
    elif _finite_number(report[duality_key]) and abs(report[duality_key]) > DUALITY_MAX:
        failures.append(f"|{duality_key}| = {abs(report[duality_key]):.3e} > {DUALITY_MAX:.0e}")
    return failures


def grid_size(grid: dict) -> tuple[float, int]:
    """Cell volume and node count of a grid given by its ``bounds`` and
    ``n_interior`` (interior nodes of a uniform Dirichlet grid)."""
    volume, n_nodes = 1.0, 1
    for (lo, hi), n in zip(grid["bounds"], grid["n_interior"]):
        volume *= (hi - lo) / (n + 1)
        n_nodes *= n
    return volume, n_nodes


def gate_density(slices: list[np.ndarray], grid: dict, n_slices: int) -> list[str]:
    """Positivity and mass monotonicity of a density (one slice for a
    stationary problem, K + 1 slices for a trajectory)."""
    cell_volume, n_nodes = grid_size(grid)
    if len(slices) != n_slices:
        return [f"density has {len(slices)} slices, expected {n_slices}"]
    failures = []
    for k, values in enumerate(slices):
        if values.shape != (n_nodes,):
            return [f"density slice {k} has shape {values.shape}, expected ({n_nodes},)"]
        if not np.all(np.isfinite(values)):
            return [f"density slice {k} is not finite"]
    low = min(float(np.min(values)) for values in slices)
    if low < DENSITY_MIN:
        failures.append(f"min density {low:.3e} < {DENSITY_MIN:.0e}")
    masses = np.array([float(np.sum(values)) * cell_volume for values in slices])
    increase = float(np.max(np.diff(masses), initial=0.0))
    if increase > MASS_INCREASE_MAX:
        failures.append(f"mass increases by {increase:.3e} > {MASS_INCREASE_MAX:.0e}")
    return failures


def read_csv_values(path) -> np.ndarray:
    """The value column of a field CSV (header, then one node per row)."""
    with open(path, "r", encoding="ascii") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows or not rows[0].endswith("value"):
        raise ValueError(f"{path}: not a field CSV")
    return np.array([float(row.rsplit(",", 1)[1]) for row in rows[1:]])


def read_density(out_dir) -> list[np.ndarray]:
    """Density slices written by a run or scenario: a trajectory
    manifest if present, else a single ``m.csv``."""
    manifest = os.path.join(out_dir, "m_manifest.json")
    if os.path.exists(manifest):
        with open(manifest, "r", encoding="ascii") as fh:
            files = json.load(fh)["files"]
        return [read_csv_values(os.path.join(out_dir, name)) for name in files]
    return [read_csv_values(os.path.join(out_dir, "m.csv"))]


def gate_bundle(bundle, name: str, density: list[np.ndarray] | None = None,
                grid: dict | None = None) -> list[str]:
    """Checks on a ``mfgstop scenario`` bundle. Registry scenarios carry
    their report, minimum density and mass violation; the
    nonexistence construction carries its final report and writes
    ``m.csv``, which is gated like a run's density."""
    if not isinstance(bundle, dict):
        return ["bundle is missing or not an object"]
    failures = []
    if bundle.get("confirmed") is not True:
        failures.append(f"confirmed is {bundle.get('confirmed')!r}")
    if "report" in bundle:
        failures += gate_report(bundle["report"], "sosmfg")
        for key, check in (("min_density", lambda v: v >= DENSITY_MIN),
                           ("mass_monotone_violation", lambda v: v <= MASS_INCREASE_MAX)):
            value = bundle.get(key)
            if not _finite_number(value):
                failures.append(f"{key} is missing or not finite: {value!r}")
            elif not check(value):
                failures.append(f"{key} = {value:.3e} fails its bound")
    elif "final_report" in bundle:
        failures += gate_report(bundle["final_report"], "sosmfg")
        if density is None or grid is None:
            failures.append(f"{name}: no density to check")
        else:
            failures += gate_density(density, grid, 1)
    else:
        failures.append(f"{name}: bundle has neither report nor final_report")
    return failures


def digest(out_dirs: list[tuple[str, str]]) -> str:
    """sha256 over every artifact of every job directory, except the run
    manifest: the field CSVs, trajectory manifests, report.json,
    convergence.csv and scenario bundles."""
    h = hashlib.sha256()
    for job, out_dir in out_dirs:
        for name in sorted(os.listdir(out_dir)):
            if name in DIGEST_EXCLUDED:
                continue
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            h.update(f"{job}/{name}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()
