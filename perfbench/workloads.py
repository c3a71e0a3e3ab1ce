"""Workload definitions and seeded input generation.

Every workload is a closed loop: one client in one process runs its
unit of work back to back. A unit is a list of jobs:

- ``("run", name)``: ``mfgstop run`` on the generated config ``name``,
  then ``mfgstop verify`` on the artifacts it wrote;
- ``("scenario", name)``: ``mfgstop scenario name``.

The time-dependent inputs use coarser time grids than the registry and
the ROADMAP: N_STEPS_1D = 5 steps instead of 50 for the 1D workloads,
N_STEPS_2D = 3 instead of 20 for osmfg_2d. One unit then takes about a
second, and a run holds a dozen units or more, each timed between two
runs of the reference kernel of speed.py. On the full grids one solve takes
25-35 s and fills a run alone, which leaves nothing to take a median
over. Per Newton step the work keeps its kind: block assembly over the
time slices, one sparse LU, the lagged outer passes of all eight penalty
stages. At seed 0 block assembly is about half of evolutive_heat_g and
the sparse LU about two thirds of osmfg_2d.

At seed 0, and on the registry's time grid (``configs(0, REGISTRY_N_STEPS)``),
the inputs reproduce the registry instances exactly: fields are given by
kind (``gaussian``, ``constant``, ``raised_cosine``) with the registry
parameters. Any other seed perturbs ``m0``, ``rho`` and the cost's
``f0`` within PERTURBATION and hands them to the program as literal
``values`` fields. The ranges are narrow on purpose. The number of
lagged outer passes of the time-dependent solver reacts strongly to its
input: on the registry's 50 steps, perturbations of 3% moved the total
passes of evolutive_heat_g between 76 and 115 (92 at seed 0), so the
timing spread between seeds would measure that sensitivity instead of
the program's speed. At 1e-4 the seeds keep the pass counts of seed 0
and every seed certifies.

This module uses the standard library only; the parent process of the
benchmark never imports mfgstop.
"""

from __future__ import annotations

import math
import random

# relative half-widths of the seeded perturbations (factor 1 +- width)
PERTURBATION = {
    "m0.sigma": 1e-4,
    "m0.mass": 1e-4,
    "cost.f0": 1e-4,
    "rho.peak": 1e-4,
}

# duality gate of the benchmark, also handed to the CLI as its acceptance
# threshold so that a failing solve exits nonzero
DUALITY_GATE = 1e-4

GRID_1D = {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [31]}
GRID_2D_15 = {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n_interior": [15, 15]}
GRID_2D_63 = {"dim": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]], "n_interior": [63, 63]}
EPS_SCHEDULE = {"start": 0.1, "factor": 4.0, "stages": 8}
REGISTRY_N_STEPS = 50  # time steps of the 1D registry scenarios
N_STEPS_1D = 5  # time steps of evolutive_heat_g and control_smoothnorm
N_STEPS_2D = 3  # time steps of osmfg_2d

WORKLOADS = {
    "evolutive_heat_g": (("run", "evolutive_heat_g"),),
    "control_smoothnorm": (("run", "control_smoothnorm"),),
    "osmfg_2d": (("run", "osmfg_2d"),),
    "stationary": (("run", "sosmfg_63"), ("scenario", "monotone_1d"),
                   ("scenario", "anti_monotone_1d"), ("scenario", "nonexistence")),
}


def coordinates(grid: dict) -> list[tuple[float, ...]]:
    """Interior node coordinates in the program's lexicographic order
    (first axis slowest)."""
    axes = []
    for (lo, hi), n in zip(grid["bounds"], grid["n_interior"]):
        h = (hi - lo) / (n + 1)
        axes.append([lo + h * i for i in range(1, n + 1)])
    nodes = [()]
    for axis in axes:
        nodes = [node + (x,) for node in nodes for x in axis]
    return nodes


def cell_volume(grid: dict) -> float:
    return math.prod((hi - lo) / (n + 1) for (lo, hi), n in zip(grid["bounds"], grid["n_interior"]))


def _centre_distance(grid: dict) -> list[float]:
    centre = [(lo + hi) / 2 for lo, hi in grid["bounds"]]
    return [math.dist(node, centre) for node in coordinates(grid)]


def _gaussian(grid: dict, sigma: float, mass: float) -> list[float]:
    vals = [math.exp(-r * r / (2 * sigma**2)) for r in _centre_distance(grid)]
    total = sum(vals) * cell_volume(grid)
    return [v * (mass / total) for v in vals]


def _raised_cosine(grid: dict, peak: float) -> list[float]:
    radius = min((hi - lo) / 6 for lo, hi in grid["bounds"])
    return [0.5 * peak * (1.0 + math.cos(math.pi * r / radius)) if r <= radius else 0.0
            for r in _centre_distance(grid)]


class _Inputs:
    """Field specs for one seed: registry kinds at seed 0, perturbed
    literal values otherwise."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.factor = {key: 1.0 + width * (2.0 * rng.random() - 1.0)
                       for key, width in PERTURBATION.items()}

    def m0(self, grid: dict) -> dict:
        if self.seed == 0:
            return {"kind": "gaussian", "sigma": 0.1, "mass": 1.0}
        return {"kind": "values", "values": _gaussian(
            grid, 0.1 * self.factor["m0.sigma"], self.factor["m0.mass"])}

    def rho(self, grid: dict) -> dict:
        if self.seed == 0:
            return {"kind": "raised_cosine", "peak": 1.0}
        return {"kind": "values", "values": _raised_cosine(grid, self.factor["rho.peak"])}

    def cost(self, grid: dict) -> dict:
        if self.seed == 0:
            f0 = {"kind": "constant", "value": -0.5}
        else:
            n = len(coordinates(grid))
            f0 = {"kind": "values", "values": [-0.5 * self.factor["cost.f0"]] * n}
        return {"kind": "local_power", "a": 1.0, "p": 1.0, "f0": f0}


def _tolerances(gate_key: str) -> dict:
    return {"outer": 1e-9, "pde": 1e-8, "acceptance": {gate_key: DUALITY_GATE}}


def configs(seed: int, n_steps_1d: int = N_STEPS_1D) -> dict[str, dict]:
    """Every run config of every workload for one seed, by job name."""
    inp = _Inputs(seed)
    timegrid_1d = {"horizon": 1.0, "n_steps": n_steps_1d}
    return {
        "evolutive_heat_g": {
            "problem": "osmfg", "grid": GRID_1D, "timegrid": timegrid_1d,
            "cost": inp.cost(GRID_1D), "m0": inp.m0(GRID_1D),
            "obstacle": {"kind": "heat_from_g", "g": {
                "kind": "local_power", "a": 0.5, "p": 1.0,
                "f0": {"kind": "constant", "value": 0.0}}},
            "eps_schedule": EPS_SCHEDULE, "tolerances": _tolerances("r_duality"), "seed": seed,
        },
        "control_smoothnorm": {
            "problem": "cosmfg", "grid": GRID_1D, "timegrid": timegrid_1d,
            "cost": inp.cost(GRID_1D), "m0": inp.m0(GRID_1D),
            "hamiltonian": {"kind": "smoothed_norm", "beta": {"kind": "constant", "value": 1.0}},
            "eps_schedule": EPS_SCHEDULE, "tolerances": _tolerances("duality_diagnostic"),
            "seed": seed,
        },
        "osmfg_2d": {
            "problem": "osmfg", "grid": GRID_2D_15,
            "timegrid": {"horizon": 1.0, "n_steps": N_STEPS_2D},
            "cost": inp.cost(GRID_2D_15), "m0": inp.m0(GRID_2D_15), "obstacle": {"kind": "zero"},
            "eps_schedule": EPS_SCHEDULE, "tolerances": _tolerances("r_duality"), "seed": seed,
        },
        "sosmfg_63": {
            "problem": "sosmfg", "method": "continuation", "grid": GRID_2D_63,
            "cost": inp.cost(GRID_2D_63), "rho": inp.rho(GRID_2D_63),
            "eps_schedule": EPS_SCHEDULE, "tolerances": _tolerances("r_duality"), "seed": seed,
        },
    }
