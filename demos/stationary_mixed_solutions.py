#!/usr/bin/env python3
"""Stationary mean-field optimal stopping, end to end.

Builds a source bump and a strictly monotone local cost whose zero
level cuts through the free density, so the equilibrium develops a
genuine killing region: players on the contact set leave at a finite
rate that pins the density at the cost's indifference level.

Three independent routes compute the same mixed solution:
  1. penalty continuation on the coupled system,
  2. the constrained variational problem (semismooth Newton on its
     KKT system),
  3. for reference, the unconstrained density where no exit happens.
The script prints the per-stage residual table and the duality
certificate <f(m), m> = <u, rho>.
"""

import numpy as np

from mfgstop import inner, uniqueness_probe, variational_minimize
from mfgstop.scenarios import problem_from_config, solve_problem

problem = problem_from_config({
    "problem": "sosmfg", "grid": {"dim": 1, "bounds": [[0.0, 1.0]], "n_interior": [31]},
    "cost": {"kind": "local_power", "a": 1.0, "p": 1.0,
             "f0": {"kind": "constant", "value": -0.005}},
    "rho": {"kind": "raised_cosine"}, "eps_schedule": {"stages": 10}})
grid, cost, rho = problem.grid, problem.cost, problem.rho

print("=== penalty continuation ===")
sol, reports = solve_problem(problem)
u, m = sol.u, sol.m
print(f"{'stage':>5} {'epsilon':>10} {'iters':>5} {'r_contact':>10} {'r_duality':>10}")
for sr in reports:
    print(f"{sr.stage:>5} {sr.epsilon:>10.2e} {sr.iterations:>5} "
          f"{sr.report.r_contact:>10.2e} {sr.report.r_duality:>10.2e}")

final = reports[-1].report
print("\nfinal residuals:")
for key, value in final.to_dict().items():
    if key.startswith("r_"):
        print(f"  {key:<15} {value:.3e}")

print("\nduality certificate <f(m), m> vs <u, rho>:")
print(f"  {inner(cost(m), m):+.9e}  vs  {inner(u, rho):+.9e}")

print("\n=== variational route (same object, different algorithm) ===")
m_var = variational_minimize(cost.potential(), rho)
print(f"  route gap |m_variational - m_continuation|_inf = "
      f"{np.max(np.abs(m_var.values - m.values)):.2e}")

print("\n=== density profile (killing pins the bump core) ===")
x = grid.coordinates()[:, 0]
free = np.linalg.solve(
    __import__("mfgstop").elliptic_matrix(grid).toarray(), rho.values)
for i in range(0, 31, 3):
    bar = "#" * int(200 * m.values[i])
    print(f"  x={x[i]:.3f}  m={m.values[i]:.4f}  free={free[i]:.4f}  {bar}")

print("\n=== uniqueness probe (strictly monotone cost) ===")
gap = uniqueness_probe(cost, rho, n_starts=4, seed=0, eps_schedule=problem.eps_schedule)
print(f"  max pairwise gap over scaled starts: {gap:.2e}")
