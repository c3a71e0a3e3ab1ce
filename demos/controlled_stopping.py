#!/usr/bin/env python3
"""Optimal stopping combined with continuous control of the drift.

Players both steer (with running cost given by the Fenchel conjugate of
the Hamiltonian) and choose when to leave. The equilibrium drift is
D_pH(x, grad u); the induced transport enters the density equation in
conservative upwind form, so mass stays nonnegative and non-increasing.

Prints the verification report, a table of the conjugate L(x, a) of
the Hamiltonian (Hamiltonian.conjugate), confirms Fenchel-Young on
random samples, and compares the control objective of the equilibrium
drift against perturbed controls: each perturbed drift, one
FaceVelocities record of all time steps, moves the density under the
equilibrium exit rate (KillingData of the solution's alpha), and the
objective is taken on that density.
"""

import numpy as np

from mfgstop.control import (
    control_objective,
    cosmfg_coupled_solve,
    face_drift,
)
from mfgstop.density import FaceVelocities, KillingData, solve_density_parabolic
from mfgstop.scenarios import scenario_standard

sc = scenario_standard("control_smoothnorm")
sol, stages = cosmfg_coupled_solve(sc.cost, sc.hamiltonian, sc.m0, sc.timegrid,
                                   list(sc.eps_schedule))
report = stages[-1].report
print("=== controlled stopping equilibrium ===")
for key, value in report.to_dict().items():
    if key.startswith("r_") or key == "duality_diagnostic":
        print(f"  {key:<20} {value:+.3e}" if key == "duality_diagnostic"
              else f"  {key:<20} {value:.3e}")
masses = sol.m.array().sum(axis=1) * sc.grid.cell_volume
print(f"  mass: {masses[0]:.4f} -> {masses[-1]:.6f} (monotone: "
      f"{bool(np.all(np.diff(masses) <= 1e-12))})")

print("\n=== Fenchel conjugate of the Hamiltonian ===")
beta = sc.hamiltonian.beta.values
node = sc.grid.n_total // 2
print(f"  beta = {beta[node]:.4f} at the centre node")
speeds = np.array([0.0, 0.3, 0.6, 0.9, 1.0, 1.1]) * beta[node]
for speed in speeds:
    l_val = sc.hamiltonian.conjugate([np.full(sc.grid.n_total, speed)])[node]
    print(f"  |a| = {speed:.4f}: L = {l_val:.8f}")

rng = np.random.default_rng(0)
i = rng.integers(0, sc.grid.n_total, 1000)
p, a = rng.normal(scale=3.0, size=1000), rng.uniform(-0.99, 0.99, 1000) * beta[i]
# sample s puts its a at node i[s] of row s; the conjugate reads beta per node
rows = np.arange(1000)
a_nodes = np.zeros((1000, sc.grid.n_total))
a_nodes[rows, i] = a
l_vals = sc.hamiltonian.conjugate([a_nodes])[rows, i]
defect = max(0.0, float(np.max(a * p - sc.hamiltonian.value([p], weight=beta[i]) - l_vals)))
print(f"  Fenchel-Young defect over 1000 samples: {defect:.2e}")

print("\n=== control objective: equilibrium drift vs perturbations ===")
pot = sc.cost.potential()
drift = face_drift(sc.hamiltonian, sol.u)
base = control_objective(sol.m, drift, pot, sc.hamiltonian, sc.timegrid)
print(f"  equilibrium objective: {base:+.8f}")
x_faces = np.linspace(0, 1, sc.grid.n_interior[0] + 1)
# the equilibrium exit rate alpha / epsilon of every step
killing = KillingData(sol.alpha, sol.epsilon)
for label, shape in (("sin", np.sin(np.pi * x_faces)),
                     ("skew", np.sin(2 * np.pi * x_faces)),
                     ("uniform", np.ones_like(x_faces))):
    drift_p = FaceVelocities(sc.grid, sc.timegrid,
                             (np.clip(drift.components[0] + 0.05 * shape, -0.99, 0.99),))
    m_p = solve_density_parabolic(sc.m0, killing, sc.timegrid, drift_p)
    obj = control_objective(m_p, drift_p, pot, sc.hamiltonian, sc.timegrid)
    print(f"  perturbed ({label:<7}): {obj:+.8f}  (excess {obj - base:+.2e})")
