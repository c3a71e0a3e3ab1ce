#!/usr/bin/env python3
"""Optimal stopping combined with continuous control of the drift.

Players both steer (with running cost given by the Fenchel conjugate of
the Hamiltonian) and choose when to leave. The equilibrium drift is
D_pH(x, grad u); the induced transport enters the density equation in
conservative upwind form, so mass stays nonnegative and non-increasing.

Prints the verification report, spot-checks the conjugate against its
closed form, confirms Fenchel-Young on random samples, and compares the
control objective of the equilibrium drift against perturbed controls.
"""

import numpy as np

from mfgstop.control import (
    control_objective,
    cosmfg_coupled_solve,
    face_drift,
    fenchel_closed_form,
    fenchel_conjugate,
)
from mfgstop.density import FaceVelocities, KillingData, solve_density_parabolic
from mfgstop.grid import NodeMask, ScalarField
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
node = sc.grid.n_total // 2
for speed in (0.0, 0.3, 0.6, 0.9):
    lattice = fenchel_conjugate(sc.hamiltonian, node, [speed])
    closed = fenchel_closed_form(sc.hamiltonian, node, [speed])
    print(f"  |a| = {speed:.1f}: lattice {lattice:.8f}  closed form {closed:.8f}")
print(f"  |a| = 1.0 (outside the domain): "
      f"{fenchel_conjugate(sc.hamiltonian, node, [1.0])}")

rng = np.random.default_rng(0)
beta = sc.hamiltonian.beta.values
defect = 0.0
for _ in range(1000):
    i = int(rng.integers(0, sc.grid.n_total))
    p, a = rng.normal(scale=3.0), rng.uniform(-0.99, 0.99) * beta[i]
    h_val = float(sc.hamiltonian.value([np.array([p])], weight=beta[i:i + 1])[0])
    defect = max(defect, a * p - h_val - fenchel_closed_form(sc.hamiltonian, i, [a]))
print(f"  Fenchel-Young defect over 1000 samples: {defect:.2e}")

print("\n=== control objective: equilibrium drift vs perturbations ===")
pot = sc.cost.potential()
drift = face_drift(sc.hamiltonian, sol.u)
base = control_objective(sol.m, drift, pot, sc.hamiltonian, sc.timegrid)
print(f"  equilibrium objective: {base:+.8f}")
x_faces = np.linspace(0, 1, sc.grid.n_interior[0] + 1)
killing = [KillingData(ScalarField(sc.grid, sol.alpha.array()[k]), NodeMask.all(sc.grid),
                       sol.epsilon)
           for k in range(sc.timegrid.n_steps)]
for label, shape in (("sin", np.sin(np.pi * x_faces)),
                     ("skew", np.sin(2 * np.pi * x_faces)),
                     ("uniform", np.ones_like(x_faces))):
    drift_p = tuple(FaceVelocities(sc.grid,
                                   (np.clip(d.components[0] + 0.05 * shape, -0.99, 0.99),))
                    for d in drift)
    m_p = solve_density_parabolic(sc.m0, killing, sc.timegrid, drift_p)
    obj = control_objective(m_p, drift_p, pot, sc.hamiltonian, sc.timegrid)
    print(f"  perturbed ({label:<7}): {obj:+.8f}  (excess {obj - base:+.2e})")
