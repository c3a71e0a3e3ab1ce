#!/usr/bin/env python3
"""Time-dependent optimal stopping with and without an m-dependent
exit cost.

A unit of players starts as a sharp bump; where the density exceeds
the cost's indifference level the equilibrium kills mass at a finite
rate, producing a plateau that relaxes as diffusion spreads the crowd.
With an obstacle generated from a monotone source g, the effective
cost becomes f + g and the plateau shifts accordingly.

Prints mass decay, the contact pattern over time, and the duality
certificate sum (f + g) m dt = <u(0) - psi(0), m0>.
"""

import numpy as np

from mfgstop.evolutive import osmfg_continuation
from mfgstop.scenarios import scenario_standard

for name in ("evolutive_psi0", "evolutive_heat_g"):
    sc = scenario_standard(name)
    sol, stages = osmfg_continuation(sc.cost, sc.obstacle_op, sc.m0, sc.timegrid,
                                     list(sc.eps_schedule))
    report = stages[-1].report
    marr = sol.m.array()
    masses = marr.sum(axis=1) * sc.grid.cell_volume
    print(f"=== {name} ===")
    print(f"  {'t':>6} {'mass':>8} {'peak m':>8}  exit-rate nodes")
    times = sc.timegrid.times()
    for k in range(0, sc.timegrid.n_steps + 1, 10):
        active = int(np.sum(sol.alpha.array()[min(k, sc.timegrid.n_steps - 1)] > 1e-6))
        print(f"  {times[k]:>6.2f} {masses[k]:>8.4f} {marr[k].max():>8.4f}  {active}")
    print("  residuals:")
    for key, value in report.to_dict().items():
        if key.startswith("r_"):
            print(f"    {key:<15} {value:.3e}")
    print()
