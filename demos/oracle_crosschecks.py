"""
Sanity nets: independent oracles for the closed forms
=====================================================

Closed-form expressions are easy to derive wrong and hard to spot
wrong. Two independent numerical routes keep them honest: an ODE
shooting method for the optimal trace, and brute grid sweeps for the
optimization claims.
"""

import numpy as np

from calx.energy import energy_radial_optimal
from calx.oracle import (oracle_1d_best, oracle_radial_sweep,
                         oracle_robin_shooting)
from calx.potentials import delta_robin

# Shooting integrates the radial ODE outward and bisects on the Robin
# residual; no potential function involved anywhere.
print("closed-form trace vs shooting:")
print("  n  beta   R      delta_closed      delta_shooting    diff")
for n, beta, R in [(1, 2.0, 2.5), (2, 1.0, 1.5), (2, 3.0, 2.0),
                   (3, 0.7, 4.0)]:
    closed = delta_robin(n, beta, R)
    shot = oracle_robin_shooting(n, beta, R)
    print("  {}  {:4.1f}  {:4.1f}   {:.12f}    {:.12f}    {:+.2e}".format(
        n, beta, R, closed, shot, shot - closed))

# The radial sweep scans an (R, delta) product grid and records every
# energy term; the best row should track the closed-form optimum, and
# at (beta, gamma) = (1, 0.4) the indicator row must win outright.
print()
R_grid = np.linspace(1.05, 3.0, 40)
delta_grid = np.linspace(0.02, 1.0, 50)
sweep = oracle_radial_sweep(2, 1.0, 0.4, R_grid, delta_grid)
print("radial sweep at (n, beta, gamma) = (2, 1, 0.4): {} rows".format(
    len(sweep.rows)))
print("  indicator row total = {:.9f}".format(sweep.rows[0].total))
# the table is held by column: its minimum needs no row formed
print("  best interior total = {:.9f}".format(sweep.rows.total.min()))
print("  indicator best? {}".format(sweep.is_indicator_best))
sweep.write_csv("radial_sweep.csv")
print("  wrote radial_sweep.csv")

# Same idea for a single radius: the grid minimum over delta must agree
# with the closed-form optimal energy.
print()
n, beta, gamma_, R = 2, 3.0, 0.2, 2.0
fine = np.linspace(1e-3, 1.0, 20_000)
sweep = oracle_radial_sweep(n, beta, gamma_, [R], fine)
grid_min = sweep.rows.total[0].min()  # the table's one radius, R
closed = energy_radial_optimal(n, beta, gamma_, R)
print("delta-grid minimum vs closed form at R = {}: {:.9f} vs {:.9f} "
      "(diff {:+.2e})".format(R, grid_min, closed, grid_min - closed))

# The one-dimensional search enumerates jump profiles on value grids;
# the best competitor's energy is recomputed from scratch by energy_1d,
# so the reported number is never a table artifact.
print()
best, energy = oracle_1d_best(0.1, 0.9, 0.5, resolution=2000)
print("1-D oracle at (m, M, beta) = (0.1, 0.9, 0.5): best energy "
      "{:.9f} with jumps {}".format(energy, best.jumps))
