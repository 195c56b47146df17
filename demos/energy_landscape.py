"""
The radial energy landscape and its critical radii
==================================================

For each outer radius R the best radial competitor has a closed-form
energy E(R). Depending on (beta, gamma) the curve either grows from
R = 1 (the plain indicator wins) or dips into an interior minimum.
This script tabulates both regimes and writes a CSV a plot can consume.
"""

import numpy as np

from calx.energy import (critical_radii, dE_dR, energy_radial_optimal,
                         indicator_monotonicity_margin)

# Regime one: gamma = 0.4 keeps E increasing, so R = 1 is the optimum.
# Regime two: gamma = 0.34 creates a dip between two critical radii,
# yet the indicator still wins globally; the dip never goes deep enough.
n, beta = 2, 1.0
Rs = np.linspace(1.0, 3.0, 9)
print("E(R) at n = {}, beta = {}:".format(n, beta))
print("  R     gamma=0.40        gamma=0.34")
for R in Rs:
    print("  {:.2f}  {:.12f}   {:.12f}".format(
        R, energy_radial_optimal(n, beta, 0.40, R),
        energy_radial_optimal(n, beta, 0.34, R)))

for gamma_ in (0.40, 0.34):
    roots = critical_radii(n, beta, gamma_)
    margin = indicator_monotonicity_margin(n, beta, gamma_)
    print()
    print("gamma = {}: critical radii {}".format(gamma_, roots))
    print("  monotonicity margin = {:+.6f} "
          "(nonnegative means E is increasing)".format(margin))

# The dip at gamma = 0.34 sits between the two roots; sample dE/dR to
# see the sign pattern +,-,+ along the curve.
roots = critical_radii(n, beta, 0.34)
probes = [1.05, 0.5 * (roots[0] + roots[1]), 2.5]
print()
print("sign of dE/dR at gamma = 0.34:")
for R in probes:
    print("  R = {:.4f}: dE/dR = {:+.6f}".format(
        R, float(dE_dR(n, beta, 0.34, R))))

# Emit the curve for plotting. A two-line recipe with matplotlib:
#   data = np.loadtxt("energy_curve.csv", delimiter=",", skiprows=1)
#   plt.plot(data[:, 0], data[:, 1]); plt.show()
Rs = np.linspace(1.0, 3.0, 401)
rows = np.column_stack([Rs, energy_radial_optimal(n, beta, 0.34, Rs),
                        dE_dR(n, beta, 0.34, Rs)])
np.savetxt("energy_curve.csv", rows, delimiter=",", header="R,E,dE_dR",
           comments="")
print()
print("wrote energy_curve.csv with {} rows".format(len(rows)))
