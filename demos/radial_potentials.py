"""
Radial potentials and the optimal layer profile
===============================================

The whole construction rests on one scalar function per dimension: the
normalized radial potential Gamma. This walk-through prints it, derives
the optimal outer trace delta(R) it induces, and inspects the layer
profile u interpolating between the unit sphere and the outer sphere.
"""

import numpy as np

from calx.potentials import delta_robin, gamma, rho, u_radial

# Gamma(r) solves the radial Laplace equation with Gamma(1) = 0 and
# Gamma'(1) = 1; the closed forms differ by dimension.
print("Gamma(r) for r = 1..3:")
rs = np.linspace(1.0, 3.0, 5)
for n in (1, 2, 3, 4):
    vals = gamma(n, rs)
    print("  n = {}: {}".format(n, np.array2string(vals, precision=6)))

# The optimal trace on the outer sphere of radius R balances the
# Dirichlet cost of the layer against the jump penalty beta.
print()
print("optimal trace delta(R) at beta = 2:")
for n in (1, 2, 3):
    for R in (1.5, 2.0, 3.0):
        print("  n = {}, R = {}: delta = {:.12f}".format(
            n, R, delta_robin(n, 2.0, R)))

# The layer profile runs from 1 on the unit sphere down to delta(R).
# Its gradient magnitude is proportional to the potential's derivative,
# which is how the Robin condition u = |grad u| / beta appears on the
# outer sphere.
n, beta, R = 2, 2.0, 2.0
print()
print("layer profile at n = {}, beta = {}, R = {}:".format(n, beta, R))
print("  r      u(r)           |grad u|(r)    |grad u|/beta")
for r in np.linspace(1.0, R, 6):
    val, grad = u_radial(n, beta, R, r)
    print("  {:.2f}   {:.10f}   {:.10f}   {:.10f}".format(
        r, val, grad, grad / beta))
val_R, grad_R = u_radial(n, beta, R, R)
print("  Robin check at R: u - |grad u| / beta = {:.3e}".format(
    val_R - grad_R / beta))

# rho(r) is the curve along which the ball certificate matches fluxes;
# it stays below u and meets the layer trace delta(R) at r = R.
print()
print("auxiliary curve rho(r) on [1, R]:")
for r in np.linspace(1.0, R, 6):
    val, _ = u_radial(n, beta, R, r)
    print("  r = {:.2f}: rho = {:.10f}  (u = {:.10f})".format(
        r, rho(n, beta, R, r), val))
print("  rho(R) = delta(R)? -> {:.3e}".format(
    rho(n, beta, R, R) - delta_robin(n, beta, R)))
