"""
Calibrating a ball with a harmonic layer
========================================

At special parameter pairs the minimizer is not an indicator but a ball
of radius R > 1 dressed with a harmonic layer. The certifying field has
six regions and three interface curves; the verifier exercises all of
them, including the flux balance across the trace curve.
"""

import math

from calx.calibration_fields import (HypothesisViolation,
                                     build_field_ball_harmonic)
from calx.potentials import delta_robin
from calx.verifier import VerifyConfig, verify_all

# gamma is not free: the layer calibrates exactly when R is a critical
# point of the energy curve, which pins gamma^2 to the trace identity.
n, beta, R = 2, 2.0, 2.0
dR = delta_robin(n, beta, R)
gamma_ = math.sqrt((beta ** 2 - (n - 1) * beta / R) * dR ** 2)
print("n = {}, beta = {}, R = {} -> delta(R) = {:.12f}, "
      "gamma = {:.12f}".format(n, beta, R, dR, gamma_))

field = build_field_ball_harmonic(n, beta, gamma_, R)
print()
print("regions:", ", ".join(field.region_names()))
report = verify_all(field, config=VerifyConfig(pos_res=128, t_res=128,
                                               pair_res=128))
print(report.summary_table())
meta = report.results["divflux"].meta
print("worst interior divergence {:.3e}, worst interface flux "
      "{:.3e}".format(meta["div_worst"], meta["flux_worst"]))

# Feed the constructor a gamma off the identity and it refuses.
print()
try:
    build_field_ball_harmonic(n, beta, 0.3, R)
except HypothesisViolation as exc:
    print("wrong gamma refused: {}".format(exc))

# beta >= n - 1/2 is the sufficient hypothesis behind a `certified`
# verdict. Below it the construction still goes through algebraically,
# and on this cell, beta = 1.3 at the critical radius R = 1.08, the scan
# finds fibers whose flux exceeds the jump budget of the pair bound (b).
# That shows the hypothesis can matter, not that it is sharp: how far
# below n - 1/2 axiom (b) keeps holding is an open question.
print()
beta_small, R_small = 1.3, 1.08
d_small = delta_robin(n, beta_small, R_small)
g_small = math.sqrt((beta_small ** 2 - (n - 1) * beta_small / R_small)
                    * d_small ** 2)
field = build_field_ball_harmonic(n, beta_small, g_small, R_small,
                                  enforce_beta=False)
report = verify_all(field, config=VerifyConfig(pos_res=128, t_res=128,
                                               pair_res=128, axioms=("b",)))
result = report.results["b"]
print("beta = {} < {}: condition (b) {} with {} violations, worst "
      "margin {:.3e}".format(beta_small, n - 0.5, result.status,
                             result.n_violations, result.worst_margin))
worst = max(result.violations, key=lambda v: v.residual)
print("sample violating fiber: pos = {:.6f}, pair = ({:.4f}, "
      "{:.4f})".format(worst.location[0], worst.location[1],
                       worst.location[2]))
