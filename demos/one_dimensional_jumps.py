"""
When is jumping cheaper than interpolating?
===========================================

On the unit interval with boundary data m and M, the competitor can
either run affinely (paying Dirichlet energy) or jump (paying beta
times the sum of squared one-sided traces). This script reproduces the
two canonical cases and the borderline one where both strategies tie.
"""

from calx.calibration_fields import affine_profile, build_field_harmonic, choose_lambda
from calx.energy import Competitor1D, energy_1d
from calx.oracle import oracle_1d_best
from calx.verifier import verify_all

# Case one: data 0 and 1 at beta = 1. The affine interpolant pays 1,
# but jumping at the left endpoint to the level 1/2 pays
# beta (0^2 + 0.5^2) + 0.5^2 = 0.5. No Lagrange multiplier can absorb
# such a jump, so the calibration template does not apply here.
best, energy = oracle_1d_best(0.0, 1.0, 1.0, resolution=2000)
affine = Competitor1D.affine(0.0, 1.0, 0.0, 1.0, left_data=0.0,
                             right_data=1.0)
print("data (0, 1), beta = 1:")
print("  affine energy  = {:.6f}".format(energy_1d(affine, 1.0).total))
print("  oracle best    = {:.6f}".format(energy))
print("  best competitor: pieces = {}, left trace vs datum = {} vs {}".format(
    best.pieces, best.trace_at_a(), best.left_data))
print("  multiplier feasible? {}".format(choose_lambda(0.0, 1.0, 1.0)))

# Case two: data 0.8 and 1 at beta = 3. Jumps are hopeless here; the
# affine interpolant wins and the calibration certifies it outright.
best, energy = oracle_1d_best(0.8, 1.0, 3.0, resolution=2000)
print()
print("data (0.8, 1), beta = 3:")
print("  oracle best = {:.6f} with {} jumps".format(energy,
                                                    len(best.jumps)))
report = verify_all(build_field_harmonic(affine_profile(0.8, 1.0), 3.0))
print("  calibration verdict: {}".format(
    "pass" if report.passed else "FAIL"))

# The borderline: data (0.25, 1) at beta = 1. The affine profile and a
# jump profile have the same energy, and a single field calibrates both
# of them, which is exactly how one proves both are minimizers.
print()
print("data (0.25, 1), beta = 1 (the tie):")
affine = Competitor1D.affine(0.0, 1.0, 0.25, 1.0, left_data=0.25,
                             right_data=1.0)
jumper = Competitor1D.affine(0.0, 1.0, 0.5, 1.0, left_data=0.25,
                             right_data=1.0)
print("  affine energy = {:.6f}".format(energy_1d(affine, 1.0).total))
print("  jump-at-0 energy = {:.6f}".format(energy_1d(jumper, 1.0).total))
field = build_field_harmonic(affine_profile(0.25, 1.0), 1.0)
report = verify_all(field)
print("  shared calibration verdict: {}".format(
    "pass" if report.passed else "FAIL"))
print("  template parameters: {}".format(field.params))
