"""
Two certificates that the unit-ball indicator is optimal
========================================================

The indicator of the unit ball is the conjectured minimizer in two
parameter regimes. Each regime has its own divergence-free field, and
the verifier checks both on a grid. The second certificate comes with
a genuine hypothesis: when it fails, the constructor points at the
radius where the inequality breaks.
"""

from calx.calibration_fields import (HypothesisViolation,
                                     build_field_indicator_const,
                                     build_field_indicator_two_piece)
from calx.energy import critical_radii, energy_radial_optimal
from calx.verifier import verify_all

# Certificate one needs only beta <= gamma: a single smooth field
# defined by one formula on the whole domain.
field = build_field_indicator_const(2, 0.3, 0.4)
report = verify_all(field)
print("small-beta certificate (n = 2, beta = 0.3, gamma = 0.4):")
print(report.summary_table())

# Certificate two works for beta > gamma as long as the energy curve
# is monotone; it glues two formulas along the trace curve rho(r).
print()
print("two-piece certificate (n = 2, beta = 1, gamma = 0.4):")
field = build_field_indicator_two_piece(2, 1.0, 0.4)
report = verify_all(field)
print(report.summary_table())

# Push gamma down to 0.34 and the monotonicity hypothesis fails: the
# constructor refuses and reports the violating radius. Note the energy
# curve dips there, yet the indicator still wins globally; the
# certificate is simply out of scope, not wrong about the minimizer.
print()
print("two-piece certificate at gamma = 0.34:")
try:
    build_field_indicator_two_piece(2, 1.0, 0.34)
except HypothesisViolation as exc:
    print("  refused: {}".format(exc))
    print("  violating radius: {:.6f}".format(exc.location))

roots = critical_radii(2, 1.0, 0.34)
indicator = energy_radial_optimal(2, 1.0, 0.34, 1.0)
dip = float(energy_radial_optimal(2, 1.0, 0.34, roots[1]))
print("  indicator energy {:.6f} vs interior dip {:.6f} at "
      "R = {:.4f}".format(indicator, dip, roots[1]))
