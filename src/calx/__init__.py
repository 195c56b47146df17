"""calx: calibration certificates and energy formulas for thermal insulation.

The package is organised around six modules:

* ``potentials``          closed-form radial potentials and inequalities,
* ``energy``              1-D and radial energy functionals,
* ``calibration_fields``  the explicit piecewise calibration vector fields,
* ``verifier``            grid-based certification of the calibration axioms,
* ``oracle``              slow independent recomputations used for testing,
* ``cli``                 the ``calx`` command line tool.
"""

from calx import calibration_fields, energy, oracle, potentials, verifier
from calx.potentials import *  # noqa: F401,F403
from calx.energy import *  # noqa: F401,F403
from calx.calibration_fields import *  # noqa: F401,F403
from calx.verifier import *  # noqa: F401,F403
from calx.oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [name for module in (potentials, energy, calibration_fields, verifier, oracle)
           for name in module.__all__] + ["__version__"]
