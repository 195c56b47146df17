"""The package root re-exports each module's public names, listed once."""

import calx
from calx import calibration_fields, energy, oracle, potentials, verifier

MODULES = (potentials, energy, calibration_fields, verifier, oracle)

# every public name of calx 0.1.0
NAMES_0_1_0 = (
    "gamma", "gamma_scaling_identity", "delta_robin", "delta_robin_prime", "robin_bracket",
    "robin_bracket_sup", "u_radial", "rho", "rho_prime", "lemma_gamma_bounds",
    "Competitor1D", "RadialProfile", "EnergyBreakdown", "unit_ball_volume", "energy_1d",
    "energy_radial_general", "energy_radial_traces", "energy_radial_optimal", "dE_dR",
    "critical_radii", "indicator_monotonicity_margin",
    "PiecewiseField", "Region", "Interface", "CalibParams1D", "HarmonicProfile",
    "HypothesisViolation", "affine_profile", "radial_shell_profile", "choose_lambda",
    "build_field_1d", "build_field_harmonic", "build_field_indicator_const",
    "build_field_indicator_two_piece", "build_field_ball_harmonic",
    "VerifyConfig", "VerificationReport", "CalibratedFunction", "check_condition_a",
    "check_condition_b", "check_graph_conditions", "check_divergence_and_flux", "verify_all",
    "perturb_phi_t", "JumpSearchSpace", "oracle_1d_best", "oracle_robin_shooting",
    "oracle_radial_sweep", "__version__",
)


def test_public_names_come_from_the_modules_once():
    names = calx.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert set(NAMES_0_1_0) <= set(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(calx, name) is getattr(module, name), (module.__name__, name)
    assert isinstance(calx.__version__, str)
