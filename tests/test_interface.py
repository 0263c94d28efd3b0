"""The public interface: the names ``factorlab`` exports."""

import factorlab

PUBLIC_NAMES = [
    "BellMeasurementOutcome", "BlochForm", "ChshSetting", "DEFAULT_TOL",
    "DensityMatrix", "DimensionMismatchError", "FactorizationSwitch", "GisinThresholds",
    "Isometry", "LocalFilter", "NotApplicable", "PptVerdict", "ProtocolCheckError",
    "SchmidtDecomposition", "Spectrum", "StateValidationError", "Witness",
    "abs_sep_2x2", "algebra_image", "align_global_phase", "apply_filter", "bell_state",
    "bell_vector", "chsh_maximize", "chsh_operator", "chsh_value", "concurrence",
    "conjugate", "constrained_entangle", "ewi_eval", "extend_to_unitary", "from_bloch",
    "geometric_mean_predicts_npt", "ghz_split_unitary", "ghz_traced", "ghz_vector",
    "gisin", "gisin_filter", "gisin_thresholds", "gisin_unitary_family",
    "herm_eigensystem", "horodecki_bmax", "hs_distance", "hs_inner", "hs_measure_to",
    "hs_norm", "identity_switch", "is_hermitian", "is_psd", "is_unitary",
    "isometry_of_maxent", "kz_ball_member", "linalg", "maxent_from_isometry",
    "maxent_weight", "measures", "mixedness", "named_switch", "narnhofer",
    "narnhofer_unitary", "optimal_witness", "partial_trace", "partial_transpose",
    "ppt_check", "product_state", "protocols", "psd_sqrt", "psi_theta",
    "pure_to_maxent", "pure_to_product", "purity", "rho_theta", "schmidt_decompose",
    "separabilize", "split_bound_check", "state_from_dict", "state_to_dict", "states",
    "swap", "swap_outcomes", "teleport", "teleport_outcomes", "to_bloch", "tracial",
    "transforms", "u1_ghz", "u2_ghz", "u_switch", "u_theta", "u_tilde_theta",
    "verstraete_wolf_bounds", "vn_entropy", "werner", "werner_generalized",
    "weyl_basis_state", "weyl_operator", "weylize", "witness_bell", "witness_projector",
]


def test_public_names_are_unchanged():
    assert sorted(factorlab.__all__) == PUBLIC_NAMES
