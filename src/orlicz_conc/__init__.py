"""Orlicz-type gauge norms with explicit concentration machinery.

The package is organized around a family of coordinate-wise convex
specifications (PowerNorm, SeparableTwoLevel, SeparableFromPhi,
BobkovLedouxCap, UserSeparable) and everything downstream of them:
Luxemburg-type p-gauges, conjugate growth profiles, closed-form moment and
tail bound evaluators, multi-index form norms, exact samplers for the
reference measures, and a Monte Carlo verification harness.

Each public name, and each submodule, is imported on first use (PEP 562).
"""

import importlib

_EXPORTS = {
    "bounds": ("PartitionNorms", "alpha1_moment_bound", "bcg_derivative_chain",
               "bcg_first_line", "bcg_moment_bound", "bcg_tail", "centered_moment_bound",
               "chebyshev_level", "defective_moment_bound", "defective_moment_bound_q",
               "enlargement_bound", "enlargement_rate", "gk_moment", "hanson_wright_tail",
               "l_constant", "lipschitz_profile", "moment_interpolation_factor",
               "poincare_beta_bound", "quadratic_chaos_moment", "two_level_tail"),
    "conjugacy": ("conjugate_ray_radius", "lam", "omega", "omega_inv", "omega_star",
                  "profile_table", "psi_star", "support_argmax", "support_function"),
    "empirics": ("EnlargementCurve", "MlsiReport", "MomentReport", "NuLogPReport",
                 "TestFunction", "batch_se", "comparison_check", "empirical_entropy",
                 "empirical_moment", "enlargement_mc", "euclidean_norm", "exp_tilt", "linear",
                 "max_coordinate", "mlsi_report", "quadratic_form", "top_mass_fraction",
                 "verify_centered", "verify_nu_logp"),
    "errors": ("InputError", "NumericalError"),
    "measures": ("CHUNK", "Family", "NuMeasure", "ProductPhiTail", "SamplerSpec",
                 "StandardGaussian", "isoperimetric_profile_nu", "map_streams", "nu_cdf",
                 "nu_pdf", "nu_quantile", "sample", "save_samples"),
    "psi": ("BobkovLedouxCap", "GrowthEnvelope", "PhiSpec", "PowerNorm", "PsiSpec",
            "SeparableFromPhi", "SeparableTwoLevel", "UserSeparable", "env_from_dict",
            "env_to_dict", "eval_psi", "eval_psi_rows", "psi_from_dict", "psi_from_json",
            "psi_p_norm", "psi_p_norm_rows", "psi_to_dict"),
    "solvers": ("legendre_1d",),
    "tables": ("write_table",),
    "tensors": ("MultiIndexMatrix", "chaos_deterministic_term", "eval_form", "form_gradient",
                "load_matrix", "partition_norms", "save_matrix", "symmetrize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(set(_HOME) | set(_EXPORTS))


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        value = globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
