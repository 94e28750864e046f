"""Orlicz-type gauge norms with explicit concentration machinery.

The package is organized around a family of coordinate-wise convex
specifications (PowerNorm, SeparableTwoLevel, SeparableFromPhi,
BobkovLedouxCap, UserSeparable) and everything downstream of them:
Luxemburg-type p-gauges, conjugate growth profiles, closed-form moment and
tail bound evaluators, multi-index form norms, exact samplers for the
reference measures, and a Monte Carlo verification harness.
"""

from .bounds import (PartitionNorms, alpha1_moment_bound, bcg_derivative_chain,
                     bcg_first_line, bcg_moment_bound, bcg_tail,
                     centered_moment_bound, chebyshev_level,
                     defective_moment_bound, defective_moment_bound_q,
                     enlargement_bound, enlargement_rate, gk_moment,
                     hanson_wright_tail, l_constant, lipschitz_profile,
                     moment_interpolation_factor, poincare_beta_bound,
                     quadratic_chaos_moment, two_level_tail)
from .conjugacy import (conjugate_ray_radius, lam, legendre_1d, omega,
                        omega_inv, omega_star, omega_values, profile_table,
                        psi_star, support_argmax, support_function)
from .empirics import (EnlargementCurve, MlsiReport, MomentReport,
                       NuLogPReport, TestFunction, batch_se, comparison_check,
                       empirical_entropy, empirical_moment, enlargement_mc,
                       euclidean_norm, exp_tilt, linear, max_coordinate,
                       mlsi_report, quadratic_form, top_mass_fraction,
                       verify_centered, verify_nu_logp)
from .errors import InputError, NumericalError
from .measures import (CHUNK, Family, NuMeasure, ProductPhiTail, SamplerSpec,
                       StandardGaussian, isoperimetric_profile_nu, map_streams,
                       nu_cdf, nu_pdf, nu_quantile, sample, sample_chunk,
                       save_samples, write_table)
from .psi import (BobkovLedouxCap, GrowthEnvelope, PhiSpec, PowerNorm,
                  PsiSpec, SeparableFromPhi, SeparableTwoLevel, UserSeparable,
                  env_from_dict, env_to_dict, eval_psi, eval_psi_rows,
                  psi_from_dict, psi_from_json, psi_p_norm, psi_p_norm_rows,
                  psi_to_dict)
from .tensors import (MultiIndexMatrix, chaos_deterministic_term, eval_form,
                      form_gradient, load_matrix, partition_norms,
                      save_matrix, symmetrize)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
