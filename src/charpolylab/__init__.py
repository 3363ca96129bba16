"""Desk-scale laboratory for the maximum of the log-characteristic-polynomial
field of unitarily invariant random matrices: exact determinantal identities,
Gaussian comparison fields, hyperbolic branching geometry, and Monte Carlo
experiments, all cross-checked against independent oracles.
"""

from .ensemble import (EquilibriumModel, Spectrum, gue_model, make_model,
                       sample_spectrum_gue)
from .gaussfield import (BiasSpec, FieldSample, GaussKernel, cov_g, cov_t,
                         exp_moment_g, biased_mean, kernel_g, kernel_t,
                         sample_gauss)
from .hyperbolic import (DomainParams, branch_profile, hyp_dist, in_domain,
                         joukowsky, mobius_to_zero, pseudo_dist, ray_point)
from .orthopoly import (LogComplex, OPTable, RHMatrix, eval_h, eval_pi,
                        gamma0, global_parametrix_onecut, m_matrix,
                        r_weight, recurrence_table, y_matrix)
from .charpoly import (exp_moment_field, exp_pm2_moment, fs_balanced,
                       fs_general, laplace_split, vandermonde_det)
from .extremes import (MaxRecord, cheb_grid, empirical_centering,
                       factor14_check, field_q, max_experiment,
                       regularized_max)
from .momentlab import (BiasClassParams, LowerBoundParams, PairConfiguration,
                        in_tube, lower_bound_mc, matching_ratio, mem_ratio,
                        omega_grid, pair_config_validate, validate_paired_bias,
                        validate_separated_bias)

__version__ = "0.1.0"
