"""Desk-scale laboratory for the maximum of the log-characteristic-polynomial
field of unitarily invariant random matrices: exact determinantal identities,
Gaussian comparison fields, hyperbolic branching geometry, and Monte Carlo
experiments, all cross-checked against independent oracles.
"""

from .ensemble import Spectrum, sample_spectrum_gue
from .gaussfield import (BiasSpec, FieldSample, GaussKernel, cov_g, cov_t,
                         exp_moment_g, kernel_g, kernel_t, sample_gauss)
from .hyperbolic import hyp_dist, joukowsky, pseudo_dist, ray_point
from .orthopoly import (OPTable, RHMatrix, global_parametrix_onecut,
                        m_matrix, r_weight, y_matrix)
from .charpoly import (exp_moment_field, exp_pm2_moment, fs_balanced,
                       laplace_split, vandermonde_det)
from .extremes import cheb_grid, factor14_check, max_experiment
from .momentlab import (LowerBoundParams, PairConfiguration, in_tube,
                        lower_bound_mc, mem_ratio, omega_grid,
                        pair_config_validate)

__version__ = "0.1.0"
