"""Verified computation of logarithmic coefficients of inverse functions.

Two independent routes to Gamma_n (series reversion vs. a reversion-free
coefficient identity), constructors for the named extremal functions of six
function classes, every sharp bound in closed form, and harnesses that
check the bounds and their sharpness numerically.
"""

from .series import (
    add,
    compose,
    constant,
    exp_zero,
    identity,
    log_unit,
    multiply,
    reciprocal,
    revert,
)
from .families import (
    ClassSpec,
    blaschke_series,
    f_alpha_extremal,
    gc_extremal,
    k_AB_n,
    koebe,
    member_from_schwarz,
    sample_schwarz,
    spiral_extremal,
    u_extremal,
    u_lambda_member,
)
from .gammas import gamma_via_bn, gamma_via_reversion
from .bounds import (
    BoundResult,
    bound_F_gamma1,
    bound_F_gamma2,
    bound_F_gamma3,
    bound_Gc,
    bound_U_gamma1,
    bound_U_gamma2,
    bound_bn_Gc,
    bound_class_S,
    bound_for,
    bound_spiral,
    bound_star_AB,
    bound_star_order,
    f_alpha_mu_upsilon,
    inverse_coeff_bound_S,
    ps_psi_bound,
    ps_region,
    v_of_x,
    verify_d1234,
)
from .harness import (
    VerifyReport,
    cross_check,
    explore_convex_large_n,
    sharpness_check,
    verify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "add", "compose", "constant", "exp_zero", "identity", "log_unit",
    "multiply", "reciprocal", "revert",
    "ClassSpec", "blaschke_series", "f_alpha_extremal",
    "gc_extremal", "k_AB_n", "koebe", "member_from_schwarz", "sample_schwarz",
    "spiral_extremal", "u_extremal", "u_lambda_member",
    "gamma_via_bn", "gamma_via_reversion",
    "BoundResult", "bound_F_gamma1", "bound_F_gamma2", "bound_F_gamma3",
    "bound_Gc", "bound_U_gamma1", "bound_U_gamma2", "bound_bn_Gc",
    "bound_class_S", "bound_for", "bound_spiral", "bound_star_AB",
    "bound_star_order", "f_alpha_mu_upsilon", "inverse_coeff_bound_S",
    "ps_psi_bound", "ps_region", "v_of_x", "verify_d1234",
    "VerifyReport", "cross_check", "explore_convex_large_n",
    "sharpness_check", "verify_bounds",
    "__version__",
]
