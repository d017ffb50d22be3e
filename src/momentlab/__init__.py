"""momentlab: Gaussian moment forms, secant dimensions, and recovery.

The package splits into a small stack of pure layers:

  poly         dense homogeneous polynomials over QQ or floats
  moments      moment forms, mixtures, and their structural identities
  tangent      tangent-space generator matrices and secant stacking
  rank         exact mod-p rank and kernel, the prime test, rank
               certificates
  bounds       closed-form thresholds and the splitting optimizer
  experiments  dimension/defect/contact experiments and CSV emission
  recovery     Gauss-Newton parameter recovery from exact moments
  cli          the `momentlab` command-line entry point
"""

from .bounds import (
    AHReport,
    BoundReport,
    MMConditionReport,
    SplitChoice,
    ah_expected,
    bound_report,
    dim_forms,
    dim_gm,
    generic_rank_bounds,
    mm_condition_report,
    nenashev_bounds,
    param_count_bound,
    splitting_constraints,
    splitting_optimizer,
    splitting_report,
)
from .experiments import (
    ExperimentRecord,
    KoszulReport,
    contact_kernel,
    koszul_defect_check,
    max_rank_m,
    max_rank_scan,
    secant_dimension,
    split_skewness,
)
from .moments import (
    BivariateMomentPoly,
    GaussianParams,
    MixtureParams,
    bivariate_coeffs,
    common_root_check,
    duonomial,
    eisenstein_check,
    euler_recurrence_check,
    mixture_moment,
    moment_form,
    monomial_moments,
    monte_carlo_check,
    rescale_to_uniform,
    sylvester_resultant,
)
from .poly import (
    QQ,
    RR,
    DenseForm,
    evaluate,
    monomial_count,
    monomial_rank,
    monomial_unrank,
    monomials,
    multiply,
    quadratic_pairs,
)
from .rank import (
    RankReport,
    rank_consensus,
    rank_modp,
)
from .recovery import (
    DivergenceError,
    MatchResult,
    RecoveryProblem,
    RecoveryResult,
    jacobian,
    match_components,
    refine,
    residual,
    run_recovery_demo,
)
from .tangent import sample_params

__version__ = "0.1.0"
