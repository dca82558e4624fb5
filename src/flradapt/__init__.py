"""Adaptive estimation of linear functionals of the slope in
scalar-on-function linear regression.

The package bundles the data-driven estimator (thresholded projection plus
penalized-contrast dimension selection), a Gaussian simulator, theoretical
risk and rate oracles, and a Monte Carlo harness that probes the convergence
rates at desk scale.
"""
from .sequences import (
    Regime,
    SequenceModel,
    UnderflowWarning,
)
from .functionals import (
    PointEval,
    DerivativeEval,
    LocalAverage,
    Custom,
    coefficients,
)
from .simulate import (
    Covariance,
    Dataset,
    make_slope,
    draw_dataset,
    true_value,
    save_dataset_csv,
    load_dataset_csv,
)
from .estimator import (
    Moments,
    empirical_moments,
    galerkin_estimate,
)
from .adaptive import (
    AdaptiveResult,
    AdaptiveEstimationError,
    cap_m_ell,
    cap_m_hat,
    penalties,
    contrasts,
    select,
    adaptive_estimate,
    check_selection_bound,
)
from .oracle import (
    RateDescriptor,
    DivergentTailError,
    RegimeConditionError,
    minimax_dimension,
    rate_exponent,
)
from .harness import (
    StudyConfig,
    StudyReport,
    StudyError,
    run_study,
    fit_rate,
)

__version__ = "0.1.0"
