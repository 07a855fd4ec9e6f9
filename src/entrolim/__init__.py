"""Information-theoretic floors on feedback-loop error.

Any causal controller reacting to a random disturbance leaves a residual
error whose size is bounded below by the disturbance's conditional entropy;
this package computes those floors analytically for a family of disturbance
models, simulates closed loops against them, and verifies both the bounds
and their tightness conditions empirically.

Layout:
    distributions   generalized Gaussian family and Gaussian vectors
    processes       disturbance models with analytic entropy schedules
    config          the JSON experiment config, read and checked in one place
    spectral        Szego integral, negentropy rate, Gaussianity-whiteness
    bounds          the floors themselves (L_p and MIMO determinant)
    simulator       causal controllers, closed loops, causality audits
    estimators      entropy / MI / whiteness estimation from samples
    verify          Monte Carlo confrontation of bound vs simulation
    cli             the ``entrolim`` command-line tool
"""

from .distributions import GaussianVector, GeneralizedGaussian
from .processes import (
    IID,
    CapacityError,
    DisturbanceModel,
    EntropySchedule,
    GaussARMA,
    GenGaussAR,
    NotAnalyticError,
    VectorGaussAR,
    arma_autocovariance,
    entropy_schedule,
    levinson_ladder,
    prediction_variances,
)
from .config import model_from_config
from .spectral import (
    SpectralDensity,
    SpectralIntegralError,
    gaussianity_whiteness,
    negentropy_rate_bits,
    szego_entropy_integral_bits,
)
from .bounds import (
    BoundReport,
    gw_lp_bound,
    lp_bound,
    lp_bound_asymptotic,
    lp_bound_at_step,
    lp_constant,
    mimo_det_bound,
    mimo_det_bound_asymptotic,
    mimo_det_bound_at_step,
    spectral_lp_bound,
)
from .simulator import (
    CausalStage,
    CausalityReport,
    ControllerPolicy,
    SimulationTrace,
    anticipatory_double,
    causality_audit,
    closed_loop_causality_check,
    compose_loop,
    delay_stage,
    gain_stage,
    learned_controller,
    load_trace,
    predictor_controller,
    random_causal_controller,
    run_loop,
    save_trace,
    zero_controller,
)
from .estimators import (
    DetEstimate,
    EntropyEstimate,
    GGFitReport,
    WhitenessReport,
    conditional_entropy_estimate,
    covariance_det_estimate,
    density_fit_gg,
    entropy_estimate_1d,
    entropy_estimate_knn,
    lp_norm_estimate,
    mutual_information_estimate,
    whiteness_stats,
)
from .verify import (
    CSV_COLUMNS,
    CellRow,
    NonFiniteLoopError,
    ProductBoundCheck,
    SweepResult,
    TightnessReport,
    VerificationReport,
    default_burn_in,
    resolve_controller,
    spawn_seeds,
    sweep,
    tightness_report,
    verify_bound,
    verify_mimo_bound,
    write_rows_csv,
)

__version__ = "0.1.0"

__all__ = [
    "GeneralizedGaussian",
    "GaussianVector",
    "DisturbanceModel",
    "IID",
    "GaussARMA",
    "GenGaussAR",
    "VectorGaussAR",
    "EntropySchedule",
    "entropy_schedule",
    "levinson_ladder",
    "prediction_variances",
    "arma_autocovariance",
    "model_from_config",
    "CapacityError",
    "NotAnalyticError",
    "SpectralDensity",
    "SpectralIntegralError",
    "szego_entropy_integral_bits",
    "negentropy_rate_bits",
    "gaussianity_whiteness",
    "lp_constant",
    "lp_bound",
    "mimo_det_bound",
    "lp_bound_at_step",
    "lp_bound_asymptotic",
    "spectral_lp_bound",
    "gw_lp_bound",
    "mimo_det_bound_at_step",
    "mimo_det_bound_asymptotic",
    "BoundReport",
    "ControllerPolicy",
    "SimulationTrace",
    "CausalStage",
    "CausalityReport",
    "run_loop",
    "zero_controller",
    "predictor_controller",
    "random_causal_controller",
    "learned_controller",
    "compose_loop",
    "delay_stage",
    "gain_stage",
    "causality_audit",
    "closed_loop_causality_check",
    "anticipatory_double",
    "save_trace",
    "load_trace",
    "EntropyEstimate",
    "WhitenessReport",
    "GGFitReport",
    "DetEstimate",
    "lp_norm_estimate",
    "entropy_estimate_1d",
    "entropy_estimate_knn",
    "conditional_entropy_estimate",
    "mutual_information_estimate",
    "whiteness_stats",
    "density_fit_gg",
    "covariance_det_estimate",
    "NonFiniteLoopError",
    "TightnessReport",
    "VerificationReport",
    "ProductBoundCheck",
    "SweepResult",
    "CellRow",
    "CSV_COLUMNS",
    "verify_bound",
    "verify_mimo_bound",
    "tightness_report",
    "sweep",
    "resolve_controller",
    "spawn_seeds",
    "default_burn_in",
    "write_rows_csv",
    "__version__",
]
