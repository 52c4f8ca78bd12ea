"""Structural credit risk engine for private companies.

Estimates latent market-value multipliers from observed book values by
Kalman filtering and EM, then computes risk-neutral equity/debt values,
option prices, calibrated default thresholds and default probabilities in
closed form, validated against exact-simulation oracles.
"""

from .em import (
    EmTrace,
    complete_loglik_gradient,
    default_initial_params,
    e_step,
    em_fit,
    expected_complete_loglik,
    m_step,
    smoothed_market_values,
)
from .errors import (
    DataValidationError,
    DegenerateDesignError,
    IllConditionedInnovationError,
    InfeasibleLinearizationError,
    NoSolutionError,
    PrivCreditError,
)
from .kalman import (
    FilterOutput,
    SmootherOutput,
    intercept_shift,
    run_filter,
    smooth,
)
from .model import (
    LinearizationSchedule,
    ModelParams,
    ObservedSeries,
    asset_linearization,
    asset_tangent,
    asset_weight_vector,
    build_linearization_schedule,
    derive_series,
    linearized_log_asset,
    real_intercepts,
    risk_neutral_intercepts,
)
from .pricing import (
    HorizonMoments,
    PricingContext,
    build_pricing_context,
    default_probability,
    equity_debt_values,
    horizon_moments,
    price_options,
    solve_threshold,
)
from .simulate import (
    SimConfig,
    SimulatedPanel,
    default_estimator,
    option_estimator,
    reduce_terminal,
    simulate_panel,
)

__version__ = "0.1.0"
