"""Constrained maximum-entropy inference over finite alphabets.

Library layout:

* ``measures``     finite distributions, losses, Bayes decisions
* ``tilting``      exponential tilts, I-projection, general-divergence projections
* ``ldp``          the exact law of V . L_n, decay-rate estimates, conditioning
* ``meta``         fits of expected-loss distributions and MAP model search
* ``correlation``  Gaussian-pair conditional-loss expansion and loss-correlation curves
* ``cli``          the ``maxent-bayes`` command-line harness
"""

__version__ = "0.1.0"

from .measures import (
    Alphabet,
    BayesDecision,
    FiniteDistribution,
    LossMatrix,
    bayes_classifier,
    expected_loss,
    kl_divergence,
    shannon_entropy,
    total_variation,
)
from .tilting import (
    ConstraintSpec,
    DivergenceSpec,
    TiltedDistribution,
    divergence_projection,
    i_projection,
    necessity_gap,
    solve_tilt,
    stationarity_residual,
)
from .ldp import (
    ConditioningResult,
    ErrorDistribution,
    RateEstimate,
    RatePoint,
    SeededSampler,
    error_distribution_exact,
    error_rate_function,
    gibbs_conditioning,
    sanov_exact,
    sanov_monte_carlo,
)
from .meta import (
    MapModelResult,
    MetaConstraint,
    maxent_error_fit,
    map_model,
    run_meta_pipeline,
    simplex_grid,
)
from .correlation import (
    GaussianPairModel,
    LossCurve,
    LossFunction,
    conditional_loss_expansion,
    loss_correlation_curve,
    loss_function,
)

__all__ = [name for name in dir() if not name.startswith("_")]
