"""End-user analytics built on the reproduction's public API (Section 5)."""

from .expm import (
    IncrementalExpm,
    WeightedPowerSum,
    neumann_coefficients,
    reference_weighted_powers,
    taylor_coefficients,
)
from .markov import (
    KStepDistribution,
    KStepTransitionMatrix,
    check_column_stochastic,
    column_stochastic,
    random_walk_matrix,
    reference_k_step,
)
from .ols import IncrementalOLS, QRIncrementalOLS, ReevalOLS, make_ols
from .power_iteration import (
    IncrementalPowerIteration,
    reference_dominant_eigenpair,
)
from .reachability import ReachabilityIndex, reference_reachable_pairs
from .pagerank import IncrementalPageRank, reference_pagerank, transition_matrix
from .regression import GradientDescentLR, reference_gradient_descent

__all__ = [
    "GradientDescentLR",
    "IncrementalExpm",
    "IncrementalOLS",
    "IncrementalPageRank",
    "IncrementalPowerIteration",
    "QRIncrementalOLS",
    "KStepDistribution",
    "KStepTransitionMatrix",
    "ReachabilityIndex",
    "WeightedPowerSum",
    "check_column_stochastic",
    "column_stochastic",
    "make_ols",
    "neumann_coefficients",
    "random_walk_matrix",
    "ReevalOLS",
    "reference_dominant_eigenpair",
    "reference_gradient_descent",
    "reference_k_step",
    "reference_pagerank",
    "reference_reachable_pairs",
    "reference_weighted_powers",
    "taylor_coefficients",
    "transition_matrix",
]
