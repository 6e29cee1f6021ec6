"""End-user analytics built on the reproduction's public API (Section 5)."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "GradientDescentLR": "regression",
    "IncrementalExpm": "expm",
    "IncrementalPageRank": "pagerank",
    "IncrementalPowerIteration": "power_iteration",
    "KStepDistribution": "markov",
    "KStepTransitionMatrix": "markov",
    "ReachabilityIndex": "reachability",
    "WeightedPowerSum": "expm",
    "check_column_stochastic": "markov",
    "column_stochastic": "markov",
    "make_ols": "ols",
    "neumann_coefficients": "expm",
    "random_walk_matrix": "markov",
    "reference_dominant_eigenpair": "power_iteration",
    "reference_gradient_descent": "regression",
    "reference_k_step": "markov",
    "reference_pagerank": "pagerank",
    "reference_reachable_pairs": "reachability",
    "reference_weighted_powers": "expm",
    "taylor_coefficients": "expm",
    "transition_matrix": "pagerank",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
