"""Vector-pair generation, activity measures and populations."""

from .activity import (
    hamming_distance,
    mean_activity,
    pair_activity,
    per_line_transition_prob,
    toggle_correlation,
)
from .generators import (
    as_rng,
    high_activity_vector_pairs,
    markov_transition_vector_pairs,
    random_vector_pairs,
    transition_prob_vector_pairs,
)
from .population import FinitePopulation, PowerPopulation, StreamingPopulation

__all__ = [
    "pair_activity",
    "mean_activity",
    "per_line_transition_prob",
    "toggle_correlation",
    "hamming_distance",
    "random_vector_pairs",
    "high_activity_vector_pairs",
    "transition_prob_vector_pairs",
    "markov_transition_vector_pairs",
    "as_rng",
    "PowerPopulation",
    "FinitePopulation",
    "StreamingPopulation",
]
