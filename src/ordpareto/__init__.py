"""Ordinal combinatorial optimization via Pareto transformation.

Solves combinatorial problems whose objectives assign ordered categories
(best to worst) instead of numeric costs, by linearly transforming category
counting vectors into tail-count vectors on which plain Pareto dominance
applies. Includes exact shortest-path and knapsack solvers, weighted-sum
scalarization and weight space decomposition, and a brute-force oracle.
"""

from ordpareto.core import (
    CategorySpace,
    ConeMatrix,
    DominanceCertificate,
    NumericalRepresentation,
    cone_member,
    counting_vector,
    dominance_certificate,
    head_dominates,
    head_transform,
    inverse_transform,
    numeric_value,
    ordinal_vector,
    pareto_dominates,
    tail_dominates,
    tail_transform,
    weakly_tail_dominates,
)
from ordpareto.nondominance import (
    PointSet,
    cone_filter,
    is_supported,
    pareto_filter,
)
from ordpareto.solvers import (
    GraphInstance,
    KnapsackInstance,
    SolveResult,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)
from ordpareto.scalarization import (
    WeightCell,
    lambda_to_mu,
    mu_to_lambda,
    weight_space_decomposition,
    weighted_sum_solve,
)
from ordpareto.oracle import (
    enumerate_paths,
    enumerate_subsets,
    mapping_check,
    oracle_efficient_set,
)

__version__ = "0.1.0"

__all__ = [
    "CategorySpace",
    "ConeMatrix",
    "DominanceCertificate",
    "NumericalRepresentation",
    "PointSet",
    "GraphInstance",
    "KnapsackInstance",
    "SolveResult",
    "WeightCell",
    "counting_vector",
    "ordinal_vector",
    "tail_transform",
    "inverse_transform",
    "head_transform",
    "tail_dominates",
    "weakly_tail_dominates",
    "head_dominates",
    "pareto_dominates",
    "numeric_value",
    "dominance_certificate",
    "cone_member",
    "pareto_filter",
    "cone_filter",
    "mapping_check",
    "is_supported",
    "solve_shortest_path",
    "solve_knapsack",
    "solve_mixed",
    "solve_weighted_counting",
    "weighted_sum_solve",
    "lambda_to_mu",
    "mu_to_lambda",
    "weight_space_decomposition",
    "enumerate_paths",
    "enumerate_subsets",
    "oracle_efficient_set",
]
