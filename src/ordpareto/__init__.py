"""Ordinal combinatorial optimization via Pareto transformation.

Solves combinatorial problems whose objectives assign ordered categories
(best to worst) instead of numeric costs, by linearly transforming category
counting vectors into tail-count vectors on which plain Pareto dominance
applies. Includes exact shortest-path and knapsack solvers, weighted-sum
scalarization and weight space decomposition, and a brute-force oracle.

The names below load their submodule on first use (PEP 562), so importing
the package, or one submodule such as :mod:`ordpareto.cli`, loads no other.
"""

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "core": "CategorySpace ConeMatrix cone_member counting_vector head_transform"
        " inverse_transform ordinal_vector tail_transform",
        "nondominance": "PointSet cone_filter is_supported pareto_filter",
        "solvers": "GraphInstance KnapsackInstance SolveResult solve_knapsack"
        " solve_mixed solve_shortest_path solve_weighted_counting",
        "scalarization": "WeightCell lambda_to_mu mu_to_lambda"
        " weight_space_decomposition weighted_sum_solve",
        "oracle": "DominanceCertificate NumericalRepresentation dominance_certificate"
        " enumerate_paths enumerate_subsets head_dominates mapping_check numeric_value"
        " oracle_efficient_set pareto_dominates tail_dominates weakly_tail_dominates",
    }.items()
    for name in names.split()
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
