"""What a one-shot ``solve`` loads, and the package root that loads lazily.

``solve`` must not pay for what it never runs: the stdlib's ``dataclasses``
(with ``inspect``) and ``typing``, or the brute-force oracle. The child runs
with ``-S``, so that no site hook loads those modules on its behalf.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordpareto

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys
from ordpareto import cli

assert cli.main(["solve", "sp", "instances/routes_k3.graph"]) == 0
print("loaded", sorted(m for m in sys.argv[1:] if m in sys.modules))
assert cli.main(["oracle-check", "instances/routes_k3.graph"]) == 0
"""

EXPORTS = {
    "CategorySpace", "ConeMatrix", "DominanceCertificate", "NumericalRepresentation",
    "PointSet", "GraphInstance", "KnapsackInstance", "SolveResult", "WeightCell",
    "counting_vector", "ordinal_vector", "tail_transform", "inverse_transform",
    "head_transform", "tail_dominates", "weakly_tail_dominates", "head_dominates",
    "pareto_dominates", "numeric_value", "dominance_certificate", "cone_member",
    "pareto_filter", "cone_filter", "mapping_check", "is_supported",
    "solve_shortest_path", "solve_knapsack", "solve_mixed", "solve_weighted_counting",
    "weighted_sum_solve", "lambda_to_mu", "mu_to_lambda", "weight_space_decomposition",
    "enumerate_paths", "enumerate_subsets", "oracle_efficient_set",
}


def test_solve_loads_neither_dataclasses_nor_typing_nor_the_oracle():
    unwanted = ["dataclasses", "inspect", "typing", "ordpareto.oracle"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, *unwanted],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "loaded []" in lines
    assert lines[-1].startswith("MATCH [(2, 1, 1)")  # oracle-check loads the oracle


def test_package_root_exports_every_name_lazily():
    assert len(ordpareto.__all__) == len(EXPORTS) == 36
    assert set(ordpareto.__all__) == EXPORTS
    for name in EXPORTS:
        value = getattr(ordpareto, name)
        assert value.__module__.startswith("ordpareto.")
    namespace = {}
    exec("from ordpareto import *", namespace)
    assert EXPORTS <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        ordpareto.no_such_name
