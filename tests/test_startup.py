"""What a one-shot command loads, and the package root that loads lazily.

A command must not pay for what it never runs. ``import ordpareto.cli``
and ``build_parser()`` load only ``core``, ``fileio``, ``solvers`` and
``cli``; ``solve sp`` and ``solve knapsack`` load neither the point-set
modules (``nondominance``, ``scalarization``, ``simplex``), nor
``fractions`` (with ``decimal``), ``json``, ``dataclasses``, ``typing`` or
the brute-force oracle. The commands that need them load them on first
use, and give the same output in a fresh process. The children run with
``-S``, so that no site hook loads those modules on their behalf.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordpareto

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "instances.json").read_text())

ON_DEMAND = [
    "ordpareto.nondominance", "ordpareto.scalarization", "ordpareto.simplex",
    "fractions", "decimal", "json", "dataclasses", "inspect", "typing",
    "ordpareto.oracle",
]


def child(argv, stdin=None):
    """``python -S`` with ``argv`` in the repository root: the finished process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-S", *argv], cwd=ROOT, env=env, stdin=stdin,
        capture_output=True, text=True, timeout=30,
    )


def loaded_after(code):
    """The ``ordpareto`` and ``ON_DEMAND`` modules loaded after ``code`` runs."""
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('ordpareto')"
    report += f" or m in {ON_DEMAND!r}))"
    proc = child(["-c", f"{code}\n{report}"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_the_parser_loads_only_core_fileio_solvers_and_cli():
    code = "from ordpareto import cli; cli.build_parser()"
    assert loaded_after(code) == [
        "ordpareto", "ordpareto.cli", "ordpareto.core", "ordpareto.fileio",
        "ordpareto.solvers",
    ]


@pytest.mark.parametrize(
    "argv",
    [["solve", "sp", "instances/routes_k3.graph"],
     ["solve", "knapsack", "instances/knapsack_k2.txt", "--all-efficient"]],
)
def test_a_pure_ordinal_solve_loads_nothing_on_demand(argv):
    code = f"from ordpareto import cli; assert cli.main({argv!r}) == 0"
    loaded = loaded_after(code)
    assert "ordpareto.solvers" in loaded
    assert not set(ON_DEMAND) & set(loaded)


def test_oracle_check_loads_the_oracle():
    code = "from ordpareto import cli; assert cli.main(['oracle-check', 'instances/routes_k3.graph']) == 0"
    assert "ordpareto.oracle" in loaded_after(code)


@pytest.mark.parametrize(
    "case",
    [
        "solve sp instances/routes_k3.graph --format json",
        "solve mixed instances/routes_weighted.graph --format text",
        "solve wtop instances/routes_weighted.graph --format json",
        "scalarize --weights 1/3,2/3 < tests/golden/stdin/wsd_k2.txt",
        "filter --cone pareto --sense max < tests/golden/stdin/points_k3.txt",
        "filter --cone tail --sense min < tests/golden/stdin/points_k3.txt",
        "wsd < tests/golden/stdin/wsd_k3.txt",
        "solve sp instances/routes_k3.graph --format xml",
    ],
)
def test_a_fresh_process_prints_the_golden_output(case):
    """The modules loaded on first use give the recorded output byte for byte."""
    argv, _, stdin = case.partition(" < ")
    with open(ROOT / stdin if stdin else os.devnull) as fh:
        proc = child(["-m", "ordpareto.cli", *argv.split()], stdin=fh)
    recorded = GOLDEN[case]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        recorded["exit"], recorded["stdout"], recorded["stderr"]
    )


def test_a_float_weight_is_refused_before_fractions_loads():
    code = """
import sys
from ordpareto.core import CategorySpace
from ordpareto.solvers import Edge, GraphInstance, InstanceError
print("fractions" in sys.modules)
try:
    GraphInstance(2, [Edge(7, 1, 2, (0.5,), (1,))], [CategorySpace(2)], 1, 2, 1)
except InstanceError as exc:
    print(exc.record, exc)
"""
    proc = child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False", "0 edge 7 has a weight that is neither an int nor a Fraction",
    ]


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
