"""The benchmark's tracer still finds every name it wraps.

``perfbench/worker.py`` traces a run by swapping wrappers in for
functions at the names ``ordpareto.cli``, ``ordpareto.nondominance`` and
``ordpareto.scalarization`` bind (``cli.solve_mixed``,
``scalarization.supporting_weights``, ...). A refactor that removes or
renames one of them breaks ``perfbench/run.py --trace 1``; this test
catches that without running the benchmark.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from ordpareto import cli

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name():
    worker = load_worker()
    tracer = worker.Tracer(cli)  # raises AttributeError for a missing name
    instance = str(ROOT / "instances" / "routes_weighted.graph")
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert tracer.main(["solve", "mixed", instance]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "fileio.parse_instance", "solvers.solve_mixed"} <= names
    assert tracer.counters["solvers.frontier_values"] == 1
    for module, attr, original, _ in tracer._swaps:
        assert getattr(module, attr) is original


@pytest.mark.parametrize(
    "problem, instance, solver",
    [
        ("knapsack", "knapsack_k2.txt", "solvers.solve_knapsack"),
        ("wtop", "routes_weighted.graph", "solvers.solve_weighted_counting"),
    ],
)
def test_tracer_sees_the_one_emit_call(problem, instance, solver):
    worker = load_worker()
    tracer = worker.Tracer(cli)
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        assert tracer.main(["solve", problem, str(ROOT / "instances" / instance)]) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("fileio.emit_result") == 1
    assert solver in names
    assert tracer.counters["fileio.output_bytes"] == len(out.getvalue().encode()) > 0


def test_tracer_counts_the_cone_filter(monkeypatch):
    worker = load_worker()
    tracer = worker.Tracer(cli)
    points = ["1 0 1", "1 1 1", "0 2 0", "0 2 0", "2 1 0", "2 2 0"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(points) + "\n"))
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        assert tracer.main(["filter", "--cone", "tail"]) == 0
    kept = out.getvalue().splitlines()
    assert kept == ["0 2 0", "0 2 0", "1 0 1", "2 1 0"]
    assert "nondominance.cone_filter" in {span[0] for span in tracer.spans}
    assert tracer.counters["nondominance.points_in"] == len(points)
    assert tracer.counters["nondominance.points_kept"] == len(kept)


def test_tracer_counts_wsd_cells_without_an_lp(monkeypatch):
    worker = load_worker()
    tracer = worker.Tracer(cli)
    points = ROOT / "tests" / "golden" / "stdin" / "wsd_k3.txt"
    monkeypatch.setattr("sys.stdin", io.StringIO(points.read_text()))
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        assert tracer.main(["wsd"]) == 0
    values = [line for line in out.getvalue().splitlines() if line.startswith("value ")]
    names = {span[0] for span in tracer.spans}
    assert "scalarization.weight_space_decomposition" in names
    assert tracer.counters["scalarization.cells"] == len(values) > 0
    assert "simplex.solve_lp" not in names
    assert "nondominance.supporting_weights" not in names
