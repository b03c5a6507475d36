"""Tests of the benchmark itself: seeded inputs, output checks, isolation.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import serve  # noqa: E402


def _solve(req, tmp_path) -> str:
    argv = list(req["argv"])
    stdin = req["text"]
    if "{instance}" in argv:
        path = tmp_path / "instance.txt"
        path.write_text(req["text"])
        argv[argv.index("{instance}")] = str(path)
        stdin = ""
    from ordpareto import cli

    result = serve(cli.main, {"argv": argv, "stdin": stdin}, 60)
    assert result["status"] == "ok", result["status"]
    return result["output"]


@pytest.mark.parametrize("workload", sorted(workloads.SLOTS))
def test_same_seed_gives_identical_instances(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    other = workloads.build(workload, 8)
    assert [(r["argv"], r["text"]) for r in first] == [(r["argv"], r["text"]) for r in again]
    assert [r["text"] for r in first] != [r["text"] for r in other]


def _one_per_family(seed=3):
    seen = {}
    for workload in workloads.SLOTS:
        for req in workloads.build(workload, seed):
            key = (req["family"], "--all-efficient" in req["argv"])
            # Prefer, per family, a request whose answer lists several
            # solutions for some value.
            if key not in seen or max(req["ref"].get("counts", [0])) > max(
                    seen[key]["ref"].get("counts", [0])):
                seen[key] = req
    return seen


FAMILIES = _one_per_family()


@pytest.mark.parametrize("key", sorted(FAMILIES), ids=lambda k: f"{k[0]}{'-all' if k[1] else ''}")
def test_program_output_passes_the_check(key, tmp_path):
    req = FAMILIES[key]
    assert reference.check(req, req["ref"], _solve(req, tmp_path)) is None


def _drop_first_line(out):
    return "\n".join(out.splitlines()[1:]) + "\n"


def _alter_path(out):
    # Replace the first edge of the first listed path by another edge id.
    return re.sub(r"path=e(\d+)", lambda m: f"path=e{int(m.group(1)) + 1}", out, count=1)


def _alter_items(out):
    return re.sub(r"items=i(\d+)", lambda m: f"items=i{int(m.group(1)) % 7 + 1},i{m.group(1)}",
                  out, count=1)


def _drop_second_path(out):
    return re.sub(r" path=[^ \n]+", "", out, count=1) if out.count("path=") > out.count("\n") else None


CORRUPTIONS = {
    ("sp", False): [_drop_first_line, _alter_path],
    ("mixed", False): [_drop_first_line, _alter_path],
    ("wtop", False): [_drop_first_line, _alter_path],
    ("sp", True): [_drop_first_line, _alter_path, _drop_second_path],
    ("knapsack", False): [_drop_first_line, _alter_items],
    ("filter-pareto", False): [_drop_first_line],
    ("filter-tail", False): [_drop_first_line],
    ("scalarize", False): [lambda out: out.replace("minimum ", "minimum 1"), _drop_first_line],
    ("wsd", False): [_drop_first_line, lambda out: out.replace("value ", "value 9", 1)],
}


@pytest.mark.parametrize("key", sorted(CORRUPTIONS), ids=lambda k: f"{k[0]}{'-all' if k[1] else ''}")
def test_corrupted_output_is_rejected_and_counted(key, tmp_path):
    req = FAMILIES[key]
    good = _solve(req, tmp_path)
    for corrupt in CORRUPTIONS[key]:
        bad = corrupt(good)
        assert bad is not None and bad != good
        assert reference.check(req, req["ref"], bad) is not None, corrupt
        # Through the run's own accounting: one good and one bad request.
        (tmp_path / "out-0-good.txt").write_text(good)
        (tmp_path / "out-0-bad.txt").write_text(bad)
        records = [{"req": 0, "sha": sha, "status": "ok", "seconds": 0.1,
                    "output_bytes": 1} for sha in ("good", "bad")]
        run.verify([req], records, tmp_path)
        rows, _ = run.end_to_end("points", records, [0.1], [0.001])
        error_rate = dict((m[0], m[1]) for m in rows)["error_rate"]
        assert [r["correct"] for r in records] == [True, False]
        assert error_rate == 0.5


def test_reference_counts_equal_value_paths():
    # A diamond 1-2-4 / 1-3-4 whose two routes have equal value (one edge of
    # each category) and a two-way link 2-3 whose detours are dominated.
    text = ("GRAPH 4 6\nOBJECTIVES real=0 ordinal=2\nEDGE 1 1 2 1\nEDGE 2 2 4 2\n"
            "EDGE 3 1 3 2\nEDGE 4 3 4 1\nEDGE 5 2 3 2\nEDGE 6 3 2 2\n"
            "SOURCE 1\nTARGET 4\n")
    front, _, paths = reference.path_frontier(text, "sp")
    assert front == {(2, 1): 2}
    assert paths == 5  # the empty path, e1, e3 and the two efficient paths


def _knapsack_request(items, seed=30):
    text = gen.knapsack(random.Random(seed), items, 4)
    return {"family": "knapsack", "params": {"items": items}, "text": text,
            "argv": ["solve", "knapsack", "{instance}"]}


def test_knapsack_out_of_memory_is_a_failed_request(tmp_path):
    # The subset-storing DP exhausts any modest memory cap at 30 items.
    req = _knapsack_request(30)
    req["ref"] = reference.reference(req)
    with run.host_probe() as probe:
        records, _, _ = run.serve([req], tmp_path, 0.01, False, probe, rlimit_mb=200,
                                  timeout_s=120)
    assert records[0]["status"] == "oom"


def test_slow_request_times_out_and_the_loop_goes_on(tmp_path):
    slow = _knapsack_request(22)
    fast = _knapsack_request(6)
    with run.host_probe() as probe:
        records, _, _ = run.serve([slow, fast], tmp_path, 1.0, False, probe, timeout_s=0.2)
    assert records[0]["status"] == "timeout"
    assert records[1]["status"] == "ok"
