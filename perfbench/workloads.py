"""The benchmark's workloads: seeded pools of requests with their references.

``build(workload, seed)`` returns the request pool one run cycles through.
A request is a dict with the CLI ``argv`` (``{instance}`` stands for the
instance file), the instance text or stdin ``text``, its ``family`` and
generator ``params``, and the ``ref`` answer from :mod:`reference`.

Slot i of a pool always has the same family and parameters; the seed only
draws the random content. Instance cost varies several-fold at fixed
parameters, so most slots keep drawing until a size measure of the
instance or its reference answer falls in a band (labels for frontier search,
for ``--all-efficient`` the efficient paths from the source to every node,
which the search stores and copies; distinct head vectors for the knapsack;
non-dominated points for ``wsd``). Pools of similar instances make runs on
different seeds comparable. BENCHMARK.json says why each workload exists.
"""

from __future__ import annotations

import random

import gen
import reference

# Percentile reported as latency_tail_s. It is fixed per workload, not the
# highest one with ten requests beyond it, so that a change which lets more
# requests fit in a run is not judged on a different percentile; a run too
# short for ten requests beyond it reports a lower one (see run.tail_percentile).
# Each lies inside one family of the pool, not on the border between two.
TAIL_PERCENTILE = {"paths-frontier": 95, "paths-all": 95, "knapsack": 75, "points": 95}


def _solve(problem, text, params, all_efficient=False):
    argv = ["solve", problem, "{instance}"] + (["--all-efficient"] if all_efficient else [])
    return {"family": problem, "params": params, "argv": argv, "text": text}


def _layered(problem, all_efficient, **p):
    return lambda rng: _solve(problem, gen.layered_dag(rng, **p), p, all_efficient)


def _grid(problem, all_efficient, **p):
    return lambda rng: _solve(problem, gen.bidirected_grid(rng, **p), p, all_efficient)


def _knapsack(**p):
    return lambda rng: _solve("knapsack", gen.knapsack(rng, **p), p)


def _points(family, n, K):
    p = {"points": n, "K": K}

    def make(rng):
        counts = gen.anticorrelated_counts(rng, n, K, 40)
        text = gen.vectors_text(gen.tails(c) for c in counts)
        if family == "filter-tail":
            argv, text = ["filter", "--cone", "tail"], gen.vectors_text(counts)
        elif family == "filter-pareto":
            argv = ["filter", "--cone", "pareto"]
        elif family == "scalarize":
            argv = ["scalarize", "--weights", gen.lambda_weights(rng, K)]
        else:
            argv = ["wsd"]
        return {"family": family, "params": p, "argv": argv, "text": text}
    return make


def _ref(req):
    if "ref" not in req:
        req["ref"] = reference.reference(req)
    return req["ref"]


def _labels(req):
    return _ref(req)["labels"]


def _paths(req):
    return _ref(req)["paths"]


def _heads(req):
    return _ref(req)["heads"]


def _nondominated(req):
    # Read off the input, so a rejected draw costs no vertex enumeration.
    return len(set(reference.pareto_min(reference.parse_vectors(req["text"]))))


# (maker, size measure or None, band) per slot; a pool repeats its slots.
SLOTS = {
    "paths-frontier": [
        (_layered("sp", False, layers=12, width=5, K=10), _labels, (160, 230)),
        (_grid("mixed", False, rows=5, cols=5, K=10), _labels, (129, 180)),
        (_grid("wtop", False, rows=4, cols=5, K=10), _labels, (97, 160)),
    ],
    "paths-all": [
        (_layered("sp", True, layers=9, width=4, K=2), _paths, (1000, 1300)),
        (_grid("mixed", True, rows=5, cols=6, K=2, numerators=1, denominators=1,
               worst=0.1), _paths, (200, 280)),
        (_grid("wtop", True, rows=5, cols=6, K=2, numerators=1, denominators=1,
               worst=0.1), _paths, (200, 280)),
    ],
    # Every even size from 6 items up to 22, the largest the subset-storing
    # DP finishes under the worker's memory cap (24 items exhaust it). The
    # sizes at the median (14) and at p75 (18) come three times a cycle, so
    # each percentile falls inside one size, not between two, and rests on
    # three times as many instances; 22 items take most of a cycle's time.
    "knapsack": [
        (_knapsack(items=6, K=4), None, None),
        (_knapsack(items=14, K=4), _heads, (218, 244)),
        (_knapsack(items=8, K=4), None, None),
        (_knapsack(items=18, K=4), _heads, (451, 511)),
        (_knapsack(items=10, K=4), None, None),
        (_knapsack(items=14, K=4), _heads, (218, 244)),
        (_knapsack(items=12, K=4), _heads, (113, 128)),
        (_knapsack(items=18, K=4), _heads, (451, 511)),
        (_knapsack(items=14, K=4), _heads, (218, 244)),
        (_knapsack(items=16, K=4), _heads, (323, 349)),
        (_knapsack(items=18, K=4), _heads, (451, 511)),
        (_knapsack(items=20, K=4), _heads, (596, 692)),
        (_knapsack(items=22, K=4), _heads, (923, 1065)),
    ],
    # Nine slots, so the median request falls inside one family (the K=4
    # Pareto filter) rather than on the border between two.
    "points": [
        (_points("filter-pareto", 150, 2), None, None),
        (_points("filter-tail", 150, 3), None, None),
        (_points("scalarize", 300, 4), None, None),
        (_points("wsd", 20, 2), _nondominated, (8, 9)),
        (_points("filter-pareto", 150, 4), None, None),
        (_points("filter-tail", 150, 2), None, None),
        (_points("scalarize", 300, 2), None, None),
        (_points("wsd", 20, 3), _nondominated, (15, 15)),
        (_points("filter-pareto", 150, 3), None, None),
    ],
}
# Pools may hold more requests than one run serves: slots cycle in order,
# so every family keeps its share, and more distinct instances average out
# the content each seed draws. Each size is a whole number of cycles of the
# slots, so that a pool that wraps around keeps the cycle in step.
POOL_SIZE = {"paths-frontier": 240, "paths-all": 300, "knapsack": 104, "points": 378}
MAX_DRAWS = 500


def build(workload: str, seed: int) -> list[dict]:
    """The seeded request pool of one workload, references attached."""
    slots = SLOTS[workload]
    rng = random.Random(f"{workload}/{seed}")
    pool = []
    for i in range(POOL_SIZE[workload]):
        make, measure, band = slots[i % len(slots)]
        for _ in range(MAX_DRAWS):
            req = make(rng)
            if measure is None or band[0] <= measure(req) <= band[1]:
                break
        else:
            raise RuntimeError(f"{workload} slot {i}: no instance in band {band}")
        _ref(req)
        pool.append(req)
    return pool
