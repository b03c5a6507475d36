"""Seeded instance generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain text: an
instance file for ``ordpareto solve`` or the stdin of ``filter``,
``scalarize`` and ``wsd``. The program under test sees only that text, so
the same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import random


def layered_dag(rng: random.Random, layers: int, width: int, K: int) -> str:
    """Source -> ``layers`` layers of ``width`` nodes -> target.

    Consecutive layers are joined complete-bipartite; every edge gets a
    uniform category in 1..K and no real weight.
    """
    source, target = 1, layers * width + 2

    def node(layer: int, j: int) -> int:
        return 2 + layer * width + j

    arcs = [(source, node(0, j)) for j in range(width)]
    for layer in range(layers - 1):
        arcs += [
            (node(layer, a), node(layer + 1, b))
            for a in range(width)
            for b in range(width)
        ]
    arcs += [(node(layers - 1, j), target) for j in range(width)]
    lines = [f"GRAPH {target} {len(arcs)}", f"OBJECTIVES real=0 ordinal={K}"]
    for eid, (u, v) in enumerate(arcs, start=1):
        lines.append(f"EDGE {eid} {u} {v} {rng.randint(1, K)}")
    lines += [f"SOURCE {source}", f"TARGET {target}"]
    return "\n".join(lines) + "\n"


def bidirected_grid(
    rng: random.Random, rows: int, cols: int, K: int,
    numerators: int = 9, denominators: int = 4, worst: float | None = None,
) -> str:
    """A rows x cols grid with both directions of every neighbour pair.

    Each arc carries one rational weight ``a/b`` (a in 1..numerators,
    b in 1..denominators) and one category: uniform in 1..K, or K with
    probability ``worst`` and uniform in 1..K-1 otherwise. Source and
    target are opposite corners. The same file serves ``solve mixed`` and
    ``solve wtop``.
    """
    arcs = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c + 1
            if c + 1 < cols:
                arcs += [(u, u + 1), (u + 1, u)]
            if r + 1 < rows:
                arcs += [(u, u + cols), (u + cols, u)]
    lines = [f"GRAPH {rows * cols} {len(arcs)}", f"OBJECTIVES real=1 ordinal={K}"]
    for eid, (u, v) in enumerate(arcs, start=1):
        weight = f"{rng.randint(1, numerators)}/{rng.randint(1, denominators)}"
        if worst is None:
            cat = rng.randint(1, K)
        else:
            cat = K if rng.random() < worst else rng.randint(1, K - 1)
        lines.append(f"EDGE {eid} {u} {v} {weight} {cat}")
    lines += ["SOURCE 1", f"TARGET {rows * cols}"]
    return "\n".join(lines) + "\n"


def knapsack(rng: random.Random, items: int, K: int) -> str:
    """Items whose weight falls as their category worsens.

    Item weight is (K - c + 1) * U{1..3} for category c, so good items are
    heavy; capacity is half the total weight.
    """
    rows = []
    for iid in range(1, items + 1):
        cat = rng.randint(1, K)
        rows.append((iid, (K - cat + 1) * rng.randint(1, 3), cat))
    capacity = sum(w for _, w, _ in rows) // 2
    lines = [f"KNAPSACK {items} {capacity} {K}"]
    lines += [f"ITEM {i} {w} {c}" for i, w, c in rows]
    return "\n".join(lines) + "\n"


def anticorrelated_counts(
    rng: random.Random, n: int, K: int, budget: int
) -> list[tuple[int, ...]]:
    """Counting vectors whose tail vectors lie near one hyperplane.

    The tail entries of a counting vector c sum to sum_j j * c_j, so
    spending about ``budget`` on that sum makes the tail vectors
    anti-correlated: more of one tail entry means less of another.
    """
    out = []
    for _ in range(n):
        counts = [0] * K
        left = budget - rng.randint(0, max(1, budget // 10))
        for j in rng.sample(range(2, K + 1), K - 1):
            counts[j - 1] = rng.randint(0, left // j)
            left -= j * counts[j - 1]
        counts[0] = left
        out.append(tuple(counts))
    return out


def tails(counts: tuple[int, ...]) -> tuple[int, ...]:
    """Suffix sums: entry j counts the elements in category j or worse."""
    out, acc = [], 0
    for c in reversed(counts):
        acc += c
        out.append(acc)
    return tuple(reversed(out))


def vectors_text(vectors) -> str:
    return "".join(" ".join(str(x) for x in v) + "\n" for v in vectors)


def lambda_weights(rng: random.Random, K: int) -> str:
    """A strictly positive rational weight vector summing to one."""
    raw = [rng.randint(1, 9) for _ in range(K)]
    total = sum(raw)
    return ",".join(f"{r}/{total}" for r in raw)
