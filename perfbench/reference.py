"""Reference answers and output checks that share no code with ordpareto.

The value set of a Pareto frontier is unique, so each solve output is
compared with a frontier computed here by a different algorithm:
label-setting with path counts for the path problems (Martins 1984) and a
head-vector DP for the knapsack. Every listed solution is re-verified
(feasible, and its recomputed value equals the listed one); which
representative a solver lists is not checked. ``filter``, ``scalarize`` and
``wsd`` outputs are fully determined and are compared exactly, ``wsd``
against cells from a brute-force vertex enumeration.

``reference(req)`` returns a JSON-ready dict; ``check(req, ref, output)``
returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from fractions import Fraction

import gen

# --------------------------------------------------------------- instances


def parse_graph(text: str):
    """(nodes, arcs, K, num_real, source, target) of a generated graph file;
    arcs maps edge id -> (tail, head, weight or None, category)."""
    arcs, meta = {}, {}
    for line in text.splitlines():
        tok = line.split()
        if tok[0] == "GRAPH":
            meta["nodes"] = int(tok[1])
        elif tok[0] == "OBJECTIVES":
            meta["real"] = int(tok[1].split("=")[1])
            meta["K"] = int(tok[2].split("=")[1])
        elif tok[0] == "EDGE":
            weight = Fraction(tok[4]) if meta["real"] else None
            arcs[int(tok[1])] = (int(tok[2]), int(tok[3]), weight, int(tok[-1]))
        else:
            meta[tok[0]] = int(tok[1])
    return meta["nodes"], arcs, meta["K"], meta["real"], meta["SOURCE"], meta["TARGET"]


def parse_knapsack(text: str):
    """(items: id -> (weight, category), capacity, K)."""
    lines = text.splitlines()
    _, _, capacity, K = lines[0].split()
    items = {}
    for line in lines[1:]:
        _, iid, w, c = line.split()
        items[int(iid)] = (int(w), int(c))
    return items, int(capacity), int(K)


def parse_vectors(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in line.split()) for line in text.splitlines()]


def tail_of(cat: int, K: int) -> tuple[int, ...]:
    return tuple(1 if j <= cat else 0 for j in range(1, K + 1))


def arc_cost(problem: str, weight, cat: int, K: int) -> tuple:
    """Transformed cost of one arc for ``sp``, ``mixed`` or ``wtop``."""
    if problem == "sp":
        return tail_of(cat, K)
    if problem == "mixed":
        return (weight,) + tail_of(cat, K)
    return tuple(weight if j <= cat else 0 for j in range(1, K + 1))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _weakly_below(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _covered(value, front) -> bool:
    """Whether some point of ``front`` is componentwise <= ``value``."""
    for f in front:
        for a, b in zip(f, value):
            if a > b:
                break
        else:
            return True
    return False


def pareto_min(points) -> list:
    """Points with no other point componentwise <= and different."""
    return [
        p for p in points if not any(q != p and _weakly_below(q, p) for q in points)
    ]


# -------------------------------------------------------- reference solvers


def path_frontier(text: str, problem: str) -> tuple[dict, int, int]:
    """Non-dominated target values -> number of s-t paths attaining them;
    the number of non-dominated labels over all nodes; and the number of
    paths from the source that attain them.

    Label-setting: labels leave the heap in lexicographic order, so a
    popped label not weakly dominated at its node is final. Every arc cost
    has a positive first entry, so a walk with a cycle is dominated by the
    walk without it: efficient walks are simple paths, and every prefix of
    one is itself non-dominated at its node. Counts then follow from one
    pass over the final labels in lexicographic order.
    """
    nodes, arcs, K, _, source, target = parse_graph(text)
    # Search in integers: weights times the lcm of their denominators.
    scale = math.lcm(*(w.denominator for _, _, w, _ in arcs.values() if w is not None))
    out = {n: [] for n in range(1, nodes + 1)}
    into = {n: [] for n in range(1, nodes + 1)}
    for u, v, w, c in arcs.values():
        cost = arc_cost(problem, w and int(w * scale), c, K)
        out[u].append((v, cost))
        into[v].append((u, cost))
    width = len(arc_cost(problem, 1, 1, K))
    final = {n: [] for n in range(1, nodes + 1)}
    heap = [((0,) * width, source)]
    while heap:
        value, node = heapq.heappop(heap)
        if _covered(value, final[node]):
            continue
        final[node].append(value)
        for head, cost in out[node]:
            new = tuple(a + b for a, b in zip(value, cost))
            if not _covered(new, final[head]):
                heapq.heappush(heap, (new, head))
    finals = {n: set(vals) for n, vals in final.items()}
    counts = {(source, (0,) * width): 1}
    for value, node in sorted((v, n) for n, vals in final.items() for v in vals):
        if node == source:
            continue
        counts[node, value] = sum(
            counts.get((u, tuple(a - b for a, b in zip(value, cost))), 0)
            for u, cost in into[node]
            if tuple(a - b for a, b in zip(value, cost)) in finals[u]
        )
    labels = sum(len(vals) for vals in final.values())
    real = {"sp": 0, "mixed": 1, "wtop": K}[problem]
    return {
        tuple(Fraction(x, scale) for x in value[:real]) + value[real:]: counts[target, value]
        for value in final[target]
    }, labels, sum(counts.values())


def knapsack_frontier(text: str) -> tuple[set, int]:
    """Pareto-maximal head vectors over capacity-feasible subsets, and the
    number of distinct feasible head vectors."""
    items, capacity, K = parse_knapsack(text)
    lightest = {(0,) * K: 0}  # head vector -> least weight reaching it
    for w, c in items.values():
        delta = tuple(1 if j >= c else 0 for j in range(1, K + 1))
        for head, used in list(lightest.items()):
            if used + w <= capacity:
                new = _add(head, delta)
                if lightest.get(new, capacity + 1) > used + w:
                    lightest[new] = used + w
    frontier = []
    for head in sorted(lightest, reverse=True):
        if not any(_weakly_below(head, f) for f in frontier):
            frontier.append(head)
    return set(frontier), len(lightest)


def _solve_exact(rows, rhs):
    """Unique solution of a square system by Gauss-Jordan, or None."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def cell_vertices(y, values) -> set:
    """Vertices, in (lambda_1..lambda_{K-1}), of the weights in the closed
    simplex under which y has the least weighted sum among ``values``.

    Brute force: every choice of K-1 tight constraints that meets in one
    feasible point is a vertex.
    """
    K = len(y)
    d = K - 1
    cons = []  # (a, b): a . x <= b with lambda_K = 1 - sum(x)
    for i in range(d):
        cons.append((tuple(Fraction(-1 if j == i else 0) for j in range(d)), Fraction(0)))
    cons.append((tuple(Fraction(1) for _ in range(d)), Fraction(1)))
    for other in values:
        if other == y:
            continue
        a = [Fraction(p - q) for p, q in zip(y, other)]
        cons.append((tuple(a[j] - a[-1] for j in range(d)), -a[-1]))
    found = set()
    for combo in itertools.combinations(cons, d):
        x = _solve_exact([a for a, _ in combo], [b for _, b in combo])
        if x is not None and all(
            sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in cons
        ):
            found.add(x)
    return found


def lift(x) -> tuple:
    return tuple(x) + (1 - sum(x),)


def mu_of(lam) -> tuple:
    K = len(lam)
    denom = sum((K - j) * lam[j] for j in range(K))
    return tuple(sum(lam[: i + 1]) / denom for i in range(K))


def wsd_cells(vectors) -> dict:
    """Supported value -> sorted cell vertices, for a Pareto-filtered set.

    A value is supported when its cell meets the open simplex, that is when
    the average of the cell's vertices (a relative interior point) has every
    weight positive.
    """
    values = sorted(set(vectors))
    cells = {}
    for y in values:
        verts = cell_vertices(y, values)
        if verts:
            centre = lift(tuple(sum(c) / len(verts) for c in zip(*verts)))
            if all(lam > 0 for lam in centre):
                cells[y] = sorted(verts)
    return cells


# ---------------------------------------------------------------- requests


def reference(req: dict) -> dict:
    """The reference answer for one generated request, JSON-ready."""
    kind, text = req["family"], req["text"]
    if kind in ("sp", "mixed", "wtop"):
        front, labels, paths = path_frontier(text, kind)
        return {"values": [[str(x) for x in v] for v in sorted(front)],
                "counts": [front[v] for v in sorted(front)], "labels": labels,
                "paths": paths}
    if kind == "knapsack":
        front, heads = knapsack_frontier(text)
        return {"values": [list(v) for v in sorted(front)], "heads": heads}
    vectors = parse_vectors(text)
    if kind == "filter-pareto":
        return {"kept": [list(p) for p in sorted(pareto_min(vectors))]}
    if kind == "filter-tail":
        kept_tails = set(pareto_min([gen.tails(v) for v in vectors]))
        return {"kept": [list(p) for p in sorted(
            v for v in vectors if gen.tails(v) in kept_tails)]}
    if kind == "scalarize":
        lam = [Fraction(x) for x in req["argv"][2].split(",")]
        sums = [sum(l * y for l, y in zip(lam, p)) for p in vectors]
        best = min(sums)
        return {"minimum": str(best),
                "argmin": [list(p) for p, s in sorted(zip(vectors, sums)) if s == best]}
    # wsd
    cells = wsd_cells(pareto_min(vectors))
    return {"cells": [[list(y), [[str(x) for x in v] for v in verts]]
                      for y, verts in sorted(cells.items())]}


_FIELD = re.compile(r"(\w+)=(\([^)]*\)|\S*)")


def _tuple(field: str) -> tuple:
    return tuple(Fraction(x) for x in field.strip("()").split(",") if x)


def check(req: dict, ref: dict, output: str) -> str | None:
    """None if ``output`` is a right answer to ``req``, else the reason."""
    kind = req["family"]
    try:
        if kind in ("sp", "mixed", "wtop"):
            return _check_paths(req, ref, output)
        if kind == "knapsack":
            return _check_knapsack(req, ref, output)
        if kind in ("filter-pareto", "filter-tail"):
            got = sorted(parse_vectors(output))
            want = [tuple(p) for p in ref["kept"]]
            return None if got == want else "kept points differ from reference"
        if kind == "scalarize":
            head, *rest = output.splitlines()
            if head != f"minimum {ref['minimum']}":
                return f"wrong minimum line {head!r}"
            got = sorted(parse_vectors("\n".join(rest)))
            return None if got == [tuple(p) for p in ref["argmin"]] else "argmins differ"
        return _check_wsd(req, ref, output)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"unparseable output: {exc!r}"


def _check_paths(req, ref, output) -> str | None:
    kind = req["family"]
    _, arcs, K, _, source, target = parse_graph(req["text"])
    all_eff = "--all-efficient" in req["argv"]
    want = {tuple(Fraction(x) for x in v): n for v, n in zip(ref["values"], ref["counts"])}
    got = {}
    value_key = "ctildew" if kind == "wtop" else "ctilde"
    for line in output.splitlines():
        fields = _FIELD.findall(line)
        keyed = {k: v for k, v in fields if k != "path"}
        paths = [
            tuple(int(e[1:]) for e in v.split(",")) for k, v in fields if k == "path"
        ]
        value = _tuple(keyed[value_key])
        if value in got:
            return f"value {value} listed twice"
        got[value] = len(paths)
        if not paths or len(set(paths)) != len(paths):
            return f"missing or repeated paths for {value}"
        for rank, path in enumerate(paths):
            node, seen, total, cats, weight = source, {source}, None, [0] * K, 0
            for eid in path:
                if eid not in arcs or arcs[eid][0] != node:
                    return f"path {path} is not a walk from the source"
                _, node, w, c = arcs[eid]
                if node in seen:
                    return f"path {path} repeats node {node}"
                seen.add(node)
                cost = arc_cost(kind, w, c, K)
                total = cost if total is None else _add(total, cost)
                cats[c - 1] += 1
                weight += w or 0
            if node != target or total != value:
                return f"path {path} does not reach the target with value {value}"
            if rank:
                continue  # c, o and w describe the first (representative) path
            if _tuple(keyed["c"]) != tuple(cats):
                return f"counting vector of {path} differs"
            ordinal = ",".join(f"eta{i + 1}" for i in range(K) for _ in range(cats[i]))
            if keyed["o"] != f"({ordinal})":
                return f"ordinal vector of {path} differs"
            if kind != "sp" and _tuple(keyed["w"]) != (weight,):
                return f"weight of {path} differs"
    if set(got) != set(want):
        return f"frontier has {len(got)} values, reference {len(want)}"
    for value, n in got.items():
        expected = want[value] if all_eff else 1
        if n != expected:
            return f"{n} paths for {value}, expected {expected}"
    return None


def _check_knapsack(req, ref, output) -> str | None:
    items, capacity, K = parse_knapsack(req["text"])
    got = set()
    for line in output.splitlines():
        fields = dict(_FIELD.findall(line))
        value = tuple(int(x) for x in _tuple(fields["chead"]))
        subset = [int(i[1:]) for i in fields["items"].split(",") if i]
        if len(set(subset)) != len(subset) or any(i not in items for i in subset):
            return f"subset {subset} is not a set of items"
        if sum(items[i][0] for i in subset) > capacity:
            return f"subset {subset} exceeds the capacity"
        counts = [0] * K
        for i in subset:
            counts[items[i][1] - 1] += 1
        head = tuple(itertools.accumulate(counts))
        if head != value or _tuple(fields["c"]) != tuple(counts):
            return f"subset {subset} does not have value {value}"
        got.add(value)
    if got != {tuple(v) for v in ref["values"]}:
        return f"frontier has {len(got)} values, reference {len(ref['values'])}"
    return None


def _check_wsd(req, ref, output) -> str | None:
    vectors = parse_vectors(req["text"])
    K = len(vectors[0])
    values = sorted(set(pareto_min(vectors)))
    cells, current = {}, None
    for line in output.splitlines():
        word, _, rest = line.strip().partition(" ")
        if word == "value":
            current = tuple(int(x) for x in rest.split())
            cells[current] = {"lambda-vertex": [], "mu-vertex": [], "halfspace": []}
        else:
            cells[current][word].append(rest)
    want = {tuple(y): [tuple(Fraction(x) for x in v) for v in verts]
            for y, verts in ref["cells"]}
    if set(cells) != set(want):
        return f"{len(cells)} cells, reference {len(want)}"
    for y, cell in cells.items():
        halfspaces = sorted(
            " ".join(str(p - q) for p, q in zip(y, other)) + " <= 0"
            for other in values if other != y
        )
        if sorted(cell["halfspace"]) != halfspaces:
            return f"halfspaces of {y} differ"
        if K > 3:
            continue
        verts = [tuple(Fraction(x) for x in v.split()) for v in cell["lambda-vertex"]]
        if sorted(verts) != want[y]:
            return f"vertices of {y} differ"
        mus = [tuple(Fraction(x) for x in v.split()) for v in cell["mu-vertex"]]
        if mus != [mu_of(lift(v)) for v in verts]:
            return f"mu-vertices of {y} differ"
    return None
