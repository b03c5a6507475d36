"""Exact solvers for ordinal shortest path and knapsack problems.

All solvers follow the same pipeline: map each element to its transformed
cost vector, run a standard multi-objective search (label-correcting for
paths, dynamic programming for knapsack), and report the Pareto frontier of
transformed values together with the counting- and ordinal-space images and
representative solutions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

from ordpareto.core import (
    B_HEAD,
    CategorySpace,
    ConeMatrix,
    InvalidCategoryError,
    OrdparetoError,
    counting_vector,
    ordinal_vector,
    pareto_dominates,
)

OK = "ok"
UNREACHABLE = "unreachable"


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    weights: tuple[Fraction, ...] = ()
    categories: tuple[int, ...] = ()


@dataclass(frozen=True)
class GraphInstance:
    """Directed graph with per-edge categories and optional real weights.

    ``spaces`` holds one :class:`CategorySpace` per ordinal objective;
    ``weights`` on each edge has one nonnegative rational per real objective.
    """

    nodes: int
    edges: tuple[Edge, ...]
    spaces: tuple[CategorySpace, ...]
    source: int
    target: int
    num_real: int = 0

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "spaces", tuple(self.spaces))
        seen = set()
        for e in self.edges:
            if e.id in seen:
                raise OrdparetoError(f"duplicate edge id {e.id}")
            seen.add(e.id)
            for node in (e.tail, e.head):
                if not 1 <= node <= self.nodes:
                    raise OrdparetoError(
                        f"edge {e.id} touches node {node} outside 1..{self.nodes}"
                    )
            if len(e.weights) != self.num_real:
                raise OrdparetoError(
                    f"edge {e.id} has {len(e.weights)} weights, expected {self.num_real}"
                )
            if any(w < 0 for w in e.weights):
                raise OrdparetoError(f"edge {e.id} has a negative weight")
            if len(e.categories) != len(self.spaces):
                raise OrdparetoError(
                    f"edge {e.id} has {len(e.categories)} categories, "
                    f"expected {len(self.spaces)}"
                )
            for cat, space in zip(e.categories, self.spaces):
                if not 1 <= cat <= space.K:
                    raise InvalidCategoryError(
                        f"edge {e.id}: category {cat} outside 1..{space.K}"
                    )
        for node in (self.source, self.target):
            if not 1 <= node <= self.nodes:
                raise OrdparetoError(f"terminal node {node} out of range")

    def edge_by_id(self, edge_id: int) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise OrdparetoError(f"no edge with id {edge_id}")


@dataclass(frozen=True)
class Item:
    id: int
    weight: int
    category: int


@dataclass(frozen=True)
class KnapsackInstance:
    items: tuple[Item, ...]
    capacity: int
    space: CategorySpace

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if self.capacity < 0:
            raise OrdparetoError(f"capacity must be nonnegative: {self.capacity}")
        seen = set()
        for item in self.items:
            if item.id in seen:
                raise OrdparetoError(f"duplicate item id {item.id}")
            seen.add(item.id)
            if item.weight <= 0:
                raise OrdparetoError(
                    f"item {item.id}: consumption must be positive"
                )
            if not 1 <= item.category <= self.space.K:
                raise InvalidCategoryError(
                    f"item {item.id}: category {item.category} outside 1..{self.space.K}"
                )


@dataclass(frozen=True)
class ResultEntry:
    """One non-dominated outcome value with its images and solutions.

    ``value`` lives in the transformed (tail / head / mixed) space.
    ``countings`` holds one counting vector per ordinal objective and
    ``ordinals`` the matching sorted category sequences. ``weights`` holds
    the real objective values (empty for pure ordinal problems).
    ``solutions`` lists element-id tuples; the first one is the
    deterministic representative (smallest id sequence).
    """

    value: tuple
    countings: tuple[tuple[int, ...], ...]
    ordinals: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    solutions: tuple[tuple[int, ...], ...]

    @property
    def representative(self) -> tuple[int, ...]:
        return self.solutions[0]


@dataclass(frozen=True)
class SolveResult:
    status: str
    entries: tuple[ResultEntry, ...] = ()

    def values(self) -> tuple[tuple, ...]:
        return tuple(e.value for e in self.entries)


def _multiobjective_shortest_paths(
    g: GraphInstance, cost: dict[int, tuple], zero: tuple, all_efficient: bool
) -> dict[tuple, list[tuple[int, ...]]]:
    """Label-correcting search over simple s-t paths.

    ``cost`` maps each edge id to its transformed cost vector and ``zero``
    is the value of the empty path. Returns a map from non-dominated cost
    vector at the target to the list of edge-id paths attaining it (one
    path unless ``all_efficient``). Labels carry their node sequence, so
    cyclic extensions are never generated; dominated labels are pruned at
    every node.
    """
    outgoing: dict[int, list[Edge]] = {}
    for e in g.edges:
        outgoing.setdefault(e.tail, []).append(e)
    for edges in outgoing.values():
        edges.sort(key=lambda e: e.id)

    # labels[node]: value -> list of (edge-id path, visited node frozenset)
    labels: dict[int, dict[tuple, list[tuple[tuple[int, ...], frozenset]]]] = {
        g.source: {zero: [((), frozenset([g.source]))]}
    }
    queue: deque[tuple[int, tuple, tuple[int, ...], frozenset]] = deque(
        [(g.source, zero, (), frozenset([g.source]))]
    )

    while queue:
        node, value, path, visited = queue.popleft()
        current = labels.get(node, {})
        if value not in current or (path, visited) not in current[value]:
            continue  # label was pruned after being queued
        for edge in outgoing.get(node, ()):
            if edge.head in visited:
                continue
            new_value = tuple(a + b for a, b in zip(value, cost[edge.id]))
            new_path = path + (edge.id,)
            new_visited = visited | {edge.head}
            bucket = labels.setdefault(edge.head, {})
            if any(
                pareto_dominates(other, new_value) for other in bucket
            ):
                continue
            if new_value in bucket:
                entries = bucket[new_value]
                if all_efficient:
                    if (new_path, new_visited) in entries:
                        continue
                    entries.append((new_path, new_visited))
                else:
                    if new_path >= entries[0][0]:
                        continue
                    bucket[new_value] = [(new_path, new_visited)]
            else:
                for other in [
                    o for o in bucket if pareto_dominates(new_value, o)
                ]:
                    del bucket[other]
                bucket[new_value] = [(new_path, new_visited)]
            queue.append((edge.head, new_value, new_path, new_visited))

    result = labels.get(g.target, {})
    # The per-node pruning is incremental; take a final Pareto pass.
    values = list(result)
    final: dict[tuple, list[tuple[int, ...]]] = {}
    for value in values:
        if any(pareto_dominates(other, value) for other in values):
            continue
        paths = sorted(p for p, _ in result[value])
        final[value] = paths if all_efficient else paths[:1]
    return final


def _solve_paths(
    g: GraphInstance, cost: dict[int, tuple], zero: tuple, all_efficient: bool
) -> SolveResult:
    """The pipeline shared by the path solvers: search on the transformed
    edge costs, then one entry per non-dominated value, with the counting
    and ordinal images and real weights of its representative path."""
    frontier = _multiobjective_shortest_paths(g, cost, zero, all_efficient)
    if not frontier:
        return SolveResult(UNREACHABLE)
    edges = {e.id: e for e in g.edges}
    entries = []
    for value in sorted(frontier):
        rep_edges = [edges[i] for i in frontier[value][0]]
        countings = tuple(
            counting_vector((e.categories[l] for e in rep_edges), space)
            for l, space in enumerate(g.spaces)
        )
        ordinals = tuple(ordinal_vector(c) for c in countings)
        weights = tuple(
            sum((e.weights[j] for e in rep_edges), Fraction(0))
            for j in range(g.num_real)
        )
        entries.append(
            ResultEntry(
                value=value,
                countings=countings,
                ordinals=ordinals,
                weights=weights,
                solutions=tuple(frontier[value]),
            )
        )
    return SolveResult(OK, tuple(entries))


def solve_shortest_path(
    g: GraphInstance, all_efficient: bool = False
) -> SolveResult:
    """All ordinally efficient s-t paths of a single-ordinal-objective graph.

    Runs the Pareto label-correcting search on the binary tail cost vectors;
    the resulting Pareto-non-dominated tail vectors are exactly the
    ordinally efficient outcomes.
    """
    if len(g.spaces) != 1 or g.num_real != 0:
        raise OrdparetoError(
            "solve_shortest_path expects exactly one ordinal objective and "
            "no real objectives; use solve_mixed otherwise"
        )
    return solve_mixed(g, all_efficient)


def solve_mixed(g: GraphInstance, all_efficient: bool = False) -> SolveResult:
    """Pareto frontier over s-t paths of real weights plus per-objective
    tail vectors (block-diagonal transformation of the outcome vector)."""
    if g.num_real + len(g.spaces) < 1:
        raise OrdparetoError("need at least one objective")
    # Each edge costs its real weights followed by one binary tail vector
    # per ordinal objective (ones up to the edge's category).
    cost = {
        e.id: tuple(e.weights)
        + tuple(
            1 if j <= cat else 0
            for cat, space in zip(e.categories, g.spaces)
            for j in range(1, space.K + 1)
        )
        for e in g.edges
    }
    zero = (Fraction(0),) * g.num_real + (0,) * sum(s.K for s in g.spaces)
    return _solve_paths(g, cost, zero, all_efficient)


def solve_weighted_counting(
    g: GraphInstance, all_efficient: bool = False
) -> SolveResult:
    """Pareto frontier of tail-accumulated weighted counting vectors.

    Requires one coherent weight/category pair per edge: each edge
    contributes its weight, instead of a unit, to every tail component up
    to its category.
    """
    if len(g.spaces) != 1 or g.num_real != 1:
        raise OrdparetoError(
            "solve_weighted_counting expects exactly one weight and one "
            "ordinal objective per edge"
        )
    K = g.spaces[0].K
    cost = {
        e.id: tuple(
            e.weights[0] if j <= e.categories[0] else 0 for j in range(1, K + 1)
        )
        for e in g.edges
    }
    # Int zeros keep untouched components out of Fraction arithmetic in the
    # search (Fraction zeros made it 20-40% slower); report all-Fraction values.
    res = _solve_paths(g, cost, (0,) * K, all_efficient)
    entries = tuple(
        replace(e, value=tuple(map(Fraction, e.value))) for e in res.entries
    )
    return SolveResult(res.status, entries)


def solve_knapsack(
    k: KnapsackInstance, all_efficient: bool = False
) -> SolveResult:
    """Pareto-maximal head-count vectors over capacity-feasible subsets.

    Dynamic programming over items in id order: each head vector reached
    keeps ``(weight, subset)`` pairs, and each item extends every pair that
    still fits. All subsets of one head have the same size, ``head[-1]``,
    so appending a larger id keeps their lexicographic order; a pair beaten
    on both weight and subset by another pair of its head can never hold
    the representative (smallest id tuple) and is dropped unless
    ``all_efficient``. Head counts are maximized so the empty subset is not
    trivially optimal.
    """
    K = k.space.K
    states: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {
        (0,) * K: [(0, ())]
    }
    for item in sorted(k.items, key=lambda it: it.id):
        delta = tuple(1 if j >= item.category else 0 for j in range(1, K + 1))
        limit = k.capacity - item.weight
        grown = []  # merged only after the scan, so no pair takes the item twice
        for head, pairs in states.items():
            fits = [
                (w + item.weight, s + (item.id,)) for w, s in pairs if w <= limit
            ]
            if fits:
                grown.append((tuple(a + b for a, b in zip(head, delta)), fits))
        for head, fits in grown:
            pairs = states.get(head)
            if pairs is None:
                states[head] = fits
            elif all_efficient:
                pairs.extend(fits)
            else:  # keep a pair only if its subset beats every lighter pair's
                kept = []
                for pair in sorted(pairs + fits):
                    if not kept or pair[1] < kept[-1][1]:
                        kept.append(pair)
                states[head] = kept

    # Descending order puts every head after the heads weakly above it.
    frontier: list[tuple[int, ...]] = []
    for head in sorted(states, reverse=True):
        if not any(all(a <= b for a, b in zip(head, other)) for other in frontier):
            frontier.append(head)
    head_inverse = ConeMatrix(K, B_HEAD)
    entries = []
    for head in reversed(frontier):
        sols = sorted(s for _, s in states[head])
        counts = head_inverse.apply(head)
        entries.append(
            ResultEntry(
                value=head,
                countings=(counts,),
                ordinals=(ordinal_vector(counts),),
                weights=(),
                solutions=tuple(sols if all_efficient else sols[:1]),
            )
        )
    return SolveResult(OK, tuple(entries))
