"""Exact solvers for ordinal shortest path and knapsack problems.

All solvers follow the same pipeline: map each element to its transformed
cost vector, run a standard multi-objective search (label-correcting for
paths, dynamic programming for knapsack), and report the Pareto frontier of
transformed values together with the counting- and ordinal-space images and
representative solutions.

Every search runs in ints. The path solvers multiply each real objective
by the lcm of its weights' denominators before the search, and divide the
frontier values by it again as ``Fraction``s when the entries are built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le

from ordpareto.core import (
    B_HEAD,
    CategorySpace,
    ConeMatrix,
    OrdparetoError,
    check_printable,
    counting_vector,
    ordinal_vector,
    pareto_front,
    scale_to_ints,
)

OK = "ok"
UNREACHABLE = "unreachable"


class InstanceError(OrdparetoError):
    """An instance that breaks the rules of its problem.

    ``record`` is the index of the edge or item at fault, or ``None`` when
    the fault lies in the terminals or the capacity.
    """

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


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
        for node in (self.source, self.target):
            if not 1 <= node <= self.nodes:
                raise InstanceError(f"terminal node {node} out of range")
        seen = set()
        for i, e in enumerate(self.edges):
            if e.id in seen:
                raise InstanceError(f"duplicate edge id {e.id}", i)
            seen.add(e.id)
            for node in (e.tail, e.head):
                if not 1 <= node <= self.nodes:
                    raise InstanceError(
                        f"edge {e.id} touches node {node} outside 1..{self.nodes}", i
                    )
            if len(e.weights) != self.num_real:
                raise InstanceError(
                    f"edge {e.id} has {len(e.weights)} weights, expected {self.num_real}",
                    i,
                )
            if not all(isinstance(w, (int, Fraction)) for w in e.weights):
                raise InstanceError(
                    f"edge {e.id} has a weight that is neither an int nor a Fraction",
                    i,
                )
            if any(w < 0 for w in e.weights):
                raise InstanceError(f"edge {e.id} has a negative weight", i)
            if len(e.categories) != len(self.spaces):
                raise InstanceError(
                    f"edge {e.id} has {len(e.categories)} categories, "
                    f"expected {len(self.spaces)}",
                    i,
                )
            for cat, space in zip(e.categories, self.spaces):
                if not 1 <= cat <= space.K:
                    raise InstanceError(
                        f"edge {e.id}: category {cat} outside 1..{space.K}", i
                    )


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
            raise InstanceError(f"capacity must be nonnegative: {self.capacity}")
        seen = set()
        for i, item in enumerate(self.items):
            if item.id in seen:
                raise InstanceError(f"duplicate item id {item.id}", i)
            seen.add(item.id)
            if item.weight <= 0:
                raise InstanceError(
                    f"item {item.id}: consumption must be positive", i
                )
            if not 1 <= item.category <= self.space.K:
                raise InstanceError(
                    f"item {item.id}: category {item.category} outside 1..{self.space.K}",
                    i,
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
    g: GraphInstance,
    cost: dict[int, tuple[int, ...]],
    zero: tuple[int, ...],
    all_efficient: bool,
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Label-correcting search over simple s-t paths, in ints only.

    ``cost`` maps each edge id to its int cost vector and ``zero`` is the
    int value of the empty path (callers scale rational weights to ints).
    Returns a map from each non-dominated cost vector at the target to the
    sorted edge-id paths attaining it (only the smallest unless
    ``all_efficient``). A label is a node, a value and an edge-id path.

    Labels need no visited set. When a walk first returns to a node, that
    node still holds the walk's prefix to it or a value dominating it (a
    tie swaps in only a smaller path), so a cycle of positive cost leaves
    the walk strictly dominated. The tail transform adds 1 per edge to each
    ordinal block's first component, so only ``wtop``, or ``mixed`` with no
    ordinal block, has zero-cost cycles, and such a walk ties its prefix,
    a smaller path. Only ``all_efficient`` keeps ties, so only its ties
    reached by a zero-cost edge test for a cycle.
    """
    outgoing: dict[int, list[Edge]] = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        outgoing.setdefault(e.tail, []).append(e)
    head = {e.id: e.head for e in g.edges}
    free = {i for i, c in cost.items() if not any(c)}  # zero-cost edge ids

    # labels[node]: value -> edge-id paths
    labels: dict[int, dict[tuple, list[tuple[int, ...]]]] = {g.source: {zero: [()]}}
    queue: deque[tuple[int, tuple, tuple[int, ...]]] = deque([(g.source, zero, ())])
    while queue:
        node, value, path = queue.popleft()
        if path not in labels[node].get(value, ()):
            continue  # label was pruned after being queued
        for edge in outgoing.get(node, ()):
            new_value = tuple(map(add, value, cost[edge.id]))
            new_path = path + (edge.id,)
            bucket = labels.setdefault(edge.head, {})
            entries = bucket.get(new_value)
            # A value dominating new_value would dominate its equal in the
            # bucket, so a tie compares paths only; otherwise <= is strict.
            if entries is None:
                if any(all(map(le, other, new_value)) for other in bucket):
                    continue
                for other in [o for o in bucket if all(map(le, new_value, o))]:
                    del bucket[other]
                bucket[new_value] = [new_path]
            elif not all_efficient:
                if new_path >= entries[0]:
                    continue
                entries[0] = new_path
            elif edge.id in free and edge.head in (g.source, *map(head.get, path)):
                continue  # closes a zero-cost cycle
            else:
                entries.append(new_path)
            queue.append((edge.head, new_value, new_path))

    return {value: sorted(paths) for value, paths in labels.get(g.target, {}).items()}


def _solve_paths(
    g: GraphInstance,
    cost: dict[int, tuple[int, ...]],
    zero: tuple[int, ...],
    scales: tuple[int, ...],
    all_efficient: bool,
) -> SolveResult:
    """The pipeline shared by the path solvers: search on the int edge
    costs, then one entry per non-dominated value, with the counting and
    ordinal images of its representative path.

    The leading ``len(scales)`` value components are rational weights that
    the caller multiplied by ``scales``; they are reported as ``Fraction``s
    again. The first ``g.num_real`` of them are the path's real weights.
    """
    frontier = _multiobjective_shortest_paths(g, cost, zero, all_efficient)
    if not frontier:
        return SolveResult(UNREACHABLE)
    edges = {e.id: e for e in g.edges}
    n = len(scales)
    entries = []
    # Each component is scaled by a positive constant, so the int values
    # sort in the order of the values reported.
    for scaled in sorted(frontier):
        value = tuple(map(Fraction, scaled[:n], scales)) + scaled[n:]
        check_printable(value[:n], "a frontier value")
        rep_edges = [edges[i] for i in frontier[scaled][0]]
        countings = tuple(
            counting_vector((e.categories[l] for e in rep_edges), space)
            for l, space in enumerate(g.spaces)
        )
        entries.append(
            ResultEntry(
                value=value,
                countings=countings,
                ordinals=tuple(ordinal_vector(c) for c in countings),
                weights=value[: g.num_real],
                solutions=tuple(frontier[scaled]),
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
    # Each edge costs its scaled real weights followed by one binary tail
    # vector per ordinal objective (ones up to the edge's category).
    scaled = [
        scale_to_ints([e.weights[j] for e in g.edges]) for j in range(g.num_real)
    ]
    scales = tuple(scale for scale, _ in scaled)
    cost = {
        e.id: tuple(ints[i] for _, ints in scaled)
        + tuple(
            1 if j <= cat else 0
            for cat, space in zip(e.categories, g.spaces)
            for j in range(1, space.K + 1)
        )
        for i, e in enumerate(g.edges)
    }
    zero = (0,) * (g.num_real + sum(s.K for s in g.spaces))
    return _solve_paths(g, cost, zero, scales, all_efficient)


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
    scale, weights = scale_to_ints([e.weights[0] for e in g.edges])
    cost = {
        e.id: tuple(w if j <= e.categories[0] else 0 for j in range(1, K + 1))
        for e, w in zip(g.edges, weights)
    }
    return _solve_paths(g, cost, (0,) * K, (scale,) * K, all_efficient)


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

    heads = list(states)
    head_inverse = ConeMatrix(K, B_HEAD)
    entries = []
    for i in reversed(pareto_front(heads, "max")):  # ascending heads
        head = heads[i]
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
