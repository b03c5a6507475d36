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

from collections import deque, namedtuple
from collections.abc import Sequence
from operator import getitem, lshift

from ordpareto.core import (
    B_HEAD,
    CategorySpace,
    ConeMatrix,
    OrdparetoError,
    counting_vector,
    excerpt,
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


class Edge(namedtuple("Edge", "id tail head weights categories", defaults=((), ()))):
    """One arc: ``weights`` are its real costs, ``categories`` its category
    per ordinal objective."""

    __slots__ = ()


class GraphInstance(
    namedtuple("GraphInstance", "nodes edges spaces source target num_real")
):
    """Directed graph with per-edge categories and optional real weights.

    ``spaces`` holds one :class:`CategorySpace` per ordinal objective;
    ``weights`` on each edge has one nonnegative rational per real objective.
    """

    __slots__ = ()

    def __new__(
        cls, nodes: int, edges: Sequence[Edge], spaces: Sequence[CategorySpace],
        source: int, target: int, num_real: int = 0,
    ):
        edges, spaces = tuple(edges), tuple(spaces)
        if num_real:  # else no edge may have weights, so the check never reads Fraction
            from fractions import Fraction
        for node in (source, target):
            if not 1 <= node <= nodes:
                raise InstanceError(f"terminal node {excerpt(node)} out of range")
        seen = set()
        for i, e in enumerate(edges):
            if e.id in seen:
                raise InstanceError(f"duplicate edge id {excerpt(e.id)}", i)
            seen.add(e.id)
            for node in (e.tail, e.head):
                if not 1 <= node <= nodes:
                    raise InstanceError(
                        f"edge {excerpt(e.id)} touches node {excerpt(node)} "
                        f"outside 1..{excerpt(nodes)}", i
                    )
            if len(e.weights) != num_real:
                raise InstanceError(
                    f"edge {excerpt(e.id)} has {len(e.weights)} weights, expected {num_real}",
                    i,
                )
            if not all(isinstance(w, (int, Fraction)) for w in e.weights):
                raise InstanceError(
                    f"edge {excerpt(e.id)} has a weight that is neither an int nor a Fraction",
                    i,
                )
            if any(w < 0 for w in e.weights):
                raise InstanceError(f"edge {excerpt(e.id)} has a negative weight", i)
            if len(e.categories) != len(spaces):
                raise InstanceError(
                    f"edge {excerpt(e.id)} has {len(e.categories)} categories, "
                    f"expected {len(spaces)}",
                    i,
                )
            for cat, space in zip(e.categories, spaces):
                if not 1 <= cat <= space.K:
                    raise InstanceError(
                        f"edge {excerpt(e.id)}: category {excerpt(cat)} "
                        f"outside 1..{excerpt(space.K)}", i
                    )
        return super().__new__(cls, nodes, edges, spaces, source, target, num_real)


class Item(namedtuple("Item", "id weight category")):
    """One knapsack item: its consumption ``weight`` and its category."""

    __slots__ = ()


class KnapsackInstance(namedtuple("KnapsackInstance", "items capacity space")):
    """Items, a capacity, and the one ordinal objective's categories."""

    __slots__ = ()

    def __new__(cls, items: Sequence[Item], capacity: int, space: CategorySpace):
        items = tuple(items)
        if capacity < 0:
            raise InstanceError(f"capacity must be nonnegative: {excerpt(capacity)}")
        seen = set()
        for i, item in enumerate(items):
            if item.id in seen:
                raise InstanceError(f"duplicate item id {excerpt(item.id)}", i)
            seen.add(item.id)
            if item.weight <= 0:
                raise InstanceError(
                    f"item {excerpt(item.id)}: consumption must be positive", i
                )
            if not 1 <= item.category <= space.K:
                raise InstanceError(
                    f"item {excerpt(item.id)}: category {excerpt(item.category)} "
                    f"outside 1..{excerpt(space.K)}", i
                )
        return super().__new__(cls, items, capacity, space)


class ResultEntry(
    namedtuple("ResultEntry", "value countings ordinals weights solutions")
):
    """One non-dominated outcome value with its images and solutions.

    ``value`` lives in the transformed (tail / head / mixed) space.
    ``countings`` holds one counting vector per ordinal objective and
    ``ordinals`` the matching sorted category sequences. ``weights`` holds
    the real objective values (empty for pure ordinal problems).
    ``solutions`` lists element-id tuples; the first one is the
    deterministic representative (smallest id sequence).
    """

    __slots__ = ()

    @property
    def representative(self) -> tuple[int, ...]:
        return self.solutions[0]


class SolveResult:
    """A solver's status and its entries in ascending value order.

    A plain class, not a tuple, so that it can carry fields that stay out
    of ``==``, ``hash`` and ``repr``; it is as immutable as the records.
    """

    __slots__ = ("status", "entries")

    def __init__(self, status: str, entries: tuple[ResultEntry, ...] = ()):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy without __setattr__
        return SolveResult, (self.status, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.status, self.entries) == (other.status, other.entries)

    def __hash__(self):
        return hash((self.status, self.entries))

    def __repr__(self):
        return f"SolveResult(status={self.status!r}, entries={self.entries!r})"

    def values(self) -> tuple[tuple, ...]:
        return tuple(e.value for e in self.entries)


def _fields(bounds: Sequence[int]) -> tuple[list[int], list[int], int]:
    """How vectors with ``0 <= v[j] <= bounds[j]`` pack into one int: each
    component's shift and value mask, and the mask ``G`` of all guard bits.
    Field 0 is the most significant, so int order is lexicographic order;
    field j has ``bounds[j].bit_length()`` value bits under a guard bit, so
    ``+`` adds componentwise while no field overflows, and a field of
    ``(b | G) - a`` keeps its guard bit iff ``a_j <= b_j``."""
    shifts, masks, top = [], [], 0
    for bound in reversed(bounds):
        shifts.insert(0, top)
        masks.insert(0, (1 << bound.bit_length()) - 1)
        top += bound.bit_length() + 1
    return shifts, masks, sum(m + 1 << s for s, m in zip(shifts, masks))


def _pack(vector: Sequence[int], shifts: Sequence[int]) -> int:
    return sum(map(lshift, vector, shifts))


def _unpack(value: int, shifts: Sequence[int], masks: Sequence[int]) -> tuple[int, ...]:
    return tuple(value >> s & m for s, m in zip(shifts, masks))


def _multiobjective_shortest_paths(
    g: GraphInstance,
    cost: dict[int, tuple[int, ...]],
    zero: tuple[int, ...],
    all_efficient: bool,
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Label-correcting search over simple s-t paths, in ints only.

    ``cost`` maps each edge id to its nonnegative int cost vector and
    ``zero``, all zeros, is the value of the empty path (callers scale
    rational weights to ints). Returns a map from each non-dominated cost
    vector at the target to the sorted edge-id paths attaining it (only the
    smallest unless ``all_efficient``). A label is a node, a value packed
    into one int (:func:`_fields`) and an edge-id path. A queued label is a
    simple path (below), so component j of a new value is at most
    ``min(nodes * max_j, sum_j + max_j)`` over the edge costs. That bound
    sizes field j; a carry into a guard bit breaks it and raises an error.

    Labels need no visited set. When a walk first returns to a node, that
    node still holds the walk's prefix to it or a value dominating it (a
    tie swaps in only a smaller path), so a cycle of positive cost leaves
    the walk strictly dominated. The tail transform adds 1 per edge to each
    ordinal block's first component, so only ``wtop``, or ``mixed`` with no
    ordinal block, has zero-cost cycles, and such a walk ties its prefix,
    a smaller path. Only ``all_efficient`` keeps ties, so only its ties
    reached by a zero-cost edge test for a cycle.
    """
    bounds = [min(g.nodes * max(c), sum(c) + max(c)) for c in zip(zero, *cost.values())]
    shifts, masks, guards = _fields(bounds)
    outgoing: dict[int, list[tuple[int, int, int]]] = {}  # (edge id, head, packed cost)
    for e in sorted(g.edges, key=lambda e: e.id):
        outgoing.setdefault(e.tail, []).append((e.id, e.head, _pack(cost[e.id], shifts)))
    head = {e.id: e.head for e in g.edges}

    # labels[node]: packed value -> edge-id paths
    start = _pack(zero, shifts)
    labels: dict[int, dict[int, list[tuple[int, ...]]]] = {g.source: {start: [()]}}
    queue: deque[tuple[int, int, tuple[int, ...]]] = deque([(g.source, start, ())])
    while queue:
        node, value, path = queue.popleft()
        held = labels[node].get(value)
        # An evicted value never returns, as the bucket keeps a value that
        # dominates it. Only default mode replaces a value's path, so in
        # all_efficient mode a value still present still holds this path.
        if held is None or not all_efficient and held[0] != path:
            continue  # label was pruned after being queued
        for edge_id, to, step in outgoing.get(node, ()):
            new_value = value + step
            if new_value & guards:
                raise OrdparetoError("a path value overflowed its packed field")
            new_path = path + (edge_id,)
            bucket = labels.setdefault(to, {})
            entries = bucket.get(new_value)
            # A value dominating new_value would dominate its equal in the
            # bucket, so a tie compares paths only; otherwise <= is strict.
            if entries is None:
                ceiling = new_value | guards
                if any(ceiling - other & guards == guards for other in bucket):
                    continue
                for other in [o for o in bucket if (o | guards) - new_value & guards == guards]:
                    del bucket[other]
                bucket[new_value] = [new_path]
            elif not all_efficient:
                if new_path >= entries[0]:
                    continue
                entries[0] = new_path
            elif not step and to in (g.source, *map(head.get, path)):
                continue  # closes a zero-cost cycle
            else:
                entries.append(new_path)
            queue.append((to, new_value, new_path))

    target = labels.get(g.target, {})
    return {_unpack(v, shifts, masks): sorted(paths) for v, paths in target.items()}


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
    if n:
        from fractions import Fraction
    entries = []
    # Each component is scaled by a positive constant, so the int values
    # sort in the order of the values reported.
    for scaled in sorted(frontier):
        value = tuple(map(Fraction, scaled[:n], scales)) + scaled[n:] if n else scaled
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
    scaled = [scale_to_ints([e.weights[j] for e in g.edges]) for j in range(g.num_real)]
    scales = tuple(scale for scale, _ in scaled)
    reals = list(zip(*(ints for _, ints in scaled))) or [()] * len(g.edges)
    tails = [[(1,) * c + (0,) * (s.K - c) for c in range(s.K + 1)] for s in g.spaces]
    cost = {e.id: sum(map(getitem, tails, e.categories), r) for e, r in zip(g.edges, reals)}
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
        e.id: (w,) * e.categories[0] + (0,) * (K - e.categories[0])
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
        weight, added = item.weight, (item.id,)  # read once, not per pair
        limit = k.capacity - weight
        grown = []  # merged only after the scan, so no pair takes the item twice
        for head, pairs in states.items():
            fits = [(w + weight, s + added) for w, s in pairs if w <= limit]
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
