"""Exact solvers for ordinal shortest path and knapsack problems.

All solvers map each element to its transformed cost vector, run a
standard multi-objective search and report the Pareto frontier of
transformed values with their counting vectors and solutions.
Paths use label setting: popped labels are final, and ``--all-efficient``
lists a predecessor DAG's paths forward from shared prefixes, or walks it
back, skipping zero-cost cycles. Knapsacks use a DP.

Every search runs in ints. The path solvers multiply each real objective
by the lcm of its weights' denominators before the search, and divide the
frontier values by it again as ``Fraction``s when the entries are built.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import partial, reduce
from itertools import accumulate, count, islice, repeat
from math import lcm
from operator import add, attrgetter, lshift, mul

from ordpareto.core import (
    B_HEAD,
    CategorySpace,
    ConeMatrix,
    OrdparetoError,
    counting_vector,
    excerpt,
    fields,
    ordinal_vector,
    pareto_front,
    unpack,
)

OK = "ok"
UNREACHABLE = "unreachable"
# Every packed value grows with the digits of the lcm that scales a real
# objective, and the time with their square: a 5 x 5 bidirected grid at
# K = 10 takes 1 ms at small denominators and about 0.1 s at 9,600 digits.
MAX_SCALE_DIGITS = 10_000
_BUILD_RATIO = 8  # most prefix entries a forward build makes per entry of the answer


class InstanceError(OrdparetoError):
    """An instance that breaks the rules of its problem.

    ``record`` is the index of the edge or item at fault, or ``None`` when
    the fault lies in the terminals, the capacity or another scalar.
    """

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


def _exact(x) -> bool:
    """Whether ``x`` is an int or a Fraction; only a non-int loads fractions."""
    if isinstance(x, int):
        return True
    from fractions import Fraction
    return isinstance(x, Fraction)


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
        if not all(isinstance(x, int) for x in (nodes, source, target, num_real)):
            raise InstanceError("nodes, source, target and num_real must be ints")
        if num_real:  # else no edge may have weights, so the check never reads Fraction
            from fractions import Fraction
        for node in (source, target):
            if not 1 <= node <= nodes:
                raise InstanceError(f"terminal node {excerpt(node)} out of range")
        try:  # whole columns first; the records below only word an error
            ids, tails, heads, weights, cats = zip(*edges)
            ranges = [(tails + heads, nodes), *zip(zip(*cats), (s.K for s in spaces))]
            valid = (
                len(set(ids)) == len(ids) and set(map(type, edges)) == {Edge}
                and set(map(type, ids)) == {int}
                and set(map(len, weights)) == {num_real} and set(map(len, cats)) == {len(spaces)}
                and all(set(map(type, col)) <= {int, Fraction}
                        and min(map(attrgetter("numerator"), col)) >= 0 for col in zip(*weights))
                and all(set(map(type, col)) == {int} and 1 <= min(col) and max(col) <= top
                        for col, top in ranges)
            )
        except (AttributeError, TypeError, ValueError):  # no edges, or odd records
            valid = False
        seen = set()
        for i, e in enumerate(() if valid else edges):
            if not isinstance(e.id, int):
                raise InstanceError(f"edge id {excerpt(e.id)} is not an int", i)
            if e.id in seen:
                raise InstanceError(f"duplicate edge id {excerpt(e.id)}", i)
            seen.add(e.id)
            for node in (e.tail, e.head):
                if not (isinstance(node, int) and 1 <= node <= nodes):
                    raise InstanceError(
                        f"edge {excerpt(e.id)} touches node {excerpt(node)} "
                        f"outside 1..{excerpt(nodes)}", i
                    )
            if len(e.weights) != num_real:
                raise InstanceError(
                    f"edge {excerpt(e.id)} has {len(e.weights)} weights, expected {num_real}",
                    i,
                )
            if not all(map(_exact, e.weights)):
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
                if not (isinstance(cat, int) and 1 <= cat <= space.K):
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
        if not _exact(capacity):
            raise InstanceError(f"capacity must be an int or a Fraction: {excerpt(capacity)}")
        if capacity < 0:
            raise InstanceError(f"capacity must be nonnegative: {excerpt(capacity)}")
        seen = set()
        for i, item in enumerate(items):
            if not isinstance(item.id, int):
                raise InstanceError(f"item id {excerpt(item.id)} is not an int", i)
            if item.id in seen:
                raise InstanceError(f"duplicate item id {excerpt(item.id)}", i)
            seen.add(item.id)
            if not _exact(item.weight):
                raise InstanceError(
                    f"item {excerpt(item.id)}: consumption must be an int or a Fraction", i
                )
            if item.weight <= 0:
                raise InstanceError(
                    f"item {excerpt(item.id)}: consumption must be positive", i
                )
            if not (isinstance(item.category, int) and 1 <= item.category <= space.K):
                raise InstanceError(
                    f"item {excerpt(item.id)}: category {excerpt(item.category)} "
                    f"outside 1..{excerpt(space.K)}", i
                )
        return super().__new__(cls, items, capacity, space)


class ResultEntry(namedtuple("ResultEntry", "value countings weights solutions")):
    """One non-dominated outcome value with its images and solutions.

    ``value`` lives in the transformed (tail / head / mixed) space.
    ``countings`` holds one counting vector per ordinal objective, and
    ``ordinals`` derives the matching sorted category sequences from them.
    ``weights`` holds the real objective values (empty for pure ordinal
    problems). ``solutions`` lists element-id tuples; the first one is the
    deterministic representative (smallest id sequence).
    """

    __slots__ = ()

    @property
    def ordinals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(ordinal_vector, self.countings))

    @property
    def representative(self) -> tuple[int, ...]:
        return self.solutions[0]


class SolveResult:
    """A solver's entries in ascending value order; ``status`` is ``"ok"``
    if there are any, else ``"unreachable"``.

    A plain class, not a tuple, so that it can carry fields that stay out
    of ``==``, ``hash`` and ``repr``; it is as immutable as the records.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[ResultEntry, ...] = ()):
        object.__setattr__(self, "entries", entries)

    @property
    def status(self) -> str:
        return OK if self.entries else UNREACHABLE

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy without __setattr__
        return SolveResult, (self.entries,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SolveResult(entries={self.entries!r})"

    def values(self) -> tuple[tuple, ...]:
        return tuple(e.value for e in self.entries)


def _packed_steps(
    g: GraphInstance, reals: Sequence[Sequence[int]] = (), weights: Sequence[int] | None = None,
) -> tuple[list[int], tuple[list[int], list[int], int]]:
    """Each edge's packed int cost, in ``g.edges`` order, and the layout,
    :func:`ordpareto.core.fields` of the bounds ``min(nodes * max_j,
    sum_j + max_j)`` over the edges' components. A value holds the int
    columns ``reals``, then per ordinal objective a tail vector, whose
    components 1..c an edge of category c raises by 1, or by its entry of
    ``weights``. A step is ``Σ real_j << shift_j + table[c]``, or ``weight
    * table[c]`` (packing is linear), where ``table[c]`` packs c's tail."""
    cats = list(zip(*map(attrgetter("categories"), g.edges))) or [()] * len(g.spaces)
    bounds = [min(g.nodes * max(col, default=0), sum(col) + max(col, default=0)) for col in reals]
    for col, space in zip(cats, g.spaces):
        totals, tops = [0] * (space.K + 1), [0] * (space.K + 1)
        for c, w in zip(col, repeat(1) if weights is None else weights):
            totals[c], tops[c] = totals[c] + w, w if w > tops[c] else tops[c]
        sums, peaks = accumulate(totals[:0:-1]), accumulate(tops[:0:-1], max)  # from K down
        bounds += reversed([min(g.nodes * m, s + m) for s, m in zip(sums, peaks)])
    shifts, masks, guards = fields(bounds)
    field_shifts = iter(shifts)  # the reals' fields, then each objective's tail
    parts = [map(lshift, col, repeat(s)) for col, s in zip(reals, field_shifts)]
    for col, space in zip(cats, g.spaces):
        table = list(accumulate((1 << s for s in islice(field_shifts, space.K)), initial=0))
        part = map(table.__getitem__, col)
        parts.append(part if weights is None else map(mul, weights, part))
    return list(reduce(partial(map, add), parts)), (shifts, masks, guards)  # parts summed per edge


def _multiobjective_shortest_paths(
    g: GraphInstance, steps: Sequence[int], layout: tuple[list[int], list[int], int],
    all_efficient: bool,
) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Label-setting search over simple s-t paths, in ints only.

    ``steps`` and ``layout`` come from :func:`_packed_steps`: each edge's
    packed int cost, and fields sized by a bound on new values, so a carry
    into a guard bit raises; the empty path's value is 0. Returns a map from
    each non-dominated cost vector at the target to the sorted edge-id
    paths attaining it (only the smallest unless ``all_efficient``).
    Labels pop from a heap of ``value << node_bits | node`` in lexicographic
    order (Martins 1984). A new value is never below the popped one and
    evicts only values it dominates, which are above it, so a popped label
    is final: a simple path's value, extended once. A new value's scan of
    its bucket stops at the first label dominating it, and only a kept
    value scans the bucket again for the labels it evicts.

    Default mode keeps ``[smallest path, extended?]`` per label; a smaller
    tie after the pop pushes the label again. ``all_efficient`` keeps the
    arcs into a label from final labels, a DAG over ``(tail, value - cost)``.
    A walk back to a node ties or is dominated by its first visit's label,
    so with no zero step, where every arc raises the value, no walk back
    repeats a node. Then each label the target reaches back to gets, in
    ascending value, its predecessors' prefixes extended by the arc, and a
    list is dropped once its last reader has read it. This runs only if a
    first pass finds the prefixes' total length within ``_BUILD_RATIO``
    times the answer's: a chain after many paths copies each once per edge.
    Otherwise an iterative walk reads the DAG back from the target. Ties
    need zero-cost cycles (``wtop``, ``mixed``): default mode drops them for
    their larger path, and the walk skips a node already on it. It takes a
    zero-cost arc only if the tail gets back to the source off the walk
    (Read & Tarjan 1975), so it meets no dead end.
    """
    shifts, masks, guards = layout
    if g.source == g.target:  # any other s-s walk is a cycle, and no cycle costs below zero
        return {unpack(0, shifts, masks): [()]}
    from heapq import heappop, heappush  # loaded by path searches only
    outgoing: dict[int, list[tuple[int, int, int, int]]] = {}  # (edge id, head, packed cost, tail)
    for arc in sorted((e.id, e.head, step, e.tail) for e, step in zip(g.edges, steps)):
        outgoing.setdefault(arc[3], []).append(arc)
    node_bits = g.nodes.bit_length()
    node_mask = (1 << node_bits) - 1
    # labels[node]: packed value -> arcs in from final labels, or [path, extended?]
    labels: dict[int, dict[int, list]] = {e.head: {} for e in g.edges}
    labels[g.source] = {0: [] if all_efficient else [(), False]}
    heap = [g.source]
    while heap:
        key = heappop(heap)
        node, value = key & node_mask, key >> node_bits
        label = labels[node].get(value)
        if label is None:
            continue  # evicted while queued
        if not all_efficient:
            path, label[1] = label[0], True
        for arc in outgoing.get(node, ()):
            edge_id, to, step, _ = arc
            new_value = value + step
            if new_value & guards:
                raise OrdparetoError("a path value overflowed its packed field")
            bucket = labels[to]
            entry = bucket.get(new_value)
            # A value dominating new_value would dominate its equal in the
            # bucket, so a tie needs no dominance test; otherwise <= is strict.
            if entry is None:
                ceiling = new_value | guards
                for other in bucket:
                    if ceiling - other & guards == guards:
                        break  # dominated: no label kept, none evicted
                else:
                    for other in [o for o in bucket if (o | guards) - new_value & guards == guards]:
                        del bucket[other]
                    bucket[new_value] = [arc] if all_efficient else [path + (edge_id,), False]
                    heappush(heap, new_value << node_bits | to)
            elif all_efficient:
                entry.append(arc)
            elif path + (edge_id,) < entry[0]:
                if entry[1]:  # extended already: new_value is being popped now
                    heappush(heap, new_value << node_bits | to)
                entry[0], entry[1] = path + (edge_id,), False

    target = labels.get(g.target, {})
    if not all_efficient:
        return {unpack(v, shifts, masks): [label[0]] for v, label in target.items()}
    if 0 not in steps:  # every arc raises the value: no walk back repeats a node
        readers = {v << node_bits | g.target: 0 for v in target}  # marked label -> readers
        todo = list(readers)
        while todo:
            value = (key := todo.pop()) >> node_bits
            for _, _, step, tail in labels[key & node_mask][value]:
                pred = value - step << node_bits | tail
                if pred not in readers:
                    todo.append(pred)
                readers[pred] = readers.get(pred, 0) + 1
        order = sorted(readers)[1:]  # ascending value, after the source's label 0
        sizes, total = {g.source: (1, 0)}, 0  # label -> its prefixes, their total length
        for key in order:
            value, n, size = key >> node_bits, 0, 0
            for _, _, step, tail in labels[key & node_mask][value]:
                c, s = sizes[value - step << node_bits | tail]
                n, size = n + c, size + s + c
            sizes[key], total = (n, size), total + size
        if total <= _BUILD_RATIO * sum(sizes[v << node_bits | g.target][1] for v in target):
            lists = {g.source: [()]}  # marked label -> its prefixes, until read
            for key in order:
                value, prefixes = key >> node_bits, []
                for edge_id, _, step, tail in labels[key & node_mask][value]:
                    pred = value - step << node_bits | tail
                    prefixes += map(add, lists[pred], repeat((edge_id,)))
                    readers[pred] -= 1
                    if not readers[pred]:
                        del lists[pred]
                lists[key] = prefixes
            return {unpack(v, shifts, masks): sorted(lists[v << node_bits | g.target])
                    for v in target}

    def escapes(node: int, value: int, on_walk: set[int]) -> bool:
        """Whether arcs of ``value`` that avoid ``on_walk`` lead from ``node``
        to the source or to an arc that leaves the value: below it, no node
        of the walk can recur, as it would dominate its label there."""
        seen, todo = {node}, [node]
        while todo:
            for _, _, step, tail in labels[todo.pop()][value]:
                if step or tail == g.source:
                    return True
                if tail not in seen and tail not in on_walk:
                    seen.add(tail)
                    todo.append(tail)
        return False

    frontier = {}
    for value, arcs in target.items():
        walk, paths, suffix, on_walk = [(g.target, value, iter(arcs))], [], [], {g.target}
        while walk:  # suffix: the walk's edge ids, last first
            _, at, preds = walk[-1]
            for edge_id, _, step, tail in preds:
                if tail == g.source:
                    paths.append((edge_id, *reversed(suffix)))
                elif tail not in on_walk and (step or escapes(tail, at, on_walk)):
                    on_walk.add(tail)
                    suffix.append(edge_id)
                    walk.append((tail, at - step, iter(labels[tail][at - step])))
                    break
            else:
                on_walk.remove(walk.pop()[0])
                del suffix[len(walk) - 1:]
        frontier[unpack(value, shifts, masks)] = sorted(paths)
    return frontier


def _scaled(weights: Sequence, objective: int) -> tuple[int, list[int]]:
    """The lcm of real objective ``objective``'s weight denominators and
    each weight times it, as an int; refused once the lcm, built one
    distinct denominator at a time, passes ``MAX_SCALE_DIGITS`` digits."""
    scale = 1
    for d in set(map(attrgetter("denominator"), weights)):
        scale = lcm(scale, d)  # 2**(3 * digits) < 10**digits: the power is built only near it
        if scale.bit_length() > 3 * MAX_SCALE_DIGITS and scale >= 10**MAX_SCALE_DIGITS:
            raise OrdparetoError(
                f"real objective {objective}: the lcm of its weights' denominators "
                f"has more than {MAX_SCALE_DIGITS} digits"
            )
    return scale, [w.numerator * (scale // w.denominator) for w in weights]


def _solve_paths(
    g: GraphInstance, steps: Sequence[int], layout: tuple[list[int], list[int], int],
    scales: tuple[int, ...], all_efficient: bool,
) -> SolveResult:
    """The pipeline shared by the path solvers: search on the packed edge
    steps of :func:`_packed_steps`, then one entry per non-dominated value,
    with the counting vectors of its representative path. The leading
    ``len(scales)`` value components are rational weights that the caller
    multiplied by ``scales``; they are reported as ``Fraction``s again.
    The first ``g.num_real`` of them are the path's real weights."""
    frontier = _multiobjective_shortest_paths(g, steps, layout, all_efficient)
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
        entries.append(ResultEntry(value, countings, value[: g.num_real], tuple(frontier[scaled])))
    return SolveResult(tuple(entries))


def solve_shortest_path(
    g: GraphInstance, all_efficient: bool = False
) -> SolveResult:
    """All ordinally efficient s-t paths of a single-ordinal-objective graph.

    Runs the Pareto label-setting search on the binary tail cost vectors;
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
    tail vectors (block-diagonal transformation of the outcome vector): an
    edge costs its real weights, scaled to ints per column, then one binary
    tail vector per ordinal objective (ones up to its category)."""
    if g.num_real + len(g.spaces) < 1:
        raise OrdparetoError("need at least one objective")
    columns = list(zip(*map(attrgetter("weights"), g.edges))) or [()] * g.num_real
    scales, reals = zip(*map(_scaled, columns, count(1))) if columns else ((), ())
    return _solve_paths(g, *_packed_steps(g, reals), scales, all_efficient)


def solve_weighted_counting(
    g: GraphInstance, all_efficient: bool = False
) -> SolveResult:
    """Pareto frontier of tail-accumulated weighted counting vectors.

    Requires one coherent weight/category pair per edge: each edge
    contributes its weight, instead of a unit, to every tail component up
    to its category: its packed step is its scaled weight times its tail.
    """
    if len(g.spaces) != 1 or g.num_real != 1:
        raise OrdparetoError(
            "solve_weighted_counting expects exactly one weight and one "
            "ordinal objective per edge"
        )
    scale, weights = _scaled([e.weights[0] for e in g.edges], 1)
    steps, layout = _packed_steps(g, weights=weights)
    return _solve_paths(g, steps, layout, (scale,) * g.spaces[0].K, all_efficient)


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
    states = {(0,) * K: [(0, ())]}  # head vector -> (weight, subset) pairs
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
        solutions = tuple(sols if all_efficient else sols[:1])
        entries.append(ResultEntry(head, (head_inverse.apply(head),), (), solutions))
    return SolveResult(tuple(entries))
