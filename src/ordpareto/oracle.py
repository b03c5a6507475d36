"""Brute-force ground truth: the dominance definitions, numerical
representations and dominance certificates, and exhaustive enumeration.

Enumerates every simple s-t path (or every capacity-feasible subset) and
filters for efficiency directly from the dominance definitions, block by
block: Pareto on the real weights, an ordinal relation per ordinal
objective, and never the block-diagonal transform that ``mixed`` relies
on. :func:`oracle_result` builds from them the result a correct solver
returns. Finite point sets are filtered by cone dominance the same way,
pairwise, so :func:`mapping_check` compares the Pareto kernel with an
independent computation. Used by ``oracle-check`` and in the test suite
to validate the solvers and the filters at desk scale.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from operator import ge, le

from ordpareto.core import (
    ConeMatrix,
    OrdparetoError,
    _check_counts,
    check_sense,
    cone_member,
    counting_vector,
    head_transform,
    tail_transform,
)
from ordpareto.nondominance import PointSet, pareto_filter
from ordpareto.solvers import (
    GraphInstance,
    KnapsackInstance,
    ResultEntry,
    SolveResult,
)

TAIL = "tail"
HEAD = "head"
ORDINAL_SAMPLED = "ordinal-sampled"

DEFAULT_NODE_LIMIT = 12
DEFAULT_ITEM_LIMIT = 20
CERTIFICATE_SAMPLES = 50
SAMPLE_SEED = 20240917


def _check_same_length(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise OrdparetoError(f"vector lengths differ: {len(u)} vs {len(v)}")


def weakly_tail_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff every suffix sum of u is <= the matching suffix sum of v."""
    _check_same_length(u, v)
    return all(tu <= tv for tu, tv in zip(tail_transform(u), tail_transform(v)))


def tail_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """Strict tail-dominance: weak tail-dominance plus u != v."""
    return tuple(u) != tuple(v) and weakly_tail_dominates(u, v)


def head_dominates(u: Sequence[int], v: Sequence[int]) -> bool:
    """Strict head-dominance: prefix sums of u >= those of v, and u != v."""
    _check_same_length(u, v)
    return tuple(u) != tuple(v) and all(map(ge, head_transform(u), head_transform(v)))


def pareto_dominates(u: Sequence, v: Sequence) -> bool:
    """Componentwise <= with u != v."""
    _check_same_length(u, v)
    return tuple(u) != tuple(v) and all(map(le, u, v))


class NumericalRepresentation(namedtuple("NumericalRepresentation", "values")):
    """Strictly increasing nonnegative integer values, one per category."""

    __slots__ = ()

    def __new__(cls, values: Sequence[int]):
        values = tuple(values)
        if not values:
            raise OrdparetoError("numerical representation must be nonempty")
        if values[0] < 0:
            raise OrdparetoError("negative value at index 1")
        for j in range(len(values) - 1):
            if values[j] >= values[j + 1]:
                raise OrdparetoError(f"values not strictly increasing at index {j + 1}")
        return super().__new__(cls, values)


def numeric_value(nu: NumericalRepresentation, counts: Sequence[int]) -> int:
    """Total value of a solution under one numerical representation.

    Equals the sum, over the solution's elements, of the value of each
    element's category.
    """
    _check_same_length(nu.values, counts)
    _check_counts(counts)
    return sum(n * c for n, c in zip(nu.values, counts))


# --- dominance certificates ------------------------------------------------

EQUAL = "equal"
DOMINATES = "dominates"
NOT_DOMINATED = "not-dominated"


class DominanceCertificate(
    namedtuple("DominanceCertificate", "relation nu value_u value_v", defaults=(None, None))
):
    """Witness for the outcome of an ordinal-dominance comparison of u vs v.

    ``relation`` is one of:

    * ``"equal"``          -- u == v, no witness needed (``nu is None``);
    * ``"dominates"``      -- u strictly tail-dominates v; ``nu`` satisfies
      value(u) < value(v);
    * ``"not-dominated"``  -- u does not weakly tail-dominate v; ``nu``
      satisfies value(u) > value(v), so u cannot be weakly preferred under
      every representation.

    ``value_u`` and ``value_v`` are the two values under ``nu``, or None.
    """

    __slots__ = ()


def dominance_certificate(
    u: Sequence[int], v: Sequence[int]
) -> DominanceCertificate:
    """Compare u and v and return a checkable witness.

    If u fails to weakly tail-dominate v, the witness is a representation
    built by pricing the categories from the deepest violated tail index
    upward so high that value(u) > value(v). If u strictly tail-dominates
    v, the analogous construction, anchored at the largest differing
    category, where the tail of u is strictly smaller, yields
    value(u) < value(v).
    """
    _check_same_length(u, v)
    _check_counts(u)
    _check_counts(v)
    u = tuple(u)
    v = tuple(v)
    K = len(u)
    if u == v:
        return DominanceCertificate(EQUAL, None)

    tails_u = tail_transform(u)
    tails_v = tail_transform(v)
    violated = [j for j in range(1, K + 1) if tails_u[j - 1] > tails_v[j - 1]]
    if violated:
        relation, j_star, scale = NOT_DOMINATED, violated[-1], 2 * sum(v) * K
    else:  # u weakly tail-dominates v and u != v, hence strictly
        relation = DOMINATES
        j_star = max(j for j in range(1, K + 1) if u[j - 1] != v[j - 1])
        scale = 2 * sum(u) * K
    # Categories below j_star get value i, categories j_star..K get i + scale,
    # making an element of a bad category impossible to offset by good ones.
    nu = NumericalRepresentation(
        tuple(i if i < j_star else i + scale for i in range(1, K + 1))
    )
    val_u = numeric_value(nu, u)
    val_v = numeric_value(nu, v)
    if not (val_u > val_v if relation == NOT_DOMINATED else val_u < val_v):
        raise OrdparetoError(f"certificate check failed for {u} vs {v}")
    return DominanceCertificate(relation, nu, val_u, val_v)


class EnumeratedSolution(namedtuple("EnumeratedSolution", "elements countings weights")):
    """One feasible solution: its element ids, one counting vector per
    ordinal objective, and its real-weight totals as ``Fraction``s."""

    __slots__ = ()


def enumerate_paths(
    g: GraphInstance, limit: int = DEFAULT_NODE_LIMIT
) -> tuple[EnumeratedSolution, ...]:
    """All simple s-t paths by DFS with visited-set backtracking."""
    if g.nodes > limit:
        raise OrdparetoError(f"{g.nodes} nodes exceeds the enumeration limit of {limit}")
    outgoing: dict[int, list] = {}
    for e in g.edges:
        outgoing.setdefault(e.tail, []).append(e)
    for edges in outgoing.values():
        edges.sort(key=lambda e: e.id)

    found: list[EnumeratedSolution] = []

    def dfs(node: int, path: list, visited: set[int]):
        if node == g.target:
            countings = (
                counting_vector((e.categories[l] for e in path), space)
                for l, space in enumerate(g.spaces)
            )
            weights = (sum((e.weights[j] for e in path), Fraction(0)) for j in range(g.num_real))
            found.append(
                EnumeratedSolution(tuple(e.id for e in path), tuple(countings), tuple(weights))
            )
            return
        for edge in outgoing.get(node, ()):
            if edge.head in visited:
                continue
            visited.add(edge.head)
            path.append(edge)
            dfs(edge.head, path, visited)
            path.pop()
            visited.remove(edge.head)

    dfs(g.source, [], {g.source})  # s = t is found at once, as the empty path
    return tuple(found)


def enumerate_subsets(
    k: KnapsackInstance, limit: int = DEFAULT_ITEM_LIMIT
) -> tuple[EnumeratedSolution, ...]:
    """All item subsets within capacity, the empty subset included."""
    if len(k.items) > limit:
        raise OrdparetoError(f"{len(k.items)} items exceeds the enumeration limit of {limit}")
    items = sorted(k.items, key=lambda it: it.id)
    found: list[EnumeratedSolution] = []

    def extend(idx: int, chosen: list[int], cats: list[int], used: int):
        if idx == len(items):
            found.append(
                EnumeratedSolution(tuple(chosen), (counting_vector(cats, k.space),), ())
            )
            return
        extend(idx + 1, chosen, cats, used)
        item = items[idx]
        if used + item.weight <= k.capacity:
            chosen.append(item.id)
            cats.append(item.category)
            extend(idx + 1, chosen, cats, used + item.weight)
            cats.pop()
            chosen.pop()

    extend(0, [], [], 0)
    return tuple(found)


def sample_representation(rng: random.Random, K: int) -> NumericalRepresentation:
    """Random strictly increasing nonnegative values with gaps in 1..5."""
    values = []
    current = rng.randint(0, 5)
    for _ in range(K):
        values.append(current)
        current += rng.randint(1, 5)
    return NumericalRepresentation(tuple(values))


def _ordinal_dominates_sampled(
    u: Sequence[int], v: Sequence[int], rng: random.Random
) -> bool:
    """Definitional dominance check with a certificate cross-check.

    The certificate decides the verdict; a panel of sampled representations
    must be consistent with it (weakly better everywhere when dominance is
    claimed), otherwise the certificate construction is broken.
    """
    cert = dominance_certificate(tuple(u), tuple(v))
    claims = cert.relation == DOMINATES
    K = len(u)
    for _ in range(CERTIFICATE_SAMPLES):
        nu = sample_representation(rng, K)
        val_u, val_v = numeric_value(nu, u), numeric_value(nu, v)
        if claims and val_u > val_v:
            raise OrdparetoError(
                f"certificate claims {u} dominates {v} but {nu} disagrees"
            )
        if not claims and weakly_tail_dominates(u, v) and val_u > val_v:
            raise OrdparetoError(
                f"weak dominance of {u} over {v} refuted by {nu}"
            )
    return claims


def _blocks(s: EnumeratedSolution) -> tuple:
    return (s.weights, *s.countings)


def oracle_efficient_set(
    feasible: tuple[EnumeratedSolution, ...],
    concept: str = TAIL,
    outcome: Callable[[EnumeratedSolution], tuple] = _blocks,
) -> tuple[EnumeratedSolution, ...]:
    """Efficient solutions by pairwise definitional dominance filtering.

    A solution's outcome is a tuple of blocks, by default its real weights
    and then one counting vector per ordinal objective. Another solution
    dominates it when their outcomes differ and the other is weakly better
    in every block: by Pareto dominance in the first, by ``concept`` in
    each other. With no real weights and one ordinal objective that is
    strict dominance under ``concept``.
    ``concept`` selects tail-dominance (minimization), head-dominance
    (maximization) or the sampled ordinal check, which additionally
    validates every verdict against dominance certificates and random
    numerical representations drawn from ``SAMPLE_SEED``. An empty
    enumeration has an empty efficient set.
    """
    rng = random.Random(SAMPLE_SEED)
    relations = {
        TAIL: weakly_tail_dominates,
        HEAD: lambda u, v: u == v or head_dominates(u, v),
        ORDINAL_SAMPLED: lambda u, v: u == v or _ordinal_dominates_sampled(u, v, rng),
    }
    if concept not in relations:
        raise OrdparetoError(f"unknown dominance concept: {concept!r}")
    weakly = relations[concept]
    outcomes = tuple(map(outcome, feasible))

    def dominates(o: tuple, y: tuple) -> bool:
        return (
            o != y
            and (o[0] == y[0] or pareto_dominates(o[0], y[0]))
            and all(map(weakly, o[1:], y[1:]))
        )

    return tuple(
        s for s, y in zip(feasible, outcomes) if not any(dominates(o, y) for o in outcomes)
    )


def _weight_per_category(g: GraphInstance) -> Callable[[EnumeratedSolution], tuple]:
    """``wtop``'s outcome of a path: one block, its weight total per category."""
    if len(g.spaces) != 1 or g.num_real != 1:
        raise OrdparetoError("wtop expects one weight and one ordinal objective")
    edges = {e.id: e for e in g.edges}

    def outcome(s: EnumeratedSolution) -> tuple:
        totals = [Fraction(0)] * g.spaces[0].K
        for e in map(edges.get, s.elements):
            totals[e.categories[0] - 1] += e.weights[0]
        return (), tuple(totals)

    return outcome


def oracle_result(
    inst: GraphInstance | KnapsackInstance,
    problem: str,
    all_efficient: bool = False,
    sampled: bool = False,
) -> SolveResult:
    """The result a correct solver of ``problem`` returns on ``inst``.

    The efficient solutions are those of :func:`oracle_efficient_set`: for
    ``knapsack`` under head-dominance, for ``sp`` and ``mixed`` under
    tail-dominance or, if ``sampled``, the sampled check, and for ``wtop``
    on each path's weight total per category under tail-dominance. They are
    grouped by their value in the solver's space, in ascending order. Each
    entry holds the countings and weights of its smallest solution, and
    lists its sorted solutions if ``all_efficient``, else that one.
    """
    if problem == "knapsack":
        feasible, concept, outcome = enumerate_subsets(inst), HEAD, _blocks
        value = lambda s: head_transform(s.countings[0])
    elif problem == "wtop":
        feasible, concept, outcome = enumerate_paths(inst), TAIL, _weight_per_category(inst)
        value = lambda s: tail_transform(outcome(s)[1])
    elif problem in ("sp", "mixed"):
        concept = ORDINAL_SAMPLED if sampled else TAIL
        feasible, outcome = enumerate_paths(inst), _blocks
        value = lambda s: s.weights + sum(map(tail_transform, s.countings), ())
    else:
        raise OrdparetoError(f"unknown problem: {problem!r}")
    groups: dict[tuple, list[EnumeratedSolution]] = {}
    for s in oracle_efficient_set(feasible, concept, outcome=outcome):
        groups.setdefault(value(s), []).append(s)
    entries = []
    for v in sorted(groups):
        solutions = sorted(groups[v])[: None if all_efficient else 1]
        rep, elements = solutions[0], tuple(s.elements for s in solutions)
        entries.append(ResultEntry(v, rep.countings, rep.weights, elements))
    return SolveResult(tuple(entries))


def definitional_cone_filter(
    ps: PointSet, cone: ConeMatrix, sense: str = "min"
) -> PointSet:
    """The points not cone-dominated by any other point, sorted, by testing
    every ordered pair from the definition: u dominates y iff y - u (u - y
    for maximization) is a nonzero member of the cone {d : Ad >= 0}."""
    check_sense(sense)
    sign = 1 if sense == "min" else -1

    def dominated(y):
        diffs = ([sign * (a - b) for a, b in zip(y, u)] for u in ps.points)
        return any(cone_member(d, cone, strict=True) for d in diffs)

    return PointSet(tuple(sorted(p for p in ps.points if not dominated(p))))


def mapping_check(ps: PointSet, cone: ConeMatrix) -> bool:
    """The non-dominance mapping theorem on one point set: the images of the
    points :func:`definitional_cone_filter` keeps equal, as a multiset, the
    Pareto filter of all images. Only the second side runs the Pareto kernel."""
    right = pareto_filter(PointSet(tuple(map(cone.apply, ps.points)))).points
    left = sorted(map(cone.apply, definitional_cone_filter(ps, cone).points))
    return left == list(right)
