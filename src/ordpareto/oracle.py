"""Brute-force ground truth: the dominance definitions, numerical
representations and dominance certificates, and exhaustive enumeration.

Enumerates every simple s-t path (or every capacity-feasible subset) and
filters for efficiency directly from the dominance definitions. Finite
point sets are filtered by cone dominance the same way, pairwise, so
:func:`mapping_check` compares the Pareto kernel with an independent
computation. Used by ``oracle-check`` and in the test suite to validate
the solvers and the filters at desk scale.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Sequence
from operator import ge, le

from ordpareto.core import (
    ConeMatrix,
    DimensionMismatchError,
    OrdparetoError,
    _check_counts,
    check_sense,
    cone_member,
    counting_vector,
    head_transform,
    tail_transform,
)
from ordpareto.nondominance import PointSet, pareto_filter
from ordpareto.solvers import GraphInstance, KnapsackInstance

TAIL = "tail"
HEAD = "head"
ORDINAL_SAMPLED = "ordinal-sampled"

DEFAULT_NODE_LIMIT = 12
DEFAULT_ITEM_LIMIT = 20
CERTIFICATE_SAMPLES = 50
SAMPLE_SEED = 20240917


def _check_same_length(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"vector lengths differ: {len(u)} vs {len(v)}"
        )


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


class InstanceTooLargeError(OrdparetoError):
    """The instance exceeds the enumeration size limit."""


class EnumeratedSolution(namedtuple("EnumeratedSolution", "elements counting")):
    """One feasible solution: its element ids and its counting vector."""

    __slots__ = ()


def enumerate_paths(
    g: GraphInstance, limit: int = DEFAULT_NODE_LIMIT
) -> tuple[EnumeratedSolution, ...]:
    """All simple s-t paths by DFS with visited-set backtracking."""
    if g.nodes > limit:
        raise InstanceTooLargeError(
            f"{g.nodes} nodes exceeds the enumeration limit of {limit}"
        )
    if len(g.spaces) != 1:
        raise OrdparetoError("path enumeration expects one ordinal objective")
    outgoing: dict[int, list] = {}
    for e in g.edges:
        outgoing.setdefault(e.tail, []).append(e)
    for edges in outgoing.values():
        edges.sort(key=lambda e: e.id)

    space = g.spaces[0]
    found: list[EnumeratedSolution] = []

    def dfs(node: int, path: list[int], cats: list[int], visited: set[int]):
        if node == g.target:
            found.append(
                EnumeratedSolution(tuple(path), counting_vector(cats, space))
            )
            return
        for edge in outgoing.get(node, ()):
            if edge.head in visited:
                continue
            visited.add(edge.head)
            path.append(edge.id)
            cats.append(edge.categories[0])
            dfs(edge.head, path, cats, visited)
            cats.pop()
            path.pop()
            visited.remove(edge.head)

    dfs(g.source, [], [], {g.source})  # s = t is found at once, as the empty path
    return tuple(found)


def enumerate_subsets(
    k: KnapsackInstance, limit: int = DEFAULT_ITEM_LIMIT
) -> tuple[EnumeratedSolution, ...]:
    """All item subsets within capacity, the empty subset included."""
    if len(k.items) > limit:
        raise InstanceTooLargeError(
            f"{len(k.items)} items exceeds the enumeration limit of {limit}"
        )
    items = sorted(k.items, key=lambda it: it.id)
    found: list[EnumeratedSolution] = []

    def extend(idx: int, chosen: list[int], cats: list[int], used: int):
        if idx == len(items):
            found.append(
                EnumeratedSolution(
                    tuple(chosen), counting_vector(cats, k.space)
                )
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


def oracle_efficient_set(
    feasible: tuple[EnumeratedSolution, ...],
    concept: str = TAIL,
    seed: int = SAMPLE_SEED,
) -> tuple[EnumeratedSolution, ...]:
    """Efficient solutions by pairwise definitional dominance filtering.

    ``concept`` selects tail-dominance (minimization), head-dominance
    (maximization) or the sampled ordinal check, which additionally
    validates every verdict against dominance certificates and ``seed``-
    reproducible random numerical representations. An empty enumeration
    has an empty efficient set.
    """
    rng = random.Random(seed)
    relations = {
        TAIL: tail_dominates,
        HEAD: head_dominates,
        ORDINAL_SAMPLED: lambda u, v: _ordinal_dominates_sampled(u, v, rng),
    }
    if concept not in relations:
        raise OrdparetoError(f"unknown dominance concept: {concept!r}")
    dominates = relations[concept]
    return tuple(
        s for s in feasible if not any(dominates(o.counting, s.counting) for o in feasible)
    )


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
