"""Brute-force ground truth by exhaustive enumeration.

Enumerates every simple s-t path (or every capacity-feasible subset) and
filters for efficiency directly from the dominance definitions. Finite
point sets are filtered by cone dominance the same way, pairwise, so
:func:`mapping_check` compares the Pareto kernel with an independent
computation. Used in the test suite to validate the solvers and the
filters at desk scale.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Sequence

from ordpareto.core import (
    ConeMatrix,
    NumericalRepresentation,
    OrdparetoError,
    check_sense,
    cone_member,
    counting_vector,
    dominance_certificate,
    head_dominates,
    numeric_value,
    tail_dominates,
    weakly_tail_dominates,
    DOMINATES,
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

    if g.source == g.target:
        found.append(EnumeratedSolution((), (0,) * space.K))
    else:
        dfs(g.source, [], [], {g.source})
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
            raise AssertionError(
                f"certificate claims {u} dominates {v} but {nu} disagrees"
            )
        if not claims and weakly_tail_dominates(u, v) and val_u > val_v:
            raise AssertionError(
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
    reproducible random numerical representations.
    """
    if not feasible:
        raise OrdparetoError("feasible enumeration is empty")
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
