"""Non-dominated subsets of finite point sets under Pareto, tail and head cones.

The filters work on :class:`PointSet`, a list of equal-length integer
vectors. :func:`pareto_filter` and the precondition of :func:`is_supported`
run on :func:`ordpareto.core.pareto_front`, the one Pareto filter for finite
sets; :func:`cone_filter` tests cone dominance pairwise from its definition,
so :func:`mapping_check` compares two independent computations. Duplicated
values are all retained by the filters; collapsing value-equal *solutions*
is the solvers' job.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Sequence

from ordpareto.core import (
    ConeMatrix,
    DimensionMismatchError,
    OrdparetoError,
    check_sense,
    pareto_front,
)
from ordpareto.simplex import OPTIMAL, solve_lp

class EmptyPointSetError(OrdparetoError):
    """Filters require at least one point."""


@dataclass(frozen=True)
class PointSet:
    """A finite list of equal-length integer vectors. Points carry no ids:
    equal points are equal values, so a filter sorts its result by point."""

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        points = tuple(tuple(p) for p in self.points)
        object.__setattr__(self, "points", points)
        if len({len(p) for p in points}) > 1:
            raise DimensionMismatchError("points have differing lengths")

    def _sorted(self, keep: list[int]) -> "PointSet":
        return PointSet(tuple(sorted(self.points[i] for i in keep)))


def _require_nonempty(ps: PointSet) -> None:
    if not ps.points:
        raise EmptyPointSetError("point set is empty")


def pareto_filter(ps: PointSet, sense: str = "min") -> PointSet:
    """Keep the points without a strict Pareto dominator, sorted
    lexicographically. Duplicates of a retained value are all retained."""
    _require_nonempty(ps)
    return ps._sorted(pareto_front(ps.points, sense))


def cone_filter(ps: PointSet, cone: ConeMatrix, sense: str = "min") -> PointSet:
    """Keep the points not cone-dominated by any other point.

    Dominance is evaluated directly from the definition: u dominates y
    (minimization) iff A(y - u) >= 0 and u != y. This is the oracle side of
    the non-dominance mapping theorem; it never transforms the points.
    """
    _require_nonempty(ps)
    check_sense(sense)

    def dominates(u, y):
        if sense == "max":
            u, y = y, u
        return u != y and min(cone.apply(tuple(map(sub, y, u)))) >= 0

    keep = [
        i
        for i, p in enumerate(ps.points)
        if not any(dominates(q, p) for q in ps.points)
    ]
    return ps._sorted(keep)


def mapping_check(ps: PointSet, cone: ConeMatrix) -> bool:
    """Verify the non-dominance mapping on one point set.

    Compares, as multisets of values, the transformed cone-non-dominated
    points with the Pareto-non-dominated points of the transformed set. The
    two sides are computed independently and must agree whenever the cone
    matrix has full rank (true for the tail matrix by construction).
    """
    _require_nonempty(ps)
    left = sorted(cone.apply(p) for p in cone_filter(ps, cone).points)
    transformed = PointSet(tuple(cone.apply(p) for p in ps.points))
    right = sorted(pareto_filter(transformed).points)
    return left == right


def is_supported(y: Sequence[int], ps: PointSet, sense: str = "min") -> bool:
    """Whether :func:`supporting_weights` finds weights for y. Requires y to
    be a Pareto-non-dominated point of ps (precondition error otherwise)."""
    y = tuple(y)
    if y not in pareto_filter(ps, sense).points:
        raise OrdparetoError(f"{y} is not non-dominated in the point set")
    return supporting_weights(y, ps, sense) is not None


def supporting_weights(
    y: Sequence[int], ps: PointSet, sense: str = "min"
) -> tuple[Fraction, ...] | None:
    """A strictly positive weight vector under which y attains the
    weighted-sum optimum over the point set, or None if no such weights
    exist.

    Decided exactly: maximize t subject to lambda_i >= t, sum(lambda) = 1
    and lambda.(y - y') <= 0 for every y' in the set (reversed for
    maximization); weights exist iff the optimum t is positive.
    """
    _require_nonempty(ps)
    check_sense(sense)
    y = tuple(y)
    k = len(y)
    if k != len(ps.points[0]):
        raise DimensionMismatchError(f"{y} does not match the points' dimension")
    # Variables: lambda_1..lambda_k, t; all >= 0 in the LP, strict
    # positivity of lambda is captured by t > 0 at the optimum.
    c = [0] * k + [1]
    rows: list[list[int]] = []
    b: list[int] = []
    for other in ps.points:
        if tuple(other) == y:
            continue
        if sense == "max":
            rows.append([o - a for a, o in zip(y, other)] + [0])
        else:
            rows.append([a - o for a, o in zip(y, other)] + [0])
        b.append(0)
    for i in range(k):
        row = [0] * (k + 1)
        row[i] = -1
        row[k] = 1
        rows.append(row)  # t - lambda_i <= 0
        b.append(0)
    ones = [1] * k + [0]
    rows.append(ones)
    b.append(1)
    rows.append([-v for v in ones])
    b.append(-1)
    # Cap t so the LP stays bounded.
    rows.append([0] * k + [1])
    b.append(1)

    status, objective, x = solve_lp(c, rows, b)
    if status != OPTIMAL or objective <= 0:
        return None
    return tuple(x[:k])
