"""Non-dominated subsets of finite point sets under Pareto, tail and head cones.

The filters work on :class:`PointSet`, a list of equal-length integer
vectors, and all run on :func:`ordpareto.core.pareto_front`, the one Pareto
filter for finite sets: :func:`pareto_filter` and the precondition of
:func:`is_supported` on the points, :func:`cone_filter` on their images
under the cone matrix (the paper's non-dominance mapping theorem). It
tests dominance on packed per-component ranks with the path search's
guarded subtraction, so the package has one Pareto test. The
pairwise definition of cone dominance lives in :mod:`ordpareto.oracle`,
whose ``mapping_check`` compares it with this module. Duplicated values are
all retained by the filters; collapsing value-equal *solutions* is the
solvers' job.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from ordpareto.core import ConeMatrix, OrdparetoError, check_sense, pareto_front
from ordpareto.simplex import OPTIMAL, solve_lp

class PointSet(namedtuple("PointSet", "points")):
    """A finite list of equal-length integer vectors. Points carry no ids:
    equal points are equal values, so a filter sorts its result by point."""

    __slots__ = ()

    def __new__(cls, points: Sequence[Sequence[int]]):
        points = tuple(map(tuple, points))
        if len({len(p) for p in points}) > 1:
            raise OrdparetoError("points have differing lengths")
        return super().__new__(cls, points)

    def _sorted(self, keep: list[int]) -> "PointSet":
        return PointSet(tuple(sorted(self.points[i] for i in keep)))


def _require_nonempty(ps: PointSet) -> None:
    if not ps.points:
        raise OrdparetoError("point set is empty")


def pareto_filter(ps: PointSet, sense: str = "min") -> PointSet:
    """Keep the points without a strict Pareto dominator, sorted
    lexicographically. Duplicates of a retained value are all retained."""
    _require_nonempty(ps)
    return ps._sorted(pareto_front(ps.points, sense))


def cone_filter(ps: PointSet, cone: ConeMatrix, sense: str = "min") -> PointSet:
    """Keep the points not cone-dominated by any other point, sorted
    lexicographically; duplicates share one fate.

    Through the non-dominance mapping theorem: A is invertible, so u
    cone-dominates y (A(y - u) >= 0 and u != y, for minimization) exactly
    when Au Pareto-dominates Ay. One image per point and one sweep of
    :func:`ordpareto.core.pareto_front` replace the pairwise test.
    """
    _require_nonempty(ps)
    return ps._sorted(pareto_front([cone.apply(p) for p in ps.points], sense))


def is_supported(y: Sequence[int], ps: PointSet, sense: str = "min") -> bool:
    """Whether :func:`supporting_weights` finds weights for y. Requires y to
    be a Pareto-non-dominated point of ps (precondition error otherwise)."""
    y = tuple(y)
    if y not in pareto_filter(ps, sense).points:
        raise OrdparetoError("the point is not non-dominated in the point set")
    return supporting_weights(y, ps, sense) is not None


def supporting_weights(
    y: Sequence[int], ps: PointSet, sense: str = "min"
) -> tuple[Fraction, ...] | None:
    """A strictly positive weight vector under which y attains the
    weighted-sum optimum over the point set, or None if no such weights
    exist.

    Decided exactly: maximize t subject to lambda_i >= t, sum(lambda) <= 1
    and lambda.(y - y') <= 0 for every y' in the set (reversed for
    maximization); weights exist iff the optimum t is positive. The origin
    is feasible, and an optimum with t > 0 has sum(lambda) = 1, since
    scaling lambda and t by 1 / sum(lambda) keeps every row and raises t.
    """
    _require_nonempty(ps)
    check_sense(sense)
    y = tuple(y)
    k, n = len(y), len(ps.points[0])
    if k != n:
        raise OrdparetoError(f"point of dimension {k}, points of dimension {n}")
    # Variables: lambda_1..lambda_k, t; all >= 0 in the LP, strict
    # positivity of lambda is captured by t > 0 at the optimum.
    sign = -1 if sense == "max" else 1
    rows = [  # lambda.(y - y') <= 0, reversed for maximization
        [sign * (a - o) for a, o in zip(y, other)] + [0]
        for other in ps.points
        if other != y
    ]
    # t <= lambda_i for each i; sum(lambda) <= 1 keeps the LP bounded.
    rows += [[-1 if j == i else 0 for j in range(k)] + [1] for i in range(k)]
    rows.append([1] * k + [0])
    b = [0] * (len(rows) - 1) + [1]
    status, objective, x = solve_lp([0] * k + [1], rows, b)
    if status != OPTIMAL or objective <= 0:
        return None
    return tuple(x[:k])
