"""Weighted-sum scalarization and ordinal weight space decomposition.

Two weight conventions coexist: lambda weights act on tail vectors, mu
weights act directly on counting vectors. The two are linked by prefix
summation plus a positive normalization, so their argmin sets coincide.
All arithmetic is in exact rationals; cell boundaries are measure zero and
would be misclassified by floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from operator import mul
from typing import Sequence

from ordpareto.core import DimensionMismatchError, OrdparetoError, scale_to_ints
from ordpareto.nondominance import PointSet, supporting_weights


def _as_fractions(weights: Sequence, name: str) -> tuple[Fraction, ...]:
    # Exact input only, as for edge weights: the float 0.1 is not 1/10.
    weights = tuple(weights)
    if not all(isinstance(w, (int, Fraction)) for w in weights):
        raise OrdparetoError(f"{name} weights must be ints or Fractions")
    return tuple(map(Fraction, weights))


def check_lambda(weights: Sequence) -> tuple[Fraction, ...]:
    """Validate a lambda vector: strictly positive, summing to one."""
    w = _as_fractions(weights, "lambda")
    if any(x <= 0 for x in w):
        raise OrdparetoError("lambda weights must be strictly positive")
    if sum(w) != 1:
        raise OrdparetoError("lambda weights must sum to 1")
    return w


def check_mu(weights: Sequence) -> tuple[Fraction, ...]:
    """Validate a mu vector: strictly increasing, positive, summing to one."""
    w = _as_fractions(weights, "mu")
    if any(x <= 0 for x in w):
        raise OrdparetoError("mu weights must be strictly positive")
    if any(a >= b for a, b in zip(w, w[1:])):
        raise OrdparetoError("mu weights must be strictly increasing")
    if sum(w) != 1:
        raise OrdparetoError("mu weights must sum to 1")
    return w


def weighted_sum_solve(
    ps: PointSet, weights: Sequence
) -> tuple[Fraction, PointSet]:
    """Exact minimum of the weighted sum over a point set and all argmins."""
    lam = check_lambda(weights)
    if not ps.points:
        raise OrdparetoError("point set is empty")
    if len(lam) != len(ps.points[0]):
        raise DimensionMismatchError(
            f"{len(lam)} weights for points of dimension {len(ps.points[0])}"
        )
    # Scaled to ints by the lcm of the weights' denominators, a positive
    # constant, which keeps the argmins.
    scale, ints = scale_to_ints(lam)
    values = [sum(map(mul, ints, point)) for point in ps.points]
    best = min(values)
    keep = [i for i, v in enumerate(values) if v == best]
    return Fraction(best, scale), ps._sorted(keep)


def _prefix_normalize(lam: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # lambda_to_mu without validation; also maps boundary weights.
    K = len(lam)
    denom = sum((K - j) * lam[j] for j in range(K))
    if denom == 0:
        raise OrdparetoError("degenerate weight vector")
    acc = Fraction(0)
    out = []
    for l in lam:
        acc += l
        out.append(acc / denom)
    return tuple(out)


def lambda_to_mu(weights: Sequence) -> tuple[Fraction, ...]:
    """Convert tail-space weights to normalized counting-space weights.

    mu_i is the prefix sum of lambda up to i, divided by
    sum_j (K - j + 1) * lambda_j so the result sums to one. The weighted
    sums under mu (over counting vectors) and lambda (over tails) differ by
    this positive factor only, so argmin sets coincide.
    """
    return _prefix_normalize(check_lambda(weights))


def mu_to_lambda(weights: Sequence) -> tuple[Fraction, ...]:
    """Convert counting-space weights back to normalized tail-space weights."""
    mu = check_mu(weights)
    lam = [mu[0]] + [b - a for a, b in zip(mu, mu[1:])]
    total = sum(lam)
    return tuple(l / total for l in lam)


@dataclass(frozen=True)
class Halfspace:
    """Inequality coeffs . lambda <= rhs over the full K-dimensional weight
    vector (no simplex substitution applied)."""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    def contains(self, lam: Sequence[Fraction]) -> bool:
        return sum(c * l for c, l in zip(self.coeffs, lam)) <= self.rhs


@dataclass(frozen=True)
class WeightCell:
    """The weights for which one non-dominated value is weighted-sum optimal.

    ``halfspaces`` describe the closed cell inside the weight simplex; for
    K <= 3 ``vertices`` lists the cell's corner points projected to
    (lambda_1,) or (lambda_1, lambda_2), in convex order. ``mu_vertices``
    are their full-length images under :func:`lambda_to_mu`.
    """

    value: tuple[int, ...]
    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[tuple[Fraction, ...], ...] = ()
    mu_vertices: tuple[tuple[Fraction, ...], ...] = ()

    def contains(self, lam: Sequence) -> bool:
        lam = check_lambda(lam)
        return all(h.contains(lam) for h in self.halfspaces)


def _lift(projected: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(projected) + (1 - sum(projected),)


def _cell_vertices_k2(
    normals: Sequence[tuple[int, ...]],
) -> list[tuple[Fraction, ...]]:
    # One free coordinate x = lambda_1 in [0, 1]; each d.(x, 1-x) <= 0 is
    # (d0 - d1) x <= -d1. Intersect the intervals, keeping each bound as an
    # integer pair (numerator, denominator > 0).
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for d0, d1 in normals:
        a, b = d0 - d1, -d1
        if a > 0:
            if b * hi_d < hi_n * a:
                hi_n, hi_d = b, a
        elif a < 0:
            if b * lo_d < lo_n * a:  # b/a > lo, as a < 0
                lo_n, lo_d = -b, -a
        elif b < 0:
            return []
    if lo_n * hi_d > hi_n * lo_d:
        return []
    lo, hi = Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)
    return [(lo,)] if lo == hi else [(lo,), (hi,)]


def _cell_vertices_k3(
    normals: Sequence[tuple[int, ...]],
) -> list[tuple[Fraction, ...]]:
    # Work in (x, y) = (lambda_1, lambda_2), lambda_3 = 1 - x - y. Each
    # d.lambda <= 0 becomes a line a x + b y <= c; the simplex contributes
    # x >= 0, y >= 0, x + y <= 1. Enumerate pairwise line intersections
    # (xn / det, yn / det) with det > 0 and keep the feasible ones, all in
    # integers; only the survivors become fractions.
    lines = [(d0 - d2, d1 - d2, -d2) for d0, d1, d2 in normals]
    lines += [(-1, 0, 0), (0, -1, 0), (1, 1, 1)]
    vertices: list[tuple[Fraction, Fraction]] = []
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        xn = c1 * b2 - c2 * b1
        yn = a1 * c2 - a2 * c1
        if det < 0:
            det, xn, yn = -det, -xn, -yn
        if all(a * xn + b * yn <= c * det for a, b, c in lines):
            v = (Fraction(xn, det), Fraction(yn, det))
            if v not in vertices:
                vertices.append(v)
    if len(vertices) <= 2:
        return [tuple(v) for v in vertices]
    # Order counterclockwise around the centroid; exact comparisons only
    # (half-plane split, then cross products), no trig.
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)

    def half(v):
        dx, dy = v[0] - cx, v[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(v, w):
        if half(v) != half(w):
            return half(v) - half(w)
        c = (v[0] - cx) * (w[1] - cy) - (v[1] - cy) * (w[0] - cx)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    vertices.sort(key=cmp_to_key(cmp))
    return [tuple(v) for v in vertices]


def weight_space_decomposition(ps: PointSet) -> list[WeightCell]:
    """Decompose the open weight simplex into one cell per supported value.

    ``ps`` must already be Pareto-non-dominated (tail space, minimization).
    Each cell is the exact polyhedron of weights under which its value is
    weighted-sum minimal, intersected with the simplex. For K in {2, 3} the
    cell's vertices (and their mu-space images) are enumerated; for larger K
    only the halfspace description is returned.
    """
    if not ps.points:
        raise OrdparetoError("point set is empty")
    K = len(ps.points[0])
    values = sorted(set(ps.points))
    cells: list[WeightCell] = []
    for y in values:
        if supporting_weights(y, ps) is None:
            continue
        normals = [
            tuple(a - b for a, b in zip(y, other)) for other in values if other != y
        ]
        halfspaces = tuple(
            Halfspace(tuple(Fraction(a) for a in d), Fraction(0)) for d in normals
        )
        vertices: tuple = ()
        mu_vertices: tuple = ()
        if K in (2, 3):
            enum = _cell_vertices_k2 if K == 2 else _cell_vertices_k3
            vertices = tuple(enum(normals))
            # Boundary vertices included: the mu map extends continuously.
            mu_vertices = tuple(_prefix_normalize(_lift(v)) for v in vertices)
        cells.append(WeightCell(tuple(y), halfspaces, vertices, mu_vertices))
    return cells

