"""Weighted-sum scalarization and ordinal weight space decomposition.

Two weight conventions coexist: lambda weights act on tail vectors, mu
weights act directly on counting vectors. The two are linked by prefix
summation plus a positive normalization, so their argmin sets coincide.
All arithmetic is in exact rationals; cell boundaries are measure zero and
would be misclassified by floats. For K in {2, 3} the decomposition's cells
decide which values are supported (those whose cell meets the open
simplex); for other K the LP of ``supporting_weights`` decides.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul, sub

from ordpareto.core import OrdparetoError, scale_to_ints
from ordpareto.nondominance import PointSet, _require_nonempty, supporting_weights


def _as_fractions(weights: Sequence, name: str) -> tuple[Fraction, ...]:
    # Exact input only, as for edge weights: the float 0.1 is not 1/10.
    weights = tuple(weights)
    if not all(isinstance(w, (int, Fraction)) for w in weights):
        raise OrdparetoError(f"{name} weights must be ints or Fractions")
    if any(w <= 0 for w in weights):
        raise OrdparetoError(f"{name} weights must be strictly positive")
    return tuple(map(Fraction, weights))


def check_lambda(weights: Sequence) -> tuple[Fraction, ...]:
    """Validate a lambda vector: strictly positive, summing to one."""
    w = _as_fractions(weights, "lambda")
    if sum(w) != 1:
        raise OrdparetoError("lambda weights must sum to 1")
    return w


def check_mu(weights: Sequence) -> tuple[Fraction, ...]:
    """Validate a mu vector: strictly increasing, positive, summing to one."""
    w = _as_fractions(weights, "mu")
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
    _require_nonempty(ps)
    if len(lam) != len(ps.points[0]):
        raise OrdparetoError(f"{len(lam)} weights for points of dimension {len(ps.points[0])}")
    # Scaled to ints by the lcm of the weights' denominators, a positive
    # constant, which keeps the argmins.
    scale, ints = scale_to_ints(lam, "lambda")
    values = [sum(map(mul, ints, point)) for point in ps.points]
    best = min(values)
    keep = [i for i, v in enumerate(values) if v == best]
    return Fraction(best, scale), ps._sorted(keep)


def _prefix_normalize(lam: Sequence) -> tuple[Fraction, ...]:
    # lambda_to_mu without validation; also maps boundary weights, and
    # int numerators over a common denominator, which cancels. The callers
    # pass nonnegative weights with a positive sum, so denom > 0.
    K = len(lam)
    denom = sum((K - j) * lam[j] for j in range(K))
    return tuple(Fraction(p, denom) for p in accumulate(lam))


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
    # The differences of the prefix sums mu, over their total mu[-1].
    return tuple(d / mu[-1] for d in map(sub, mu, (0,) + mu))


class WeightCell(
    namedtuple("WeightCell", "value normals vertices mu_vertices", defaults=((), ()))
):
    """The weights for which one non-dominated value is weighted-sum optimal.

    ``normals`` holds one int vector d = y - y' per other value y'; the
    closed cell is the set of simplex weights with d . lambda <= 0 for each.
    For K <= 3 ``vertices`` lists the cell's corner points projected to
    (lambda_1,) or (lambda_1, lambda_2), counterclockwise from the least
    (lambda_1, lambda_2); ascending for a segment, and so for every K = 2
    cell. ``mu_vertices`` are their full-length images under
    :func:`lambda_to_mu`.
    """

    __slots__ = ()


def _cell_corners(
    normals: Sequence[tuple[int, ...]], K: int
) -> list[tuple[int, ...]]:
    # Work in (x, y) = (lambda_1, lambda_2), lambda_K = 1 - x - y. For K = 2
    # the simplex is the triangle's bottom edge y = 0, and b = 0 as d[1] is
    # d[-1]. Each d.lambda <= 0 becomes a line a x + b y <= c. Clip the
    # simplex by each in turn (Sutherland-Hodgman), nearest values (least
    # L1 norm of d) first: they bound the cell most often, so fewer clips
    # cut. The corners, reduced integer homogeneous (x, y, w) with w > 0, do
    # not depend on that order; clipping keeps them counterclockwise, and
    # they are returned from the least (x, y), so a segment, and with it
    # every K = 2 cell, ascends.
    near = sorted(normals, key=lambda d: sum(map(abs, d)))
    lines = [(d[0] - d[-1], d[1] - d[-1], -d[-1]) for d in near]
    poly = [(0, 0, 1), (1, 0, 1), (0, 1, 1)][:K]
    for a, b, c in lines:
        f = [a * x + b * y - c * w for x, y, w in poly]
        if max(f) <= 0:
            continue
        clipped = []
        for i, q in enumerate(poly):
            if f[i - 1] * f[i] < 0:  # edge poly[i-1] -> q crosses the line
                v = [f[i] * s - f[i - 1] * t for s, t in zip(poly[i - 1], q)]
                g = gcd(*v) if v[2] > 0 else -gcd(*v)
                clipped.append((v[0] // g, v[1] // g, v[2] // g))
            if f[i] <= 0:
                clipped.append(q)
        poly = list(dict.fromkeys(clipped))  # a clipped segment repeats a corner
        if not poly:
            return []
    i = 0  # the least (x / w, y / w), compared over a common denominator
    for j, (x, y, w) in enumerate(poly):
        if (x * poly[i][2], y * poly[i][2]) < (poly[i][0] * w, poly[i][1] * w):
            i = j
    poly = poly[i:] + poly[:i]
    return [(x, w) for x, _, w in poly] if K == 2 else poly


def weight_space_decomposition(ps: PointSet) -> list[WeightCell]:
    """Decompose the open weight simplex into one cell per supported value.

    ``ps`` must already be Pareto-non-dominated (tail space, minimization).
    Each cell is the exact polyhedron of weights under which its value is
    weighted-sum minimal, intersected with the simplex. For K in {2, 3}
    the nonempty cells are found outward from the simplex corners and
    enumerated by their vertices (and their mu-space images), and the
    cells decide supportedness, no LP is solved; for other K the LP of
    :func:`supporting_weights` decides it and only the normals are
    returned.
    """
    _require_nonempty(ps)
    K = len(ps.points[0])
    values = sorted(set(ps.points))
    reached: dict = {}  # value -> (normals, its cell's corners)
    images: dict = {}  # corner -> (lifted, vertex, mu image), once: cells share corners
    # For K <= 3, walk out from the simplex corners: a value least at a corner
    # found has a cell holding it, which is clipped and its corners visited.
    # The cells tile the connected simplex, so corners link every nonempty
    # cell, however thin, to a simplex corner: an unreached cell is empty.
    todo = {2: [(0, 1), (1, 1)], 3: [(0, 0, 1), (1, 0, 1), (0, 1, 1)]}.get(K, [])
    rows = [y + (0,) * (3 - K) for y in values] if todo else []  # K = 2 ends in 0
    while todo:
        c = todo.pop()
        if c in images:
            continue
        lam = c[:-1] + (c[-1] - sum(c[:-1]),)  # int numerators over w
        # Boundary corners too have mu images: the mu map is continuous.
        images[c] = lam, tuple(Fraction(v, c[-1]) for v in c[:-1]), _prefix_normalize(lam)
        l1, l2, l3 = lam + (0,) * (3 - K)
        sums = [l1 * p + l2 * q + l3 * r for p, q, r in rows]
        least = min(sums)
        for y, s in zip(values, sums):
            if s == least and y not in reached:
                normals = tuple(tuple(map(sub, y, other)) for other in values if other != y)
                reached[y] = normals, _cell_corners(normals, K)
                todo += reached[y][1]
    cells: list[WeightCell] = []
    for y in values:
        vertices = mu_vertices = ()
        if K in (2, 3):
            if y not in reached:
                continue
            normals, corners = reached[y]
            lifted, vertices, mu_vertices = zip(*map(images.__getitem__, corners))
            # The centroid of the corners lies in the cell's relative
            # interior, so y is supported iff it is strictly positive, that
            # is iff each lambda_i (>= 0 on the simplex) is positive at a corner.
            if not all(map(any, zip(*lifted))):
                continue
        else:
            normals = tuple(tuple(map(sub, y, other)) for other in values if other != y)
            if supporting_weights(y, ps) is None:
                continue
        cells.append(WeightCell(tuple(y), normals, vertices, mu_vertices))
    return cells
