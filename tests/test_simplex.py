import random
from fractions import Fraction
from itertools import combinations

import pytest

from ordpareto.core import OrdparetoError
from ordpareto.nondominance import PointSet, supporting_weights
from ordpareto.simplex import OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


class TestSolveLp:
    def test_optimal_with_fraction_data(self):
        # max x/2 + y/3  s.t.  x + y <= 4, (2/3) x <= 2, y <= 5/2
        status, objective, x = solve_lp(
            [F(1, 2), F(1, 3)],
            [[1, 1], [F(2, 3), 0], [0, 1]],
            [4, 2, F(5, 2)],
        )
        assert (status, objective, x) == (OPTIMAL, F(11, 6), [F(3), F(1)])
        assert type(objective) is Fraction
        assert all(type(v) is Fraction for v in x)

    def test_negative_rhs_is_refused(self):
        # x <= 1 and x >= 2: the origin is not feasible
        with pytest.raises(OrdparetoError, match="b >= 0"):
            solve_lp([1], [[1], [-1]], [1, -2])

    def test_unbounded(self):
        # max x  s.t.  y - x <= 1
        assert solve_lp([1, 0], [[-1, 1]], [1]) == (UNBOUNDED, None, None)

    def test_equality_pair_through_the_origin(self):
        # x = y written as two inequalities with zero rhs, so the first
        # pivots are degenerate; then x + y <= 2.
        status, objective, x = solve_lp(
            [1, 2], [[1, -1], [-1, 1], [1, 1]], [0, 0, 2]
        )
        assert (status, objective, x) == (OPTIMAL, F(3), [F(1), F(1)])

    def test_ratio_tie_leaves_by_the_least_basic_index(self):
        # max y + 3z  s.t.  2x + 2y <= 2, y + z <= 1. y enters first, and both
        # rows tie at ratio 1: Bland's rule pivots out slack 3, not slack 4,
        # and ends at (1, 0, 1). The optimum 3 is also attained at (0, 0, 1).
        status, objective, x = solve_lp([0, 1, 3], [[2, 2, 0], [0, 1, 1]], [2, 1])
        assert (status, objective, x) == (OPTIMAL, F(3), [F(1), F(0), F(1)])

    def test_no_constraints(self):
        assert solve_lp([0, -1], [], []) == (OPTIMAL, F(0), [F(0), F(0)])
        assert solve_lp([1], [], []) == (UNBOUNDED, None, None)

    def test_random_boxed_lps_against_vertex_enumeration(self):
        # An independent exact answer: a bounded LP over x >= 0 attains its
        # optimum at a vertex, the intersection of n tight constraints.
        # Half of the LPs hold an equality pair through the origin, and one
        # rhs in seven is zero, so degenerate pivots are common.
        rng = random.Random(7)

        def rnd(lo):
            return F(rng.randint(lo, 6), rng.randint(1, 4))

        for _ in range(150):
            n = rng.choice((2, 3))
            m = rng.randint(1, 4)
            c = [rnd(-6) for _ in range(n)]
            rows = [[rnd(-6) for _ in range(n)] for _ in range(m)]
            b = [rnd(0) for _ in range(m)]
            if rng.random() < 0.5:  # an equality as a redundant pair
                rows += [rows[0], [-v for v in rows[0]]]
                b += [0, 0]
            rows += [[1] * n]  # box: sum(x) <= 10
            b += [10]
            status, objective, x = solve_lp(c, rows, b)
            assert status == OPTIMAL
            assert objective == _best_vertex(c, rows, b)
            assert all(v >= 0 for v in x)
            assert all(
                sum(a * v for a, v in zip(row, x)) <= rhs
                for row, rhs in zip(rows, b)
            )
            assert sum(ci * v for ci, v in zip(c, x)) == objective


def _best_vertex(c, rows, b):
    n = len(c)
    planes = [(list(map(F, r)), F(v)) for r, v in zip(rows, b)]
    planes += [([F(-(i == j)) for j in range(n)], F(0)) for i in range(n)]
    best = None
    for chosen in combinations(planes, n):
        x = _solve_square([p[0] for p in chosen], [p[1] for p in chosen])
        if x is None or any(
            sum(a * v for a, v in zip(row, x)) > rhs for row, rhs in planes
        ):
            continue
        value = sum(ci * v for ci, v in zip(c, x))
        best = value if best is None else max(best, value)
    return best


def _solve_square(a, b):
    # Gauss-Jordan elimination over fractions; None if singular.
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _supported_k2(y, points):
    """Exact K=2 test: the lambda-interval on which y is weighted-sum
    optimal, lambda on the first coordinate, meets the open interval (0, 1).
    """
    lo, hi = F(0), F(1)
    for other in points:
        # lambda (y1 - o1) + (1 - lambda)(y2 - o2) <= 0
        a = (y[0] - other[0]) - (y[1] - other[1])
        rhs = other[1] - y[1]
        if a > 0:
            hi = min(hi, F(rhs, a))
        elif a < 0:
            lo = max(lo, F(rhs, a))
        elif rhs < 0:
            return False
    return lo <= hi and lo < 1 and hi > 0


class TestSupportingWeightsK2:
    def test_against_interval_test_with_large_coordinates(self):
        rng = random.Random(2022)
        big = 10**12
        checks = supported = 0
        for trial in range(120):
            n = rng.randint(2, 12)
            if trial % 2:
                pts = [
                    (rng.randint(0, big), rng.randint(0, big)) for _ in range(n)
                ]
            else:  # near a front, so unsupported points are common
                xs = sorted(rng.sample(range(big), n))
                pts = [
                    (x, big - x + rng.randint(-big // 50, big // 50)) for x in xs
                ]
            ps = PointSet(tuple(pts))
            for y in pts:
                lam = supporting_weights(y, ps)
                assert (lam is not None) == _supported_k2(y, pts), (y, pts)
                checks += 1
                if lam is not None:
                    supported += 1
                    assert all(w > 0 for w in lam) and sum(lam) == 1
                    value = lam[0] * y[0] + lam[1] * y[1]
                    assert all(
                        value <= lam[0] * p[0] + lam[1] * p[1] for p in pts
                    )
        assert 0 < supported < checks


def _supported_k3(y, points):
    """Exact K=3 test: y is supported iff its cell, enumerated by its
    vertices in the closed lambda-triangle, meets the open triangle, that is
    iff each coordinate is positive at some vertex (the vertices' centroid
    then has all three positive).

    In (x, z) = (lambda_1, lambda_2), with lambda_3 = 1 - x - z, the cell
    is cut out by the lines a x + b z <= c below; each vertex is where two
    of them meet, by Cramer's rule.
    """
    lines = [
        (F(d0 - d2), F(d1 - d2), F(-d2))
        for d0, d1, d2 in ((a - b for a, b in zip(y, o)) for o in points)
    ]
    lines += [(F(-1), F(0), F(0)), (F(0), F(-1), F(0)), (F(1), F(1), F(1))]
    vertices = []
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x, z = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
        if all(a * x + b * z <= c for a, b, c in lines):
            vertices.append((x, z, 1 - x - z))
    return all(any(v[i] > 0 for v in vertices) for i in range(3))


class TestSupportingWeightsK3:
    def test_against_cell_vertices_near_a_front(self):
        rng = random.Random(2026)
        big = 10**6
        checks = supported = 0
        for _ in range(60):
            n = rng.randint(3, 9)
            pts = []
            for _ in range(n):
                a, b = sorted(rng.sample(range(big), 2))
                noise = rng.randint(-big // 20, big // 20)
                pts.append((a, b - a, big - b + noise))
            ps = PointSet(tuple(pts))
            for y in pts:
                lam = supporting_weights(y, ps)
                assert (lam is not None) == _supported_k3(y, pts), (y, pts)
                checks += 1
                if lam is not None:
                    supported += 1
                    assert all(w > 0 for w in lam) and sum(lam) == 1
                    value = sum(l * v for l, v in zip(lam, y))
                    assert all(
                        value <= sum(l * v for l, v in zip(lam, p)) for p in pts
                    )
        assert 0 < supported < checks
