import random
from fractions import Fraction
from itertools import combinations

from ordpareto.nondominance import PointSet, supporting_weights
from ordpareto.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp

F = Fraction


class TestSolveLp:
    def test_optimal_with_fraction_data(self):
        # max x/2 + y/3  s.t.  x + y <= 4, (2/3) x <= 2, -x - y <= -1/2;
        # the last row has a negative rhs, so phase 1 runs.
        status, objective, x = solve_lp(
            [F(1, 2), F(1, 3)],
            [[1, 1], [F(2, 3), 0], [-1, -1]],
            [4, 2, F(-1, 2)],
        )
        assert (status, objective, x) == (OPTIMAL, F(11, 6), [F(3), F(1)])
        assert type(objective) is Fraction
        assert all(type(v) is Fraction for v in x)

    def test_infeasible(self):
        # x <= 1 and x >= 2
        assert solve_lp([1], [[1], [-1]], [1, -2]) == (INFEASIBLE, None, None)

    def test_unbounded(self):
        # max x  s.t.  y - x <= 1
        assert solve_lp([1, 0], [[-1, 1]], [1]) == (UNBOUNDED, None, None)

    def test_redundant_equality_pair(self):
        # x + y = 2 written as two inequalities. Phase 1 pivots x into the
        # first row (a ratio tie broken by the smaller basis index), which
        # leaves the second row's artificial basic at zero; it is driven
        # out on a negative entry before phase 2.
        status, objective, x = solve_lp(
            [1, 2], [[1, 1], [-1, -1], [1, 0]], [2, -2, 5]
        )
        assert (status, objective, x) == (OPTIMAL, F(4), [F(0), F(2)])

    def test_no_constraints(self):
        assert solve_lp([0, -1], [], []) == (OPTIMAL, F(0), [F(0), F(0)])
        assert solve_lp([1], [], []) == (UNBOUNDED, None, None)

    def test_random_boxed_lps_against_vertex_enumeration(self):
        # An independent exact answer: a bounded LP over x >= 0 attains its
        # optimum at a vertex, the intersection of n tight constraints.
        # Half of the LPs hold an equality pair, so artificials that are
        # still basic at zero after phase 1 are common.
        rng = random.Random(7)

        def rnd():
            return F(rng.randint(-6, 6), rng.randint(1, 4))

        statuses = set()
        for _ in range(150):
            n = rng.choice((2, 3))
            m = rng.randint(1, 4)
            c = [rnd() for _ in range(n)]
            rows = [[rnd() for _ in range(n)] for _ in range(m)]
            b = [rnd() for _ in range(m)]
            if rng.random() < 0.5:  # an equality as a redundant pair
                rows += [rows[0], [-v for v in rows[0]]]
                b += [b[0], -b[0]]
            rows += [[1] * n]  # box: sum(x) <= 10
            b += [10]
            status, objective, x = solve_lp(c, rows, b)
            statuses.add(status)
            best = _best_vertex(c, rows, b)
            if best is None:
                assert status == INFEASIBLE
                continue
            assert status == OPTIMAL and objective == best
            assert all(v >= 0 for v in x)
            assert all(
                sum(a * v for a, v in zip(row, x)) <= rhs
                for row, rhs in zip(rows, b)
            )
            assert sum(ci * v for ci, v in zip(c, x)) == objective
        assert statuses == {OPTIMAL, INFEASIBLE}


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
