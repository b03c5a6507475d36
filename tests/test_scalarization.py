import contextlib
import io
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from operator import mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordpareto import cli, scalarization
from ordpareto.core import OrdparetoError, tail_transform
from ordpareto.nondominance import (
    PointSet,
    pareto_filter,
    supporting_weights,
)
from ordpareto.scalarization import (
    check_lambda,
    check_mu,
    lambda_to_mu,
    mu_to_lambda,
    weight_space_decomposition,
    weighted_sum_solve,
)

ROUTES_TAILS = PointSet(((2, 1, 1), (2, 2, 0), (3, 1, 0)))


def contains(cell, lam) -> bool:
    # Whether lam satisfies d . lam <= 0 for every normal d of the cell.
    return all(sum(map(mul, d, lam)) <= 0 for d in cell.normals)


def random_lambda(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    raw = [Fraction(rng.randint(1, 20)) for _ in range(k)]
    total = sum(raw)
    return tuple(x / total for x in raw)


class TestWeightedSum:
    def test_uniform_weights_triple_tie(self):
        value, argmin = weighted_sum_solve(
            ROUTES_TAILS, [Fraction(1, 3)] * 3
        )
        assert value == Fraction(4, 3)
        assert set(argmin.points) == {(2, 1, 1), (2, 2, 0), (3, 1, 0)}

    def test_skewed_weights(self):
        lam = [Fraction(98, 100), Fraction(1, 100), Fraction(1, 100)]
        value, argmin = weighted_sum_solve(ROUTES_TAILS, lam)
        assert value == Fraction(99, 50)
        assert set(argmin.points) == {(2, 1, 1), (2, 2, 0)}

    def test_singleton(self):
        value, argmin = weighted_sum_solve(
            PointSet(((4, 2),)), [Fraction(1, 2)] * 2
        )
        assert value == Fraction(3)
        assert argmin.points == ((4, 2),)

    def test_empty_point_set(self):
        with pytest.raises(OrdparetoError, match="^point set is empty$"):
            weighted_sum_solve(PointSet(()), [Fraction(1, 2)] * 2)

    def test_argmins_are_efficient(self):
        rng = random.Random(13)
        for _ in range(50):
            k = rng.randint(1, 4)
            pts = tuple(
                tuple(rng.randint(0, 15) for _ in range(k))
                for _ in range(rng.randint(1, 15))
            )
            ps = PointSet(pts)
            _, argmin = weighted_sum_solve(ps, random_lambda(rng, k))
            assert set(argmin.points) <= set(pareto_filter(ps).points)


class TestWeightConversion:
    def test_pinned_uniform(self):
        mu = lambda_to_mu([Fraction(1, 3)] * 3)
        assert mu == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        assert mu_to_lambda(mu) == (Fraction(1, 3),) * 3

    def test_k1(self):
        assert lambda_to_mu([Fraction(1)]) == (Fraction(1),)
        assert mu_to_lambda([Fraction(1)]) == (Fraction(1),)

    def test_invalid_weights(self):
        with pytest.raises(OrdparetoError):
            check_lambda([Fraction(1, 2), Fraction(1, 2), Fraction(0)])
        with pytest.raises(OrdparetoError):
            check_mu([Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(OrdparetoError, match="mu weights must sum to 1"):
            mu_to_lambda((Fraction(1, 4), Fraction(1, 2)))

    @pytest.mark.parametrize("check", [check_lambda, check_mu])
    @pytest.mark.parametrize("weights", [[0.25, 0.75], ["1/4", "3/4"]])
    def test_weights_must_be_exact(self, check, weights):
        # 0.25 and 0.75 are exact binary fractions, so only the type fails.
        with pytest.raises(OrdparetoError, match="must be ints or Fractions"):
            check(weights)
        assert check([Fraction(1, 4), Fraction(3, 4)]) == (
            Fraction(1, 4), Fraction(3, 4)
        )

    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.lists(st.integers(1, 30), min_size=k, max_size=k)
        )
    )
    def test_round_trip(self, raw):
        total = sum(raw)
        lam = tuple(Fraction(x, total) for x in raw)
        mu = lambda_to_mu(lam)
        assert all(a < b for a, b in zip(mu, mu[1:]))
        assert all(m > 0 for m in mu)
        assert sum(mu) == 1
        assert mu_to_lambda(mu) == lam

    def test_argmin_invariance(self):
        # minimizing mu over countings picks the same set as lambda over tails
        rng = random.Random(31)
        for _ in range(100):
            k = rng.randint(1, 4)
            counts = [
                tuple(rng.randint(0, 8) for _ in range(k))
                for _ in range(rng.randint(1, 12))
            ]
            lam = random_lambda(rng, k)
            mu = lambda_to_mu(lam)
            tails = [tail_transform(c) for c in counts]
            lam_vals = [
                sum(w * t for w, t in zip(lam, tail)) for tail in tails
            ]
            mu_vals = [sum(w * c for w, c in zip(mu, cc)) for cc in counts]
            lam_arg = {i for i, v in enumerate(lam_vals) if v == min(lam_vals)}
            mu_arg = {i for i, v in enumerate(mu_vals) if v == min(mu_vals)}
            assert lam_arg == mu_arg


class TestWeightSpaceDecomposition:
    def test_empty_point_set(self):
        with pytest.raises(OrdparetoError, match="^point set is empty$"):
            weight_space_decomposition(PointSet(()))

    def test_routes_cells(self):
        cells = weight_space_decomposition(ROUTES_TAILS)
        assert {c.value for c in cells} == {(2, 1, 1), (2, 2, 0), (3, 1, 0)}
        # all three cells meet in exactly one common lambda vertex
        common = set(cells[0].vertices)
        for cell in cells[1:]:
            common &= set(cell.vertices)
        assert common == {(Fraction(1, 3), Fraction(1, 3))}
        for cell in cells:
            assert (
                Fraction(1, 6),
                Fraction(1, 3),
                Fraction(1, 2),
            ) in cell.mu_vertices

    def test_routes_cell_halfspaces(self):
        # derived assignment: (2,1,1) optimal iff l3 <= min(l1,l2), etc.
        cells = {c.value: c for c in weight_space_decomposition(ROUTES_TAILS)}

        def classify(lam):
            best = min(
                sum(w * t for w, t in zip(lam, tail))
                for tail in ROUTES_TAILS.points
            )
            return {
                tail
                for tail in ROUTES_TAILS.points
                if sum(w * t for w, t in zip(lam, tail)) == best
            }

        step = Fraction(1, 50)
        covered = 0
        for i in range(1, 50):
            for j in range(1, 50 - i):
                lam = (i * step, j * step, 1 - i * step - j * step)
                winners = classify(lam)
                for value, cell in cells.items():
                    if value in winners:
                        assert contains(cell, lam)
                        covered += 1
                    else:
                        assert not contains(cell, lam)
        assert covered > 0

    def test_single_point_cell_is_whole_simplex(self):
        cells = weight_space_decomposition(PointSet(((3, 1, 0),)))
        assert len(cells) == 1
        rng = random.Random(5)
        for _ in range(20):
            assert contains(cells[0], random_lambda(rng, 3))

    def test_unsupported_point_has_no_cell(self):
        ps = PointSet(((4, 1), (5, 0), (2, 2)))
        cells = weight_space_decomposition(ps)
        assert {c.value for c in cells} == {(5, 0), (2, 2)}
        # boundary between the two cells sits at lambda = (2/5, 3/5)
        boundary = (Fraction(2, 5), Fraction(3, 5))
        for cell in cells:
            assert contains(cell, boundary)

    def test_cells_match_supportedness(self):
        rng = random.Random(17)
        for _ in range(40):
            k = rng.randint(2, 3)
            pts = tuple(
                tuple(rng.randint(0, 10) for _ in range(k))
                for _ in range(rng.randint(1, 10))
            )
            ps = pareto_filter(PointSet(pts))
            unique = PointSet(tuple(dict.fromkeys(ps.points)))
            cells = {c.value for c in weight_space_decomposition(unique)}
            for y in unique.points:
                supported = supporting_weights(y, unique) is not None
                assert (y in cells) == supported

    def test_interior_points_minimize(self):
        cells = weight_space_decomposition(ROUTES_TAILS)
        rng = random.Random(23)
        for cell in cells:
            hits = 0
            while hits < 20:
                lam = random_lambda(rng, 3)
                if not contains(cell, lam):
                    continue
                hits += 1
                value = sum(w * t for w, t in zip(lam, cell.value))
                assert all(
                    value <= sum(w * t for w, t in zip(lam, other))
                    for other in ROUTES_TAILS.points
                )

    def test_grid_coverage(self):
        cells = weight_space_decomposition(ROUTES_TAILS)
        step = Fraction(1, 50)
        for i in range(1, 50):
            for j in range(1, 50 - i):
                lam = (i * step, j * step, 1 - i * step - j * step)
                assert any(contains(cell, lam) for cell in cells)

    def test_k2_decomposition(self):
        ps = PointSet(((3, 0), (0, 3)))
        cells = weight_space_decomposition(ps)
        assert {c.value for c in cells} == {(3, 0), (0, 3)}
        half = (Fraction(1, 2), Fraction(1, 2))
        assert all(contains(cell, half) for cell in cells)

    @pytest.mark.parametrize("k", [2, 3])
    def test_vertices_match_fraction_reference(self, k):
        # Corners recomputed in fractions from the cell's own normals:
        # the feasible intersections of k - 1 boundary lines, in the
        # projected coordinates (lambda_1, .., lambda_{k-1}).
        rng = random.Random(31 + k)
        for _ in range(30):
            pts = tuple(
                tuple(rng.randint(0, 30) for _ in range(k))
                for _ in range(rng.randint(1, 12))
            )
            unique = PointSet(
                tuple(dict.fromkeys(pareto_filter(PointSet(pts)).points))
            )
            for cell in weight_space_decomposition(unique):
                lines = [
                    tuple(Fraction(c - d[-1]) for c in d[:-1]) + (Fraction(-d[-1]),)
                    for d in cell.normals
                ]
                lines += [
                    tuple(Fraction(-(i == j)) for j in range(k - 1))
                    + (Fraction(0),)
                    for i in range(k - 1)
                ]
                lines.append((Fraction(1),) * k)
                corners = set()
                for chosen in combinations(lines, k - 1):
                    x = _intersection(chosen)
                    if x is not None and all(
                        sum(a * v for a, v in zip(line, x)) <= line[-1]
                        for line in lines
                    ):
                        corners.add(x)
                assert set(cell.vertices) == corners
                assert len(cell.vertices) == len(corners)
                for v, mu in zip(cell.vertices, cell.mu_vertices):
                    lam = v + (1 - sum(v),)
                    scale = sum((k - j) * lam[j] for j in range(k))
                    assert mu == tuple(
                        sum(lam[: i + 1]) / scale for i in range(k)
                    )


def _intersection(lines):
    # One line a x = c, or two lines a x + b y = c, by Cramer's rule.
    if len(lines) == 1:
        (a, c), = lines
        return None if a == 0 else (c / a,)
    (a1, b1, c1), (a2, b2, c2) = lines
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def interval_cell_vertices_k2(normals):
    """The cell corners as the library once computed them for K = 2: in the
    one free coordinate x = lambda_1 in [0, 1], each d.(x, 1-x) <= 0 is
    (d0 - d1) x <= -d1; intersect the intervals, keeping each bound as an
    integer pair (numerator, denominator > 0), and return the bounds in
    ascending order, one when they meet."""
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
    lo, hi = (lo_n, lo_d), (hi_n, hi_d)
    return [lo] if lo_n * hi_d == hi_n * lo_d else [lo, hi]


def pairwise_cell_vertices_k3(normals):
    """The cell corners from every pair of boundary lines, as the library
    once computed them: intersect each pair of lines a x + b y <= c in
    (x, y) = (lambda_1, lambda_2), the simplex's x, y >= 0, x + y <= 1
    last, keep the feasible points in the order found, and order three or
    more counterclockwise around their centroid from the angle 0."""
    lines = [(d0 - d2, d1 - d2, -d2) for d0, d1, d2 in normals]
    lines += [(-1, 0, 0), (0, -1, 0), (1, 1, 1)]
    vertices = []
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        xn, yn = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
        if det < 0:
            det, xn, yn = -det, -xn, -yn
        if all(a * xn + b * yn <= c * det for a, b, c in lines):
            v = (Fraction(xn, det), Fraction(yn, det))
            if v not in vertices:
                vertices.append(v)
    if len(vertices) <= 2:
        return vertices
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

    return sorted(vertices, key=cmp_to_key(cmp))


class TestCellsAgainstTheLP:
    """For K <= 3 the cells decide supportedness and the simplex is clipped;
    the LP, the interval intersection (K = 2) and the pairwise line scan
    (K = 3) are the independent sides."""

    def test_seeded_sets(self):
        rng = random.Random(2030)
        # Cells by K and corner count, 3 for >= 3.
        by_size = {2: dict.fromkeys(range(3), 0), 3: dict.fromkeys(range(4), 0)}
        for trial in range(2400):
            k = 2 + trial % 2
            top = rng.choice((2, 3, 5, 10, 20, 40))
            pts = [
                tuple(rng.randint(0, top) for _ in range(k))
                for _ in range(rng.randint(1, 12))
            ]
            pts += rng.choices(pts, k=rng.randint(0, 3))  # duplicates
            ps = PointSet(tuple(pts))
            if trial % 4 >= 2:  # as the wsd command passes them
                ps = pareto_filter(ps)
            values = sorted(set(ps.points))
            cells = weight_space_decomposition(ps)
            assert [c.value for c in cells] == [
                y for y in values if supporting_weights(y, ps) is not None
            ]
            # Every value's cell, kept or not, against the reference, in order.
            kept = {c.value: c.vertices for c in cells}
            for y in values:
                normals = [tuple(map(sub, y, other)) for other in values if other != y]
                clipped = scalarization._cell_corners(normals, k)
                fractions = [tuple(Fraction(v, c[-1]) for v in c[:-1]) for c in clipped]
                if k == 2:
                    expected = [
                        (Fraction(n, d),) for n, d in interval_cell_vertices_k2(normals)
                    ]
                else:
                    expected = pairwise_cell_vertices_k3(normals)
                # The same cyclic order, started at the least (lambda_1, lambda_2).
                if expected:
                    least = expected.index(min(expected))
                    expected = expected[least:] + expected[:least]
                assert fractions == expected
                if y in kept:
                    assert list(kept[y]) == expected
                by_size[k][min(len(expected), 3)] += 1
        assert min(by_size[2].values()) >= 100, by_size
        assert min(by_size[3].values()) >= 100, by_size

    @pytest.mark.parametrize("k", [2, 3])
    def test_corners_do_not_depend_on_the_clip_order(self, k, monkeypatch):
        # The clipper takes the nearest normals first. It may, because a
        # cell is an intersection of half-planes: the same reduced corners,
        # in the same order, come out of any clip order. With the sort made
        # the identity, the clip order is the input order, and shuffles of
        # the normals vary it.
        rng = random.Random(4100 + k)
        by_size = dict.fromkeys(range(k + 1), 0)  # corner count, k for >= k
        for trial in range(300):
            top = rng.choice((2, 3, 5, 10, 20, 40))
            pts = [
                tuple(rng.randint(0, top) for _ in range(k))
                for _ in range(rng.randint(1, 12))
            ]
            pts += rng.choices(pts, k=rng.randint(0, 3))  # duplicates
            # Collinear values with one coordinate sum: tied under uniform weights.
            last = rng.randint(0, top)
            pts += [
                (i, top - i, last)[:k]
                for i in rng.sample(range(top + 1), rng.randint(0, 3))
            ]
            if trial % 2:  # as the wsd command passes them
                pts = pareto_filter(PointSet(tuple(pts))).points
            values = sorted(set(pts))
            for y in values:
                normals = [tuple(map(sub, y, other)) for other in values if other != y]
                with monkeypatch.context() as m:
                    m.setattr(scalarization, "sorted", lambda ds, key: list(ds), raising=False)
                    in_order = [
                        scalarization._cell_corners(rng.sample(normals, len(normals)), k)
                        for _ in range(4)
                    ]
                nearest_first = scalarization._cell_corners(normals, k)
                assert in_order == [nearest_first] * 4
                by_size[min(len(nearest_first), k)] += 1
        assert min(by_size.values()) >= 50, by_size

    def test_wsd_solves_no_lp_for_k_up_to_3(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("supporting_weights called")

        monkeypatch.setattr(scalarization, "supporting_weights", refuse)
        for name in ("wsd_k2.txt", "wsd_k3.txt", "wsd_k3_degenerate.txt"):
            path = Path(__file__).parent / "golden" / "stdin" / name
            monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["wsd"]) == 0
        calls = []

        def count(*args):
            calls.append(args)
            return supporting_weights(*args)

        monkeypatch.setattr(scalarization, "supporting_weights", count)
        path = Path(__file__).parent / "golden" / "stdin" / "points_k4.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["wsd"]) == 0
        assert calls


def clip_every_value(ps):
    """The cells as the library once found them: every value's cell clipped
    from the whole simplex, kept in value order when it is nonempty and
    strictly positive at some corner in each lambda_i."""
    values = sorted(set(ps.points))
    k = len(values[0])
    cells = []
    for y in values:
        normals = tuple(tuple(map(sub, y, other)) for other in values if other != y)
        corners = scalarization._cell_corners(normals, k)
        lifted = [c[:-1] + (c[-1] - sum(c[:-1]),) for c in corners]
        if corners and all(map(any, zip(*lifted))):
            vertices = tuple(tuple(Fraction(v, c[-1]) for v in c[:-1]) for c in corners)
            mu = tuple(scalarization._prefix_normalize(lam) for lam in lifted)
            cells.append(scalarization.WeightCell(y, normals, vertices, mu))
    return cells


def nonempty_values(ps):
    """The values whose closed cell, clipped from the whole simplex, is not empty."""
    values = sorted(set(ps.points))
    return [
        y for y in values
        if scalarization._cell_corners(
            [tuple(map(sub, y, other)) for other in values if other != y], len(y)
        )
    ]


class TestWalkFromTheCorners:
    """For K <= 3 the cells are found by walking out from the simplex
    corners: a value is clipped only when it is least at a corner already
    found, so exactly the values with a nonempty cell are clipped, each once,
    and the cells are those of clipping every value."""

    def clipped_values(self, ps, monkeypatch):
        """The cells, and the values clipped in clip order, each known by its
        normals."""
        values = sorted(set(ps.points))
        by_normals = {
            tuple(tuple(map(sub, y, other)) for other in values if other != y): y
            for y in values
        }
        clipped = []
        clip = scalarization._cell_corners

        def count(normals, k):
            clipped.append(by_normals[tuple(normals)])
            return clip(normals, k)

        with monkeypatch.context() as m:
            m.setattr(scalarization, "_cell_corners", count)
            cells = weight_space_decomposition(ps)
        return cells, clipped

    @pytest.mark.parametrize("name", ["wsd_k2.txt", "wsd_k3.txt", "wsd_k3_degenerate.txt"])
    def test_golden_sets_clip_only_the_values_with_a_cell(self, name, monkeypatch):
        path = Path(__file__).parent / "golden" / "stdin" / name
        ps = pareto_filter(PointSet(tuple(cli._read_int_vectors(io.StringIO(path.read_text())))))
        cells, clipped = self.clipped_values(ps, monkeypatch)
        assert sorted(clipped) == nonempty_values(ps)
        assert len(clipped) == len(set(clipped))
        assert cells == clip_every_value(ps)

    # Degenerate cells, each reached only through one of its corners: a point
    # where three cells meet, an edge shared by two cells, a simplex corner.
    DEGENERATE = {
        "k3 interior point": (((12, 6, 6), (12, 12, 0), (18, 6, 0), (14, 8, 2)), {(14, 8, 2)}),
        "k3 shared edge": (
            ((0, 8, 8), (6, 0, 6), (12, 2, 4), (12, 12, 2), (9, 6, 4)), {(9, 6, 4)}
        ),
        "k3 edge to a simplex corner": (
            ((12, 6, 6), (12, 12, 0), (18, 6, 0), (12, 9, 3)), {(12, 9, 3)}
        ),
        "k3 simplex corner": (((1, 9, 0), (1, 0, 9), (1, 5, 5), (6, 1, 1)), {(1, 5, 5)}),
        "k2 interior point": (((0, 8), (8, 0), (4, 4), (2, 6)), {(4, 4), (2, 6)}),
        # With no value dominated, a K = 2 cell has positive length or is
        # a point inside the segment; (0, 5) is dominated by (0, 3), as an
        # unfiltered set may hold, and is least only at lambda = (1, 0).
        "k2 simplex corner": (((0, 5), (0, 3), (4, 0)), {(0, 5)}),
    }

    @pytest.mark.parametrize("name", DEGENERATE)
    def test_degenerate_cells_are_reached(self, name, monkeypatch):
        points, degenerate = self.DEGENERATE[name]
        ps = PointSet(points)
        cells, clipped = self.clipped_values(ps, monkeypatch)
        assert cells == clip_every_value(ps)
        assert sorted(clipped) == nonempty_values(ps) == sorted(set(points))
        # Each degenerate cell is one point or one segment.
        corners = {
            y: scalarization._cell_corners(
                [tuple(map(sub, y, other)) for other in points if other != y], len(y)
            )
            for y in degenerate
        }
        assert all(len(c) <= len(y) - 1 for y, c in corners.items())

    @pytest.mark.parametrize("k", [2, 3])
    def test_seeded_sets_clip_only_the_values_with_a_cell(self, k, monkeypatch):
        rng = random.Random(5200 + k)
        for trial in range(300):
            top = rng.choice((2, 3, 5, 10, 20, 40))
            pts = [
                tuple(rng.randint(0, top) for _ in range(k))
                for _ in range(rng.randint(1, 12))
            ]
            pts += rng.choices(pts, k=rng.randint(0, 3))  # duplicates
            # Collinear values with one coordinate sum: tied under uniform weights.
            last = rng.randint(0, top)
            pts += [
                (i, top - i, last)[:k]
                for i in rng.sample(range(top + 1), rng.randint(0, 3))
            ]
            ps = PointSet(tuple(pts))
            if trial % 2:  # as the wsd command passes them
                ps = pareto_filter(ps)
            cells, clipped = self.clipped_values(ps, monkeypatch)
            assert sorted(clipped) == nonempty_values(ps)
            assert len(clipped) == len(set(clipped))
            assert cells == clip_every_value(ps)
