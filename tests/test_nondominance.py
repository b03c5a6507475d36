import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordpareto import core, nondominance
from ordpareto.core import (
    A_HEAD,
    A_TAIL,
    B_HEAD,
    B_TAIL,
    ConeMatrix,
    OrdparetoError,
    tail_transform,
)
from ordpareto.nondominance import (
    PointSet,
    cone_filter,
    is_supported,
    pareto_filter,
    supporting_weights,
)
from ordpareto.oracle import definitional_cone_filter, mapping_check

from conftest import random_point_set

point_sets = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 20), min_size=k, max_size=k).map(tuple),
        min_size=1,
        max_size=20,
    )
)
# Coordinates in 0..2 make duplicates and ties frequent.
crowded_point_sets = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 2), min_size=k, max_size=k).map(tuple),
        min_size=1,
        max_size=20,
    )
)
KINDS = (A_TAIL, B_TAIL, A_HEAD, B_HEAD)


class TestParetoFilter:
    def test_routes_tails(self):
        tails = ((3, 2, 1), (2, 1, 1), (2, 2, 0), (2, 2, 0), (3, 1, 0), (4, 2, 0))
        kept = pareto_filter(PointSet(tails))
        assert kept.points == ((2, 1, 1), (2, 2, 0), (2, 2, 0), (3, 1, 0))

    def test_four_vector_example(self):
        pts = ((4, 1, 0), (3, 3, 1), (2, 2, 2), (3, 2, 2))
        kept = pareto_filter(PointSet(pts))
        assert set(kept.points) == {(4, 1, 0), (3, 3, 1), (2, 2, 2)}

    def test_singleton(self):
        assert pareto_filter(PointSet(((5, 5),))).points == ((5, 5),)

    def test_empty_errors(self):
        with pytest.raises(OrdparetoError, match="^point set is empty$"):
            pareto_filter(PointSet(()))

    def test_points_of_differing_lengths_error(self):
        with pytest.raises(OrdparetoError, match="differing lengths"):
            PointSet(((1, 2), (1, 2, 3)))

    def test_max_sense(self):
        kept = pareto_filter(PointSet(((1, 2), (2, 1), (0, 0))), sense="max")
        assert set(kept.points) == {(1, 2), (2, 1)}

    @given(point_sets)
    def test_idempotent(self, pts):
        ps = PointSet(tuple(pts))
        once = pareto_filter(ps)
        assert pareto_filter(once).points == once.points

    @given(point_sets)
    def test_no_synthesized_points(self, pts):
        ps = PointSet(tuple(pts))
        assert set(pareto_filter(ps).points) <= set(pts)

    @given(point_sets)
    def test_kept_points_undominated(self, pts):
        from ordpareto.oracle import pareto_dominates

        kept = pareto_filter(PointSet(tuple(pts)))
        for y in kept.points:
            assert not any(pareto_dominates(p, y) for p in pts)


class TestConeFilter:
    def test_routes_countings(self):
        counts = ((1, 1, 1), (1, 0, 1), (0, 2, 0), (0, 2, 0), (2, 1, 0), (2, 2, 0))
        kept = cone_filter(PointSet(counts), ConeMatrix(3, A_TAIL))
        assert set(kept.points) == {(1, 0, 1), (0, 2, 0), (2, 1, 0)}

    def test_four_vector_countings(self):
        counts = ((3, 1, 0), (0, 2, 1), (0, 0, 2), (1, 0, 2))
        kept = cone_filter(PointSet(counts), ConeMatrix(3, A_TAIL))
        assert set(kept.points) == {(3, 1, 0), (0, 2, 1), (0, 0, 2)}

    def test_singleton(self):
        kept = cone_filter(PointSet(((1, 2, 3),)), ConeMatrix(3, A_TAIL))
        assert kept.points == ((1, 2, 3),)

    @given(
        crowded_point_sets,
        st.sampled_from(KINDS),
        st.sampled_from(("min", "max")),
    )
    def test_theorem_filter_matches_definition(self, pts, kind, sense):
        ps, cone = PointSet(tuple(pts)), ConeMatrix(len(pts[0]), kind)
        assert cone_filter(ps, cone, sense) == definitional_cone_filter(
            ps, cone, sense
        )

    def test_theorem_filter_matches_definition_seeded(self):
        rng = random.Random(8)
        for _ in range(200):
            pts = random_point_set(rng, max_k=5, max_n=30, max_coord=2)
            ps = PointSet(tuple(pts))
            for kind in KINDS:
                cone = ConeMatrix(len(pts[0]), kind)
                for sense in ("min", "max"):
                    expected = definitional_cone_filter(ps, cone, sense)
                    assert cone_filter(ps, cone, sense) == expected


class TestMappingCheck:
    def test_routes_instance(self):
        counts = ((1, 1, 1), (1, 0, 1), (0, 2, 0), (0, 2, 0), (2, 1, 0), (2, 2, 0))
        assert mapping_check(PointSet(counts), ConeMatrix(3, A_TAIL))

    def test_singleton(self):
        assert mapping_check(PointSet(((4, 0, 1),)), ConeMatrix(3, A_TAIL))

    def test_random_sets(self):
        rng = random.Random(99)
        for _ in range(100):
            pts = random_point_set(rng)
            cone = ConeMatrix(len(pts[0]), A_TAIL)
            assert mapping_check(PointSet(tuple(pts)), cone)

    def test_definitional_side_does_not_use_the_kernel(self, monkeypatch):
        # A kernel that keeps every point breaks the Pareto side only, so
        # the check must fail on a set with a dominated point.
        def keep_all(values, sense="min"):
            return sorted(range(len(values)), key=values.__getitem__)

        monkeypatch.setattr(core, "pareto_front", keep_all)
        monkeypatch.setattr(nondominance, "pareto_front", keep_all)
        counts = ((1, 0, 1), (1, 1, 1))
        assert not mapping_check(PointSet(counts), ConeMatrix(3, A_TAIL))


class TestSupportedness:
    Y = PointSet(((4, 1), (5, 0), (2, 2)))

    def test_unsupported_point(self):
        # (4,1) is non-dominated but not minimal for any positive weighting
        assert set(pareto_filter(self.Y).points) == {(4, 1), (5, 0), (2, 2)}
        assert not is_supported((4, 1), self.Y)

    def test_supported_points(self):
        assert is_supported((5, 0), self.Y)
        assert is_supported((2, 2), self.Y)

    def test_singleton_supported(self):
        assert is_supported((3, 3), PointSet(((3, 3),)))

    def test_dominated_point_rejected(self):
        with pytest.raises(Exception):
            is_supported((9, 9), PointSet(((9, 9), (1, 1))))

    def test_precondition_matches_pareto_filter(self):
        rng = random.Random(5)
        for _ in range(40):
            ps = PointSet(tuple(random_point_set(rng, 3, 8, 6)))
            outside = (99,) * len(ps.points[0])
            for sense in ("min", "max"):
                nondom = set(pareto_filter(ps, sense).points)
                for y in set(ps.points) | {outside}:
                    if y in nondom:
                        is_supported(y, ps, sense)
                    else:
                        with pytest.raises(OrdparetoError, match="non-dominated"):
                            is_supported(y, ps, sense)
        with pytest.raises(OrdparetoError, match="sense"):
            is_supported((3, 3), PointSet(((3, 3),)), "avg")

    def test_witness_weights_minimize(self):
        lam = supporting_weights((2, 2), self.Y)
        assert lam is not None
        assert all(w > 0 for w in lam)
        assert sum(lam) == 1
        value = sum(w * c for w, c in zip(lam, (2, 2)))
        for other in self.Y.points:
            assert value <= sum(w * c for w, c in zip(lam, other))

    def test_unsupported_has_no_witness(self):
        assert supporting_weights((4, 1), self.Y) is None

    def test_witness_rejects_unknown_sense(self):
        with pytest.raises(OrdparetoError, match="sense"):
            supporting_weights((2, 2), self.Y, "bogus")

    def test_witness_rejects_point_of_other_length(self):
        with pytest.raises(OrdparetoError, match="^point of dimension 1, points of dimension 2$"):
            supporting_weights((1,), PointSet(((1, 2), (2, 1))))

    def test_errors_name_dimensions_not_the_point(self):
        # A 3000-component point would make a 9 KB line if it were echoed.
        y = tuple(range(3000))
        ps = PointSet(((0,) * 3000,))
        with pytest.raises(OrdparetoError, match="not non-dominated") as info:
            is_supported(y, ps)
        assert len(str(info.value)) <= 200
        with pytest.raises(
            OrdparetoError, match="dimension 3000, points of dimension 2"
        ) as info:
            supporting_weights(y, PointSet(((1, 2), (2, 1))))
        assert len(str(info.value)) <= 200

    @settings(deadline=None, max_examples=25)
    @given(point_sets)
    def test_witnesses_on_random_sets(self, pts):
        ps = PointSet(tuple(pts))
        for y in set(pareto_filter(ps).points):
            lam = supporting_weights(y, ps)
            if lam is None:
                continue
            assert all(isinstance(w, Fraction) and w > 0 for w in lam)
            value = sum(w * c for w, c in zip(lam, y))
            assert all(
                value <= sum(w * c for w, c in zip(lam, p)) for p in pts
            )
