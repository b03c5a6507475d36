import random
import sys
import tracemalloc
from fractions import Fraction
from operator import add, le

import pytest
from hypothesis import given, strategies as st

from ordpareto.core import (
    A_HEAD,
    A_TAIL,
    B_HEAD,
    B_TAIL,
    CategorySpace,
    ConeMatrix,
    OrdparetoError,
    cone_member,
    counting_vector,
    fields,
    head_transform,
    inverse_transform,
    ordinal_vector,
    pareto_front,
    scale_to_ints,
    tail_transform,
    too_many_digits,
    unpack,
)
from ordpareto.oracle import (
    NumericalRepresentation,
    dominance_certificate,
    head_dominates,
    numeric_value,
    pareto_dominates,
    tail_dominates,
    weakly_tail_dominates,
)

from helpers import cone_rows, numeric_value_per_element, numeric_value_tail_form, pack

countings = st.lists(st.integers(0, 20), min_size=1, max_size=6).map(tuple)


def representations(k):
    return st.lists(st.integers(1, 5), min_size=k, max_size=k).map(
        lambda gaps: NumericalRepresentation(
            tuple(sum(gaps[: i + 1]) for i in range(k))
        )
    )


class TestCountingAndOrdinal:
    def test_counting_vector(self):
        space = CategorySpace(3)
        assert counting_vector([2, 1, 3], space) == (1, 1, 1)
        assert counting_vector([1, 3], space) == (1, 0, 1)
        assert counting_vector([], space) == (0, 0, 0)

    def test_counting_vector_k4(self):
        # seven elements over four categories
        cats = [1, 2, 2, 3, 4, 4, 4]
        assert counting_vector(cats, CategorySpace(4)) == (1, 2, 1, 3)

    def test_out_of_range_category(self):
        with pytest.raises(OrdparetoError):
            counting_vector([0], CategorySpace(3))
        with pytest.raises(OrdparetoError):
            counting_vector([4], CategorySpace(3))

    def test_ordinal_vector(self):
        assert ordinal_vector((1, 1, 1)) == (1, 2, 3)
        assert ordinal_vector((1, 0, 1)) == (1, 3)
        assert ordinal_vector((0, 2, 0)) == (2, 2)


class TestTransforms:
    def test_tail_transform(self):
        assert tail_transform((1, 1, 1)) == (3, 2, 1)
        assert tail_transform((1, 0, 1)) == (2, 1, 1)
        assert tail_transform((2, 0, 1, 1)) == (4, 2, 2, 1)

    def test_inverse_transform(self):
        assert inverse_transform((3, 2, 1)) == (1, 1, 1)
        assert inverse_transform((4, 2, 2, 1)) == (2, 0, 1, 1)

    def test_inverse_rejects_increasing_tail(self):
        with pytest.raises(OrdparetoError, match="^tail vector not non-increasing at index 1$"):
            inverse_transform((1, 2, 0))

    def test_head_transform(self):
        assert head_transform((1, 0, 1)) == (1, 1, 2)
        assert head_transform((1, 1, 1)) == (1, 2, 3)

    def test_empty_vector_and_validation(self):
        for transform in (tail_transform, head_transform, inverse_transform):
            assert transform(()) == ()
        for transform in (tail_transform, head_transform):
            with pytest.raises(OrdparetoError):
                transform((1, -1, 2))
        with pytest.raises(OrdparetoError, match="^negative tail entry at index 3$"):
            inverse_transform((2, 1, -1))

    @given(countings)
    def test_round_trip(self, c):
        assert inverse_transform(tail_transform(c)) == c

    @given(countings)
    def test_tail_matches_cone_matrix(self, c):
        assert ConeMatrix(len(c), A_TAIL).apply(c) == tail_transform(c)

    @given(countings)
    def test_head_matches_cone_matrix(self, c):
        assert ConeMatrix(len(c), A_HEAD).apply(c) == head_transform(c)


class TestDominance:
    def test_extra_bad_element(self):
        # one extra category-2 element, otherwise identical
        assert tail_dominates((1, 0, 1), (1, 1, 1))
        assert not tail_dominates((1, 1, 1), (1, 0, 1))
        # under maximization of good prefixes the verdict flips
        assert head_dominates((1, 1, 1), (1, 0, 1))

    def test_incomparable(self):
        assert not tail_dominates((1, 0, 1), (2, 1, 0))
        assert not tail_dominates((2, 1, 0), (1, 0, 1))

    @given(countings, countings)
    def test_tail_equals_pareto_on_transform(self, u, v):
        k = min(len(u), len(v))
        u, v = u[:k], v[:k]
        assert tail_dominates(u, v) == pareto_dominates(
            tail_transform(u), tail_transform(v)
        )

    @given(countings, countings)
    def test_pareto_implies_tail(self, u, v):
        k = min(len(u), len(v))
        u, v = u[:k], v[:k]
        if pareto_dominates(u, v):
            assert tail_dominates(u, v)

    @given(countings)
    def test_strict_is_irreflexive_weak_is_reflexive(self, c):
        assert not tail_dominates(c, c)
        assert weakly_tail_dominates(c, c)

    @given(countings, countings, countings)
    def test_transitive(self, u, v, w):
        k = min(len(u), len(v), len(w))
        u, v, w = u[:k], v[:k], w[:k]
        if tail_dominates(u, v) and tail_dominates(v, w):
            assert tail_dominates(u, w)
        if weakly_tail_dominates(u, v) and weakly_tail_dominates(v, w):
            assert weakly_tail_dominates(u, w)

    @given(countings, countings)
    def test_weak_antisymmetric(self, u, v):
        k = min(len(u), len(v))
        u, v = u[:k], v[:k]
        if weakly_tail_dominates(u, v) and weakly_tail_dominates(v, u):
            assert u == v

    @given(countings, countings)
    def test_subset_monotonicity(self, u, v):
        # componentwise smaller with strictly fewer elements is better
        k = min(len(u), len(v))
        u, v = u[:k], v[:k]
        if all(a <= b for a, b in zip(u, v)) and sum(u) < sum(v):
            assert tail_dominates(u, v)

    def test_equal_cardinality_head_tail(self):
        rng = random.Random(42)
        checked = 0
        while checked < 1000:
            k = rng.randint(1, 5)
            u = tuple(rng.randint(0, 6) for _ in range(k))
            v = list(u)
            rng.shuffle(v)
            # random moves preserving the total
            for _ in range(rng.randint(0, 4)):
                i, j = rng.randrange(k), rng.randrange(k)
                if v[i] > 0:
                    v[i] -= 1
                    v[j] += 1
            v = tuple(v)
            assert sum(u) == sum(v)
            assert head_dominates(u, v) == tail_dominates(u, v)
            checked += 1


def definitional_front(values, sense):
    """The indices the kernel must keep, by O(n^2) pairwise tests."""
    if sense == "min":
        return [i for i, v in enumerate(values)
                if not any(pareto_dominates(u, v) for u in values)]
    return [i for i, v in enumerate(values)
            if not any(pareto_dominates(v, u) for u in values)]


# Coordinates in 0..2 make duplicates and ties in every coordinate common.
crowded_sets = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 2), min_size=k, max_size=k).map(tuple),
        min_size=1,
        max_size=30,
    )
)


class TestParetoFront:
    def check(self, values, sense):
        keep = pareto_front(values, sense)
        assert sorted(keep) == definitional_front(values, sense)
        kept = [values[i] for i in keep]
        assert kept == sorted(kept, reverse=sense == "max")

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_matches_definition_on_seeded_sets(self, sense):
        rng = random.Random(2024)
        # Entries in 0..top, then in -top..top with top up to 2**200.
        for tops, signed in (((1, 2, 4, 20), False), ((1, 2, 4, 20, 2**200), True)):
            for _ in range(400):
                k = rng.randint(1, 5)
                top = rng.choice(tops)
                n = rng.randint(1, 40)
                low = -top if signed else 0
                values = [tuple(rng.randint(low, top) for _ in range(k)) for _ in range(n)]
                self.check(values, sense)
        # Wide slots, k up to 64 and n up to 200, span many 30-bit digits. A
        # column of n distinct entries, n a power of two, fills its field's
        # value bits at its top rank. Two columns in opposite orders keep all
        # n values; the corner sits at the top rank of every column.
        for _ in range(24):
            k = rng.randint(2, 64)
            n = rng.choice((rng.randint(1, 200), 64, 128))
            self.check([tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)], sense)
            columns = [range(n), range(n - 1, -1, -1), *(rng.sample(range(n), n) for _ in range(k - 2))]
            antichain = list(zip(*columns))
            corner = (n - 1 if sense == "min" else 0,) * k
            self.check(antichain, sense)
            self.check(antichain + [corner, corner], sense)

    def test_one_wide_outlier_costs_no_memory(self):
        # Ranks, not values, are packed: a vector of 4,001-digit entries widens
        # no field. Packing values offset by the minimum took 43-87 MB here.
        rng = random.Random(11)
        values = [tuple(rng.randint(0, 9) for _ in range(60)) for _ in range(400)]
        outlier = tuple(rng.randrange(10**4000, 10**4001) for _ in range(60))
        tracemalloc.start()
        try:
            assert pareto_front(values + [outlier]) == pareto_front(values)
            assert pareto_front(values + [outlier], "max") == [400]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(crowded_sets, st.sampled_from(["min", "max"]))
    def test_matches_definition_with_duplicates(self, values, sense):
        self.check(values, sense)

    @pytest.mark.parametrize("sense", ["min", "max"])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_one_point(self, sense, k):
        assert pareto_front([tuple(range(k))], sense) == [0]

    def test_duplicates_share_one_fate(self):
        values = [(1, 2), (2, 1), (1, 2), (2, 2), (2, 2), (0, 5), (2, 1)]
        assert pareto_front(values) == [5, 0, 2, 1, 6]
        assert pareto_front(values, "max") == [3, 4, 5]

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_refuses_differing_lengths(self, sense):
        # zip stops at the shortest value, so only a prefix would be compared.
        for values in ([(1, 2), (0,)], [(5, 5), (1,)], [(), (3,)], [(1,), (1, 2, 3), (1, 2)]):
            with pytest.raises(OrdparetoError, match="^values have differing lengths$"):
                pareto_front(values, sense)

    def test_empty_and_bad_sense(self):
        assert pareto_front([]) == []
        with pytest.raises(OrdparetoError, match="sense"):
            pareto_front([(1, 2)], "bogus")


class TestPackedValues:
    """The label search and pareto_front pack each vector into one int (fields)."""

    def test_pack_order_sum_and_dominance_agree_with_tuples(self):
        rng = random.Random(67)
        layouts = [[0], [1], [2**130], [2**100, 0, 5, 2**40, 1], [0, 0, 3]]
        layouts += [
            [rng.choice((0, 1, rng.randint(2, 9), rng.randint(10, 2**70)))
             for _ in range(rng.randint(1, 6))]
            for _ in range(60)
        ]
        widest = 0
        for bounds in layouts:
            shifts, masks, guards = fields(bounds)
            assert [m.bit_length() for m in masks] == [b.bit_length() for b in bounds]
            vectors = [tuple(bounds), (0,) * len(bounds)] + [
                tuple(rng.choice((0, b, rng.randint(0, b))) for b in bounds)
                for _ in range(12)
            ]
            packed = [pack(v, shifts) for v in vectors]
            widest = max(widest, *(p.bit_length() for p in packed))
            for v, p in zip(vectors, packed):
                assert unpack(p, shifts, masks) == v
                assert p & guards == 0
            for a, pa in zip(vectors, packed):
                for b, pb in zip(vectors, packed):
                    assert (pa < pb, pa == pb) == (a < b, a == b)
                    assert (((pb | guards) - pa) & guards == guards) == all(map(le, a, b))
                    total = tuple(map(add, a, b))
                    overflows = any(t > m for t, m in zip(total, masks))
                    assert bool((pa + pb) & guards) == overflows
                    if not overflows:
                        assert pa + pb == pack(total, shifts)
        assert widest > 128


class TestScaleToInts:
    def test_lcm_and_ints(self):
        values = [Fraction(1, 6), 3, Fraction(-5, 4), Fraction(0)]
        assert scale_to_ints(values) == (12, [2, 36, -15, 0])

    def test_ints_and_empty(self):
        assert scale_to_ints([4, -2]) == (1, [4, -2])
        assert scale_to_ints([]) == (1, [])


class TestDigitLimit:
    def test_tokens_over_the_limit(self):
        digits = sys.get_int_max_str_digits()
        assert too_many_digits("7" * digits) == ""
        assert too_many_digits("1_" * digits + "1") != ""
        assert str(digits) in too_many_digits("-" + "0" * digits + "1")

    def test_no_limit(self):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert too_many_digits("7" * (digits + 1)) == ""
        finally:
            sys.set_int_max_str_digits(digits)

    def test_category_space_names_a_huge_k_by_its_size(self):
        digits = sys.get_int_max_str_digits()
        with pytest.raises(OrdparetoError, match=f"more than {digits} digits") as info:
            CategorySpace(-(10**5000))
        assert len(str(info.value)) <= 200

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: ConeMatrix(-(10**5000)), "dimension must be positive: an int of more than"),
            (lambda: ConeMatrix(2, "x" * 5000), "unknown cone matrix kind: 'xxxxx"),
            (lambda: NumericalRepresentation((-(10**5000),)), "negative value at index 1"),
            (lambda: NumericalRepresentation(tuple(range(3000, 0, -1))), "increasing at index 1$"),
            (lambda: NumericalRepresentation((1, 5, 5)), "increasing at index 2$"),
            (
                lambda: counting_vector((10**5000,), CategorySpace(2)),
                "category index an int of more than",
            ),
        ],
        ids=["cone-dimension", "cone-kind", "nu-negative", "nu-descending", "nu-tie", "category"],
    )
    def test_core_constructors_keep_the_error_line_short(self, build, expected):
        with pytest.raises(OrdparetoError, match=expected) as info:
            build()
        assert len(str(info.value)) <= 200


class TestNumericValues:
    def test_example_values(self):
        nu_a = NumericalRepresentation((1, 2, 5))
        nu_b = NumericalRepresentation((2, 3, 4))
        assert numeric_value(nu_a, (2, 1, 0)) == 4
        assert numeric_value(nu_a, (1, 0, 1)) == 6
        assert numeric_value(nu_b, (1, 0, 1)) == 6
        assert numeric_value(nu_b, (2, 1, 0)) == 7

    def test_three_formula_pinned(self):
        nu = NumericalRepresentation((2, 4, 7, 8))
        c = (1, 2, 1, 3)
        assert numeric_value(nu, c) == 41
        assert numeric_value_per_element(nu, ordinal_vector(c)) == 41
        assert numeric_value_tail_form(nu, tail_transform(c)) == 41

    @given(st.integers(1, 6), st.data())
    def test_three_formula_agreement(self, k, data):
        nu = data.draw(representations(k))
        c = data.draw(st.lists(st.integers(0, 10), min_size=k, max_size=k))
        expected = numeric_value(nu, c)
        assert numeric_value_per_element(nu, ordinal_vector(c)) == expected
        assert numeric_value_tail_form(nu, tail_transform(c)) == expected

    def test_representation_invariants(self):
        with pytest.raises(OrdparetoError):
            NumericalRepresentation((1, 1, 2))
        with pytest.raises(OrdparetoError):
            NumericalRepresentation((-1, 0, 1))
        with pytest.raises(OrdparetoError):
            NumericalRepresentation(())

    @given(st.integers(1, 6), st.data())
    def test_weak_dominance_never_beaten(self, k, data):
        # weak tail-dominance means no representation prefers v
        u = tuple(data.draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)))
        v = tuple(data.draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)))
        if not weakly_tail_dominates(u, v):
            return
        rng = random.Random(7)
        for _ in range(100):
            start = rng.randint(0, 5)
            vals, cur = [], start
            for _ in range(k):
                vals.append(cur)
                cur += rng.randint(1, 5)
            nu = NumericalRepresentation(tuple(vals))
            assert numeric_value(nu, u) <= numeric_value(nu, v)


class TestCertificates:
    def test_pinned_not_dominated(self):
        cert = dominance_certificate((1, 1, 1), (1, 0, 1))
        assert cert.relation == "not-dominated"
        assert cert.nu.values == (1, 14, 15)
        assert cert.value_u > cert.value_v

    def test_equal(self):
        cert = dominance_certificate((2, 0, 1), (2, 0, 1))
        assert cert.relation == "equal"
        assert cert.nu is None

    def test_strict(self):
        cert = dominance_certificate((1, 0, 1), (1, 1, 1))
        assert cert.relation == "dominates"
        assert cert.value_u < cert.value_v

    @given(countings, countings)
    def test_soundness(self, u, v):
        k = min(len(u), len(v))
        u, v = u[:k], v[:k]
        cert = dominance_certificate(u, v)
        if cert.relation == "equal":
            assert u == v
            return
        # the witness must be a valid representation backing the verdict
        vals = cert.nu.values
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert cert.value_u == numeric_value(cert.nu, u)
        assert cert.value_v == numeric_value(cert.nu, v)
        if cert.relation == "dominates":
            assert tail_dominates(u, v)
            assert cert.value_u < cert.value_v
        else:
            assert not weakly_tail_dominates(u, v)
            assert cert.value_u > cert.value_v


class TestConeMatrices:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_inverse_pair(self, k):
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
        )
        for a_kind, b_kind in ((A_TAIL, B_TAIL), (A_HEAD, B_HEAD)):
            a = ConeMatrix(k, a_kind)
            b = ConeMatrix(k, b_kind)
            assert tuple(a.apply(b.apply(e)) for e in identity) == identity
            assert tuple(b.apply(a.apply(e)) for e in identity) == identity

    def test_head_is_transpose_of_tail(self):
        a = cone_rows(ConeMatrix(4, A_TAIL))
        assert cone_rows(ConeMatrix(4, A_HEAD)) == tuple(zip(*a))

    def test_cone_membership(self):
        cone = ConeMatrix(3, A_TAIL)
        assert cone_member((-1, 2, 0), cone)
        assert not cone_member((0, 0, -1), cone)
        for i in range(3):
            e = tuple(1 if j == i else 0 for j in range(3))
            assert cone_member(e, cone, strict=True)
        assert cone_member((0, 0, 0), cone)
        assert not cone_member((0, 0, 0), cone, strict=True)

    def test_extreme_rays_are_b_columns(self):
        k = 4
        b_cols = list(zip(*cone_rows(ConeMatrix(k, B_TAIL))))
        cone = ConeMatrix(k, A_TAIL)
        for col in b_cols:
            assert cone_member(col, cone, strict=True)

    def test_dimension_mismatch(self):
        with pytest.raises(OrdparetoError, match="^vector length 2 != matrix dimension 3$"):
            ConeMatrix(3, A_TAIL).apply((1, 2))

    @pytest.mark.parametrize("kind", [A_TAIL, B_TAIL, A_HEAD, B_HEAD])
    def test_apply_matches_entrywise_product(self, kind):
        rng = random.Random(kind)
        for k in range(1, 8):
            cone = ConeMatrix(k, kind)
            for _ in range(20):
                d = [rng.randint(-9, 9) for _ in range(k)]
                if rng.random() < 0.5:
                    d = [Fraction(v, rng.randint(1, 5)) for v in d]
                expected = tuple(
                    sum(e * v for e, v in zip(row, d)) for row in cone_rows(cone)
                )
                assert cone.apply(d) == expected
