import random
from fractions import Fraction

import pytest

from ordpareto.core import CategorySpace, OrdparetoError
from ordpareto.oracle import (
    EnumeratedSolution,
    enumerate_paths,
    enumerate_subsets,
    oracle_efficient_set,
    oracle_result,
    sample_representation,
    tail_dominates,
)
from ordpareto.solvers import Edge, GraphInstance, Item, KnapsackInstance

from conftest import random_graph, routes_k3


class TestEnumeratePaths:
    def test_routes_has_six_paths(self):
        feasible = enumerate_paths(routes_k3())
        assert len(feasible) == 6
        elements = {s.elements for s in feasible}
        assert elements == {
            (1, 2, 5),
            (4, 5),
            (1, 3),
            (6, 8),
            (4, 7, 8),
            (1, 2, 7, 8),
        }

    def test_disconnected(self):
        g = GraphInstance(
            3, (Edge(1, 1, 2, (), (1,)),), (CategorySpace(2),), 1, 3, 0
        )
        assert enumerate_paths(g) == ()

    def test_size_limit(self):
        edges = tuple(
            Edge(i, i, i + 1, (), (1,)) for i in range(1, 13)
        )
        g = GraphInstance(13, edges, (CategorySpace(1),), 1, 13, 0)
        with pytest.raises(OrdparetoError, match="^13 nodes exceeds the enumeration limit of 12$"):
            enumerate_paths(g)
        assert len(enumerate_paths(g, limit=13)) == 1

    def test_two_ordinal_objectives(self):
        # One counting vector per objective, and the weights' Fraction totals.
        edges = (Edge(1, 1, 2, (Fraction(1, 2),), (1, 3)), Edge(2, 2, 3, (2,), (2, 1)))
        spaces = (CategorySpace(2), CategorySpace(3))
        (path,) = enumerate_paths(GraphInstance(3, edges, spaces, 1, 3, 1))
        assert path == EnumeratedSolution((1, 2), ((1, 1), (1, 0, 1)), (Fraction(5, 2),))
        assert type(path.weights[0]) is Fraction

    def test_dag_count_matches_dp(self):
        rng = random.Random(3131)
        for _ in range(30):
            nodes = rng.randint(2, 7)
            edges = []
            eid = 1
            for u in range(1, nodes):
                for v in range(u + 1, nodes + 1):
                    if rng.random() < 0.5:
                        edges.append(Edge(eid, u, v, (), (1,)))
                        eid += 1
            if not edges:
                continue
            g = GraphInstance(
                nodes, tuple(edges), (CategorySpace(1),), 1, nodes, 0
            )
            # path counting by topological-order dynamic programming
            counts = {1: 1}
            for u in range(2, nodes + 1):
                counts[u] = sum(
                    counts[e.tail] for e in edges if e.head == u
                )
            assert len(enumerate_paths(g)) == counts[nodes]


class TestEnumerateSubsets:
    def test_three_items(self):
        items = (Item(1, 2, 1), Item(2, 3, 2), Item(3, 4, 1))
        k = KnapsackInstance(items, 5, CategorySpace(2))
        subsets = {s.elements for s in enumerate_subsets(k)}
        assert subsets == {(), (1,), (2,), (3,), (1, 2)}

    def test_capacity_zero(self):
        k = KnapsackInstance((Item(1, 1, 1),), 0, CategorySpace(1))
        assert {s.elements for s in enumerate_subsets(k)} == {()}

    def test_unconstrained_counts_all_subsets(self):
        items = tuple(Item(i, 1, 1) for i in range(1, 7))
        k = KnapsackInstance(items, 6, CategorySpace(1))
        assert len(enumerate_subsets(k)) == 64

    def test_size_limit(self):
        items = tuple(Item(i, 1, 1) for i in range(1, 22))
        k = KnapsackInstance(items, 21, CategorySpace(1))
        with pytest.raises(OrdparetoError, match="^21 items exceeds the enumeration limit of 20$"):
            enumerate_subsets(k)


class TestEfficientSet:
    def test_routes_tail_concept(self):
        feasible = enumerate_paths(routes_k3())
        efficient = oracle_efficient_set(feasible, "tail")
        assert {s.elements for s in efficient} == {
            (4, 5),
            (1, 3),
            (6, 8),
            (4, 7, 8),
        }

    def test_routes_sampled_concept_agrees(self):
        feasible = enumerate_paths(routes_k3())
        tail = oracle_efficient_set(feasible, "tail")
        sampled = oracle_efficient_set(feasible, "ordinal-sampled")
        assert tail == sampled

    def test_head_differs_from_tail_here(self):
        feasible = enumerate_paths(routes_k3())
        tail = {s.elements for s in oracle_efficient_set(feasible, "tail")}
        head = {s.elements for s in oracle_efficient_set(feasible, "head")}
        assert head != tail
        # (1,1,1) head-dominates (1,0,1), so the (4,5) path drops out
        assert (4, 5) not in head
        assert (4, 5) in tail

    def test_singleton(self):
        g = GraphInstance(
            2, (Edge(1, 1, 2, (), (1,)),), (CategorySpace(1),), 1, 2, 0
        )
        feasible = enumerate_paths(g)
        assert oracle_efficient_set(feasible, "tail") == feasible

    def test_weights_and_ratings_are_separate_blocks(self):
        # b has the lower weight and a the better rating, so both stay; c
        # ties b's rating at a higher weight, so b dominates it.
        a = EnumeratedSolution((1,), ((1, 0),), (Fraction(3),))
        b = EnumeratedSolution((2,), ((0, 1),), (Fraction(1),))
        c = EnumeratedSolution((3,), ((0, 1),), (Fraction(2),))
        for concept in ("tail", "ordinal-sampled"):
            assert oracle_efficient_set((a, b, c), concept) == (a, b)

    def test_empty_enumeration_has_empty_efficient_set(self):
        for concept in ("tail", "head", "ordinal-sampled"):
            assert oracle_efficient_set((), concept) == ()

    def test_unknown_concept(self):
        feasible = enumerate_paths(routes_k3())
        with pytest.raises(OrdparetoError):
            oracle_efficient_set(feasible, "lexicographic")

    def test_sampled_agrees_on_random_corpus(self):
        rng = random.Random(6001)
        tested = 0
        for _ in range(40):
            g = random_graph(rng, max_nodes=6)
            feasible = enumerate_paths(g)
            if not feasible:
                continue
            tested += 1
            assert oracle_efficient_set(
                feasible, "tail"
            ) == oracle_efficient_set(feasible, "ordinal-sampled")
        assert tested > 10

    def test_seed_reproducibility(self):
        rng = random.Random(12)
        for _ in range(20):
            nu = sample_representation(random.Random(55), 4)
            again = sample_representation(random.Random(55), 4)
            assert nu == again
            assert all(a < b for a, b in zip(nu.values, nu.values[1:]))
            rng.random()


def test_tail_dominance_needs_equal_lengths():
    with pytest.raises(OrdparetoError, match="^vector lengths differ: 2 vs 1$"):
        tail_dominates((1, 2), (1,))


class TestOracleResult:
    def test_unknown_problem(self):
        with pytest.raises(OrdparetoError, match="^unknown problem: 'bogus'$"):
            oracle_result(routes_k3(), "bogus")

    def test_wtop_needs_one_weight_and_one_ordinal_objective(self):
        edges = (Edge(1, 1, 2, (Fraction(1, 2),), (1, 3)), Edge(2, 2, 3, (2,), (2, 1)))
        g = GraphInstance(3, edges, (CategorySpace(2), CategorySpace(3)), 1, 3, 1)
        with pytest.raises(
            OrdparetoError, match="^wtop expects one weight and one ordinal objective$"
        ):
            oracle_result(g, "wtop")
