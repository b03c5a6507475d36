import json
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import ordpareto

from ordpareto import solvers
from ordpareto.core import (
    CategorySpace,
    OrdparetoError,
    counting_vector,
    head_transform,
    ordinal_vector,
    tail_transform,
)
from ordpareto.fileio import emit_result
from ordpareto.oracle import (
    enumerate_paths,
    enumerate_subsets,
    oracle_efficient_set,
)
from ordpareto.solvers import (
    OK,
    UNREACHABLE,
    Edge,
    GraphInstance,
    InstanceError,
    Item,
    KnapsackInstance,
    ResultEntry,
    SolveResult,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)

from conftest import random_graph, random_knapsack, routes_k3, routes_weighted


class TestShortestPath:
    def test_routes_values(self):
        res = solve_shortest_path(routes_k3())
        assert res.status == OK
        assert set(res.values()) == {(2, 1, 1), (2, 2, 0), (3, 1, 0)}

    def test_routes_all_efficient(self):
        res = solve_shortest_path(routes_k3(), all_efficient=True)
        paths = {s for e in res.entries for s in e.solutions}
        assert paths == {(4, 5), (1, 3), (6, 8), (4, 7, 8)}

    def test_routes_default_is_minimal_complete(self):
        res = solve_shortest_path(routes_k3())
        for entry in res.entries:
            assert len(entry.solutions) == 1
        # one representative for the value shared by two paths
        by_value = {e.value: e.representative for e in res.entries}
        assert by_value[(2, 2, 0)] == (1, 3)

    def test_single_edge(self):
        g = GraphInstance(
            2, (Edge(1, 1, 2, (), (2,)),), (CategorySpace(3),), 1, 2, 0
        )
        res = solve_shortest_path(g)
        assert res.values() == ((1, 1, 0),)

    def test_unreachable(self):
        g = GraphInstance(
            3, (Edge(1, 1, 2, (), (1,)),), (CategorySpace(2),), 1, 3, 0
        )
        res = solve_shortest_path(g)
        assert res.status == UNREACHABLE
        assert res.entries == ()

    def test_source_equals_target(self):
        g = GraphInstance(
            2, (Edge(1, 1, 2, (), (1,)),), (CategorySpace(2),), 1, 1, 0
        )
        res = solve_shortest_path(g)
        assert res.values() == ((0, 0),)

    def test_cycle_graph(self):
        # a 2-cycle on the way to the target must not loop the solver
        edges = (
            Edge(1, 1, 2, (), (1,)),
            Edge(2, 2, 1, (), (1,)),
            Edge(3, 2, 3, (), (2,)),
        )
        g = GraphInstance(3, edges, (CategorySpace(2),), 1, 3, 0)
        assert solve_shortest_path(g).values() == ((2, 1),)

    def test_entry_consistency(self):
        g = routes_k3()
        res = solve_shortest_path(g, all_efficient=True)
        edge_by_id = {e.id: e for e in g.edges}
        for entry in res.entries:
            for path in entry.solutions:
                cats = [edge_by_id[eid].categories[0] for eid in path]
                c = counting_vector(cats, g.spaces[0])
                assert entry.countings == (c,)
                assert entry.value == tail_transform(c)
                assert entry.ordinals == (ordinal_vector(c),)

    def test_values_sorted(self):
        res = solve_shortest_path(routes_k3())
        assert list(res.values()) == sorted(res.values())


class TestAgainstOracle:
    def test_random_graphs(self):
        rng = random.Random(4242)
        nonempty = 0
        for _ in range(100):
            g = random_graph(rng)
            res = solve_shortest_path(g)
            feasible = enumerate_paths(g)
            if not feasible.solutions:
                assert res.status == UNREACHABLE
                continue
            nonempty += 1
            efficient = oracle_efficient_set(feasible, "tail")
            expected = {tail_transform(s.counting) for s in efficient}
            assert set(res.values()) == expected
        assert nonempty > 50

    def test_random_knapsacks(self):
        rng = random.Random(777)
        for _ in range(100):
            k = random_knapsack(rng)
            res = solve_knapsack(k)
            efficient = oracle_efficient_set(enumerate_subsets(k), "head")
            expected = {head_transform(s.counting) for s in efficient}
            assert set(res.values()) == expected

    def test_all_efficient_matches_oracle_solutions(self):
        rng = random.Random(51)
        for _ in range(30):
            g = random_graph(rng, max_nodes=6)
            feasible = enumerate_paths(g)
            if not feasible.solutions:
                continue
            res = solve_shortest_path(g, all_efficient=True)
            got = {s for e in res.entries for s in e.solutions}
            expected = {
                s.elements
                for s in oracle_efficient_set(feasible, "tail")
            }
            assert got == expected

    def test_knapsack_entries_match_oracle_heads(self):
        # Many items per category, so heads tie and repeat across subsets.
        rng = random.Random(53)
        for _ in range(40):
            k = random_knapsack(rng, max_items=11, max_k=5)
            efficient = oracle_efficient_set(enumerate_subsets(k), "head")
            by_head = {}
            for s in efficient:
                by_head.setdefault(head_transform(s.counting), []).append(s.elements)
            res = solve_knapsack(k)
            assert res.values() == tuple(sorted(by_head))
            for e in res.entries:
                assert e.representative == min(by_head[e.value])
                assert head_transform(e.countings[0]) == e.value

    def test_knapsack_all_efficient_matches_oracle_solutions(self):
        rng = random.Random(52)
        for _ in range(60):
            k = random_knapsack(rng)
            res = solve_knapsack(k, all_efficient=True)
            listed = [s for e in res.entries for s in e.solutions]
            expected = {
                s.elements
                for s in oracle_efficient_set(enumerate_subsets(k), "head")
            }
            assert len(listed) == len(set(listed))
            assert set(listed) == expected
            reps = [e.representative for e in solve_knapsack(k).entries]
            assert reps == [min(e.solutions) for e in res.entries]


class TestKnapsack:
    def test_three_items(self):
        items = (Item(1, 2, 1), Item(2, 3, 2), Item(3, 4, 1))
        k = KnapsackInstance(items, 5, CategorySpace(2))
        res = solve_knapsack(k)
        assert res.values() == ((1, 2),)
        assert res.entries[0].representative == (1, 2)

    def test_capacity_zero(self):
        k = KnapsackInstance((Item(1, 2, 1),), 0, CategorySpace(2))
        res = solve_knapsack(k)
        assert res.values() == ((0, 0),)
        assert res.entries[0].representative == ()

    def test_maximality_orientation(self):
        # one heavy good item vs two light bad ones: both frontier points
        items = (Item(1, 4, 1), Item(2, 2, 2), Item(3, 2, 2))
        k = KnapsackInstance(items, 4, CategorySpace(2))
        res = solve_knapsack(k)
        assert set(res.values()) == {(1, 1), (0, 2)}

    def test_equal_head_representative_is_smallest_subset(self):
        # both singletons reach head (1, 1); the heavier one has the smaller id
        for items in ((Item(1, 5, 1), Item(2, 1, 1)),
                      (Item(2, 1, 1), Item(1, 5, 1))):
            k = KnapsackInstance(items, 5, CategorySpace(2))
            assert solve_knapsack(k).entries[0].solutions == ((1,),)
            everything = solve_knapsack(k, all_efficient=True)
            assert everything.entries[0].solutions == ((1,), (2,))

    def test_huge_capacity_matches_oracle(self):
        # A DP that allocates per capacity unit exhausts memory here, so the
        # solve runs in a child process under an address-space cap.
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
            from ordpareto.core import CategorySpace, head_transform
            from ordpareto.oracle import enumerate_subsets, oracle_efficient_set
            from ordpareto.solvers import Item, KnapsackInstance, solve_knapsack
            items = (Item(1, 6 * 10**11, 2), Item(2, 5 * 10**11, 1), Item(3, 1, 2))
            k = KnapsackInstance(items, 10**12, CategorySpace(2))
            efficient = oracle_efficient_set(enumerate_subsets(k), "head")
            res = solve_knapsack(k, all_efficient=True)
            assert set(res.values()) == {head_transform(s.counting) for s in efficient}
            assert {s for e in res.entries for s in e.solutions} == {
                s.elements for s in efficient
            }
            assert solve_knapsack(k).entries[0].representative == (2, 3)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(ordpareto.__file__).resolve().parents[1],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestMixed:
    def test_reduces_to_shortest_path(self):
        g = routes_k3()
        assert solve_mixed(g) == solve_shortest_path(g)
        assert solve_mixed(g, True) == solve_shortest_path(g, True)

    def test_weighted_routes_moop(self):
        res = solve_mixed(routes_weighted())
        assert res.values() == ((Fraction(10), 3, 1),)
        assert res.entries[0].representative == (4, 5, 6)

    def test_synthetic_four_path_instance(self):
        # four parallel chains realizing countings (3,1,0),(0,2,1),(0,0,2),(1,0,2)
        countings = [(3, 1, 0), (0, 2, 1), (0, 0, 2), (1, 0, 2)]
        edges = []
        node = 2
        eid = 1
        for c in countings:
            cats = [j + 1 for j, n in enumerate(c) for _ in range(n)]
            prev = 1
            for cat in cats[:-1]:
                edges.append(Edge(eid, prev, node, (), (cat,)))
                prev, node, eid = node, node + 1, eid + 1
            edges.append(Edge(eid, prev, 999, (), (cats[-1],)))
            eid += 1
        nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
        remap = {n: i + 1 for i, n in enumerate(nodes)}
        edges = tuple(
            Edge(e.id, remap[e.tail], remap[e.head], (), e.categories)
            for e in edges
        )
        g = GraphInstance(
            len(nodes), edges, (CategorySpace(3),), remap[1], remap[999], 0
        )
        res = solve_mixed(g)
        assert set(res.values()) == {(4, 1, 0), (3, 3, 1), (2, 2, 2)}


class TestWeightedCounting:
    def test_weighted_routes_wtop(self):
        res = solve_weighted_counting(routes_weighted())
        assert res.values() == ((Fraction(10), Fraction(2)),)
        assert res.entries[0].representative == (1, 2, 3)

    def test_all_best_category_is_classic_shortest_path(self):
        edges = (
            Edge(1, 1, 2, (Fraction(3),), (1,)),
            Edge(2, 2, 3, (Fraction(4),), (1,)),
            Edge(3, 1, 3, (Fraction(9),), (1,)),
        )
        g = GraphInstance(3, edges, (CategorySpace(2),), 1, 3, 1)
        res = solve_weighted_counting(g)
        assert res.values() == ((Fraction(7), Fraction(0)),)

    def test_requires_one_weight_one_ordinal(self):
        with pytest.raises(OrdparetoError):
            solve_weighted_counting(routes_k3())

    def test_against_enumeration(self):
        g = routes_weighted()
        feasible = enumerate_paths(g)
        edge_by_id = {e.id: e for e in g.edges}
        outcomes = {}
        for sol in feasible.solutions:
            cw = [Fraction(0), Fraction(0)]
            for eid in sol.elements:
                e = edge_by_id[eid]
                cw[e.categories[0] - 1] += e.weights[0]
            outcomes[sol.elements] = (cw[0] + cw[1], cw[1])
        frontier = {
            v
            for v in outcomes.values()
            if not any(
                all(a <= b for a, b in zip(w, v)) and w != v
                for w in outcomes.values()
            )
        }
        assert set(solve_weighted_counting(g).values()) == frontier


class TestTrivialPath:
    """Source equals target: every path solver returns the empty path,
    found by the shared search, with zero images of the right types."""

    # solver, real objectives, category counts, value types, JSON value
    SOLVERS = [
        (solve_shortest_path, 0, (3,), (int,) * 3, [0, 0, 0]),
        (
            solve_mixed,
            2,
            (2, 3),
            (Fraction,) * 2 + (int,) * 5,
            ["0", "0", 0, 0, 0, 0, 0],
        ),
        (solve_weighted_counting, 1, (3,), (Fraction,) * 3, ["0", "0", "0"]),
    ]

    @staticmethod
    def graph(num_real, ks, with_edges):
        edges = ()
        if with_edges:  # 1 -> 2 and an edge back into the source
            weights = tuple(Fraction(j + 2, 3) for j in range(num_real))
            edges = (
                Edge(1, 1, 2, weights, tuple(ks)),
                Edge(2, 2, 1, weights, (1,) * len(ks)),
            )
        spaces = tuple(CategorySpace(k) for k in ks)
        return GraphInstance(2, edges, spaces, 1, 1, num_real)

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize("with_edges", [False, True])
    @pytest.mark.parametrize(
        "solver, num_real, ks, types, json_value",
        SOLVERS,
        ids=[s[0].__name__ for s in SOLVERS],
    )
    def test_empty_path_entry(
        self, solver, num_real, ks, types, json_value, with_edges, all_efficient
    ):
        g = self.graph(num_real, ks, with_edges)
        res = solver(g, all_efficient)
        assert res.status == OK
        (entry,) = res.entries
        assert entry.value == (0,) * len(types)
        assert tuple(type(v) for v in entry.value) == types
        assert entry.countings == tuple((0,) * k for k in ks)
        assert entry.ordinals == ((),) * len(ks)
        assert entry.weights == (Fraction(0),) * num_real
        assert all(type(w) is Fraction for w in entry.weights)
        assert entry.solutions == ((),)
        data = json.loads(emit_result(res, "json", g.spaces))
        assert data == {
            "status": "ok",
            "entries": [
                {
                    "value": json_value,
                    "weights": ["0"] * num_real,
                    "counting": [[0] * k for k in ks],
                    "ordinal": [[]] * len(ks),
                    "solutions": [[]],
                }
            ],
        }


class TestSubsetMonotonicity:
    def test_no_returned_path_contains_another(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(rng)
            res = solve_shortest_path(g, all_efficient=True)
            paths = [set(s) for e in res.entries for s in e.solutions]
            for a in paths:
                for b in paths:
                    assert not (a < b)


class TestRationalWeights:
    @pytest.mark.parametrize("weight", [0.5, 1.0, "1/2", None])
    def test_other_weights_are_rejected(self, weight):
        edges = (Edge(1, 1, 2, (weight,), (1,)),)
        with pytest.raises(OrdparetoError, match="neither an int nor a Fraction"):
            GraphInstance(2, edges, (CategorySpace(2),), 1, 2, 1)


class TestInstanceErrors:
    """Each check names the edge or item at fault by its index, or no record
    when the terminals or the capacity are at fault."""

    GOOD = Edge(1, 1, 2, (Fraction(1),), (1,))

    @pytest.mark.parametrize(
        "edge, match",
        [
            (Edge(1, 2, 3, (Fraction(1),), (2,)), "duplicate edge id 1"),
            (Edge(2, 2, 9, (Fraction(1),), (2,)), "edge 2 touches node 9 outside 1..3"),
            (Edge(2, 2, 3, (), (2,)), "edge 2 has 0 weights, expected 1"),
            (Edge(2, 2, 3, (0.5,), (2,)), "edge 2 has a weight that is neither"),
            (Edge(2, 2, 3, (Fraction(-1),), (2,)), "edge 2 has a negative weight"),
            (Edge(2, 2, 3, (Fraction(1),), (1, 2)), "edge 2 has 2 categories, expected 1"),
            (Edge(2, 2, 3, (Fraction(1),), (3,)), "edge 2: category 3 outside 1..2"),
        ],
    )
    def test_edge_fault_names_its_index(self, edge, match):
        with pytest.raises(InstanceError, match=match) as info:
            GraphInstance(3, (self.GOOD, edge), (CategorySpace(2),), 1, 3, 1)
        assert info.value.record == 1

    @pytest.mark.parametrize("source, target", [(0, 3), (1, 4)])
    def test_terminal_fault_has_no_record(self, source, target):
        bad = Edge(2, 2, 9, (Fraction(1),), (3,))
        with pytest.raises(InstanceError, match="terminal node") as info:
            GraphInstance(3, (self.GOOD, bad), (CategorySpace(2),), source, target, 1)
        assert info.value.record is None

    @pytest.mark.parametrize(
        "item, match",
        [
            (Item(1, 2, 2), "duplicate item id 1"),
            (Item(2, 0, 2), "item 2: consumption must be positive"),
            (Item(2, 2, 3), "item 2: category 3 outside 1..2"),
        ],
    )
    def test_item_fault_names_its_index(self, item, match):
        with pytest.raises(InstanceError, match=match) as info:
            KnapsackInstance((Item(1, 2, 1), item), 5, CategorySpace(2))
        assert info.value.record == 1

    def test_capacity_fault_has_no_record(self):
        items = (Item(1, 2, 1), Item(1, 0, 3))
        with pytest.raises(InstanceError, match="capacity must be nonnegative") as info:
            KnapsackInstance(items, -1, CategorySpace(2))
        assert info.value.record is None


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def random_weight(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0, Fraction(0)))
    if kind == 1:
        return rng.randint(1, 4)  # a Python int, as an API caller may pass
    return Fraction(rng.randint(1, 60), rng.choice(PRIMES))


def weighted_grid(rng, num_real):
    """A bidirected rows x cols grid from corner to corner, one ordinal
    objective and ``num_real`` random rational weights per edge."""
    rows, cols = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4)))
    K = rng.randint(1, 3)
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c + 1
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < rows and c + dc < cols:
                    other = node + dr * cols + dc
                    for u, v in ((node, other), (other, node)):
                        edges.append(
                            Edge(
                                len(edges) + 1,
                                u,
                                v,
                                tuple(random_weight(rng) for _ in range(num_real)),
                                (rng.randint(1, K),),
                            )
                        )
    return GraphInstance(
        rows * cols, tuple(edges), (CategorySpace(K),), 1, rows * cols, num_real
    )


def random_digraph(rng, num_real, ordinal):
    """A digraph on 1-5 nodes with self-loops, parallel edges and weight-0
    cycles, one of them through the source, which may be the target. Half
    the edges weigh 0 in every real objective; ``ordinal`` adds one
    objective of 1-3 categories."""
    nodes = rng.randint(1, 5)
    K = rng.randint(1, 3)
    source, target = rng.randint(1, nodes), rng.randint(1, nodes)
    arcs = [
        (rng.randint(1, nodes), rng.randint(1, nodes))
        for _ in range(rng.randint(0, 3 * nodes))
    ]
    free = [rng.random() < 0.5 for _ in arcs] + [True, True]
    other = rng.randint(1, nodes)
    arcs += [(source, other), (other, source)]
    edges = tuple(
        Edge(
            i,
            u,
            v,
            tuple(0 if zero else random_weight(rng) for _ in range(num_real)),
            (rng.randint(1, K),) * ordinal,
        )
        for i, ((u, v), zero) in enumerate(zip(arcs, free), start=1)
    )
    spaces = (CategorySpace(K),) * ordinal
    return GraphInstance(nodes, edges, spaces, source, target, num_real)


def brute_force(g, value_of, all_efficient):
    """The SolveResult a path solver must return, from every simple path's
    value summed in Fractions."""
    edge_by_id = {e.id: e for e in g.edges}
    # Simple paths depend on the edges' ends only, so the oracle enumerates
    # them on a copy with one single-category objective.
    shape = GraphInstance(
        g.nodes,
        tuple(Edge(e.id, e.tail, e.head, (), (1,)) for e in g.edges),
        (CategorySpace(1),),
        g.source,
        g.target,
    )
    by_value = {}
    for sol in enumerate_paths(shape).solutions:
        edges = [edge_by_id[i] for i in sol.elements]
        by_value.setdefault(value_of(g, edges), []).append(sol.elements)
    if not by_value:
        return SolveResult(UNREACHABLE)
    entries = []
    for value in sorted(by_value):
        if any(
            other != value and all(a <= b for a, b in zip(other, value))
            for other in by_value
        ):
            continue
        sols = sorted(by_value[value])
        rep = [edge_by_id[i] for i in sols[0]]
        countings = countings_of(g, rep)
        weights = tuple(
            sum((e.weights[j] for e in rep), Fraction(0)) for j in range(g.num_real)
        )
        entries.append(
            ResultEntry(
                value,
                countings,
                tuple(map(ordinal_vector, countings)),
                weights,
                tuple(sols if all_efficient else sols[:1]),
            )
        )
    return SolveResult(OK, tuple(entries))


def countings_of(g, edges):
    return tuple(
        counting_vector((e.categories[l] for e in edges), space)
        for l, space in enumerate(g.spaces)
    )


def mixed_value(g, edges):
    weights = tuple(
        sum((e.weights[j] for e in edges), Fraction(0)) for j in range(g.num_real)
    )
    return weights + tuple(
        c for counts in countings_of(g, edges) for c in tail_transform(counts)
    )


def wtop_value(g, edges):
    return tuple(
        sum((e.weights[0] for e in edges if e.categories[0] >= j), Fraction(0))
        for j in range(1, g.spaces[0].K + 1)
    )


class TestIntegerSearch:
    """The path search runs on ints: real weights are scaled by the lcm of
    their denominators and divided back when the entries are built."""

    CASES = [(solve_mixed, 2, mixed_value), (solve_weighted_counting, 1, wtop_value)]

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize(
        "solver, num_real, value_of", CASES, ids=[c[0].__name__ for c in CASES]
    )
    def test_scaled_search_matches_fraction_brute_force(
        self, solver, num_real, value_of, all_efficient
    ):
        rng = random.Random(47)
        graphs = [weighted_grid(rng, num_real) for _ in range(40)]
        graphs += [
            random_digraph(
                rng, num_real, solver is solve_weighted_counting or i % 4 > 0
            )
            for i in range(200)
        ]
        for g in graphs:
            res = solver(g, all_efficient)
            assert res == brute_force(g, value_of, all_efficient)
            K = sum(space.K for space in g.spaces)
            types = (
                (Fraction,) * num_real + (int,) * K
                if solver is solve_mixed
                else (Fraction,) * K
            )
            for entry in res.entries:
                assert tuple(map(type, entry.value)) == types
                assert all(type(w) is Fraction for w in entry.weights)

    # solver, real objectives, objectives' categories, value of every path
    ZERO_CYCLES = [
        (solve_weighted_counting, 1, (2,), (Fraction(0),) * 2),
        (solve_mixed, 1, (), (Fraction(0),)),
    ]

    @pytest.mark.parametrize(
        "solver, num_real, ks, zero",
        ZERO_CYCLES,
        ids=[c[0].__name__ for c in ZERO_CYCLES],
    )
    def test_zero_weight_cycles_add_no_walks(self, solver, num_real, ks, zero):
        # Every edge costs zero, so each walk ties the simple paths (1, 4)
        # and (5,); the walks (1, 2, 1, 4) through the 2-cycle 1-2-1 and
        # (1, 3, 4) through the self-loop at 2 sort before both.
        arcs = ((1, 2), (2, 1), (2, 2), (2, 3), (1, 3))
        g = GraphInstance(
            3,
            tuple(
                Edge(i, u, v, (0,) * num_real, (1,) * len(ks))
                for i, (u, v) in enumerate(arcs, start=1)
            ),
            tuple(map(CategorySpace, ks)),
            1,
            3,
            num_real,
        )
        (entry,) = solver(g, True).entries
        assert (entry.value, entry.solutions) == (zero, ((1, 4), (5,)))
        assert solver(g).entries[0].solutions == ((1, 4),)

    def test_label_search_sees_ints_only(self, monkeypatch):
        calls = []
        search = solvers._multiobjective_shortest_paths

        def checked(g, cost, zero, all_efficient):
            for vec in (zero, *cost.values()):
                assert all(type(c) is int for c in vec), vec
            calls.append(len(zero))
            return search(g, cost, zero, all_efficient)

        monkeypatch.setattr(solvers, "_multiobjective_shortest_paths", checked)
        rng = random.Random(5)
        for all_efficient in (False, True):
            solve_shortest_path(routes_k3(), all_efficient)
            solve_mixed(weighted_grid(rng, 2), all_efficient)
            solve_weighted_counting(weighted_grid(rng, 1), all_efficient)
        assert len(calls) == 6
