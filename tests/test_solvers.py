import json
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import ordpareto

from ordpareto import solvers
from ordpareto.cli import main
from ordpareto.core import (
    CategorySpace,
    OrdparetoError,
    counting_vector,
    fields,
    ordinal_vector,
    scale_to_ints,
    tail_transform,
)
from ordpareto.fileio import emit_result
from ordpareto.oracle import oracle_result
from ordpareto.solvers import (
    OK,
    UNREACHABLE,
    Edge,
    GraphInstance,
    InstanceError,
    Item,
    KnapsackInstance,
    SolveResult,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)

from conftest import random_graph, random_knapsack, routes_k3, routes_weighted
from helpers import (
    bidirected_grid,
    emit_instance,
    field_bounds,
    ladder_and_chain,
    layered_dag,
    pack,
    transformed_costs,
)


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

    @pytest.mark.parametrize(
        "solve, num_real",
        [(solve_shortest_path, 0), (solve_mixed, 0), (solve_mixed, 1),
         (solve_weighted_counting, 1), (lambda g: oracle_result(g, "sp"), 0),
         (lambda g: oracle_result(g, "mixed"), 1), (lambda g: oracle_result(g, "wtop"), 1)],
    )
    def test_no_s_t_path_is_the_empty_result(self, solve, num_real):
        edge = Edge(1, 1, 2, (Fraction(1),) * num_real, (1,))
        res = solve(GraphInstance(3, (edge,), (CategorySpace(2),), 1, 3, num_real))
        assert res == SolveResult() and res.status == UNREACHABLE
        assert json.loads(emit_result(res, "json")) == {"entries": [], "status": "unreachable"}

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
    """Each solver returns the oracle's result: the values, the solution
    lists and each entry's countings, ordinals and weights."""

    def test_random_graphs(self):
        rng = random.Random(4242)
        reachable = 0
        for _ in range(100):
            g = random_graph(rng)
            res = solve_shortest_path(g)
            assert res == oracle_result(g, "sp")
            reachable += res.status == OK
        assert reachable > 50

    def test_random_knapsacks(self):
        rng = random.Random(777)
        for _ in range(100):
            k = random_knapsack(rng)
            assert solve_knapsack(k) == oracle_result(k, "knapsack")

    def test_all_efficient_matches_oracle_solutions(self):
        rng = random.Random(51)
        for _ in range(30):
            g = random_graph(rng, max_nodes=6)
            assert solve_shortest_path(g, True) == oracle_result(g, "sp", True)

    def test_knapsack_entries_match_oracle_heads(self):
        # Many items per category, so heads tie and repeat across subsets.
        rng = random.Random(53)
        for _ in range(40):
            k = random_knapsack(rng, max_items=11, max_k=5)
            assert solve_knapsack(k) == oracle_result(k, "knapsack")

    def test_knapsack_all_efficient_matches_oracle_solutions(self):
        rng = random.Random(52)
        for _ in range(60):
            k = random_knapsack(rng)
            assert solve_knapsack(k, True) == oracle_result(k, "knapsack", True)

    def test_mixed_with_two_ordinal_objectives(self):
        # The oracle compares each objective on its own; the solver runs one
        # Pareto search on the two tail vectors side by side.
        rng = random.Random(4343)
        for i in range(100):
            g = random_graph(rng, max_nodes=6)
            K = rng.randint(1, 3)
            edges = [e._replace(categories=(*e.categories, rng.randint(1, K))) for e in g.edges]
            spaces = (*g.spaces, CategorySpace(K))
            g = GraphInstance(g.nodes, edges, spaces, g.source, g.target)
            for all_efficient in (False, True):
                assert solve_mixed(g, all_efficient) == oracle_result(
                    g, "mixed", all_efficient, sampled=i % 3 == 0
                )


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
            from ordpareto.core import CategorySpace
            from ordpareto.oracle import oracle_result
            from ordpareto.solvers import Item, KnapsackInstance, solve_knapsack
            items = (Item(1, 6 * 10**11, 2), Item(2, 5 * 10**11, 1), Item(3, 1, 2))
            k = KnapsackInstance(items, 10**12, CategorySpace(2))
            for all_efficient in (False, True):
                res = solve_knapsack(k, all_efficient)
                assert res == oracle_result(k, "knapsack", all_efficient)
            assert res.entries[0].representative == (2, 3)
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
        for all_efficient in (False, True):
            res = solve_weighted_counting(g, all_efficient)
            assert res == oracle_result(g, "wtop", all_efficient)


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
        data = json.loads(emit_result(res, "json"))
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

    def test_huge_capacity_is_named_by_its_size(self):
        digits = sys.get_int_max_str_digits()
        with pytest.raises(InstanceError, match=f"more than {digits} digits") as info:
            KnapsackInstance((Item(1, 1, 1),), -(10**5000), CategorySpace(2))
        assert len(str(info.value)) <= 200


class TestNumberTypes:
    """Inexact or non-int numbers are refused where an instance is built,
    not deep inside a search: ids, nodes, categories, ``num_real`` and ``K``
    are ints; a consumption and the capacity are ints or Fractions."""

    SPACE = CategorySpace(2)
    SCALARS = "^nodes, source, target and num_real must be ints$"

    @staticmethod
    def knapsack(second=Item(2, 2, 2), capacity=3, first=Item(1, 1, 1)):
        return KnapsackInstance([first, second], capacity, TestNumberTypes.SPACE)

    @staticmethod
    def graph(second=Edge(2, 1, 2, (), (1,)), nodes=2, source=1, target=2, num_real=0):
        edges = [Edge(1, 1, 2, (), (1,)), second]
        return GraphInstance(nodes, edges, [TestNumberTypes.SPACE], source, target, num_real)

    @pytest.mark.parametrize(
        "build, match, record",
        [
            (lambda: TestNumberTypes.knapsack(Item(2, 0.2, 2), 0.3, Item(1, 0.1, 1)),
             "^capacity must be an int or a Fraction: 0.3$", None),
            (lambda: TestNumberTypes.knapsack(Item(2, 2, 2), 1e20, Item(1, 10**20 - 1, 1)),
             r"^capacity must be an int or a Fraction: 1e\+20$", None),
            (lambda: TestNumberTypes.knapsack(Item(2, 0.2, 2), Fraction(3, 10)),
             "^item 2: consumption must be an int or a Fraction$", 1),
            (lambda: TestNumberTypes.knapsack(Item(2, 1, 1.0)),
             "^item 2: category 1.0 outside 1..2$", 1),
            (lambda: TestNumberTypes.knapsack(Item("2", 1, 1)), "^item id '2' is not an int$", 1),
            (lambda: TestNumberTypes.graph(nodes=2.0), SCALARS, None),
            (lambda: TestNumberTypes.graph(source=1.0), SCALARS, None),
            (lambda: TestNumberTypes.graph(target=2.0), SCALARS, None),
            (lambda: TestNumberTypes.graph(num_real=0.0), SCALARS, None),
            (lambda: TestNumberTypes.graph(Edge(2, 1, 2.0, (), (1,))),
             "^edge 2 touches node 2.0 outside 1..2$", 1),
            (lambda: TestNumberTypes.graph(Edge(2, 1, 2, (), (1.0,))),
             "^edge 2: category 1.0 outside 1..2$", 1),
            (lambda: TestNumberTypes.graph(Edge("2", 1, 2, (), (1,))),
             "^edge id '2' is not an int$", 1),
        ],
    )
    def test_instances_refuse_other_numbers(self, build, match, record):
        with pytest.raises(InstanceError, match=match) as info:
            build()
        assert info.value.record == record

    def test_a_float_category_count_is_refused(self):
        with pytest.raises(OrdparetoError, match="^the number of categories must be an int"):
            CategorySpace(2.0)

    def test_a_fraction_knapsack_is_exact(self):
        # In floats 0.1 + 0.2 > 0.3, and only item 1 would fit.
        items = [Item(1, Fraction(1, 10), 1), Item(2, Fraction(2, 10), 2)]
        k = KnapsackInstance(items, Fraction(3, 10), self.SPACE)
        res = solve_knapsack(k)
        assert res.values() == ((1, 2),) and res.entries[0].solutions == ((1, 2),)
        assert res == oracle_result(k, "knapsack")


class Rank(int):
    """An int subclass, as an API caller may pass for a node or category."""


class Ratio:
    """Not a number, though it has a numerator and a denominator."""

    numerator, denominator = 1, 2


class TestColumnCheck:
    """``GraphInstance`` checks whole columns first and runs its per-edge
    loop only when a column fails. One rule broken at one random edge of a
    graph of 100-160 edges is still refused with the loop's message and
    record, and types the columns do not accept build as they always did."""

    def graph(self, rng, num_real):
        nodes = rng.randint(10, 40)
        ks = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        edges = [
            Edge(eid, rng.randint(1, nodes), rng.randint(1, nodes),
                 tuple(random_weight(rng) for _ in range(num_real)),
                 tuple(rng.randint(1, k) for k in ks))
            for eid in rng.sample(range(1, 1000), rng.randint(100, 160))
        ]
        return nodes, edges, tuple(map(CategorySpace, ks))

    RULES = ["duplicate id", "node 0", "node nodes + 1", "node nan", "weight count",
             "str weight", "float weight", "Ratio weight", "negative weight", "category count",
             "category 0", "category K + 1", "category nan"]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("rule", RULES)
    def test_one_broken_edge_is_refused_by_its_record(self, rule, seed):
        rng = random.Random(f"{rule}/{seed}")
        num_real = rng.randint(1 if "weight" in rule else 0, 2)
        nodes, edges, spaces = self.graph(rng, num_real)
        i = rng.randrange(1, len(edges))
        e = edges[i]
        w, j = rng.randrange(num_real or 1), rng.randrange(len(spaces))
        end = rng.choice(("tail", "head"))
        if rule == "duplicate id":
            e = e._replace(id=edges[rng.randrange(i)].id)
            message = f"duplicate edge id {e.id}"
        elif rule.startswith("node"):
            node = {"node 0": 0, "node nan": float("nan")}.get(rule, nodes + 1)
            e = e._replace(**{end: node})
            message = f"edge {e.id} touches node {node} outside 1..{nodes}"
        elif rule == "weight count":
            e = e._replace(weights=e.weights + (1,))
            message = f"edge {e.id} has {num_real + 1} weights, expected {num_real}"
        elif rule.endswith("weight"):
            bad = {"str weight": "1", "float weight": 0.5, "Ratio weight": Ratio(),
                   "negative weight": Fraction(-1, 3)}
            e = e._replace(weights=e.weights[:w] + (bad[rule],) + e.weights[w + 1 :])
            message = (
                f"edge {e.id} has a negative weight" if rule == "negative weight"
                else f"edge {e.id} has a weight that is neither an int nor a Fraction"
            )
        elif rule == "category count":
            e = e._replace(categories=e.categories[1:])
            message = f"edge {e.id} has {len(spaces) - 1} categories, expected {len(spaces)}"
        else:
            K = spaces[j].K
            cat = {"category 0": 0, "category nan": float("nan")}.get(rule, K + 1)
            e = e._replace(categories=e.categories[:j] + (cat,) + e.categories[j + 1 :])
            message = f"edge {e.id}: category {cat} outside 1..{K}"
        edges[i] = e
        with pytest.raises(InstanceError) as info:
            GraphInstance(nodes, edges, spaces, 1, nodes, num_real)
        assert (str(info.value), info.value.record) == (message, i)

    @pytest.mark.parametrize(
        "field, value",
        [("weights", (True,)), ("weights", (Fraction(1, 2), False)),
         ("categories", (Rank(1),)), ("tail", Rank(2)), ("head", True)],
    )
    def test_types_the_columns_refuse_still_build(self, field, value):
        rng = random.Random(field)
        num_real = len(value) if field == "weights" else 1
        nodes, edges, spaces = self.graph(rng, num_real)
        spaces = spaces[: len(value)] if field == "categories" else spaces
        edges = [e._replace(categories=e.categories[: len(spaces)]) for e in edges]
        i = rng.randrange(len(edges))
        edges[i] = edges[i]._replace(**{field: value})
        g = GraphInstance(nodes, edges, spaces, 1, nodes, num_real)
        assert g.edges == tuple(edges) and g.edges[i] is edges[i]

    def test_a_plain_tuple_edge_is_refused_as_before(self):
        nodes, edges, spaces = self.graph(random.Random(0), 0)
        edges[50] = tuple(edges[50])
        with pytest.raises(AttributeError):
            GraphInstance(nodes, edges, spaces, 1, nodes, 0)


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


class TestIntegerSearch:
    """The path search runs on ints: real weights are scaled by the lcm of
    their denominators and divided back when the entries are built."""

    CASES = [(solve_mixed, 2, "mixed"), (solve_weighted_counting, 1, "wtop")]

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize(
        "solver, num_real, problem", CASES, ids=[c[0].__name__ for c in CASES]
    )
    def test_scaled_search_matches_fraction_brute_force(
        self, solver, num_real, problem, all_efficient
    ):
        rng = random.Random(47)
        graphs = [weighted_grid(rng, num_real) for _ in range(40)]
        graphs += [
            random_digraph(
                rng, num_real, solver is solve_weighted_counting or i % 4 > 0
            )
            for i in range(200)
        ]
        for i, g in enumerate(graphs):
            res = solver(g, all_efficient)
            assert res == oracle_result(g, problem, all_efficient, sampled=i % 3 == 0)
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

        def checked(g, steps, layout, all_efficient):
            # One packed step per edge, each an exact int, as is the layout.
            assert len(steps) == len(g.edges)
            assert all(type(step) is int for step in steps), steps
            shifts, masks, guards = layout
            assert all(type(x) is int for x in (*shifts, *masks, guards)), layout
            calls.append(all_efficient)
            return search(g, steps, layout, all_efficient)

        monkeypatch.setattr(solvers, "_multiobjective_shortest_paths", checked)
        rng = random.Random(5)
        for all_efficient in (False, True):
            solve_shortest_path(routes_k3(), all_efficient)
            solve_mixed(weighted_grid(rng, 2), all_efficient)
            solve_weighted_counting(weighted_grid(rng, 1), all_efficient)
        assert calls == [False] * 3 + [True] * 3

    # Large primes: weights over two or more of them scale by an lcm beyond
    # 2**64, so the packed fields span several int digits.
    WIDE_PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353)

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize(
        "solver, num_real, problem", CASES, ids=[c[0].__name__ for c in CASES]
    )
    def test_scale_beyond_64_bits_matches_brute_force(
        self, solver, num_real, problem, all_efficient
    ):
        rng = random.Random(53)
        wide = 0
        for i in range(60):
            g = (
                weighted_grid(rng, num_real)
                if i % 4 == 0
                else random_digraph(rng, num_real, solver is solve_weighted_counting or i % 2)
            )
            edges = tuple(
                e._replace(weights=tuple(
                    Fraction(rng.randint(0, 60), self.WIDE_PRIMES[(e.id + j) % 4])
                    for j in range(num_real)
                ))
                for e in g.edges
            )
            g = GraphInstance(g.nodes, edges, g.spaces, g.source, g.target, num_real)
            wide += lcm(*(w.denominator for e in edges for w in e.weights)) > 2**64
            assert solver(g, all_efficient) == oracle_result(g, problem, all_efficient)
        assert wide >= 40

    SPARSE = CASES + [(solve_shortest_path, 0, "sp")]

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize(
        "solver, num_real, problem", SPARSE, ids=[c[0].__name__ for c in SPARSE]
    )
    def test_declared_nodes_far_above_edges_match_brute_force(
        self, solver, num_real, problem, all_efficient
    ):
        # With 12 nodes declared and at most 5 edges, a field is sized by
        # the sum of its edge costs plus the largest, not by 12 edges.
        rng = random.Random(59)
        sparse = 0
        while sparse < 60:
            g = random_digraph(rng, num_real, solver is not solve_mixed or sparse % 2)
            if len(g.edges) > 5:
                continue
            g = GraphInstance(12, g.edges, g.spaces, g.source, g.target, num_real)
            assert solver(g, all_efficient) == oracle_result(g, problem, all_efficient)
            sparse += 1

    HUGE = [(solve_shortest_path, 0), (solve_mixed, 1), (solve_weighted_counting, 1)]

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize("solver, num_real", HUGE, ids=[c[0].__name__ for c in HUGE])
    def test_huge_node_ids_keep_tables_per_edge(self, solver, num_real, all_efficient):
        # Per-node tables hold only the nodes that edges touch, so three
        # edges among 10**9 declared nodes take well under a megabyte.
        n = 10**9
        arcs = ((1, n // 2, 1, 1), (n // 2, n, 1, 2), (1, n, 2, 1))
        edges = tuple(
            Edge(i, u, v, (w,) * num_real, (c,)) for i, (u, v, c, w) in enumerate(arcs, start=1)
        )
        g = GraphInstance(n, edges, (CategorySpace(2),), 1, n, num_real)
        tracemalloc.start()
        try:
            res = solver(g, all_efficient)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [e.solutions for e in res.entries] == [((3,),), ((1, 2),)]
        assert peak < 1 << 20

    @pytest.mark.parametrize("all_efficient", [False, True])
    def test_one_category_shortest_path_matches_brute_force(self, all_efficient):
        rng = random.Random(61)
        for _ in range(100):
            g = random_graph(rng, max_k=1)
            res = solve_shortest_path(g, all_efficient)
            assert res == oracle_result(g, "sp", all_efficient)


def best_of(runs, call):
    """The least of ``runs`` timings of ``call()``, in seconds."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


class TestScaleBound:
    """A real objective whose weights' denominators have an lcm beyond
    ``MAX_SCALE_DIGITS`` digits is refused: every packed value would carry
    that many digits."""

    @staticmethod
    def parallel(n, num_real=1, huge=0):
        """Two nodes and ``n`` parallel edges; edge i weighs ``1/(10**999 +
        i)`` in real objective ``huge`` and 1/2 in the others. Any eleven
        of these denominators have an lcm beyond 10,000 digits."""
        edges = [
            Edge(i, 1, 2, tuple(Fraction(1, 10**999 + i if j == huge else 2)
                                for j in range(num_real)), (1 + i % 2,))
            for i in range(1, n + 1)
        ]
        return GraphInstance(2, edges, (CategorySpace(2),), 1, 2, num_real)

    @pytest.mark.parametrize("solver", [solve_mixed, solve_weighted_counting])
    def test_ten_denominators_pass_and_eleven_do_not(self, solver):
        (entry,) = solver(self.parallel(10)).entries
        assert entry.solutions == ((10,),)
        with pytest.raises(OrdparetoError, match="^real objective 1: the lcm .* more than 10000 digits$"):
            solver(self.parallel(11))

    def test_the_bound_is_on_digits(self):
        for scale, refused in ((10**solvers.MAX_SCALE_DIGITS - 1, False),
                               (10**solvers.MAX_SCALE_DIGITS, True)):
            g = GraphInstance(2, [Edge(1, 1, 2, (Fraction(1, scale),), (1,))],
                              (CategorySpace(1),), 1, 2, 1)
            if refused:
                with pytest.raises(OrdparetoError):
                    solve_mixed(g)
            else:
                assert solve_mixed(g).values() == ((Fraction(1, scale), 1),)

    def test_the_message_names_the_objective(self):
        with pytest.raises(OrdparetoError, match="^real objective 2: "):
            solve_mixed(self.parallel(20, num_real=3, huge=1))

    def test_two_hundred_denominators_are_refused_cheaply(self, capsys, tmp_path):
        # Scaled, this graph took 1.5 s and 65 MB; the oracle takes about 0.1 s.
        g = self.parallel(200)
        path = tmp_path / "parallel.graph"
        path.write_text(emit_instance(g))
        tracemalloc.start()
        try:
            code = main(["solve", "mixed", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err == (
            "error: real objective 1: the lcm of its weights' denominators "
            "has more than 10000 digits\n"
        )
        assert peak < 1 << 21
        refusal = best_of(3, lambda: main(["solve", "mixed", str(path)]))
        assert refusal < best_of(3, lambda: oracle_result(g, "mixed"))


class TestPackedLayout:
    """``solvers._packed_steps`` packs each edge's step by column, from
    per-category tables. Its layout and steps must equal ``core.fields`` of
    the bounds and ``helpers.pack`` of the cost vectors that ``helpers`` builds
    edge by edge, as the path solvers once did."""

    @staticmethod
    def assert_packs(g, reals=(), weights=None):
        costs = transformed_costs(g, reals, weights)
        width = len(reals) + sum(space.K for space in g.spaces)
        shifts, masks, guards = fields(field_bounds(g, costs, width))
        steps, layout = solvers._packed_steps(g, reals, weights)
        assert layout == (shifts, masks, guards)
        assert steps == [pack(cost, shifts) for cost in costs]
        assert all(type(step) is int for step in steps)

    @staticmethod
    def weighted_graph(rng, num_real, ks):
        """Up to 24 edges in random id order on 1-12 nodes, so either side
        of a bound's ``min`` may hold. A third of the weights are 0; the
        others have numerators up to 1, 3 or 60 and denominators 1, up to
        3, or ``WIDE_PRIMES``, so the bounds take small and wide values."""
        nodes = rng.randint(1, 12)
        top = rng.choice((1, 3, 60))
        denominators = rng.choice(((1,), (1, 2, 3), TestIntegerSearch.WIDE_PRIMES))

        def weight():
            if rng.random() < 1 / 3:
                return 0
            return Fraction(rng.randint(0, top), rng.choice(denominators))

        ids = rng.sample(range(1, 100), rng.randint(1, 24))
        edges = tuple(
            Edge(i, rng.randint(1, nodes), rng.randint(1, nodes),
                 tuple(weight() for _ in range(num_real)),
                 tuple(rng.randint(1, K) for K in ks))
            for i in ids
        )
        return GraphInstance(nodes, edges, tuple(map(CategorySpace, ks)), 1, nodes, num_real)

    @staticmethod
    def scaled(g):
        return [scale_to_ints([e.weights[j] for e in g.edges])[1] for j in range(g.num_real)]

    def test_sp(self):
        rng = random.Random(67)
        for _ in range(150):
            self.assert_packs(random_graph(rng, max_nodes=10, max_k=6))
        for K in (1, 2, 10):
            self.assert_packs(layered_dag(rng, 4, 3, K))

    def test_mixed_with_two_ordinal_objectives(self):
        rng = random.Random(71)
        for i in range(300):
            ks = (1, rng.randint(1, 4)) if i % 3 == 0 else (rng.randint(1, 5), rng.randint(1, 5))
            g = self.weighted_graph(rng, i % 3, ks)
            self.assert_packs(g, self.scaled(g))

    def test_wtop(self):
        rng = random.Random(73)
        for i in range(300):
            g = self.weighted_graph(rng, 1, (rng.randint(1, 10),))
            self.assert_packs(g, weights=self.scaled(g)[0])
        grid = bidirected_grid(rng, 3, 3, 10)
        self.assert_packs(grid, weights=self.scaled(grid)[0])

    @pytest.mark.parametrize("num_real, ks", [(0, (3,)), (2, (1, 4)), (1, ()), (1, (2,))])
    def test_no_edges(self, num_real, ks):
        g = GraphInstance(4, (), tuple(map(CategorySpace, ks)), 1, 4, num_real)
        self.assert_packs(g, [[]] * num_real)
        if num_real == 1 and len(ks) == 1:
            self.assert_packs(g, weights=[])


def zero_weight_wtop(nodes, arcs, source, target):
    """A ``wtop`` graph whose edges, numbered from 1 in ``arcs`` order, all
    weigh 0, so every path costs zero and every two paths to a node tie."""
    edges = tuple(Edge(i, u, v, (0,), (1,)) for i, (u, v) in enumerate(arcs, start=1))
    return GraphInstance(nodes, edges, (CategorySpace(2),), source, target, 1)


def blob_wtop(m):
    """A ``wtop`` graph with one s-t path, 1 -> 2 -> m + 2, of two arcs
    weighing 1, and a complete zero-weight digraph on nodes 2 .. m + 1:
    every other way back from node 2 enters the blob and cannot leave it."""
    blob = range(2, m + 2)
    arcs = [(1, 2, 1), (2, m + 2, 1)] + [(u, v, 0) for u in blob for v in blob if u != v]
    edges = tuple(Edge(i, u, v, (w,), (1,)) for i, (u, v, w) in enumerate(arcs, start=1))
    return GraphInstance(m + 2, edges, (CategorySpace(2),), 1, m + 2, 1)


class TestLabelSetting:
    """Labels pop in lexicographic order and are final; ``--all-efficient``
    lists paths by a backward walk over the predecessor edges of each label."""

    @pytest.mark.parametrize("all_efficient", [False, True])
    def test_long_chain_is_walked_without_recursion(self, all_efficient):
        # 3,000 edges, far beyond the interpreter's recursion limit.
        n = 3000
        edges = tuple(Edge(i, i, i + 1, (), (1 + i % 2,)) for i in range(1, n + 1))
        g = GraphInstance(n + 1, edges, (CategorySpace(2),), 1, n + 1)
        (entry,) = solve_shortest_path(g, all_efficient).entries
        assert entry.value == (n, n // 2)
        assert entry.solutions == (tuple(range(1, n + 1)),)

    @pytest.mark.parametrize("all_efficient", [False, True])
    def test_source_equals_target_on_zero_cost_cycles_lists_the_empty_path(
        self, all_efficient
    ):
        # A self-loop, a 2-cycle and a 3-cycle, all through the source.
        arcs = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 1))
        g = zero_weight_wtop(3, arcs, 1, 1)
        res = solve_weighted_counting(g, all_efficient)
        assert [(e.value, e.solutions) for e in res.entries] == [((0, 0), ((),))]
        assert res == oracle_result(g, "wtop", all_efficient)

    @pytest.mark.parametrize("all_efficient", [False, True])
    def test_zero_cost_tie_after_the_pop_reaches_every_label_downstream(
        self, all_efficient
    ):
        # Every label has value 0, so they pop in node order: 1, 2, 3, 4,
        # then 5. Node 5 then hands node 2 the path (1, 2), a tie smaller
        # than its (3,), after 2, 3 and 4 have popped.
        arcs = ((1, 5), (5, 2), (1, 2), (2, 3), (3, 4))
        downstream = {2: ((1, 2), (3,)), 3: ((1, 2, 4), (3, 4)), 4: ((1, 2, 4, 5), (3, 4, 5))}
        for target, paths in downstream.items():
            g = zero_weight_wtop(5, arcs, 1, target)
            (entry,) = solve_weighted_counting(g, all_efficient).entries
            assert entry.solutions == (paths if all_efficient else paths[:1])
            assert solve_weighted_counting(g, all_efficient) == oracle_result(
                g, "wtop", all_efficient
            )

    def test_all_efficient_layered_dag_fits_in_256_mb(self):
        # 60 layers of 8 nodes, K = 12: 55 values and 25,228 efficient
        # paths. Storing every path at every label needs about 500 MB.
        script = textwrap.dedent("""
            import random, resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
            from ordpareto.core import CategorySpace
            from ordpareto.solvers import Edge, GraphInstance, solve_shortest_path
            rng, layers, width, K = random.Random(7), 60, 8, 12
            source, target = 1, layers * width + 2
            layer = [[2 + l * width + j for j in range(width)] for l in range(layers)]
            arcs = [(source, v) for v in layer[0]]
            for here, after in zip(layer, layer[1:]):
                arcs += [(u, v) for u in here for v in after]
            arcs += [(u, target) for u in layer[-1]]
            edges = [
                Edge(i, u, v, (), (rng.randint(1, K),))
                for i, (u, v) in enumerate(arcs, start=1)
            ]
            g = GraphInstance(target, edges, (CategorySpace(K),), source, target)
            by_id = {e.id: e for e in edges}
            every = solve_shortest_path(g, all_efficient=True)
            default = solve_shortest_path(g)
            assert every.values() == default.values()
            listed = 0
            for entry, rep in zip(every.entries, default.entries):
                assert list(entry.solutions) == sorted(set(entry.solutions))
                assert rep.solutions == entry.solutions[:1]
                for path in entry.solutions:
                    walk = [source] + [by_id[i].head for i in path]
                    assert [by_id[i].tail for i in path] == walk[:-1]
                    assert walk[-1] == target and len(set(walk)) == len(walk)
                    cats = [by_id[i].categories[0] for i in path]
                    assert entry.value == tuple(
                        sum(c > j for c in cats) for j in range(K)
                    )
                listed += len(entry.solutions)
            assert (len(every.entries), listed) == (55, 25228)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(ordpareto.__file__).resolve().parents[1],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("m", range(1, 7))
    def test_zero_cost_blob_lists_the_brute_force_paths(self, m):
        g = blob_wtop(m)
        for all_efficient in (False, True):
            res = solve_weighted_counting(g, all_efficient)
            assert res == oracle_result(g, "wtop", all_efficient)
            assert res.entries[0].solutions == ((1, 2),)

    def test_walk_enters_no_dead_end_in_a_zero_cost_blob(self):
        # Entering every zero-cost predecessor, the walk tries each simple
        # path in the blob from node 2 before it ends: 17.9 s at m = 11.
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
            from test_solvers import blob_wtop, solve_weighted_counting
            (entry,) = solve_weighted_counting(blob_wtop(12), True).entries
            assert entry.solutions == ((1, 2),), entry.solutions
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=Path(ordpareto.__file__).resolve().parents[1],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr


class TestForwardBuild:
    """With no zero step, ``--all-efficient`` lists paths forward from shared
    prefixes when their total length is within ``_BUILD_RATIO`` times the
    answer's, and walks the predecessor DAG back otherwise."""

    @staticmethod
    def positive_graphs(rng):
        """Seeded graphs with no zero-cost arc, each with its problem. Few
        categories and weights of 1/2 or 1 make ties, so values have
        several paths."""
        def halves(g):
            edges = [e._replace(weights=tuple(Fraction(rng.randint(1, 2), 2) for _ in e.weights))
                     for e in g.edges]
            return g._replace(edges=tuple(edges))

        for i in range(40):
            yield solve_shortest_path, "sp", random_graph(rng, max_nodes=7, max_k=2)
            yield solve_mixed, "mixed", halves(weighted_grid(rng, 1 + i % 2))
            g = weighted_grid(rng, 1) if i % 2 else random_digraph(rng, 1, True)
            yield solve_weighted_counting, "wtop", halves(g)
            if i % 4 == 0:
                yield solve_shortest_path, "sp", layered_dag(rng, 3, 3, 2)

    def test_both_listers_match_the_oracle(self, monkeypatch):
        rng = random.Random(83)
        several = 0
        for solver, problem, g in self.positive_graphs(rng):
            results = []
            for ratio in (0, 10**9):  # always the walk, always the forward build
                monkeypatch.setattr(solvers, "_BUILD_RATIO", ratio)
                results.append(solver(g, True))
            assert results[0] == results[1] == oracle_result(g, problem, True)
            several += any(len(e.solutions) > 1 for e in results[0].entries)
        assert several >= 20

    def test_ladder_then_chain_walks_back_in_little_more_than_the_answer(self):
        # 1,024 paths share their last 100 edges. A forward build would copy
        # every path once per edge of the chain, and holds two such lists at
        # the end: about 1.6 times the answer beyond it, where the walk needs
        # about 0.1 times.
        g = ladder_and_chain(10, 100)
        tracemalloc.start()
        try:
            (entry,) = solve_shortest_path(g, True).entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entry.solutions) == 1024
        assert {len(path) for path in entry.solutions} == {120}
        answer = sum(map(sys.getsizeof, entry.solutions))
        assert peak - answer < 0.4 * answer

    def test_chain_then_ladder_builds_forward(self, monkeypatch):
        # The walk takes one step per arc of every suffix: each of the 256
        # paths walks the whole chain back. Built forward, the chain is one
        # prefix, extended once per edge.
        stages, chain = 8, 200
        g = ladder_and_chain(stages, chain, ladder_first=False)
        res = solve_shortest_path(g, True)
        (entry,) = res.entries
        assert entry.value == (chain + 2 * stages,)
        assert len(set(entry.solutions)) == 2**stages
        assert list(entry.solutions) == sorted(entry.solutions)
        assert {path[:chain] for path in entry.solutions} == {tuple(range(1, chain + 1))}
        built = best_of(3, lambda: solve_shortest_path(g, True))
        monkeypatch.setattr(solvers, "_BUILD_RATIO", 0)
        assert solve_shortest_path(g, True) == res
        assert built < best_of(3, lambda: solve_shortest_path(g, True)) / 3


class TestBenchmarkShape:
    """The label search at K = 10, the benchmark's size, where a node can
    hold several labels, so a scan may end at a dominating one before its
    last label. The graphs stay within the oracle's 12 nodes."""

    @pytest.mark.parametrize("all_efficient", [False, True])
    def test_sp_on_layered_dags_matches_the_oracle(self, all_efficient):
        rng = random.Random(71)
        sizes = []
        for i in range(40):
            g = layered_dag(rng, *((3, 3), (5, 2))[i % 2], 10)
            res = solve_shortest_path(g, all_efficient)
            assert res == oracle_result(g, "sp", all_efficient)
            sizes.append(len(res.entries))
        assert sum(n >= 3 for n in sizes) >= len(sizes) // 3

    CASES = [(solve_mixed, "mixed"), (solve_weighted_counting, "wtop")]

    @pytest.mark.parametrize("all_efficient", [False, True])
    @pytest.mark.parametrize("solver, problem", CASES, ids=[c[1] for c in CASES])
    def test_grids_match_the_oracle(self, solver, problem, all_efficient):
        rng = random.Random(73)
        sizes = []
        for i in range(30):
            g = bidirected_grid(rng, 3, 3 + i % 2, 10)
            res = solver(g, all_efficient)
            assert res == oracle_result(g, problem, all_efficient)
            sizes.append(len(res.entries))
        assert sum(n >= 3 for n in sizes) >= len(sizes) // 3

    # Edges 5 and 2 run in parallel from node 2 to node 3 at equal cost, on
    # the only path: they share one packed cost and stay two paths.
    @pytest.mark.parametrize(
        "solver, num_real", [(solve_shortest_path, 0), (solve_mixed, 1), (solve_weighted_counting, 1)]
    )
    def test_edges_of_equal_cost_stay_distinct(self, solver, num_real):
        w = (Fraction(3, 2),) * num_real
        edges = (Edge(1, 1, 2, w, (2,)), Edge(5, 2, 3, w, (3,)), Edge(2, 2, 3, w, (3,)),
                 Edge(4, 3, 4, w, (1,)))
        g = GraphInstance(4, edges, (CategorySpace(3),), 1, 4, num_real)
        (entry,) = solver(g).entries
        assert entry.solutions == ((1, 2, 4),)
        (entry,) = solver(g, True).entries
        assert entry.solutions == ((1, 2, 4), (1, 5, 4))
