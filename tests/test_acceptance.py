"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Every check is exact (integer or rational equality); the timed
criteria assert their wall-clock budget.
"""

import random
import time
from fractions import Fraction

from ordpareto.core import (
    A_HEAD,
    A_TAIL,
    B_HEAD,
    B_TAIL,
    ConeMatrix,
    counting_vector,
    ordinal_vector,
    tail_transform,
)
from ordpareto.fileio import parse_instance
from ordpareto.nondominance import (
    PointSet,
    is_supported,
    pareto_filter,
)
from ordpareto.oracle import (
    NumericalRepresentation,
    dominance_certificate,
    enumerate_paths,
    head_dominates,
    mapping_check,
    numeric_value,
    oracle_efficient_set,
    oracle_result,
    tail_dominates,
    weakly_tail_dominates,
)
from ordpareto.scalarization import lambda_to_mu, weight_space_decomposition
from ordpareto.solvers import (
    UNREACHABLE,
    solve_knapsack,
    solve_mixed,
    solve_shortest_path,
    solve_weighted_counting,
)

from conftest import (
    INSTANCE_DIR,
    ROUTES_K3_TABLE,
    random_graph,
    random_knapsack,
    random_point_set,
    routes_k3,
    routes_weighted,
)
from helpers import numeric_value_per_element, numeric_value_tail_form


def report(number, text):
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_instance_table_regression(capsys):
    start = time.perf_counter()
    g = parse_instance((INSTANCE_DIR / "routes_k3.graph").read_text())
    feasible = enumerate_paths(g)
    by_path = {s.elements: s.countings[0] for s in feasible}
    assert len(by_path) == 6
    for path, ordinal, counts, tails in ROUTES_K3_TABLE:
        c = by_path[path]
        assert c == counts
        assert tail_transform(c) == tails
        labels = tuple(f"eta{i}" for i in ordinal_vector(c))
        assert labels == ordinal
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, f"all six (o, c, ctilde) table rows exact ({elapsed:.3f}s)")


def test_criterion_02_efficient_set(capsys):
    start = time.perf_counter()
    g = routes_k3()
    res = solve_shortest_path(g)
    assert set(res.values()) == {(2, 1, 1), (2, 2, 0), (3, 1, 0)}
    res_all = solve_shortest_path(g, all_efficient=True)
    paths = {s for e in res_all.entries for s in e.solutions}
    assert paths == {(4, 5), (1, 3), (6, 8), (4, 7, 8)}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(
            2,
            "efficient tails {(2,1,1),(2,2,0),(3,1,0)}; all four efficient "
            f"paths under --all-efficient ({elapsed:.3f}s)",
        )


def test_criterion_03_transform_example(capsys):
    countings = [(3, 1, 0), (0, 2, 1), (0, 0, 2), (1, 0, 2)]
    expected = [(4, 1, 0), (3, 3, 1), (2, 2, 2), (3, 2, 2)]
    assert [tail_transform(c) for c in countings] == expected
    with capsys.disabled():
        report(3, "four counting vectors map to the pinned tail vectors")


def test_criterion_04_supportedness(capsys):
    ps = PointSet(((4, 1), (5, 0), (2, 2)))
    assert (4, 1) in pareto_filter(ps).points
    assert not is_supported((4, 1), ps)
    assert is_supported((5, 0), ps)
    assert is_supported((2, 2), ps)
    with capsys.disabled():
        report(4, "(4,1) non-dominated yet unsupported; (5,0),(2,2) supported")


def test_criterion_05_weight_space_vertex(capsys):
    start = time.perf_counter()
    tails = PointSet(((2, 1, 1), (2, 2, 0), (3, 1, 0)))
    cells = weight_space_decomposition(tails)
    assert len(cells) == 3
    common = set(cells[0].vertices)
    for cell in cells[1:]:
        common &= set(cell.vertices)
    assert common == {(Fraction(1, 3), Fraction(1, 3))}
    lam = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    mu = lambda_to_mu(lam)
    assert mu == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    for cell in cells:
        assert mu in cell.mu_vertices
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(
            5,
            "three cells share exactly lambda=(1/3,1/3,1/3), "
            f"mu=(1/6,1/3,1/2) ({elapsed:.3f}s)",
        )


def test_criterion_06_modelling_split(capsys):
    g = routes_weighted()
    wtop = solve_weighted_counting(g)
    assert wtop.values() == ((Fraction(10), Fraction(2)),)
    assert [e.solutions for e in wtop.entries] == [((1, 2, 3),)]
    moop = solve_mixed(g)
    assert moop.values() == ((Fraction(10), 3, 1),)
    assert [e.solutions for e in moop.entries] == [((4, 5, 6),)]
    with capsys.disabled():
        report(
            6,
            "WTOP unique optimum path e1,e2,e3 with ctildew=(10,2); "
            "MOOP unique optimum path e4,e5,e6",
        )


def test_criterion_07_representation_disagreement(capsys):
    nu_a = NumericalRepresentation((1, 2, 5))
    nu_b = NumericalRepresentation((2, 3, 4))
    c_x5 = (2, 1, 0)
    c_x2 = (1, 0, 1)
    assert numeric_value(nu_a, c_x5) == 4
    assert numeric_value(nu_a, c_x2) == 6
    assert numeric_value(nu_b, c_x2) == 6
    assert numeric_value(nu_b, c_x5) == 7
    assert not tail_dominates(c_x2, c_x5)
    assert not tail_dominates(c_x5, c_x2)
    cert = dominance_certificate(c_x2, c_x5)
    assert cert.relation == "not-dominated"
    cert = dominance_certificate(c_x5, c_x2)
    assert cert.relation == "not-dominated"
    with capsys.disabled():
        report(
            7,
            "nu_A prefers (2,1,0) at 4<6, nu_B prefers (1,0,1) at 6<7; "
            "incomparable both ways",
        )


def test_criterion_08_matrix_identities(capsys):
    for k in range(1, 11):
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
        )
        for a_kind, b_kind in ((A_TAIL, B_TAIL), (A_HEAD, B_HEAD)):
            a = ConeMatrix(k, a_kind)
            b = ConeMatrix(k, b_kind)
            assert tuple(a.apply(b.apply(e)) for e in identity) == identity
            assert tuple(b.apply(a.apply(e)) for e in identity) == identity
    with capsys.disabled():
        report(8, "A.B = B.A = I for the tail and head pairs, K=1..10")


def test_criterion_09_mapping_theorem_suite(capsys):
    start = time.perf_counter()
    rng = random.Random(20240917)
    for _ in range(100):
        pts = random_point_set(rng, max_k=5, max_n=30, max_coord=20)
        cone = ConeMatrix(len(pts[0]), A_TAIL)
        assert mapping_check(PointSet(tuple(pts)), cone)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(
            9,
            "mapping_check true on 100 random point sets "
            f"({elapsed:.2f}s < 5s)",
        )


def test_criterion_10_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(31337)
    reachable = 0
    for _ in range(100):
        g = random_graph(rng, max_nodes=8)
        res = solve_shortest_path(g)
        assert res == oracle_result(g, "sp")
        feasible = enumerate_paths(g)
        reachable += res.status != UNREACHABLE
        tail = oracle_efficient_set(feasible, "tail")
        assert tail == oracle_efficient_set(feasible, "ordinal-sampled")
    assert reachable >= 30
    for _ in range(100):
        k = random_knapsack(rng, max_items=10)
        assert solve_knapsack(k) == oracle_result(k, "knapsack")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(
            10,
            "solver = oracle on 100 graphs and 100 knapsacks; tail = "
            f"ordinal-sampled throughout ({elapsed:.2f}s < 30s)",
        )


def test_criterion_11_equal_cardinality_lemma(capsys):
    rng = random.Random(271828)
    for _ in range(1000):
        k = rng.randint(1, 6)
        u = tuple(rng.randint(0, 6) for _ in range(k))
        v = list(u)
        rng.shuffle(v)
        for _ in range(rng.randint(0, 5)):
            i, j = rng.randrange(k), rng.randrange(k)
            if v[i] > 0:
                v[i] -= 1
                v[j] += 1
        v = tuple(v)
        assert sum(u) == sum(v)
        assert head_dominates(u, v) == tail_dominates(u, v)
        assert weakly_tail_dominates(u, v) == (
            tail_dominates(u, v) or u == v
        )
    with capsys.disabled():
        report(11, "head <=> tail dominance on 1000 equal-cardinality pairs")


def test_criterion_12_three_formula_agreement(capsys):
    nu = NumericalRepresentation((2, 4, 7, 8))
    c = (1, 2, 1, 3)
    assert numeric_value(nu, c) == 41
    assert numeric_value_per_element(nu, ordinal_vector(c)) == 41
    assert numeric_value_tail_form(nu, tail_transform(c)) == 41
    rng = random.Random(161803)
    for _ in range(1000):
        k = rng.randint(1, 6)
        vals, cur = [], rng.randint(0, 5)
        for _ in range(k):
            vals.append(cur)
            cur += rng.randint(1, 5)
        nu = NumericalRepresentation(tuple(vals))
        c = tuple(rng.randint(0, 10) for _ in range(k))
        expected = numeric_value(nu, c)
        assert numeric_value_per_element(nu, ordinal_vector(c)) == expected
        assert numeric_value_tail_form(nu, tail_transform(c)) == expected
    with capsys.disabled():
        report(
            12,
            "three evaluation routes agree on 1000 random (nu, c) pairs "
            "and give 41 on the pinned instance",
        )
