import random
import signal
from pathlib import Path

import pytest

from ordpareto.core import CategorySpace
from ordpareto.solvers import Edge, GraphInstance, Item, KnapsackInstance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"

# Wall-clock limit per test, so that a search that never ends fails its
# test instead of hanging the suite. The slowest test takes a few seconds.
TIME_LIMIT_S = 60


def _expire(signum, frame):
    raise TimeoutError(f"test ran longer than {TIME_LIMIT_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def routes_k3() -> GraphInstance:
    """Five node, eight edge instance with one 3-category objective.

    Exactly six simple paths from node 1 to node 4. Edge categories:
    e1..e8 = 2,1,2,1,3,2,1,2.
    """
    edges = (
        Edge(1, 1, 2, (), (2,)),
        Edge(2, 2, 3, (), (1,)),
        Edge(3, 2, 4, (), (2,)),
        Edge(4, 1, 3, (), (1,)),
        Edge(5, 3, 4, (), (3,)),
        Edge(6, 1, 5, (), (2,)),
        Edge(7, 3, 5, (), (1,)),
        Edge(8, 5, 4, (), (2,)),
    )
    return GraphInstance(5, edges, (CategorySpace(3),), 1, 4, 0)


# the six simple 1-4 paths of routes_k3, with counting and tail vectors
ROUTES_K3_TABLE = [
    ((1, 2, 5), ("eta1", "eta2", "eta3"), (1, 1, 1), (3, 2, 1)),
    ((4, 5), ("eta1", "eta3"), (1, 0, 1), (2, 1, 1)),
    ((1, 3), ("eta2", "eta2"), (0, 2, 0), (2, 2, 0)),
    ((6, 8), ("eta2", "eta2"), (0, 2, 0), (2, 2, 0)),
    ((4, 7, 8), ("eta1", "eta1", "eta2"), (2, 1, 0), (3, 1, 0)),
    ((1, 2, 7, 8), ("eta1", "eta1", "eta2", "eta2"), (2, 2, 0), (4, 2, 0)),
]


def routes_weighted() -> GraphInstance:
    """Two disjoint 1-4 routes, one real weight plus a 2-category rating.

    Both routes have total weight 10; they differ in how much of that
    weight sits on category-2 edges.
    """
    edges = (
        Edge(1, 1, 2, (1,), (2,)),
        Edge(2, 2, 3, (1,), (2,)),
        Edge(3, 3, 4, (8,), (1,)),
        Edge(4, 1, 5, (6,), (2,)),
        Edge(5, 5, 6, (2,), (1,)),
        Edge(6, 6, 4, (2,), (1,)),
    )
    return GraphInstance(6, edges, (CategorySpace(2),), 1, 4, 1)


def random_point_set(rng: random.Random, max_k: int = 5, max_n: int = 30,
                     max_coord: int = 20) -> list[tuple[int, ...]]:
    k = rng.randint(1, max_k)
    n = rng.randint(1, max_n)
    return [
        tuple(rng.randint(0, max_coord) for _ in range(k)) for _ in range(n)
    ]


def random_graph(rng: random.Random, max_nodes: int = 8,
                 max_k: int = 4) -> GraphInstance:
    nodes = rng.randint(2, max_nodes)
    k = rng.randint(1, max_k)
    n_edges = rng.randint(1, 2 * nodes)
    edges = []
    for eid in range(1, n_edges + 1):
        u = rng.randint(1, nodes)
        v = rng.randint(1, nodes)
        while v == u:
            v = rng.randint(1, nodes)
        edges.append(Edge(eid, u, v, (), (rng.randint(1, k),)))
    return GraphInstance(
        nodes, tuple(edges), (CategorySpace(k),), 1, nodes, 0
    )


def random_knapsack(rng: random.Random, max_items: int = 10,
                    max_k: int = 4) -> KnapsackInstance:
    k = rng.randint(1, max_k)
    n = rng.randint(1, max_items)
    items = tuple(
        Item(i, rng.randint(1, 8), rng.randint(1, k))
        for i in range(1, n + 1)
    )
    return KnapsackInstance(items, rng.randint(0, 30), CategorySpace(k))


def random_counting(rng: random.Random, k: int,
                    max_count: int = 10) -> tuple[int, ...]:
    return tuple(rng.randint(0, max_count) for _ in range(k))


@pytest.fixture
def rng():
    return random.Random(1729)
