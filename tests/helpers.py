"""Reference code that only the tests call.

The paper's two other formulas for a solution's value under a numerical
representation, the cone matrices entry by entry, the instance writer
that the parser's round-trip tests invert, the path searches' edge costs,
field bounds and packed ints vector by vector, and small graphs of the
shapes the label search is timed on. The package computes none of these
this way, so they live here, beside the tests that check the package
against them.
"""

from fractions import Fraction
from operator import lshift
from random import Random

from ordpareto.core import A_HEAD, A_TAIL, B_TAIL, CategorySpace, ConeMatrix
from ordpareto.oracle import NumericalRepresentation
from ordpareto.solvers import Edge, GraphInstance, KnapsackInstance


def numeric_value_per_element(nu: NumericalRepresentation, cats) -> int:
    """Same total as ``numeric_value``, summed element by element."""
    return sum(nu.values[c - 1] for c in cats)


def numeric_value_tail_form(nu: NumericalRepresentation, tails) -> int:
    """Same total as ``numeric_value``, evaluated on the tail vector:
    value(1) * tails[0] plus the value increments times the remaining tail
    entries."""
    v = nu.values
    total = v[0] * tails[0]
    for i in range(1, len(v)):
        total += (v[i] - v[i - 1]) * tails[i]
    return total


def cone_entry(cone: ConeMatrix, i: int, j: int) -> int:
    """The matrix entry at 1-based (row, column)."""
    if cone.kind == A_TAIL:
        return 1 if i <= j else 0
    if cone.kind == A_HEAD:
        return 1 if j <= i else 0
    if cone.kind == B_TAIL:
        return 1 if i == j else (-1 if i == j - 1 else 0)
    return 1 if i == j else (-1 if j == i - 1 else 0)  # B_head


def cone_rows(cone: ConeMatrix) -> tuple[tuple[int, ...], ...]:
    """The matrix as a tuple of rows."""
    return tuple(
        tuple(cone_entry(cone, i, j) for j in range(1, cone.K + 1))
        for i in range(1, cone.K + 1)
    )


def emit_instance(inst: GraphInstance | KnapsackInstance) -> str:
    """Serialize an instance back into the text format (lossless)."""
    out = []
    if isinstance(inst, GraphInstance):
        out.append(f"GRAPH {inst.nodes} {len(inst.edges)}")
        ks = ",".join(str(s.K) for s in inst.spaces)
        out.append(f"OBJECTIVES real={inst.num_real} ordinal={ks}")
        for e in inst.edges:
            fields = [str(e.id), str(e.tail), str(e.head)]
            fields += [str(w) for w in e.weights]
            fields += [str(c) for c in e.categories]
            out.append("EDGE " + " ".join(fields))
        out.append(f"SOURCE {inst.source}")
        out.append(f"TARGET {inst.target}")
    else:
        out.append(f"KNAPSACK {len(inst.items)} {inst.capacity} {inst.space.K}")
        for item in inst.items:
            out.append(f"ITEM {item.id} {item.weight} {item.category}")
    return "\n".join(out) + "\n"


def pack(vector, shifts) -> int:
    """One vector packed into the fields at ``shifts`` (``core.fields``),
    component by component."""
    return sum(map(lshift, vector, shifts))


def transformed_costs(g: GraphInstance, reals=(), weights=None) -> list[tuple[int, ...]]:
    """Each edge's transformed cost vector, built edge by edge: its entries
    of the int columns ``reals``, then per ordinal objective a tail vector
    that holds its weight (1, or its entry of ``weights``) in components
    1..c for category c."""
    costs = []
    for i, e in enumerate(g.edges):
        w = 1 if weights is None else weights[i]
        vec = tuple(col[i] for col in reals)
        for c, space in zip(e.categories, g.spaces):
            vec += (w,) * c + (0,) * (space.K - c)
        costs.append(vec)
    return costs


def field_bounds(g: GraphInstance, costs, width: int) -> list[int]:
    """Each of ``width`` components' bound on path values, ``min(nodes *
    max_j, sum_j + max_j)`` over the empty path's zeros and ``costs``."""
    return [min(g.nodes * max(c), sum(c) + max(c)) for c in zip((0,) * width, *costs)]


def layered_dag(rng: Random, layers: int, width: int, K: int) -> GraphInstance:
    """Source, ``layers`` layers of ``width`` nodes, then the target, with
    consecutive layers joined complete-bipartite. Each edge has a uniform
    category in 1..K and no weight."""
    target = layers * width + 2
    columns = [[1], *(range(2 + l * width, 2 + (l + 1) * width) for l in range(layers)), [target]]
    arcs = [(u, v) for us, vs in zip(columns, columns[1:]) for u in us for v in vs]
    edges = (Edge(i, u, v, (), (rng.randint(1, K),)) for i, (u, v) in enumerate(arcs, start=1))
    return GraphInstance(target, edges, (CategorySpace(K),), 1, target)


def bidirected_grid(rng: Random, rows: int, cols: int, K: int) -> GraphInstance:
    """A rows x cols grid with both arcs between neighbours, from corner to
    corner. Each arc has one weight a/b (a in 1..9, b in 1..4) and a uniform
    category in 1..K."""
    arcs = []
    for u in range(1, rows * cols + 1):
        if u % cols:
            arcs += [(u, u + 1), (u + 1, u)]
        if u + cols <= rows * cols:
            arcs += [(u, u + cols), (u + cols, u)]
    edges = (
        Edge(i, u, v, (Fraction(rng.randint(1, 9), rng.randint(1, 4)),), (rng.randint(1, K),))
        for i, (u, v) in enumerate(arcs, start=1)
    )
    return GraphInstance(rows * cols, edges, (CategorySpace(K),), 1, rows * cols, 1)


def ladder_and_chain(stages: int, chain: int, ladder_first: bool = True) -> GraphInstance:
    """A ladder of ``stages`` diamonds (u -> a, u -> b, a -> v, b -> v) and
    a chain of ``chain`` edges, the ladder first unless ``ladder_first`` is
    false, from node 1 to the last node. With K = 1 every s-t path has the
    same value, 2 * stages + chain, so all 2**stages of them are efficient."""
    diamond, link = ((0, 1), (0, 2), (1, 3), (2, 3)), ((0, 1),)  # arcs by offset
    parts = [[diamond] * stages, [link] * chain]
    arcs, node = [], 1
    for block in sum(parts if ladder_first else parts[::-1], []):
        arcs += [(node + u, node + v) for u, v in block]
        node += block[-1][1]
    edges = (Edge(i, u, v, (), (1,)) for i, (u, v) in enumerate(arcs, start=1))
    return GraphInstance(node, edges, (CategorySpace(1),), 1, node)
