"""Instance file parsing and result serialization.

Line-oriented text format, '#' starts a comment:

    GRAPH <nodes> <edges>
    OBJECTIVES real=<p> ordinal=<K1[,K2,...]>
    EDGE <id> <tail> <head> <w1> .. <wp> <k1> .. <kr>
    SOURCE <s>
    TARGET <t>

    KNAPSACK <items> <capacity> <K>
    ITEM <id> <consumption> <category>

Weights accept exact rationals as 'a/b' or decimal strings, with at most
MAX_WEIGHT_DIGITS digits in numerator and denominator. A value has at most
MAX_COMPONENTS components: real objectives plus categories (K for a
knapsack).

The parser checks syntax and size bounds only: record arity, integers,
rationals, the bounds above, header counts and record order. What the
records mean (node and category ranges, unique ids, nonnegative weights,
positive consumptions, a nonnegative capacity) is checked once, by the
instance classes; their errors name the record at fault, and the parser
reports them at that record's line.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from ordpareto.core import CategorySpace, OrdparetoError, excerpt, too_many_digits
from ordpareto.solvers import (
    Edge,
    GraphInstance,
    InstanceError,
    Item,
    KnapsackInstance,
    SolveResult,
    UNREACHABLE,
)

TEXT = "text"
JSON = "json"
PLOTDATA = "plotdata"

FORMATS = (TEXT, JSON, PLOTDATA)

# Well below the 4300 digits Python converts between int and str.
MAX_WEIGHT_DIGITS = 1000
_WEIGHT_LIMIT = 10**MAX_WEIGHT_DIGITS
# Each category costs a label and a value component on every edge or item.
MAX_COMPONENTS = 1000


class ParseError(OrdparetoError):
    """Malformed instance file; message carries the line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")


def read_weight(token: str) -> Fraction:
    """A rational 'a/b' or decimal token, with at most MAX_WEIGHT_DIGITS digits."""
    try:
        # Fraction("1e999999999") would build 10**999999999 before the
        # size check below, so a longer exponent is refused unparsed.
        at = max(token.find("e"), token.find("E"))
        too_long = at >= 0 and abs(int(token[at + 1 :])) > MAX_WEIGHT_DIGITS
        value = None if too_long else Fraction(token)
    except (ValueError, ZeroDivisionError):
        if not too_many_digits(token):
            raise OrdparetoError(f"not a rational number: {excerpt(token)}") from None
        value = None
    if value is None or max(abs(value.numerator), value.denominator) >= _WEIGHT_LIMIT:
        raise OrdparetoError(f"weight has more than {MAX_WEIGHT_DIGITS} digits")
    return value


def _int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        reason = too_many_digits(token) or f"not an integer: {excerpt(token)}"
        raise ParseError(line_no, reason) from None


def _spaces(num_real: int, ks: list[int], line_no: int) -> tuple[CategorySpace, ...]:
    """The category spaces of an OBJECTIVES or KNAPSACK line, bounded before
    any of them builds its labels; a K below 1 is refused by CategorySpace."""
    if num_real + sum(max(k, 0) for k in ks) > MAX_COMPONENTS:
        raise ParseError(line_no, f"more than {MAX_COMPONENTS} value components")
    try:
        return tuple(CategorySpace(k) for k in ks)
    except OrdparetoError as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_instance(text: str) -> GraphInstance | KnapsackInstance:
    """Parse an instance file into a validated graph or knapsack instance."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped.split()))
    if not lines:
        raise ParseError(1, "empty instance file")

    no, head = lines[0]
    if head[0] == "GRAPH":
        return _parse_graph(lines)
    if head[0] == "KNAPSACK":
        return _parse_knapsack(lines)
    raise ParseError(no, f"expected GRAPH or KNAPSACK header, got {excerpt(head[0])}")


def _parse_graph(lines) -> GraphInstance:
    no, head = lines[0]
    if len(head) != 3:
        raise ParseError(no, "GRAPH header needs <nodes> <edges>")
    nodes = _int(head[1], no)
    edge_count = _int(head[2], no)

    num_real = 0
    ks: list[int] = []
    spaces: tuple[CategorySpace, ...] = ()
    edges: list[Edge] = []
    edge_lines: list[int] = []
    source = target = source_no = target_no = None
    saw_objectives = False

    for no, tokens in lines[1:]:
        key = tokens[0]
        if key == "OBJECTIVES":
            if len(tokens) != 3:
                raise ParseError(no, "OBJECTIVES needs real=<p> ordinal=<Ks>")
            for token in tokens[1:]:
                if token.startswith("real="):
                    num_real = _int(token[5:], no)
                elif token.startswith("ordinal="):
                    ks = [_int(k, no) for k in token[8:].split(",") if k]
                else:
                    raise ParseError(no, f"unknown OBJECTIVES field {excerpt(token)}")
            if num_real < 0:
                raise ParseError(no, "real objective count must be >= 0")
            spaces = _spaces(num_real, ks, no)
            saw_objectives = True
        elif key == "EDGE":
            if not saw_objectives:
                raise ParseError(no, "EDGE before OBJECTIVES line")
            expected = 4 + num_real + len(spaces)
            if len(tokens) != expected:
                raise ParseError(
                    no,
                    f"EDGE needs id, tail, head, {num_real} weights and "
                    f"{len(spaces)} categories ({expected - 1} fields)",
                )
            eid = _int(tokens[1], no)
            u = _int(tokens[2], no)
            v = _int(tokens[3], no)
            try:
                weights = tuple(map(read_weight, tokens[4 : 4 + num_real]))
            except OrdparetoError as exc:
                raise ParseError(no, str(exc)) from None
            cats = tuple(_int(t, no) for t in tokens[4 + num_real :])
            edges.append(Edge(eid, u, v, weights, cats))
            edge_lines.append(no)
        elif key in ("SOURCE", "TARGET"):
            if len(tokens) != 2:
                raise ParseError(no, f"{key} needs <node>")
            if key == "SOURCE":
                source, source_no = _int(tokens[1], no), no
            else:
                target, target_no = _int(tokens[1], no), no
        else:
            raise ParseError(no, f"unknown record {excerpt(key)}")

    no = lines[0][0]
    if not saw_objectives:
        raise ParseError(no, "missing OBJECTIVES line")
    if source is None or target is None:
        raise ParseError(no, "missing SOURCE or TARGET line")
    if len(edges) != edge_count:
        raise ParseError(
            no, f"header promises {edge_count} edges, found {len(edges)}"
        )

    try:
        return GraphInstance(nodes, edges, spaces, source, target, num_real)
    except InstanceError as exc:
        terminal_no = target_no if 1 <= source <= nodes else source_no
        line = terminal_no if exc.record is None else edge_lines[exc.record]
        raise ParseError(line, str(exc)) from None


def _parse_knapsack(lines) -> KnapsackInstance:
    no, head = lines[0]
    if len(head) != 4:
        raise ParseError(no, "KNAPSACK header needs <items> <capacity> <K>")
    item_count = _int(head[1], no)
    capacity = _int(head[2], no)
    (space,) = _spaces(0, [_int(head[3], no)], no)

    items: list[Item] = []
    item_lines: list[int] = []
    for no, tokens in lines[1:]:
        if tokens[0] != "ITEM":
            raise ParseError(no, f"unknown record {excerpt(tokens[0])}")
        if len(tokens) != 4:
            raise ParseError(no, "ITEM needs <id> <consumption> <category>")
        items.append(
            Item(_int(tokens[1], no), _int(tokens[2], no), _int(tokens[3], no))
        )
        item_lines.append(no)
    no = lines[0][0]
    if len(items) != item_count:
        raise ParseError(
            no, f"header promises {item_count} items, found {len(items)}"
        )

    try:
        return KnapsackInstance(items, capacity, space)
    except InstanceError as exc:
        line = no if exc.record is None else item_lines[exc.record]
        raise ParseError(line, str(exc)) from None


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
        out.append(
            f"KNAPSACK {len(inst.items)} {inst.capacity} {inst.space.K}"
        )
        for item in inst.items:
            out.append(f"ITEM {item.id} {item.weight} {item.category}")
    return "\n".join(out) + "\n"


def _vec(values: Sequence) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _ordinal_labels(space: CategorySpace, indices: Sequence[int]) -> list[str]:
    return [space.label(i) for i in indices]


def emit_result(
    res: SolveResult,
    fmt: str = TEXT,
    spaces: Sequence[CategorySpace] = (),
    element_prefix: str = "e",
    value_key: str = "ctilde",
    solution_key: str = "path",
) -> str:
    """Serialize a solve result deterministically.

    ``spaces`` (one per ordinal objective) supplies the category labels for
    the o-space image; ``element_prefix`` is 'e' for edges, 'i' for items;
    ``value_key``/``solution_key`` name the transformed value and the
    element list in the text format ('chead'/'items' for knapsack results).
    """
    if fmt not in FORMATS:
        raise OrdparetoError(f"unknown format {fmt!r}; choose from {FORMATS}")
    if fmt == JSON:
        return _emit_json(res, spaces)
    if res.status == UNREACHABLE:
        return "UNREACHABLE\n"
    if fmt == PLOTDATA:
        return (
            "\n".join(
                " ".join(str(v) for v in entry.value) for entry in res.entries
            )
            + "\n"
        )
    lines = []
    for entry in res.entries:
        parts = []
        if entry.weights:
            parts.append("w=" + _vec(entry.weights))
        for counts in entry.countings:
            parts.append("c=" + _vec(counts))
        parts.append(value_key + "=" + _vec(entry.value))
        for space, ordinal in zip(spaces, entry.ordinals):
            parts.append("o=" + _vec(_ordinal_labels(space, ordinal)))
        for sol in entry.solutions:
            parts.append(
                solution_key
                + "="
                + ",".join(element_prefix + str(i) for i in sol)
            )
        lines.append(" ".join(parts))
    return "\n".join(sorted(lines)) + "\n"


def _emit_json(res: SolveResult, spaces: Sequence[CategorySpace]) -> str:
    entries = []
    for entry in res.entries:
        entries.append(
            {
                "value": [
                    v if isinstance(v, int) else str(v) for v in entry.value
                ],
                "weights": [str(w) for w in entry.weights],
                "counting": [list(c) for c in entry.countings],
                "ordinal": [
                    _ordinal_labels(space, ordinal)
                    for space, ordinal in zip(spaces, entry.ordinals)
                ],
                "solutions": [list(sol) for sol in entry.solutions],
            }
        )
    return (
        json.dumps(
            {"status": res.status, "entries": entries},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
