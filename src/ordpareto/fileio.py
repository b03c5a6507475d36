"""Instance file parsing and result serialization.

Line-oriented text format; a line ends only at \\n, \\r\\n or \\r, as open()
reads it, and '#' starts a comment:

    GRAPH <nodes> <edges>
    OBJECTIVES real=<p> ordinal=<K1[,K2,...]>
    EDGE <id> <tail> <head> <w1> .. <wp> <k1> .. <kr>
    SOURCE <s>
    TARGET <t>

    KNAPSACK <items> <capacity> <K>
    ITEM <id> <consumption> <category>

An integer is an optional '-' and ASCII digits. A weight is an exact
rational 'a/b' or a decimal string, with an optional '-' and at most
MAX_WEIGHT_DIGITS digits in numerator and denominator. No number token has
a non-ASCII character, an '_' or a leading '+'. A value has at most
MAX_COMPONENTS components: real objectives plus categories (K for a
knapsack).

The parser checks syntax and size bounds only: record arity, integers,
rationals, the bounds above, header counts, record order, and that
OBJECTIVES, SOURCE, TARGET and the two OBJECTIVES fields appear once each.
EDGE and ITEM fields convert by column, each distinct weight token once
per parse, and record by record only to word an error. What the records
mean (node and category ranges, unique ids, nonnegative weights, positive
consumptions, a nonnegative capacity) is checked once, by the instance
classes, a graph's by whole columns first and edge by edge only to name
the record at fault; the parser reports an error at that record's line.
The instance classes also check number types, which only a caller that
builds them directly can get wrong: ids, nodes, categories, ``num_real``
and ``K`` are ints; a weight, a consumption and the capacity are an int
or a ``Fraction``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from itertools import repeat

from ordpareto.core import (
    CategorySpace,
    OrdparetoError,
    excerpt,
    plain_numbers,
    plain_text,
    too_many_digits,
    unprintable,
)
from ordpareto.solvers import (
    Edge,
    GraphInstance,
    InstanceError,
    Item,
    KnapsackInstance,
    SolveResult,
)

TEXT = "text"
JSON = "json"
PLOTDATA = "plotdata"

FORMATS = (TEXT, JSON, PLOTDATA)

# Per problem, the text format's names for the transformed value, the
# solution and each of its elements (edges or items).
_NAMES = {
    "sp": ("ctilde", "path", "e"),
    "knapsack": ("chead", "items", "i"),
    "mixed": ("ctilde", "path", "e"),
    "wtop": ("ctildew", "path", "e"),
}
PROBLEMS = tuple(_NAMES)

# Well below the 4300 digits Python converts between int and str.
MAX_WEIGHT_DIGITS = 1000
_WEIGHT_LIMIT = 10**MAX_WEIGHT_DIGITS
# Every real objective and every category adds a component to each value.
MAX_COMPONENTS = 1000


class ParseError(OrdparetoError):
    """Malformed instance file; message carries the line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")


def _fraction(token: str) -> Fraction:
    # The first weight loads fractions and rebinds this name to its Fraction.
    global _fraction
    from fractions import Fraction as _fraction

    return _fraction(token)


def read_weight(token: str) -> Fraction:
    """A rational 'a/b' or decimal token, with at most MAX_WEIGHT_DIGITS digits."""
    try:
        # Fraction("1e999999999") would build 10**999999999 before the
        # size check below, so a longer exponent is refused unparsed.
        at = max(token.find("e"), token.find("E"))
        too_long = at >= 0 and abs(int(token[at + 1 :])) > MAX_WEIGHT_DIGITS
        value = None if too_long else _fraction(token)
    except (ValueError, ZeroDivisionError):
        if not too_many_digits(token):
            raise OrdparetoError(f"not a rational number: {excerpt(token)}") from None
        value = None
    if value is None or max(abs(value.numerator), value.denominator) >= _WEIGHT_LIMIT:
        raise OrdparetoError(f"weight has more than {MAX_WEIGHT_DIGITS} digits")
    return value


def _ints(tokens: Sequence[str], line_no: int) -> tuple[int, ...]:
    """Each token as an int, read in order; the first token outside the
    number grammar or ``int``'s reach is named."""
    values = []
    for token in tokens:
        try:
            if not plain_numbers((token,)):
                raise ValueError("outside the number grammar")
            values.append(int(token))
        except ValueError:
            reason = too_many_digits(token) or f"not an integer: {excerpt(token)}"
            raise ParseError(line_no, reason) from None
    return tuple(values)


def _spaces(num_real: int, ks: Sequence[int], line_no: int) -> tuple[CategorySpace, ...]:
    """The category spaces of an OBJECTIVES or KNAPSACK line, refused if
    their values would have more than MAX_COMPONENTS components; a K below
    1 is refused by CategorySpace."""
    if num_real + sum(max(k, 0) for k in ks) > MAX_COMPONENTS:
        raise ParseError(line_no, f"more than {MAX_COMPONENTS} value components")
    try:
        return tuple(CategorySpace(k) for k in ks)
    except OrdparetoError as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_instance(text: str) -> GraphInstance | KnapsackInstance:
    """Parse an instance file into a validated graph or knapsack instance."""
    lines = []
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # the newlines open() reads
    for no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            lines.append((no, tokens))
    if not lines:
        raise ParseError(1, "empty instance file")

    plain = plain_text(text)  # else the EDGE or ITEM columns are checked
    no, head = lines[0]
    if head[0] == "GRAPH":
        return _parse_graph(lines, plain)
    if head[0] == "KNAPSACK":
        return _parse_knapsack(lines, plain)
    raise ParseError(no, f"expected GRAPH or KNAPSACK header, got {excerpt(head[0])}")


def _fields(records, num_real: int = 0, read=read_weight, plain: bool = False):
    """Three int columns, then per record its weights and its categories, of
    equal-length EDGE or ITEM records ``(line, tokens)``, one number grammar
    check (unless the text is known ``plain``) and one ``map`` per column.
    Only a failed column reads the records one by one, to name the first bad
    token in line order: id, tail, head, weights, categories."""
    columns = list(zip(*[tokens for _, tokens in records]))
    try:
        if not plain and not all(map(plain_numbers, columns[1:])):
            raise ValueError("outside the number grammar")
        ints = [tuple(map(int, column)) for column in columns[1:4]] or [()] * 3
        weights = [tuple(map(read, column)) for column in columns[4 : 4 + num_real]]
        categories = [tuple(map(int, column)) for column in columns[4 + num_real :]]
    except (ValueError, OrdparetoError):
        for no, tokens in records:
            _ints(tokens[1:4], no)
            for token in tokens[4 : 4 + num_real]:
                try:
                    read(token)
                except OrdparetoError as exc:
                    raise ParseError(no, str(exc)) from None
                if not plain_numbers((token,)):
                    raise ParseError(no, f"not a rational number: {excerpt(token)}")
            _ints(tokens[4 + num_real :], no)
        raise
    none = repeat(())  # zip() of no columns would yield no record
    return *ints, zip(*weights) if weights else none, zip(*categories) if categories else none


def _parse_graph(lines, plain: bool) -> GraphInstance:
    no, head = lines[0]
    if len(head) != 3:
        raise ParseError(no, "GRAPH header needs <nodes> <edges>")
    nodes, edge_count = _ints(head[1:], no)

    num_real = width = 0  # width: tokens per EDGE line, set by OBJECTIVES
    spaces: tuple[CategorySpace, ...] = ()
    records = []  # (line, tokens) of each EDGE, converted after the loop
    read = cache(read_weight)  # a weight token is read once per parse
    once: dict[str, tuple[int, int | None]] = {}  # OBJECTIVES, SOURCE, TARGET: (line, value)

    try:
        for no, tokens in lines[1:]:
            key = tokens[0]
            if key == "EDGE":
                if len(tokens) != width:
                    if not width:
                        raise ParseError(no, "EDGE before OBJECTIVES line")
                    raise ParseError(no, f"EDGE needs id, tail, head, {num_real} weights and "
                                         f"{len(spaces)} categories ({width - 1} fields)")
                records.append((no, tokens))
            elif key in once:
                raise ParseError(no, f"repeated {key} line")
            elif key == "OBJECTIVES":
                if len(tokens) != 3:
                    raise ParseError(no, "OBJECTIVES needs real=<p> ordinal=<Ks>")
                fields: dict[str, str] = {}
                for token in tokens[1:]:
                    name, eq, field = token.partition("=")
                    if not eq or name not in ("real", "ordinal"):
                        raise ParseError(no, f"unknown OBJECTIVES field {excerpt(token)}")
                    if name in fields:
                        raise ParseError(no, f"repeated OBJECTIVES field {name}=")
                    fields[name] = field
                (num_real,) = _ints([fields["real"]], no)
                ks = _ints(fields["ordinal"].split(","), no) if fields["ordinal"] else ()
                if num_real < 0:
                    raise ParseError(no, "real objective count must be >= 0")
                spaces = _spaces(num_real, ks, no)
                width = 4 + num_real + len(spaces)
                once[key] = (no, None)
            elif key in ("SOURCE", "TARGET"):
                if len(tokens) != 2:
                    raise ParseError(no, f"{key} needs <node>")
                once[key] = (no, *_ints(tokens[1:], no))
            else:
                raise ParseError(no, f"unknown record {excerpt(key)}")
    finally:  # a bad token on an earlier EDGE line wins over a loop error
        edges = list(map(Edge._make, zip(*_fields(records, num_real, read, plain))))

    no = lines[0][0]
    if "OBJECTIVES" not in once:
        raise ParseError(no, "missing OBJECTIVES line")
    if "SOURCE" not in once or "TARGET" not in once:
        raise ParseError(no, "missing SOURCE or TARGET line")
    (source_no, source), (target_no, target) = once["SOURCE"], once["TARGET"]
    if len(edges) != edge_count:
        raise ParseError(
            no, f"header promises {excerpt(edge_count)} edges, found {len(edges)}"
        )

    try:
        return GraphInstance(nodes, edges, spaces, source, target, num_real)
    except InstanceError as exc:
        line = target_no if 1 <= source <= nodes else source_no
        raise ParseError(line if exc.record is None else records[exc.record][0], str(exc)) from None


def _parse_knapsack(lines, plain: bool) -> KnapsackInstance:
    no, head = lines[0]
    if len(head) != 4:
        raise ParseError(no, "KNAPSACK header needs <items> <capacity> <K>")
    item_count, capacity, k = _ints(head[1:], no)
    (space,) = _spaces(0, [k], no)

    records = []  # (line, tokens) of each ITEM, converted after the loop
    try:
        for no, tokens in lines[1:]:
            if tokens[0] != "ITEM":
                raise ParseError(no, f"unknown record {excerpt(tokens[0])}")
            if len(tokens) != 4:
                raise ParseError(no, "ITEM needs <id> <consumption> <category>")
            records.append((no, tokens))
    finally:  # a bad token on an earlier ITEM line wins over a loop error
        items = list(map(Item._make, zip(*_fields(records, plain=plain)[:3])))
    no = lines[0][0]
    if len(items) != item_count:
        raise ParseError(
            no, f"header promises {excerpt(item_count)} items, found {len(items)}"
        )

    try:
        return KnapsackInstance(items, capacity, space)
    except InstanceError as exc:
        line = no if exc.record is None else records[exc.record][0]
        raise ParseError(line, str(exc)) from None


def vector_text(values: Sequence) -> str:
    """A vector as the text format prints it: ``(3,1/2,eta1)``."""
    return "(" + ",".join(map(str, values)) + ")"


def emit_result(res: SolveResult, fmt: str = TEXT, problem: str = "sp") -> str:
    """Serialize a solve result deterministically.

    Each ordinal objective's o-space image is written with the category
    labels ``eta<i>``. ``problem`` (one of ``PROBLEMS``) names the value and
    the solution in the text format: ``ctilde=``/``path=e1,..`` for ``sp``
    and ``mixed``, ``ctildew=`` for ``wtop``, ``chead=``/``items=i1,..`` for
    ``knapsack``. The whole output is built before it is returned; a value
    whose numerator or denominator has more digits than ``str`` converts
    (``sys.get_int_max_str_digits()``) is refused with an OrdparetoError.
    """
    if fmt not in FORMATS:
        raise OrdparetoError(f"unknown format {fmt!r}; choose from {FORMATS}")
    if problem not in _NAMES:
        raise OrdparetoError(f"unknown problem {problem!r}; choose from {PROBLEMS}")
    value_key, solution_key, prefix = _NAMES[problem]
    sep = "," + prefix
    try:  # str() and json raise ValueError only past the digit limit
        if fmt == JSON:
            return _emit_json(res)
        if not res.entries:
            return "UNREACHABLE\n"
        if fmt == PLOTDATA:
            return "\n".join(" ".join(map(str, e.value)) for e in res.entries) + "\n"
        lines = []
        for entry in res.entries:
            parts = ["w=" + vector_text(entry.weights)] if entry.weights else []
            parts += ["c=" + vector_text(counts) for counts in entry.countings]
            parts.append(value_key + "=" + vector_text(entry.value))
            parts += ["o=" + vector_text([f"eta{i}" for i in o]) for o in entry.ordinals]
            for sol in entry.solutions:
                parts.append(f"{solution_key}={prefix + sep.join(map(str, sol)) if sol else ''}")
            lines.append(" ".join(parts))
        return "\n".join(sorted(lines)) + "\n"
    except ValueError:
        raise unprintable("a frontier value") from None


def _emit_json(res: SolveResult) -> str:
    import json
    entries = []
    for entry in res.entries:
        entries.append(
            {
                "value": [
                    v if isinstance(v, int) else str(v) for v in entry.value
                ],
                "weights": [str(w) for w in entry.weights],
                "counting": [list(c) for c in entry.countings],
                "ordinal": [[f"eta{i}" for i in o] for o in entry.ordinals],
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
