"""Property tests of the instance format and the CLI error contract."""

import contextlib
import io
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ordpareto.cli import main
from ordpareto.core import CategorySpace
from ordpareto.fileio import parse_instance
from ordpareto.solvers import Edge, GraphInstance, Item, KnapsackInstance

from conftest import INSTANCE_DIR
from helpers import emit_instance

# Seeded so that the suite runs the same examples every time.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def graphs(draw):
    nodes = draw(st.integers(1, 6))
    num_real = draw(st.integers(0, 2))
    ks = draw(st.lists(st.integers(1, 4), max_size=3))
    node = st.integers(1, nodes)
    weight = st.fractions(min_value=0, max_value=100, max_denominator=12)
    edges = tuple(
        Edge(
            eid,
            draw(node),
            draw(node),
            tuple(draw(weight) for _ in range(num_real)),
            tuple(draw(st.integers(1, k)) for k in ks),
        )
        for eid in draw(st.lists(st.integers(-20, 50), unique=True, max_size=8))
    )
    spaces = tuple(CategorySpace(k) for k in ks)
    return GraphInstance(nodes, edges, spaces, draw(node), draw(node), num_real)


@st.composite
def knapsacks(draw):
    K = draw(st.integers(1, 5))
    items = tuple(
        Item(iid, draw(st.integers(1, 20)), draw(st.integers(1, K)))
        for iid in draw(st.lists(st.integers(-20, 50), unique=True, max_size=8))
    )
    return KnapsackInstance(items, draw(st.integers(0, 60)), CategorySpace(K))


@PROPERTY
@given(st.one_of(graphs(), knapsacks()))
def test_parse_inverts_emit(inst):
    assert parse_instance(emit_instance(inst)) == inst


def assert_contract(code, out, err):
    """Exit 0 with empty stderr, or exit 1 with one short ``error:`` line."""
    if code == 0:
        assert err == ""
    else:
        assert code == 1, (code, out)
        assert re.fullmatch(r"error: [^\n]+\n", err)
        assert len(err) <= 201, err  # 200 characters and the newline


def run(argv, stdin=""):
    """``main(argv)`` on ``stdin``: its exit code, stdout and stderr."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


BASES = [p.read_text() for p in sorted(INSTANCE_DIR.iterdir())]
# Single characters only: a few inserted digits keep every number small.
CHARS = st.sampled_from(list("0123456789 -/.e#,=\n\tEGRAPHSOUTCIMKNx") + ["é"])


@st.composite
def mutated(draw):
    """An instance file after one to three character or line edits."""
    text = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "lines"]))
        pos = draw(st.integers(0, len(text)))
        if kind == "insert":
            text = text[:pos] + draw(CHARS) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 4)):]
        elif kind == "replace":
            text = text[:pos] + draw(CHARS) + text[pos + 1:]
        elif text:  # drop, duplicate or swap whole lines
            lines = text.splitlines(keepends=True)
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            op = draw(st.sampled_from(["drop", "dup", "swap"]))
            if op == "drop":
                del lines[i]
            elif op == "dup":
                lines.insert(i, lines[j])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
    return text


COMMANDS = [["solve", p] for p in ("sp", "mixed", "wtop", "knapsack")]
COMMANDS += [["oracle-check"]]


def test_mutated_instances_exit_0_or_one_error_line(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated") / "instance.txt"

    @PROPERTY
    @given(mutated(), st.sampled_from(COMMANDS), st.booleans())
    def check(text, command, all_efficient):
        path.write_text(text, encoding="utf-8")
        argv = command + [str(path)]
        if all_efficient and command[0] == "solve":
            argv.append("--all-efficient")
        assert_contract(*run(argv))

    check()


STDIN_CHARS = st.sampled_from(list("0123456789 -,#\n\tx/"))


@st.composite
def stdin_texts(draw):
    """A few lines of small integers after up to three character edits."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 9), min_size=dim, max_size=dim)
    text = "".join(" ".join(map(str, r)) + "\n" for r in draw(st.lists(row, max_size=5)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(STDIN_CHARS) + text[pos + draw(st.integers(0, 1)):]
    return text


STDIN_COMMANDS = [
    ["filter", "--cone", cone, "--sense", sense]
    for cone in ("pareto", "tail", "head")
    for sense in ("min", "max")
]
STDIN_COMMANDS += [["transform"], ["transform", "--inverse"], ["transform", "--head"]]
STDIN_COMMANDS += [["scalarize", "--weights", w] for w in ("1", "1/2,1/2", "1/6,1/3,1/2")]
STDIN_COMMANDS += [["wsd"]]


@PROPERTY
@given(stdin_texts(), st.sampled_from(STDIN_COMMANDS))
def test_stdin_exits_0_or_one_error_line(text, command):
    assert_contract(*run(command, text))
