import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _scan(predicate) -> list[str]:
    """``module:line`` of every node under ``src/`` that ``predicate`` accepts."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules, "no modules found under src/"
    return [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if predicate(node)
    ]


def test_no_assert_statements_in_src():
    # ``python -O`` strips asserts, so invariants must raise explicitly.
    assert _scan(lambda node: isinstance(node, ast.Assert)) == []


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_errors_raised_in_src():
    # The CLI reports an OrdparetoError as one error: line; an AssertionError
    # would end in a traceback.
    assert _scan(_raises_assertion_error) == []


def _is_float(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def test_no_floats_in_src():
    # All arithmetic is exact: no float literal and no float(...) call.
    assert _scan(_is_float) == []


def _carries_nothing(node: ast.ClassDef) -> bool:
    """Whether a class body is only a docstring (or ``pass``)."""
    return all(
        isinstance(stmt, ast.Pass)
        or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
        for stmt in node.body
    )


def test_every_error_subclass_carries_something():
    # An OrdparetoError subclass earns its own type only with a body that a
    # caller reads, as InstanceError's record or ParseError's line prefix; an
    # error that carries nothing is an OrdparetoError with its own message.
    classes = [
        node
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    errors: set[str] = set()
    while True:  # subclasses of subclasses too
        bases = errors | {"OrdparetoError"}
        found = {c.name for c in classes if any(getattr(b, "id", None) in bases for b in c.bases)}
        if found == errors:
            break
        errors = found
    assert sorted(c.name for c in classes if c.name in errors and _carries_nothing(c)) == []
    assert {"InstanceError", "ParseError"} <= errors  # the scan sees the subclasses
