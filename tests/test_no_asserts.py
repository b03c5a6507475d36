import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # ``python -O`` strips asserts, so invariants must raise explicitly.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.rglob("*.py")), "no modules found under src/"
    assert found == []
