"""Static checks on the library source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "maxent_bayes"


def test_library_code_has_no_assert_statements():
    # python -O strips assert statements, so a library check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
