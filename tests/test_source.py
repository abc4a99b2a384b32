import ast
from pathlib import Path

import metabasins

SOURCES = sorted(Path(metabasins.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariants must raise typed errors
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
