import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symfusion"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check in the library may be one
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
