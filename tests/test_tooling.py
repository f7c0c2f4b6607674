import ast
from collections import Counter
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


def test_library_imports_no_unused_name():
    # an imported name nothing reads is dead code; __init__ only re-exports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unused, unused


# Definitions that nothing in the library calls but that stay, each for a reason
KEPT_UNCALLED = {
    "extend_tableau": "symalg: perfbench's ga_fusion workload imports it",
    "encode": "tensorop: the tests' decoded reference for slot_codes",
    "decode": "tensorop: the tests' decoded reference for slot_codes",
    "intersect": "tensorop: the tests' independent route to kernel_within's traceless part",
}


def _definitions(tree):
    """(name, node) for the module-level functions and classes and the
    non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item


def _references(tree) -> list[str]:
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def test_library_defines_nothing_uncalled():
    # a definition is live when some library code outside its own def reads
    # its name, or when __init__ re-exports it
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in ast.walk(trees.pop("__init__.py"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    counts = Counter(name for tree in trees.values() for name in _references(tree))
    uncalled = [f"{module}:{node.lineno} {name}" for module, tree in trees.items()
                for name, node in _definitions(tree)
                if name not in exported and name not in KEPT_UNCALLED
                and counts[name] == _references(node).count(name)]
    assert not uncalled, uncalled
