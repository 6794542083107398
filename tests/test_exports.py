"""The package exports only what its front ends use: every name in
``alloc_bandit.__all__`` must be loaded or imported by name in the CLI, the
harness or a script, outside the name's own ``def`` or ``class``."""

import ast
import glob
import os

import alloc_bandit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLERS = [
    os.path.join(ROOT, "src", "alloc_bandit", "cli.py"),
    os.path.join(ROOT, "src", "alloc_bandit", "harness.py"),
    *sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py"))),
]


def used_names(tree: ast.AST) -> set:
    """Names loaded or imported in ``tree``, leaving out each use that sits
    inside a ``def`` or ``class`` of the same name."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                used.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def test_callers_exist():
    # The exact set, so that a script leaving or arriving is seen here.
    assert [os.path.relpath(path, ROOT) for path in CALLERS] == [
        "src/alloc_bandit/cli.py", "src/alloc_bandit/harness.py"]
    assert all(os.path.exists(path) for path in CALLERS)


def test_every_export_has_a_caller():
    used = set()
    for path in CALLERS:
        with open(path) as handle:
            used |= used_names(ast.parse(handle.read(), filename=path))
    missing = sorted(set(alloc_bandit.__all__) - used)
    assert not missing, f"exported without a caller in cli.py, harness.py or scripts/: {missing}"


def test_every_export_is_defined():
    assert len(set(alloc_bandit.__all__)) == len(alloc_bandit.__all__)
    for name in alloc_bandit.__all__:
        assert hasattr(alloc_bandit, name), name


def test_own_definition_is_not_a_caller():
    tree = ast.parse("def f():\n    return f()\n\nclass C:\n    x = C\n\ny = g\n")
    assert used_names(tree) == {"g"}
