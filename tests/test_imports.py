"""Every name a package module imports is used there or re-exported, and
no package module has an assert statement."""

import ast
from pathlib import Path

import pytest

import locality_lab

MODULES = sorted(Path(locality_lab.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, __future__ left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = _used(tree) | _exported(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in kept}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\n"
                     "def f(y: b) -> None:\n    return c.d\n")
    assert set(_imported(tree)) - _used(tree) == {"a"}


def _asserts(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips them, and every invariant check must still run
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _asserts(tree)
    assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_the_check_sees_an_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 1, x\n")
    assert _asserts(tree) == [3]
