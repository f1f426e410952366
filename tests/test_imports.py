"""Every name a package or test module imports is used there or
re-exported, no package module has an assert statement, and every public function, class
and method has a caller in the package or a reason on a list."""

import ast
from pathlib import Path

import pytest

import locality_lab

MODULES = sorted(Path(locality_lab.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=lambda p: p.name)
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


# public names that nothing in the package calls, each with its reason
UNCALLED = {
    "locality.classify_d_optimality":
        "perfbench/tracing.py wraps it; it reads only bounds_report",
    "locality.classify_k_optimality":
        "perfbench/tracing.py wraps it; it reads only bounds_report",
    "locality.nmds_locality_check": "waits for analyze --theory",
    "locality.nmds_support_pairing": "waits for analyze --theory",
    "designs.one_design_locality_link": "waits for analyze --theory",
    "cli._Parser.error": "argparse's hook, called by argparse",
}


def _public_defs(tree: ast.Module):
    """(name, node, is a method) of each public function and class of a
    module, and of each public method of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub, True


def _uncalled(sources: dict[str, str]) -> set[str]:
    """The public names of the modules (module name -> source) that no
    module references outside the name's own body.  A function or class
    counts as referenced by a bare name or an attribute, a method by an
    attribute only, so a builtin or a local variable of the same name
    does not count."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = [(mod, node.id if isinstance(node, ast.Name) else node.attr,
             node.lineno, isinstance(node, ast.Attribute))
            for mod, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    out = set()
    for mod, tree in trees.items():
        for qualified, node, method in _public_defs(tree):
            name = qualified.rpartition(".")[2]
            if not any(ref == name and (attr or not method)
                       and not (m == mod
                                and node.lineno <= line <= node.end_lineno)
                       for m, ref, line, attr in refs):
                out.add(f"{mod}.{qualified}")
    return out


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in MODULES}


def test_every_public_name_has_a_caller():
    # ROADMAP aim 2: code with no caller is deleted
    assert _uncalled(_package_sources()) == set(UNCALLED)


def test_the_check_sees_a_public_name_nothing_calls():
    planted = {"m": "def used():\n    return 1\n\n"
                    "def recursive(n):\n    return recursive(n - 1)\n\n"
                    "class K:\n    def meth(self):\n        return self.meth()\n"
                    "    def map(self):\n        return map(int, [])\n",
               "n": "from m import used, K\nx = used()\ny = K()\n"}
    assert _uncalled(planted) == {"m.recursive", "m.K.meth", "m.K.map"}
    sources = _package_sources()
    sources["gf"] += "\n\ndef planted(field):\n    return field.q\n"
    assert _uncalled(sources) == set(UNCALLED) | {"gf.planted"}
