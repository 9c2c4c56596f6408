"""Every public module-level function or class of the package is named
somewhere in the package, the scripts or the benchmark, other than at
its own definition: API that only unit tests reach is not kept."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steinertorelli"
SEARCHED = ("src", "scripts", "benchmark")

# the per-hyperplane tests in which tests/test_acceptance.py states the
# paper's criteria
STATED_API = {"unstable_test", "unstable_test_dual"}


def _definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _names_used(tree):
    """Identifiers a module refers to: names, attributes, imports, and
    strings that are identifiers (the benchmark wraps functions by name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return used


def test_public_names_are_reached_outside_the_tests():
    used = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text(), str(path)))
    unreached = [f"{path.stem}.{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in _definitions(ast.parse(path.read_text()))
                 if name not in used and name not in STATED_API]
    assert unreached == []
