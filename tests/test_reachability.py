"""Every public module-level function or class of the package, and every
public method of its classes, is named somewhere in the package, the
scripts or the benchmark, other than at its own definition: API that
only unit tests reach is not kept.  A public static method, such as a
constructor, is reached there as `Class.method`, since its bare name may
belong to something else."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steinertorelli"
SEARCHED = ("src", "scripts", "benchmark")

# the per-hyperplane tests in which tests/test_acceptance.py states the
# paper's criteria
STATED_API = {"unstable_test", "unstable_test_dual"}
# the methods tests/test_acceptance.py states its criteria with
STATED_METHODS = {"Matrix.mul", "Matrix.is_zero",
                  "PointEnumeration.all_smooth"}


def _definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def _methods(tree):
    return [(cls.name, node.name) for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _static_methods(tree):
    return [(cls.name, node.name) for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and any(isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)]


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


def _qualified_names_used(tree):
    """`Name.attr` references, such as `Matrix.from_rows`."""
    return {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)}


def _used_outside_the_tests(names_used=_names_used):
    used = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= names_used(ast.parse(path.read_text(), str(path)))
    return used


def test_public_names_are_reached_outside_the_tests():
    used = _used_outside_the_tests()
    unreached = [f"{path.stem}.{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name in _definitions(ast.parse(path.read_text()))
                 if name not in used and name not in STATED_API]
    assert unreached == []


def test_public_methods_are_reached_outside_the_tests():
    used = _used_outside_the_tests()
    unreached = [f"{path.stem}.{cls}.{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for cls, name in _methods(ast.parse(path.read_text()))
                 if name not in used
                 and f"{cls}.{name}" not in STATED_METHODS]
    assert unreached == []


def test_static_methods_are_reached_by_class_outside_the_tests():
    used = _used_outside_the_tests(_qualified_names_used)
    unreached = [f"{path.stem}.{cls}.{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for cls, name in _static_methods(ast.parse(path.read_text()))
                 if f"{cls}.{name}" not in used]
    assert unreached == []
