"""Every public name in the package has a caller outside the tests.

A top-level name counts as used when some module under src/, demos/ or
perfbench/ refers to it as a name, an attribute or an import.  perfbench
binds the functions it traces by their names as strings, so string
constants there count too.  A public method or property of a class
counts as used only when those modules reach it as an attribute,
``obj.name``; a bare name of the same spelling, such as a local
variable, does not.  Code that only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlsfloer"


def _nodes():
    for directory in ("src", "demos", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield directory, node


def _referenced_names():
    names = set()
    for directory, node in _nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (directory == "perfbench" and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def _package_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8")).body


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    unused = [
        f"{module}.{node.name}"
        for module, body in _package_modules()
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unused == []


def test_every_public_method_has_an_attribute_caller_outside_the_tests():
    attributes = {node.attr for _, node in _nodes() if isinstance(node, ast.Attribute)}
    unused = [
        f"{module}.{cls.name}.{node.name}"
        for module, body in _package_modules()
        for cls in body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in attributes
    ]
    assert unused == []
