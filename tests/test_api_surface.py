"""Every public top-level name in the package has a caller outside the tests.

A name counts as used when some module under src/, demos/ or perfbench/
refers to it as a name, an attribute or an import.  perfbench binds the
functions it traces by their names as strings, so string constants there
count too.  Code that only the tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlsfloer"


def _referenced_names():
    names = set()
    for directory in ("src", "demos", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


def test_every_public_name_has_a_caller_outside_the_tests():
    referenced = _referenced_names()
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unused == []
