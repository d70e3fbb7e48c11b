"""Every public name in the package has a caller outside the tests.

A top-level name counts as used when some module under src/, demos/ or
perfbench/ refers to it as a name, an attribute or an import.  perfbench
binds the functions it traces by their names as strings, so string
constants there count too.  A public method or property of a class
counts as used only when those modules reach it as an attribute,
``obj.name``; a bare name of the same spelling, such as a local
variable, does not.  Code that only the tests call belongs in the tests.
A private (underscore) module-level function or class must have a caller
in src/ outside its own definition: the tests alone do not keep it.

A defaulted parameter of a package function or non-dunder method must be
set, by keyword, by position or by a * or ** spread, in some call in
src/, demos/, perfbench/ or tests/ to a callee of its name; a default
that no call overrides is a constant.

A field of a package dataclass must be read as an attribute,
``obj.field``, in src/, demos/ or perfbench/: a field that only the tests
read is an echo of an input or a flag that no caller acts on.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlsfloer"


def _nodes():
    for directory in ("src", "demos", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield directory, node


def _name_of(node):
    """The name a Name, Attribute or import alias node refers to, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _referenced_names():
    names = set()
    for directory, node in _nodes():
        name = _name_of(node)
        if name is not None:
            names.add(name)
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


def _is_dataclass(cls):
    return any(
        getattr(d, "id", None) == "dataclass"
        or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def test_every_dataclass_field_is_read_outside_the_tests():
    read = {
        node.attr
        for _, node in _nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{cls.name}.{node.target.id}"
        for module, body in _package_modules()
        for cls in body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in read
    ]
    assert unread == []


def _names_in(tree):
    return [name for name in map(_name_of, ast.walk(tree)) if name is not None]


def test_every_private_name_has_a_caller_in_src():
    modules = list(_package_modules())
    counts = Counter(
        name for _, body in modules for node in body for name in _names_in(node)
    )
    dead = [
        f"{module}.{node.name}"
        for module, body in modules
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and counts[node.name] == _names_in(node).count(node.name)
    ]
    assert dead == []


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


def _functions():
    """(qualified name, def, bound) per module function and non-dunder method.

    bound is 1 for a method that a call through an attribute passes self
    or cls to implicitly, else 0.
    """
    for module, body in _package_modules():
        for node in body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name.endswith("__")
                    ):
                        continue
                    static = any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in fn.decorator_list
                    )
                    yield f"{module}.{node.name}.{fn.name}", fn, 0 if static else 1


def _defaulted_parameters():
    """(qualified name, callee name, parameter, call position or None)."""
    for qualname, fn, bound in _functions():
        args = fn.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield qualname, fn.name, positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualname, fn.name, arg.arg, None


def _calls_by_callee():
    calls = {}
    for directory in ("src", "demos", "perfbench", "tests"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call, parameter, position):
    """Whether a call passes the parameter by keyword, position or spread."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls = _calls_by_callee()
    never_set = [
        f"{qualname}({parameter})"
        for qualname, name, parameter, position in _defaulted_parameters()
        if not any(_sets(call, parameter, position) for call in calls.get(name, []))
    ]
    assert never_set == []
