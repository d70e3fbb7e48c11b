"""The package imports exactly what it declares, and its layers stack.

Every top-level module that a file under src/ imports, other than the
standard library and the package itself, must be one of pyproject.toml's
runtime dependencies, and every runtime dependency must be imported.
Inside the package each module imports only the layers beneath it,
scipy only where the cylinder solve and the CLI manifest need it, and
json and base64 only in the CLI, which owns every artifact format: the
numeric modules write no files.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlsfloer"

# spectral <- model <- dynamics <- floer <- diagnostics <- cli; the small
# divisors stand beside the chain on spectral alone.
CHAIN = ("spectral", "model", "dynamics", "floer", "diagnostics")
BENEATH = {name: set(CHAIN[:i]) for i, name in enumerate(CHAIN)}
BENEATH["smalldiv"] = {"spectral"}
BENEATH["cli"] = set(CHAIN) | {"smalldiv"}
SCIPY_IMPORTERS = {"floer", "cli"}
FORMAT_MODULES = {"json", "base64"}


def _imports(path):
    """(package modules, top-level third-party or stdlib modules) a file imports."""
    package, tops = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.ImportFrom):
            # from .x import ..., or from . import x (a module or a package name)
            modules = [f"nlsfloer.{node.module}"] if node.module else [
                f"nlsfloer.{alias.name}" for alias in node.names
                if (PACKAGE / f"{alias.name}.py").exists()
            ]
        else:
            continue
        for module in modules:
            head, _, rest = module.partition(".")
            if head == "nlsfloer":
                if rest:
                    package.add(rest.split(".")[0])
            else:
                tops.add(head)
    return package, tops


def _modules():
    return {
        path.stem: _imports(path)
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }


def _third_party_imports():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names |= _imports(path)[1]
    return names - set(sys.stdlib_module_names)


def test_runtime_dependencies_are_the_third_party_imports():
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in declared}
    assert _third_party_imports() == names


def test_each_module_imports_only_the_layers_beneath_it():
    modules = _modules()
    assert set(modules) == set(BENEATH)
    above = {
        name: sorted(package - BENEATH[name])
        for name, (package, _) in modules.items()
        if package - BENEATH[name]
    }
    assert above == {}


def test_only_floer_and_cli_import_scipy():
    importers = {name for name, (_, tops) in _modules().items() if "scipy" in tops}
    assert importers <= SCIPY_IMPORTERS


def test_only_cli_imports_json_or_base64():
    importers = {name for name, (_, tops) in _modules().items()
                 if tops & FORMAT_MODULES}
    assert importers <= {"cli"}


def test_smalldiv_import_loads_no_scipy_and_no_upper_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, nlsfloer.smalldiv; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m in ('nlsfloer.floer', "
        "'nlsfloer.dynamics', 'nlsfloer.model')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert proc.stdout.strip() == "[]"
