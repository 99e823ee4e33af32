"""The two engines share nothing but the core module.

numeric (lindblad, correlators, spectrum_numeric) and closed_form must
not import each other, directly or through another package module, or
their agreement would stop being an independent cross-check. Every
package module imports only the standard library, numpy and the package
itself: the test extra in pyproject.toml declares what the tests import.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

import pulsespec

PACKAGE = Path(pulsespec.__file__).parent
TESTS = Path(__file__).parent
NUMERIC = {"lindblad", "correlators", "spectrum_numeric"}
CLOSED = {"closed_form"}


def package_imports(module):
    """Package modules that `module` imports, directly or transitively."""
    seen = set()
    todo = [module]
    while todo:
        tree = ast.parse((PACKAGE / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
                if node.level == 0:
                    names = [n.removeprefix("pulsespec.") for n in names
                             if n.startswith("pulsespec.")]
            elif isinstance(node, ast.Import):
                names = [alias.name.removeprefix("pulsespec.")
                         for alias in node.names
                         if alias.name.startswith("pulsespec.")]
            else:
                continue
            for name in names:
                if name not in seen and (PACKAGE / f"{name}.py").is_file():
                    seen.add(name)
                    todo.append(name)
    return seen


def test_numeric_engine_imports_nothing_from_closed_form():
    for module in NUMERIC:
        assert not package_imports(module) & CLOSED, module


def test_closed_form_imports_nothing_from_numeric_engine():
    for module in CLOSED:
        assert not package_imports(module) & NUMERIC, module


def test_engines_reach_core():
    # guards the scan itself: every engine module does import core
    for module in NUMERIC | CLOSED:
        assert "core" in package_imports(module), module


def top_level_imports(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_are_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "pulsespec"}
    seen = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = top_level_imports(path)
        assert names <= allowed, (path.name, names - allowed)
        seen |= names
    # guards the scan itself
    assert {"numpy", "json"} <= seen


def test_test_imports_are_the_test_extra():
    tomllib = pytest.importorskip("tomllib")    # standard from Python 3.11
    project = tomllib.loads(
        (TESTS.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", req).group()
                for req in project["optional-dependencies"]["test"]}
    local = {path.stem for path in TESTS.glob("*.py")}
    names = set()
    for path in TESTS.glob("*.py"):
        names |= top_level_imports(path)
    runtime = set(sys.stdlib_module_names) | {"numpy", "pulsespec"}
    assert names - runtime - local == declared
