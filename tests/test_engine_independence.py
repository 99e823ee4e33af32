"""The two engines share nothing but the core module.

numeric (lindblad, correlators, spectrum_numeric) and closed_form must
not import each other, directly or through another package module, or
their agreement would stop being an independent cross-check.
"""
import ast
from pathlib import Path

import pulsespec

PACKAGE = Path(pulsespec.__file__).parent
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
