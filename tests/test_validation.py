"""Module boundaries around `validate`.

closed_form holds the closed-form engine alone; validation holds the
checks of `validate` and the exact node references they read, imports
only core and checks the arrays it is handed, never the engine's own
derivation; and no engine module reaches the front end, its float
kernels or the checks, so neither engine can lean on what checks it.
"""
import ast

import pulsespec as ps
from pulsespec import closed_form, validation
from test_engine_independence import CLOSED, NUMERIC, PACKAGE, package_imports

MOVED = ("NegativeM", "NegativeTheta", "OutOfRangeT", "f_analytic", "rho0",
         "rho_gg_analytic")


def tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def imports_from(module):
    """{package module: names imported from it} of one package module;
    "*" stands for the module itself, as in `from . import core`."""
    found = {}
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if not name.startswith("pulsespec"):
                    continue
                name = name.removeprefix("pulsespec").removeprefix(".")
            if name:
                found.setdefault(name, set()).update(
                    alias.name for alias in node.names)
            else:
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pulsespec."):
                    found.setdefault(alias.name.removeprefix("pulsespec."),
                                     set()).add("*")
    return found


def test_closed_form_imports_only_core():
    assert set(imports_from("closed_form")) == {"core"}


def test_closed_form_defines_only_the_engine():
    public = {node.name for node in tree("closed_form").body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert public == {"closed_blocks", "closed_spectrum"}
    # the node references moved out, with no re-export left behind
    assert not [name for name in MOVED if hasattr(closed_form, name)]


def test_node_references_keep_their_package_names():
    for name in MOVED:
        assert getattr(ps, name) is getattr(validation, name)
        assert name in ps.__all__


def test_validation_imports_only_core():
    assert set(imports_from("validation")) == {"core"}
    names = set()
    for node in ast.walk(tree("validation")):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    # guards the scan itself
    assert "f_analytic" in names
    assert not names & {"_free_decay", "_free_rotation",
                        "build_correlator_grids"}


def test_no_engine_module_reaches_the_front_end_or_the_checks():
    for module in NUMERIC | CLOSED | {"core"}:
        reached = package_imports(module)
        assert not reached & {"validation", "cli", "_digits"}, module
