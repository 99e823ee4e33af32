"""The benchmark traces public names of `pulsespec.cli` from outside.

A traced name the namespace no longer has is skipped silently, and a span
is recorded under the module that defines the function; either would zero
that layer's figures without any failure. These tests turn a rename or a
move into one.
"""
import json
import runpy
from pathlib import Path

from pulsespec import cli

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def test_traced_names_are_cli_callables():
    names = runpy.run_path(str(SPANS))["TRACED_NAMES"]
    assert names
    missing = [name for name in names
               if not callable(getattr(cli, name, None))]
    assert missing == []


def test_per_layer_metrics_name_their_traced_function():
    # a per-layer metric <module>.<function>.<figure> of a traced function
    # reads the span recorded as <module>.<function>; a function moved to
    # another module would leave that metric at zero
    names = runpy.run_path(str(SPANS))["TRACED_NAMES"]
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    checked, wrong = 0, []
    for metric in spec["per_layer"]:
        module, function = metric["name"].split(".")[:2]
        if function not in names:
            continue
        checked += 1
        fn = getattr(cli, function, None)
        if (not callable(fn) or fn.__module__ != f"pulsespec.{module}"
                or fn.__name__ != function):
            wrong.append(metric["name"])
    assert checked and wrong == []
