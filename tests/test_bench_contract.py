"""The benchmark traces public names of `pulsespec.cli` from outside.

A traced name the namespace no longer has is skipped silently, which would
zero that layer's figures without any failure; this test turns a rename
into one.
"""
import runpy
from pathlib import Path

from pulsespec import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_are_cli_callables():
    names = runpy.run_path(str(SPANS))["TRACED_NAMES"]
    assert names
    missing = [name for name in names
               if not callable(getattr(cli, name, None))]
    assert missing == []
