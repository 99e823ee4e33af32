"""The benchmark traces public names of `pulsespec.cli` from outside.

A traced name the namespace no longer has is skipped silently, a span is
recorded under the module that defines the function, and a command that
stops calling a traced name through the namespace records no span for it;
each would zero that layer's figures without any failure. These tests turn
a rename, a move or a reroute into one.
"""
import json
import runpy
from pathlib import Path

import pytest

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


# tiny configs, one per command, and the spans each must record
COMMANDS = {
    "spectrum": ("delta = 3\ntau = 0.2\nn_pulses = 4\nengine = numeric\n"
                 "format = both\n",
                 {"core.make_time_grid", "core.make_frequency_grid",
                  "lindblad.propagate_trajectory",
                  "correlators.build_correlator_grids",
                  "spectrum_numeric.compute_numeric_spectrum",
                  "cli.write_spectrum_csv", "cli.write_spectrum_json"}),
    "validate": ("delta = 3\ntau = 0.2\nn_pulses = 8\nengine = both\n",
                 {"core.make_time_grid", "core.make_frequency_grid",
                  "lindblad.propagate_trajectory",
                  "correlators.build_correlator_grids",
                  "spectrum_numeric.compute_numeric_spectrum",
                  "closed_form.closed_spectrum", "analysis.compare_spectra",
                  "analysis.find_peaks"}),
    "sweep": ("delta = 3\ntau = 0.2\nn_pulses_list = 2,4\n"
              "engine = closed_form\n",
              {"core.make_frequency_grid", "closed_form.closed_spectrum",
               "analysis.find_peaks", "analysis.positive_weight_fraction",
               "cli.write_spectrum_csv"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_traced_stage_of_a_command_records_a_span(tmp_path, command):
    text, stages = COMMANDS[command]
    bench = runpy.run_path(str(SPANS))
    recorder = bench["Recorder"]()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    with bench["installed"](cli, recorder):
        assert cli.main([command, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == 0
    recorded = {span.name for span in recorder.spans}
    assert stages | {"cli.main"} <= recorded
