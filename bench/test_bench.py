"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench
"""
import json
import sys
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))
from pulsespec import cli  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # main [0, 10] with children a [1, 4] and b [5, 7]; a has child c
    # [2, 3]; d [8, 12] belongs to main but overruns it by 2.
    tree = [spans.Span("main", 1, None, 0.0, 10.0),
            spans.Span("a", 1, 0, 1.0, 4.0),
            spans.Span("c", 1, 1, 2.0, 3.0, count=7),
            spans.Span("b", 1, 0, 5.0, 7.0),
            spans.Span("d", 1, 0, 8.0, 12.0),
            spans.Span("a", 2, None, 0.0, 0.5)]
    stats = spans.summarize(tree)
    assert stats[1]["main"].busy == 10.0
    assert stats[1]["main"].self_time == 10.0 - 3.0 - 2.0 - 2.0
    assert stats[1]["a"].self_time == 2.0
    assert stats[1]["c"].self_time == 1.0
    assert stats[1]["c"].count == 7
    assert stats[2]["a"].busy == 0.5
    assert stats[1]["a"].calls == 1


def test_overlapping_children_are_covered_once():
    assert spans._covered([(1.0, 4.0), (2.0, 3.0), (3.5, 5.0)]) == 4.0


def test_recorder_links_parents_and_restores_names():
    recorder = spans.Recorder()
    module = types.SimpleNamespace()
    module.find_peaks = lambda: [1, 2, 3]
    module.main = lambda: module.find_peaks()
    original = module.main
    recorder.next_invocation()
    with spans.installed(module, recorder):
        assert module.main() == [1, 2, 3]
    assert module.main is original
    outer, inner = recorder.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.count == 3 and inner.invocation == outer.invocation == 1


def test_parent_memory_peak_includes_child_peak():
    recorder = spans.Recorder(memory=True)

    def child():
        return np.ones(2 ** 20).sum()  # 8 MiB, freed on return

    wrapped_child = recorder.wrap("child", child)

    def parent():
        wrapped_child()
        return np.ones(2 ** 17)  # 1 MiB, kept

    wrapped_parent = recorder.wrap("parent", parent)
    tracemalloc.start()
    try:
        kept = wrapped_parent()
    finally:
        tracemalloc.stop()
    parent_span, child_span = recorder.spans
    assert child_span.peak_alloc >= 8 * 2 ** 20
    assert parent_span.peak_alloc >= child_span.peak_alloc
    assert 2 ** 20 <= parent_span.retained < 2 * 2 ** 20
    assert kept.size == 2 ** 17


def small_numeric():
    w = workloads.make_workload("numeric_long", seed=3)
    return replace(w, config={**w.config, "n_pulses": 20})


def corrupting(corrupt, from_call):
    """A stand-in for pulsespec.cli whose main corrupts its output from
    the given call on."""
    calls = []

    def main(argv):
        code = cli.main(argv)
        calls.append(argv)
        if len(calls) >= from_call:
            corrupt(Path(argv[-1]))
        return code
    return types.SimpleNamespace(main=main)


def flip_byte(outdir):
    path = outdir / "spectrum_numeric.csv"
    data = bytearray(path.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def nan_in_q(outdir):
    path = outdir / "spectrum_numeric.csv"
    lines = path.read_text().splitlines()
    lines[-1] = ",".join(lines[-1].split(",")[:3] + ["nan"])
    path.write_text("\n".join(lines) + "\n")


def drop_json(outdir):
    (outdir / "spectrum_numeric.json").unlink()


@pytest.mark.parametrize("corrupt, from_call", [
    (flip_byte, 2), (nan_in_q, 1), (nan_in_q, 2), (drop_json, 2)])
def test_corrupted_output_counts_as_failed(tmp_path, corrupt, from_call):
    invoker = run.Invoker(corrupting(corrupt, from_call), small_numeric(),
                          tmp_path)
    for _ in range(3):
        invoker.invoke()
    assert invoker.attempted == 3
    assert invoker.failed == 3 - (from_call - 1)


def test_clean_output_passes_and_reports_accuracy(tmp_path):
    invoker = run.Invoker(cli, small_numeric(), tmp_path)
    invoker.invoke()
    invoker.invoke()
    assert (invoker.attempted, invoker.failed) == (2, 0)
    assert 0 < invoker.q_err_rel < workloads.L2_REL_TOLERANCE
    assert invoker.files_written == 2


def test_nonzero_exit_counts_as_failed(tmp_path):
    w = replace(small_numeric(), command="validate",
                config={**small_numeric().config, "tau": -1})
    invoker = run.Invoker(cli, w, tmp_path)
    invoker.invoke()
    assert invoker.failed == 1


def test_sweep_missing_point_is_rejected(tmp_path):
    w = workloads.make_workload("sweep_closed", seed=4)
    (tmp_path / "run.cfg").write_text(w.config_text())
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(tmp_path / "run.cfg"),
                     "--output-dir", str(out)]) == 0
    assert workloads.check_outputs(w, out) is None
    doc = json.loads((out / "manifest.json").read_text())
    doc["points"].pop()
    (out / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(workloads.OutputError, match="99 points"):
        workloads.check_outputs(w, out)


def test_seed_changes_only_the_detunings():
    a = workloads.make_workload("sweep_closed", 1)
    b = workloads.make_workload("sweep_closed", 2)
    assert a.config["delta_list"] != b.config["delta_list"]
    assert {k: v for k, v in a.config.items() if k != "delta_list"} == \
        {k: v for k, v in b.config.items() if k != "delta_list"}
    deltas = [float(d) for d in a.config["delta_list"].split(",")]
    assert len(set(deltas)) == 5 and all(2.0 <= d <= 4.0 for d in deltas)
    assert workloads.make_workload("numeric_long", 7) == \
        workloads.make_workload("numeric_long", 7)


def test_scaled_time_is_in_reference_host_seconds():
    ref = hostspeed.REFERENCE_S
    assert run.scaled(1.5, ref) == pytest.approx(1.5)
    assert run.scaled(1.5, 2 * ref) == pytest.approx(0.75)
    assert hostspeed.probe() > 0
