"""A closed-form sweep runs its points in one process per usable CPU.

Each test sets the CPU count through `os.sched_getaffinity` and compares
the forked run with the one-process run: the same bytes on success, and
on failure the same exit code and stderr line, no file left behind and
no forked process left unreaped.
"""
import errno
import json
import os
import signal
import time
from pathlib import Path

import pytest

from pulsespec import cli

# 12 points; with 2 processes the parent runs the even indices and the
# child the odd ones, with 5 the shares are uneven
SWEEP = ("delta_list = 2.5,3\ntau_list = 0.1,0.2\nn_pulses_list = 1,2,3\n"
         "engine = closed_form\n")
# 6 points whose pulse counts name them: index i has 2*(i + 1) pulses
FAILING = "delta = 3\ntau = 0.2\nn_pulses_list = {}\nengine = closed_form\n"
COUNTS = [2, 4, 6, 8, 10, 12]


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count, and count the forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks
    monkeypatch.setattr(os, "fork", counted)
    return set_cpus


def run(tmp_path, text, out, capsys=None):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    pid = os.getpid()
    try:
        code = cli.main(["sweep", "--config", str(cfg), "--output-dir",
                         str(out)])
    finally:
        if os.getpid() != pid:  # a forked process that escaped
            (tmp_path / "escaped").touch()
            os._exit(70)
    err = capsys.readouterr().err if capsys else None
    return code, err


def no_child_left(tmp_path):
    """No forked process is left unreaped, and none returned from main."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return not (tmp_path / "escaped").exists()


def files(out: Path) -> dict:
    return {f.name: f.read_bytes() for f in sorted(out.rglob("*"))
            if f.is_file()}


@pytest.mark.parametrize("workers", [2, 5])
@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
def test_forked_sweep_writes_the_bytes_of_one_process(tmp_path, cpus, fmt,
                                                      workers):
    text = SWEEP + f"format = {fmt}\n"
    cpus(1)
    assert run(tmp_path, text, tmp_path / "one")[0] == 0
    forks = cpus(workers)
    assert run(tmp_path, text, tmp_path / "many")[0] == 0
    assert len(forks) == workers - 1 and no_child_left(tmp_path)
    one, many = files(tmp_path / "one"), files(tmp_path / "many")
    assert len(one) == 12 * (1 + (fmt == "both")) + 1
    assert many == one


@pytest.mark.parametrize("engine, fmt, window", [
    ("closed_form", "csv", ""),
    ("closed_form", "json", ""),
    # 7 nodes, on which some points have no peak
    ("numeric", "csv", "omega_min = 0\nomega_max = 6\nomega_step = 1\n"),
])
def test_manifest_matches_json_dumps(tmp_path, engine, fmt, window):
    text = ("delta_list = 2.5,3\ntau = 0.2\nn_pulses_list = 2,4\n"
            f"engine = {engine}\nformat = {fmt}\n{window}")
    assert run(tmp_path, text, tmp_path / "out")[0] == 0
    written = (tmp_path / "out" / "manifest.json").read_text()
    manifest = json.loads(written)
    assert written == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if window:
        peaks = [len(point["peaks"]) for point in manifest["points"]]
        assert min(peaks) == 0 < max(peaks)


def inject(kind, where, tmp_path, monkeypatch):
    """The config of a 6-point sweep whose points at indices `where` fail
    by `kind`."""
    counts = list(COUNTS)
    if kind == "negative_count":
        for index in where:
            counts[index] = -counts[index]
    elif kind == "blocked_output":
        for index in where:
            (tmp_path / "out" / f"spectrum_delta3_tau0.2_np{counts[index]}.csv"
             ).mkdir(parents=True)
    else:  # a writer that fails part way, after its first bytes
        failing = {counts[index] for index in where}
        write = cli.write_spectrum_csv

        def filling(f, s, reprs=None):
            if s.meta["n_pulses"] in failing:
                f.write(b"# partial")
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(f, s, reprs)
        monkeypatch.setattr(cli, "write_spectrum_csv", filling)
    return FAILING.format(",".join(map(str, counts)))


@pytest.mark.parametrize("where", [[2], [3], [2, 3], [3, 4]],
                         ids=["parent", "child", "both-parent-first",
                              "both-child-first"])
@pytest.mark.parametrize("kind", ["negative_count", "blocked_output",
                                  "writer_fails"])
def test_failing_point_fails_as_in_one_process(tmp_path, monkeypatch, capsys,
                                               cpus, kind, where):
    text = inject(kind, where, tmp_path, monkeypatch)
    out = tmp_path / "out"
    cpus(1)
    expected = run(tmp_path, text, out, capsys)
    assert expected[0] == (3 if kind == "negative_count" else 4)
    assert expected[1].count("\n") == 1
    assert files(out) == {}
    forks = cpus(2)
    assert run(tmp_path, text, out, capsys) == expected
    assert len(forks) == 1 and no_child_left(tmp_path)
    assert files(out) == {}


@pytest.mark.parametrize("index", [2, 3], ids=["parent", "child"])
def test_point_raising_keyboard_interrupt_propagates(tmp_path, monkeypatch,
                                                     cpus, index):
    write = cli.write_spectrum_csv

    def interrupted(f, s, reprs=None):
        if s.meta["n_pulses"] == COUNTS[index]:
            raise KeyboardInterrupt
        return write(f, s, reprs)
    monkeypatch.setattr(cli, "write_spectrum_csv", interrupted)
    forks = cpus(2)
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, FAILING.format(",".join(map(str, COUNTS))),
            tmp_path / "out")
    assert len(forks) == 1 and no_child_left(tmp_path)
    assert files(tmp_path / "out") == {}


def test_sigint_stops_every_share_at_its_next_point(tmp_path, monkeypatch,
                                                    cpus):
    # SIGINT to the parent at its first point, which the parent finishes
    # and passes on; the child, whose 12 points take 50 ms each, stops at
    # its next point likewise
    written, pid = [], os.getpid()
    handler = signal.getsignal(signal.SIGINT)
    write = cli.write_spectrum_csv
    child_points = tmp_path / "child_points"

    def counted(f, s, reprs=None):
        if os.getpid() == pid:
            written.append(s.meta["n_pulses"])
            os.kill(pid, signal.SIGINT)
        else:
            with child_points.open("a") as log:
                log.write("x")
            time.sleep(0.05)
        return write(f, s, reprs)
    monkeypatch.setattr(cli, "write_spectrum_csv", counted)
    cpus(2)
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, FAILING.format(",".join(map(str, range(2, 26)))),
            tmp_path / "out")
    assert written == [2] and len(child_points.read_text()) < 12
    assert no_child_left(tmp_path) and files(tmp_path / "out") == {}
    assert signal.getsignal(signal.SIGINT) is handler


def test_share_that_sends_no_result_is_a_named_error(tmp_path, monkeypatch,
                                                     capsys, cpus):
    pid = os.getpid()
    closed = cli.closed_spectrum

    def dying(p, fg):
        if os.getpid() != pid:
            os._exit(9)
        return closed(p, fg)
    monkeypatch.setattr(cli, "closed_spectrum", dying)
    cpus(2)
    code, err = run(tmp_path, FAILING.format(",".join(map(str, COUNTS))),
                    tmp_path / "out", capsys)
    assert code == 3
    assert err.startswith("SweepProcessError: the process of sweep points "
                          "1, 3, ... sent no result")
    assert no_child_left(tmp_path) and files(tmp_path / "out") == {}


def test_exception_that_cannot_be_pickled_is_named(tmp_path, monkeypatch,
                                                   capsys, cpus):
    class Local(Exception):
        pass
    pid = os.getpid()
    closed = cli.closed_spectrum

    def raising(p, fg):
        if os.getpid() != pid:
            raise Local("a local class does not pickle")
        return closed(p, fg)
    monkeypatch.setattr(cli, "closed_spectrum", raising)
    cpus(2)
    code, err = run(tmp_path, FAILING.format(",".join(map(str, COUNTS))),
                    tmp_path / "out", capsys)
    assert code == 3
    assert err == ("SweepProcessError: Local at sweep point 1: a local class "
                   "does not pickle\n")
    assert no_child_left(tmp_path) and files(tmp_path / "out") == {}


def test_numeric_sweep_runs_in_one_process(tmp_path, cpus):
    forks = cpus(2)
    text = ("delta = 3\ntau = 0.2\nn_pulses_list = 2,4\nengine = numeric\n"
            "omega_min = 0\nomega_max = 6\nomega_step = 1\n")
    assert run(tmp_path, text, tmp_path / "out")[0] == 0
    assert forks == []
