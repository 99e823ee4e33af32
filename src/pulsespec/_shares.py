"""The one loop of every sweep, and the number of processes it runs in.

`run_shares` runs a sweep's points in W processes (`_sweep_workers`):
process k, the caller 0, runs points k, k + W, k + 2W, ... through the
caller's per-point function, which writes the point's files and returns
its manifest entry. Each forked process sends back its entries, the
files it created and its first failure, pickled through a pipe, and
leaves by os._exit. With W = 1 the caller runs every point itself, in
order. `cli` imports this module only for a sweep, so a command that is
not one pays nothing for it.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from pathlib import Path

from .core import PulsespecError


class SweepProcessError(PulsespecError):
    """A forked share of a sweep ended without a result it could send."""


def _run_share(jobs: list, run_point, written: list[Path],
               stop: list) -> tuple[list, tuple | None]:
    """Run the points `jobs`, (index, stem, point) each, in order, and stop
    at the first that raises, or as KeyboardInterrupt once `stop` is
    non-empty. Returns the (index, entry) pairs run and the (index,
    exception) of the failure, or None."""
    entries = []
    for index, stem, point in jobs:
        try:
            if stop:
                raise KeyboardInterrupt
            entries.append((index, run_point(written, stem, point)))
        except BaseException as exc:
            return entries, (index, exc)
    return entries, None


def _fork_share(jobs: list, run_point, stop: list) -> tuple[int, int]:
    """Fork a process that runs _run_share on `jobs`, sends the pickled
    (entries, files written, failure) through a pipe and leaves by
    os._exit, whatever is raised there; returns its pid and the pipe's
    read end."""
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 and later warn that a fork in a process with other
        # threads may leave the child waiting on a lock one of them held.
        # Those threads are BLAS workers, and the child calls no BLAS
        # routine, starts no thread and ends by os._exit.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
        if pid:
            os.close(write_fd)
            return pid, read_fd
        code = 1
        try:
            os.close(read_fd)
            written: list[Path] = []
            entries, failure = _run_share(jobs, run_point, written, stop)
            try:
                data = pickle.dumps((entries, written, failure))
            except Exception:  # an exception that does not pickle
                index, exc = failure
                failure = index, SweepProcessError(
                    f"{type(exc).__name__} at sweep point {index}: {exc}")
                data = pickle.dumps((entries, written, failure))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)


def _sweep_workers(engine: str, n_points: int) -> int:
    """Processes for a sweep: one per usable CPU for the closed form, whose
    points take O(n_omega) time and memory each, and one for the numeric
    engine, whose points may each take GBs. One also where os.fork or the
    affinity mask is missing, or off the main thread, which alone can set
    the SIGINT handler that the forked shares need."""
    if (engine != "closed_form" or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or threading.current_thread() is not threading.main_thread()):
        return 1
    return min(len(os.sched_getaffinity(0)), n_points)


def run_shares(jobs: list, engine: str, run_point,
               written: list[Path]) -> list[str]:
    """The manifest entries of the sweep's points, (index, stem, point)
    each in `jobs`, in point order, from W = _sweep_workers(engine, points)
    processes: process k, this one 0, runs points k, k + W, k + 2W, ...
    and stops at its first failure. The files of every process go into
    `written`, and every forked process is reaped before this returns or
    raises. Raises the failure of the lowest point, as one process running
    them in order would; KeyboardInterrupt, once this process takes
    SIGINT; and SweepProcessError, once a forked share sends no result.

    With W > 1, while the shares run, SIGINT stops each process at its
    next point instead of raising in it, so that no forked process leaves
    by any path but os._exit and each reports the files it wrote. With
    W = 1 the handler stays as it is, so SIGINT raises at once."""
    workers = _sweep_workers(engine, len(jobs))
    stop: list = []
    if workers > 1:
        previous = signal.signal(signal.SIGINT, lambda *_: stop.append(True))
    children: list[tuple[int, int, int]] = []
    try:
        for k in range(1, workers):
            children.append((k, *_fork_share(jobs[k::workers], run_point,
                                             stop)))
        entries, failure = _run_share(jobs[::workers], run_point, written,
                                      stop)
        failures = [failure] if failure else []
        if stop:
            for _, pid, _ in children:
                os.kill(pid, signal.SIGINT)
        lost = []
        while children:
            k, pid, fd = children.pop(0)
            try:
                with open(fd, "rb") as pipe:
                    data = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            try:
                share_entries, files, share_failure = pickle.loads(data)
            except Exception:
                lost.append(f"the process of sweep points {k}, {k + workers}"
                            f", ... sent no result (wait status {status})")
                continue
            entries += share_entries
            written += files
            failures += [share_failure] if share_failure else []
    finally:
        if workers > 1:
            signal.signal(signal.SIGINT, previous)
        # only an error outside the points gets here with children left;
        # the files they wrote may stay
        for _, pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if stop:
        raise KeyboardInterrupt
    if lost:
        raise SweepProcessError("; ".join(lost))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [entry for _, entry in sorted(entries)]
