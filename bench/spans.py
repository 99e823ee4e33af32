"""Spans recorded from outside the package, around the public functions
that `pulsespec.cli` calls, and the per-function figures derived from them.

A span is one call of one wrapped function: its name, start, end, parent
span and the CLI invocation it belongs to. Spans stay in memory; the
harness writes them out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from dataclasses import dataclass, field

# Names looked up in the `pulsespec.cli` namespace. A name the namespace no
# longer has is skipped, so its layer reads 0 rather than breaking the run.
# Helpers called thousands of times per invocation (f_analytic in the
# invariant suite) stay unwrapped and count as `cli.main` self time.
TRACED_NAMES = (
    "main",
    "make_time_grid", "make_frequency_grid",
    "propagate_trajectory", "build_correlator_grids",
    "compute_numeric_spectrum", "closed_spectrum",
    "compare_spectra", "find_peaks", "positive_weight_fraction",
    "write_spectrum_csv", "write_spectrum_json",
)


def _spectrum_points(result) -> int:
    """Time nodes × frequency nodes of a numeric spectrum, from its meta."""
    meta = result.meta
    nodes = meta["n_intervals"] * meta["substeps_per_interval"] + 1
    return nodes * meta["n_omega"]


# Work counts taken from a wrapped function's result.
COUNTERS = {
    "propagate_trajectory": len,
    "compute_numeric_spectrum": _spectrum_points,
    "find_peaks": len,
}


@dataclass
class Span:
    name: str
    invocation: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    count: int = 0
    peak_alloc: int = 0
    retained: int = 0


@dataclass
class _Frame:
    index: int
    start_bytes: int = 0
    peak_bytes: int = 0


class Recorder:
    """Wraps functions so that each call appends a Span.

    With `memory=True` (tracemalloc must be running) each span also records
    the peak of traced memory above its starting level, and the memory it
    still holds when it returns. Nested spans keep the enclosing span's
    peak: a child resets tracemalloc's peak only after folding the peak so
    far into its parent's frame.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[_Frame] = []

    def next_invocation(self) -> None:
        self.invocation += 1

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.invocation,
                        parent.index if parent else None)
            frame = _Frame(len(self.spans))
            self.spans.append(span)
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent:
                    parent.peak_bytes = max(parent.peak_bytes, peak)
                tracemalloc.reset_peak()
                frame.start_bytes = frame.peak_bytes = current
            self._stack.append(frame)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    current, peak = tracemalloc.get_traced_memory()
                    frame.peak_bytes = max(frame.peak_bytes, peak)
                    span.peak_alloc = frame.peak_bytes - frame.start_bytes
                    span.retained = current - frame.start_bytes
                    if parent:
                        parent.peak_bytes = max(parent.peak_bytes,
                                                frame.peak_bytes)
            if count is not None:
                span.count = count(result)
            return result
        return recorded


@contextlib.contextmanager
def installed(module, recorder: Recorder):
    """Replace the traced names in `module` with span recorders, restoring
    the originals on exit. Spans are named `<module>.<function>` after the
    module that defines each function."""
    originals = {}
    for attr in TRACED_NAMES:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        originals[attr] = fn
        setattr(module, attr, recorder.wrap(name, fn, COUNTERS.get(attr)))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(module, attr, fn)


@dataclass
class Stats:
    """One function's figures within one invocation."""
    busy: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    count: int = 0
    peak_alloc: int = 0
    retained: int = 0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[Span]) -> dict[int, dict[str, Stats]]:
    """Per invocation and function name: busy time (sum of span durations;
    spans of one name do not nest in this package), self time (duration
    minus the part of it covered by child spans), calls, counts, and the
    largest memory peak and retained size of any one call."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, dict[str, Stats]] = {}
    for index, span in enumerate(spans):
        stats = out.setdefault(span.invocation, {}).setdefault(span.name,
                                                                Stats())
        duration = span.end - span.start
        inside = [(max(s, span.start), min(e, span.end))
                  for s, e in children.get(index, [])]
        stats.busy += duration
        stats.self_time += duration - _covered(inside)
        stats.calls += 1
        stats.count += span.count
        stats.peak_alloc = max(stats.peak_alloc, span.peak_alloc)
        stats.retained = max(stats.retained, span.retained)
    return out
