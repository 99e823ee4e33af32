"""Benchmark harness for the pulsespec command line.

    python3 bench/run.py --workload numeric_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, with nothing installed. Each invocation calls
`pulsespec.cli.main([...])` in this process, closed loop, one at a time,
into a fresh output directory; every invocation's output is checked, and
one that fails any check counts in `failed`.

--trace 0  end-to-end metrics: median wall time per invocation after one
           untimed warm-up, spectra per second, peak RSS of this process,
           and set-up time (median import time of `pulsespec.cli` in fresh
           interpreters). The host's speed drifts by up to 2x, so each
           invocation and each import is timed next to a fixed probe
           (hostspeed.py) and scaled to the probe's reference time: the
           times are in seconds of the reference host. Unscaled medians
           are on the line before the result.
--trace 1  per-layer metrics: untraced and traced invocations alternate;
           the traced ones record spans around the public functions that
           `pulsespec.cli` calls (see spans.py). A last traced invocation
           under tracemalloc gives the memory figures, kept apart because
           tracemalloc slows Python loops 2-3x.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records sample counts, unscaled medians, each
invocation's time and the probe times around it, failed_frac, q_err_rel and
the host. Spans of a traced run go to .bench_work/spans_<workload>_<seed>.json.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. On a 2-vCPU guest an idle BLAS
# worker keeps spinning on the other vCPU after each matrix product and
# slows the main thread for a while after it; pulsespec's BLAS share is
# small, and sweeps are measured on their serial path too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
MB = 2 ** 20

# Import time of pulsespec.cli, then the host-speed probe in the same fresh
# interpreter. pulsespec.cli comes first so that the probe's own numpy
# import is not counted as set-up.
IMPORT_PROBE = ("import time\n"
                "start = time.perf_counter()\n"
                "import pulsespec.cli\n"
                "elapsed = time.perf_counter() - start\n"
                "import hostspeed\n"
                "print(elapsed, hostspeed.probe(), pulsespec.cli.__file__)\n")


class Invoker:
    """Invokes the CLI on one workload and checks each invocation's output.

    The first invocation whose output passes the full check (files present,
    finite, q within tolerance, sweep grid complete) becomes the reference;
    every later invocation must write the same bytes.
    """

    def __init__(self, cli, workload: workloads.Workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.config_path = workdir / "run.cfg"
        self.config_path.write_text(workload.config_text(), encoding="utf-8")
        self.reference: dict | None = None
        self.q_err_rel: float | None = None
        self.attempted = 0
        self.failed = 0

    def invoke(self) -> float:
        """One timed invocation; returns its wall time in seconds."""
        outdir = self.workdir / f"out{self.attempted}"
        argv = [self.workload.command, "--config", str(self.config_path),
                "--output-dir", str(outdir)]
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = None
        elapsed = time.perf_counter() - start
        self.attempted += 1
        fault = self._fault(code, outdir)
        if fault:
            self.failed += 1
            print(f"bench: invocation {self.attempted} failed: {fault}",
                  file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        return elapsed

    def _fault(self, code, outdir: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        written = workloads.digest(outdir)
        if self.reference is not None:
            if written != self.reference:
                return "output bytes differ from the first invocation"
            return None
        try:
            self.q_err_rel = workloads.check_outputs(self.workload, outdir)
        except workloads.OutputError as exc:
            return str(exc)
        self.reference = written
        return None

    @property
    def files_written(self) -> int:
        return len(self.reference or {})

    @property
    def bytes_written(self) -> int:
        return sum(size for size, _ in (self.reference or {}).values())


def setup_times() -> list[tuple[float, float]]:
    """(import time of `pulsespec.cli`, probe time) in fresh interpreters."""
    env = {k: v for k, v in os.environ.items() if k != "PULSESPEC_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"pulsespec imported from {out[2]}, not {SRC}")
        samples.append((float(out[0]), float(out[1])))
    return samples


def scaled(seconds: float, probe_s: float) -> float:
    """A time taken while the probe took probe_s, in reference-host seconds."""
    return seconds * hostspeed.REFERENCE_S / probe_s


def measure_end_to_end(invoker: Invoker, seconds: float) -> tuple[dict, dict]:
    invoker.invoke()  # warm-up, untimed; its output is the reference
    times, probes = [], [hostspeed.probe()]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(invoker.invoke())
        probes.append(hostspeed.probe())
    # Each invocation is scaled by the mean of the probes either side of it.
    wall = statistics.median(
        scaled(t, (before + after) / 2)
        for t, before, after in zip(times, probes, probes[1:]))
    setup = setup_times()
    metrics = {
        "wall_s": (wall, "s"),
        "spectra_per_s": (invoker.workload.spectra / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / MB, "MB"),
        "setup_s": (statistics.median(scaled(t, p) for t, p in setup), "s"),
    }
    samples = {"wall_s": len(times), "setup_s": len(setup),
               "unscaled_wall_s": statistics.median(times),
               "unscaled_setup_s": statistics.median(t for t, _ in setup),
               "probe_s": statistics.median(probes),
               "times": times, "probes": probes, "setup": setup}
    return metrics, samples


def measure_layers(invoker: Invoker, seconds: float,
                   spans_path: Path) -> tuple[dict, dict]:
    cli = invoker.cli
    invoker.invoke()  # warm-up, untimed
    recorder = spans.Recorder()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(invoker.invoke())
        recorder.next_invocation()
        with spans.installed(cli, recorder):
            traced.append(invoker.invoke())

    memory = spans.Recorder(memory=True)
    tracemalloc.start()
    try:
        with spans.installed(cli, memory):
            invoker.invoke()
    finally:
        tracemalloc.stop()
    spans_path.write_text(json.dumps(
        {"timed": [asdict(s) for s in recorder.spans],
         "memory": [asdict(s) for s in memory.spans]}) + "\n",
        encoding="utf-8")

    per_invocation = list(spans.summarize(recorder.spans).values())
    mem = next(iter(spans.summarize(memory.spans).values()), {})

    def median_of(pick) -> float:
        return statistics.median(pick(stats) for stats in per_invocation)

    def busy(*names):
        return median_of(lambda stats: sum(
            stats[n].busy for n in names if n in stats)), "s"

    def figure(name, attr, unit):
        return median_of(lambda stats: getattr(
            stats.get(name, spans.Stats()), attr)), unit

    def mem_mb(name, attr):
        return getattr(mem.get(name, spans.Stats()), attr) / MB, "MB"

    corr = "correlators.build_correlator_grids"
    numeric = "spectrum_numeric.compute_numeric_spectrum"
    metrics = {
        f"{corr}.busy_s": busy(corr),
        f"{corr}.peak_alloc_mb": mem_mb(corr, "peak_alloc"),
        f"{corr}.retained_mb": mem_mb(corr, "retained"),
        f"{numeric}.busy_s": busy(numeric),
        f"{numeric}.peak_alloc_mb": mem_mb(numeric, "peak_alloc"),
        "spectrum_numeric.transform_points": figure(numeric, "count", "count"),
        "spectrum_numeric.q_err_rel": (invoker.q_err_rel or 0.0, "ratio"),
        "lindblad.propagate_trajectory.busy_s":
            busy("lindblad.propagate_trajectory"),
        "lindblad.nodes":
            figure("lindblad.propagate_trajectory", "count", "count"),
        "closed_form.closed_spectrum.busy_s":
            busy("closed_form.closed_spectrum"),
        "closed_form.closed_spectrum.calls":
            figure("closed_form.closed_spectrum", "calls", "count"),
        "analysis.find_peaks.busy_s": busy("analysis.find_peaks"),
        "analysis.find_peaks.peaks":
            figure("analysis.find_peaks", "count", "count"),
        "analysis.positive_weight_fraction.busy_s":
            busy("analysis.positive_weight_fraction"),
        "analysis.compare_spectra.busy_s": busy("analysis.compare_spectra"),
        "cli.write_spectrum_csv.busy_s": busy("cli.write_spectrum_csv"),
        "cli.write_spectrum_json.busy_s": busy("cli.write_spectrum_json"),
        "cli.bytes_written": (invoker.bytes_written, "bytes"),
        "cli.files_written": (invoker.files_written, "count"),
        "cli.main.self_s": figure("cli.main", "self_time", "s"),
        "core.grids.busy_s": busy("core.make_time_grid",
                                  "core.make_frequency_grid"),
        "trace.overhead_frac": (statistics.median(traced)
                                / statistics.median(plain) - 1.0, "ratio"),
    }
    samples = {"untraced": len(plain), "traced": len(traced), "memory": 1}
    return metrics, samples


def host_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 2.0 has no mode="dicts"
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pulsespec" / "cli.py").is_file():
        print(f"bench: no pulsespec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PULSESPEC_THREADS", None)  # sweeps take the serial path
    from pulsespec import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: pulsespec imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.make_workload(args.workload, args.seed)
    workdir = WORK / f"run{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invoker = Invoker(cli, workload, workdir)
        if args.trace:
            metrics, samples = measure_layers(
                invoker, args.seconds,
                WORK / f"spans_{workload.name}_{args.seed}.json")
        else:
            metrics, samples = measure_end_to_end(invoker, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "config": workload.config, "samples": samples,
        "failed_frac": invoker.failed / invoker.attempted,
        "q_err_rel": invoker.q_err_rel, "host": host_record()}))
    print(json.dumps({
        "correct": invoker.failed == 0,
        "attempted": invoker.attempted,
        "failed": invoker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
