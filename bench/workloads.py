"""The benchmark's workloads, drawn from a seed, and the checks that every
invocation's output must pass.

numeric_long   `spectrum`, numeric engine, tau=0.2, 80 pulses, 20 substeps:
               1601 time nodes x 1201 omegas. The correlator build and the
               numeric transform dominate; the closed form never runs.
validate_both  `validate`, both engines, tau=0.2, 20 pulses, 80 substeps:
               the same node count with 4x the substeps and 1/4 the pulses,
               so work that scales with substeps shows here and not above.
               Also covers the invariant suite, the closed form and the
               comparison and peak analysis.
sweep_closed   `sweep`, closed form, CSV: 5 deltas x 4 taus x 5 pulse
               counts = 100 points. File output and peak finding dominate;
               the numeric engine never runs, so it is the bypass case for
               every numeric-engine change.

The seed draws only the detunings, from DELTA_RANGE_MILLI / 1000, so node
counts, omega counts and sweep size, and with them the run length, do not
depend on it.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Across this range `validate` passes and q_err_rel stays below 5e-3.
DELTA_RANGE_MILLI = (2000, 4000)
# The accuracy limit of `pulsespec validate`, fixed here so that the
# benchmark's own check cannot be loosened by a change to the package.
L2_REL_TOLERANCE = 0.05
# Sweep CSV q against a direct closed_spectrum call, relative to max|q|.
SWEEP_Q_TOLERANCE = 1e-12

SWEEP_TAUS = (0.1, 0.2, 0.4, 0.8)
SWEEP_PULSES = (2, 8, 20, 40, 80)
NAMES = ("numeric_long", "validate_both", "sweep_closed")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    spectra: int  # spectra computed per invocation

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


def _deltas(seed: int, count: int) -> list[float]:
    low, high = DELTA_RANGE_MILLI
    milli = random.Random(seed).sample(range(low, high + 1), count)
    return [m / 1000 for m in milli]


def make_workload(name: str, seed: int) -> Workload:
    if name == "numeric_long":
        return Workload(name, "spectrum", {
            "delta": _deltas(seed, 1)[0], "tau": 0.2, "n_pulses": 80,
            "engine": "numeric", "format": "both"}, spectra=1)
    if name == "validate_both":
        return Workload(name, "validate", {
            "delta": _deltas(seed, 1)[0], "tau": 0.2, "n_pulses": 20,
            "substeps": 80, "engine": "both"}, spectra=2)
    if name == "sweep_closed":
        return Workload(name, "sweep", {
            "delta_list": ",".join(map(str, _deltas(seed, 5))),
            "tau_list": ",".join(map(str, SWEEP_TAUS)),
            "n_pulses_list": ",".join(map(str, SWEEP_PULSES)),
            "engine": "closed_form", "format": "csv"},
            spectra=len(SWEEP_TAUS) * len(SWEEP_PULSES) * 5)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def digest(outdir: Path) -> dict[str, tuple[int, str]]:
    """Size and SHA-256 of every file the invocation wrote."""
    return {path.name: (path.stat().st_size,
                        hashlib.sha256(path.read_bytes()).hexdigest())
            for path in sorted(outdir.iterdir()) if path.is_file()}


class OutputError(Exception):
    """An output file is missing, malformed or wrong."""


def _reject_constant(token: str):
    raise OutputError(f"non-finite JSON value {token}")


def _load_json(path: Path):
    if not path.is_file():
        raise OutputError(f"missing {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from None


def _load_csv(path: Path) -> np.ndarray:
    """The omega,P1,P2,Q columns below the `#` header lines."""
    if not path.is_file():
        raise OutputError(f"missing {path.name}")
    rows = [line.split(",")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#") and line != "omega,P1,P2,Q"]
    try:
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 4 or not np.all(np.isfinite(data)):
        raise OutputError(f"{path.name}: non-finite or malformed rows")
    return data


def _l2_rel(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / max(||a||, ||b||), the definition `validate` reports."""
    return float(np.linalg.norm(a - b)
                 / max(np.linalg.norm(a), np.linalg.norm(b)))


def _closed_q(delta: float, tau: float, n_pulses: int):
    # Imported here: run.py puts the checkout's src/ on the path first.
    from pulsespec.closed_form import closed_spectrum
    from pulsespec.core import DriveParams, make_frequency_grid, validate_params
    p = validate_params(DriveParams(delta=delta, tau=tau, n_pulses=n_pulses))
    fg = make_frequency_grid(p)
    return fg.omegas, closed_spectrum(p, fg).q


def _check_numeric_long(w: Workload, outdir: Path) -> float:
    data = _load_csv(outdir / "spectrum_numeric.csv")
    doc = _load_json(outdir / "spectrum_numeric.json")
    omegas, q_closed = _closed_q(w.config["delta"], w.config["tau"],
                                 w.config["n_pulses"])
    if data.shape[0] != omegas.size or not np.array_equal(data[:, 0], omegas):
        raise OutputError("spectrum_numeric.csv: wrong frequency grid")
    if not np.array_equal(np.array(doc["q"]), data[:, 3]):
        raise OutputError("spectrum_numeric.json q differs from the CSV")
    return _l2_rel(data[:, 3], q_closed)


def _check_validate_both(outdir: Path) -> float:
    report = _load_json(outdir / "validation_report.json")
    if report.get("passed") is not True:
        raise OutputError("validation_report.json: passed is not true")
    return float(report["metrics"]["l2_rel"])


def _check_sweep_closed(w: Workload, outdir: Path) -> None:
    manifest = _load_json(outdir / "manifest.json")
    points = manifest.get("points", [])
    expected = {(d, t, n) for d in map(float, w.config["delta_list"].split(","))
                for t in SWEEP_TAUS for n in SWEEP_PULSES}
    seen = set()
    for point in points:
        params = point["params"]
        key = (params["delta"], params["tau"], params["n_pulses"])
        seen.add(key)
        if len(point["files"]) != 1:
            raise OutputError(f"point {key}: expected one CSV file")
        data = _load_csv(outdir / point["files"][0])
        omegas, q_closed = _closed_q(*key)
        if (data.shape[0] != omegas.size
                or not np.array_equal(data[:, 0], omegas)
                or np.max(np.abs(data[:, 3] - q_closed))
                > SWEEP_Q_TOLERANCE * np.max(np.abs(q_closed))):
            raise OutputError(f"{point['files'][0]}: q differs from "
                              "a direct closed_spectrum call")
    if len(points) != len(expected) or seen != expected:
        raise OutputError(f"manifest has {len(points)} points, "
                          f"expected the {len(expected)}-point grid")


def check_outputs(w: Workload, outdir: Path) -> float | None:
    """Check one invocation's output files in full; raise OutputError on
    the first fault. Returns q_err_rel for the numeric workloads."""
    try:
        if w.name == "numeric_long":
            q_err = _check_numeric_long(w, outdir)
        elif w.name == "validate_both":
            q_err = _check_validate_both(outdir)
        else:
            _check_sweep_closed(w, outdir)
            return None
    except (KeyError, TypeError) as exc:
        raise OutputError(f"malformed output: {exc!r}") from None
    if not (math.isfinite(q_err) and q_err <= L2_REL_TOLERANCE):
        raise OutputError(f"q_err_rel {q_err} above {L2_REL_TOLERANCE}")
    return q_err
