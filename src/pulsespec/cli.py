"""Command-line front end: single runs, parameter sweeps, cross-validation.

Configs are flat key=value text files (blank lines and # comments are
skipped). Scalar keys: delta, gamma, tau, n_pulses, free_time, substeps,
omega_min, omega_max, omega_step, engine, output_dir, format. Sweep keys
n_pulses_list, tau_list, delta_list take comma-separated values.

Exit codes: 0 success, 1 validation tolerance failure, 2 config parse
error, 3 parameter error. CSV output is byte-identical for identical
configs: summation order and float formatting are fixed, and every file
starts with a header embedding the full resolved parameter set.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import compare_spectra, find_peaks, positive_weight_fraction
from .closed_form import closed_spectrum, f_analytic, rho_gg_analytic
from .core import (DriveParams, FrequencyGrid, PulsespecError, Spectrum,
                   TimeGrid, make_frequency_grid, make_time_grid)
from .correlators import build_correlator_grids
from .lindblad import propagate_trajectory
from .spectrum_numeric import compute_numeric_spectrum


class ConfigError(Exception):
    """Malformed config file; maps to exit code 2."""


_FLOAT_KEYS = {"delta", "gamma", "tau", "free_time",
               "omega_min", "omega_max", "omega_step"}
_INT_KEYS = {"n_pulses", "substeps"}
_LIST_KEYS = {"n_pulses_list", "tau_list", "delta_list"}
_ENGINES = ("numeric", "closed_form", "both")
_FORMATS = ("csv", "json", "both")

L2_REL_TOLERANCE = 0.05
SUM_RULE_TOLERANCE = 0.05
REFINEMENT_HINT = ("engine disagreement at quadrature level; "
                   "increase substeps (smaller dt) and rerun")


def parse_config(path: str) -> dict:
    """Parse a flat key=value config file into typed values."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    cfg: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key in _FLOAT_KEYS:
                cfg[key] = float(value)
            elif key in _INT_KEYS:
                cfg[key] = int(value)
            elif key == "engine":
                if value not in _ENGINES:
                    raise ConfigError(
                        f"line {lineno}: engine must be one of {_ENGINES}")
                cfg[key] = value
            elif key == "format":
                if value not in _FORMATS:
                    raise ConfigError(
                        f"line {lineno}: format must be one of {_FORMATS}")
                cfg[key] = value
            elif key == "output_dir":
                cfg[key] = value
            elif key == "n_pulses_list":
                cfg[key] = [int(v) for v in value.split(",")]
            elif key in _LIST_KEYS:
                cfg[key] = [float(v) for v in value.split(",")]
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for {key}") from None
    return cfg


def _params_from(cfg: dict, **overrides) -> DriveParams:
    merged = dict(cfg)
    merged.update(overrides)
    missing = [k for k in ("delta", "tau", "n_pulses") if k not in merged]
    if missing:
        raise PulsespecError(
            f"missing required config keys: {', '.join(missing)}")
    kwargs = {"delta": merged["delta"], "tau": merged["tau"],
              "n_pulses": merged["n_pulses"]}
    if "gamma" in merged:
        kwargs["gamma"] = merged["gamma"]
    if merged.get("free_time") is not None:
        kwargs["free_time"] = merged["free_time"]
    return DriveParams(**kwargs)


def _freq_grid(cfg: dict, p: DriveParams) -> FrequencyGrid:
    return make_frequency_grid(p,
                               omega_min=cfg.get("omega_min"),
                               omega_max=cfg.get("omega_max"),
                               omega_step=cfg.get("omega_step"))


def _numeric_spectrum(p: DriveParams, cfg: dict, fg: FrequencyGrid) -> Spectrum:
    g = make_time_grid(p, cfg.get("substeps"))
    traj = propagate_trajectory(p, g)
    block = build_correlator_grids(p, g)
    return compute_numeric_spectrum(p, g, traj, block, fg)


def _spectrum_for(engine: str, p: DriveParams, cfg: dict) -> Spectrum:
    fg = _freq_grid(cfg, p)
    if engine == "closed_form":
        return closed_spectrum(p, fg)
    return _numeric_spectrum(p, cfg, fg)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_spectrum_csv(path: Path, s: Spectrum) -> None:
    """Emit `omega,P1,P2,Q` rows with 17 significant digits after a
    comment header carrying the resolved parameters."""
    lines = [f"# {key} = {_fmt(s.meta[key])}" for key in sorted(s.meta)]
    lines.append("omega,P1,P2,Q")
    lines.extend("%.17g,%.17g,%.17g,%.17g" % tuple(row) for row in
                 np.column_stack((s.omegas, s.p1, s.p2, s.q)).tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_spectrum_json(path: Path, s: Spectrum) -> None:
    doc = {
        "meta": s.meta,
        "omega": s.omegas.tolist(),
        "p1": s.p1.tolist(),
        "p2": s.p2.tolist(),
        "q": s.q.tolist(),
    }
    for name in ("raw_p1", "raw_p2", "raw_p3"):
        arr = getattr(s, name)
        if arr is not None:
            doc[name] = {"real": arr.real.tolist(), "imag": arr.imag.tolist()}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_outputs(outdir: Path, stem: str, s: Spectrum, fmt: str) -> list[Path]:
    written = []
    if fmt in ("csv", "both"):
        path = outdir / f"{stem}.csv"
        write_spectrum_csv(path, s)
        written.append(path)
    if fmt in ("json", "both"):
        path = outdir / f"{stem}.json"
        write_spectrum_json(path, s)
        written.append(path)
    return written


def _write_report(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _peak_table(s: Spectrum) -> list[dict]:
    return [{"omega": omega, "q": q, "sign": sign}
            for omega, q, sign in find_peaks(s)]


def run_spectrum(cfg: dict, outdir: Path) -> int:
    engine = cfg.get("engine", "both")
    fmt = cfg.get("format", "csv")
    p = _params_from(cfg)
    spectra: dict[str, Spectrum] = {}
    if engine in ("numeric", "both"):
        spectra["numeric"] = _spectrum_for("numeric", p, cfg)
    if engine in ("closed_form", "both"):
        spectra["closed_form"] = _spectrum_for("closed_form", p, cfg)
    for name, s in spectra.items():
        _write_outputs(outdir, f"spectrum_{name}", s, fmt)
    if engine == "both":
        report = {"params": asdict(p),
                  "metrics": compare_spectra(spectra["numeric"],
                                             spectra["closed_form"])}
        _write_report(outdir / "comparison.json", report)
    return 0


def run_sweep(cfg: dict, outdir: Path) -> int:
    """One spectrum file per Cartesian-product point plus a manifest.

    Sweeps run a single engine per invocation so every output file has an
    unambiguous provenance; the default is the closed-form engine. Files
    are written in point order, the manifest last; on any failure the
    files written so far are removed. File names keep 6 significant
    digits of delta and tau, so points whose names coincide are rejected
    before any point runs.
    """
    engine = cfg.get("engine", "closed_form")
    if engine == "both":
        raise PulsespecError(
            "sweep runs a single engine; set engine=numeric or "
            "engine=closed_form")
    fmt = cfg.get("format", "csv")
    if not any(key in cfg for key in _LIST_KEYS):
        raise PulsespecError(
            "sweep needs at least one of n_pulses_list, tau_list, delta_list")

    def axis(list_key: str, scalar_key: str) -> list:
        if list_key in cfg:
            return list(cfg[list_key])
        if scalar_key in cfg:
            return [cfg[scalar_key]]
        raise PulsespecError(f"missing {scalar_key} (or {list_key})")

    deltas = axis("delta_list", "delta")
    taus = axis("tau_list", "tau")
    pulse_counts = axis("n_pulses_list", "n_pulses")
    points: dict[str, tuple] = {}
    for point in ((d, t, n) for d in deltas for t in taus
                  for n in pulse_counts):
        stem = "spectrum_delta{:g}_tau{:g}_np{}".format(*point)
        if stem in points:
            raise PulsespecError(
                f"sweep points {points[stem]} and {point} both write {stem}")
        points[stem] = point

    written: list[Path] = []
    try:
        manifest_points = []
        for stem, (d, t, n) in points.items():
            p = _params_from(cfg, delta=d, tau=t, n_pulses=n)
            s = _spectrum_for(engine, p, cfg)
            files = _write_outputs(outdir, stem, s, fmt)
            written.extend(files)
            manifest_points.append({
                "files": [f.name for f in files],
                "params": s.meta,
                "positive_weight_fraction": positive_weight_fraction(s),
                "peaks": _peak_table(s),
            })
    except Exception:
        for f in written:
            f.unlink(missing_ok=True)
        raise
    manifest = {"engine": engine, "format": fmt, "points": manifest_points}
    _write_report(outdir / "manifest.json", manifest)
    return 0


def _invariant_suite(p: DriveParams, g: TimeGrid,
                     traj: np.ndarray, block: np.ndarray) -> dict:
    """Node-level checks of the propagation against exact identities."""
    (ee, eg), (ge, gg) = traj.transpose(1, 2, 0)
    trace_dev = float(np.max(np.abs(ee + gg - 1.0)))
    herm_dev = float(np.max(np.abs(ge - np.conj(eg))))
    coherence_dev = float(max(np.max(np.abs(eg)), np.max(np.abs(ge))))
    if p.n_pulses >= 1:
        analytic = rho_gg_analytic(g.times, p)
        population_dev = float(np.max(np.abs(gg.real - analytic)))
    else:
        population_dev = float(np.max(np.abs(ee.real - np.exp(-p.gamma * g.times))))
    # Every t node of residue r shares row r, so row r marched from node r
    # covers every stored value; the companion (row n_sub) is the row of
    # node 0 past the pulse at tau, divided by its first free interval.
    # block[1] holds the left limits: the kernel one sub-step earlier times
    # the free step. Block column c stands for theta = (c + 1)*dt.
    n_sub, last = g.substeps_per_interval, g.n_nodes - 1
    pair = 2 * n_sub
    free = np.exp((1j * p.delta - 0.5 * p.gamma) * np.array([p.tau, g.dt]))
    r = np.arange(n_sub + 1)[:, None]
    companion = r == n_sub
    kernel = f_analytic(g.times[r % n_sub],
                        np.arange(pair + 1) * g.dt + p.tau * companion, p)
    kernel /= np.where(companion, free[0], 1.0)
    theta = np.arange(1, pair + 1)
    # a value counts where a t node's range reaches it; a pulse-free run
    # has no interior pulse and no companion
    in_range = (theta <= last - r) & (~companion | (p.n_pulses >= 1))
    factor_dev = 0.0
    for values, expected in zip(block, (kernel[:, 1:],
                                        kernel[:, :-1] * free[1])):
        dev = np.abs(values - expected)[in_range]
        factor_dev = max(factor_dev, float(np.max(dev, initial=0.0)))
    checks = {
        "trace": (trace_dev, 1e-12),
        "hermiticity": (herm_dev, 1e-12),
        "coherence_nullity": (coherence_dev, 1e-12),
        "population_vs_analytic": (population_dev, 1e-10),
        "correlator_factorization": (factor_dev, 1e-9),
    }
    return {name: {"value": value, "tolerance": tol, "pass": bool(value <= tol)}
            for name, (value, tol) in checks.items()}


def run_validate(cfg: dict, outdir: Path) -> int:
    """Cross-check the engines and the invariant suite; write a report.

    engine=both (the default) compares numeric against closed form. A
    single engine value compares that engine to itself, which must give
    all-zero metrics; useful as a wiring smoke check. Exit 0 only when
    every tolerance passes; the report is written either way.
    """
    engine = cfg.get("engine", "both")
    p = _params_from(cfg)
    fg = _freq_grid(cfg, p)
    g = make_time_grid(p, cfg.get("substeps"))
    traj = propagate_trajectory(p, g)
    block = build_correlator_grids(p, g)
    invariants = _invariant_suite(p, g, traj, block)
    sum_rule_rel = None
    if engine == "both":
        s_num = compute_numeric_spectrum(p, g, traj, block, fg)
        s_closed = closed_spectrum(p, fg)
        metrics = compare_spectra(s_num, s_closed)
        total_closed = s_closed.raw_p3.real
        total_numeric = (s_num.raw_p1 + s_num.raw_p2).real
        sum_rule_rel = float(np.linalg.norm(total_numeric - total_closed)
                             / np.linalg.norm(total_closed))
        peak_source = s_closed
    else:
        s = (closed_spectrum(p, fg) if engine == "closed_form"
             else compute_numeric_spectrum(p, g, traj, block, fg))
        metrics = compare_spectra(s, s)
        peak_source = s
    comparison_pass = metrics["l2_rel"] <= L2_REL_TOLERANCE
    sum_rule_pass = sum_rule_rel is None or sum_rule_rel <= SUM_RULE_TOLERANCE
    passed = (comparison_pass and sum_rule_pass
              and all(entry["pass"] for entry in invariants.values()))
    hint = None
    if not (comparison_pass and sum_rule_pass):
        hint = REFINEMENT_HINT
    report = {
        "params": asdict(p),
        "engine": engine,
        "metrics": metrics,
        "l2_rel_tolerance": L2_REL_TOLERANCE,
        "sum_rule_rel": sum_rule_rel,
        "sum_rule_tolerance": SUM_RULE_TOLERANCE,
        "invariants": invariants,
        "peaks": _peak_table(peak_source),
        "passed": passed,
        "hint": hint,
    }
    _write_report(outdir / "validation_report.json", report)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pulsespec",
        description="Absorption spectra of a periodically pulsed "
                    "two-level emitter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("spectrum", "compute one spectrum per configured engine"),
            ("sweep", "one spectrum per parameter-grid point plus manifest"),
            ("validate", "cross-check engines and invariants")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="flat key=value config file")
        cmd.add_argument("--output-dir", default=None,
                         help="override the config output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output_dir or cfg.get("output_dir", "."))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "spectrum":
            return run_spectrum(cfg, outdir)
        if args.command == "sweep":
            return run_sweep(cfg, outdir)
        return run_validate(cfg, outdir)
    except PulsespecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
