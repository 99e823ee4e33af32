"""Command-line front end: single runs, parameter sweeps, cross-validation.

Configs are flat key=value text files (blank lines and whole-line #
comments are skipped; a value holding # is an error). Scalar keys:
delta, gamma, tau, n_pulses, free_time, substeps, omega_min, omega_max,
omega_step, engine, output_dir, format. Sweep keys n_pulses_list,
tau_list, delta_list take comma-separated values. `validate` reads
neither engine nor format: it runs the numeric engine and the checks of
`validation`, the comparison with the closed form among them.

Exit codes: 0 success, 1 validation tolerance failure, 2 config parse
error (a repeated key included), 3 parameter error (a numeric window
that the time grid aliases included, or a sweep process that sent no
result), 4 output error (the output directory cannot be made
or a file cannot be written). A command that fails with any error removes
every file it had written; exit 1 is not such a failure and keeps its
report. CSV and JSON spectrum files are
byte-identical for identical configs: summation order and the float
kernels of `_digits` are fixed, and every file carries the full resolved
parameter set (the CSV header, the JSON `meta`).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ._digits import _csv_texts, _repr_texts
from .analysis import compare_spectra, find_peaks, positive_weight_fraction
from .closed_form import closed_spectrum
from .core import (DriveParams, FrequencyGrid, PulsespecError, Spectrum,
                   make_frequency_grid, make_time_grid)
from .correlators import build_correlator_grids
from .lindblad import propagate_trajectory
from .spectrum_numeric import compute_numeric_spectrum
from .validation import agreement_checks, node_checks


class ConfigError(Exception):
    """Malformed config file; maps to exit code 2."""


# config key -> value type, element type of a comma-separated list, or
# allowed values
_SCALAR_KEYS = {"delta": float, "gamma": float, "tau": float,
                "free_time": float, "omega_min": float, "omega_max": float,
                "omega_step": float, "n_pulses": int, "substeps": int,
                "output_dir": str}
_LIST_KEYS = {"n_pulses_list": int, "tau_list": float, "delta_list": float}
_CHOICE_KEYS = {"engine": ("numeric", "closed_form", "both"),
                "format": ("csv", "json", "both")}


def parse_config(path: str) -> dict:
    """Parse a flat key=value config file into typed values."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    cfg: dict = {}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in key_lines:
            raise ConfigError(f"line {lineno}: {key} already set on line "
                              f"{key_lines[key]}")
        key_lines[key] = lineno
        if "#" in value:
            raise ConfigError(f"line {lineno}: value of {key} holds '#'; "
                              f"comments go on their own line")
        try:
            if key in _SCALAR_KEYS:
                cfg[key] = _SCALAR_KEYS[key](value)
            elif key in _LIST_KEYS:
                cfg[key] = [_LIST_KEYS[key](v) for v in value.split(",")]
            elif key in _CHOICE_KEYS:
                if value not in _CHOICE_KEYS[key]:
                    raise ConfigError(f"line {lineno}: {key} must be one of "
                                      f"{_CHOICE_KEYS[key]}")
                cfg[key] = value
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for {key}") from None
    return cfg


def _params_from(cfg: dict, **overrides) -> DriveParams:
    merged = {**cfg, **overrides}
    missing = [k for k in ("delta", "tau", "n_pulses") if k not in merged]
    if missing:
        raise PulsespecError(
            f"missing required config keys: {', '.join(missing)}")
    return DriveParams(**{f.name: merged[f.name] for f in fields(DriveParams)
                          if f.name in merged})


def _freq_grid(cfg: dict, p: DriveParams) -> FrequencyGrid:
    return make_frequency_grid(p,
                               omega_min=cfg.get("omega_min"),
                               omega_max=cfg.get("omega_max"),
                               omega_step=cfg.get("omega_step"))


def _spectrum_for(engine: str, p: DriveParams, cfg: dict) -> Spectrum:
    fg = _freq_grid(cfg, p)
    if engine == "closed_form":
        return closed_spectrum(p, fg)
    g = make_time_grid(p, cfg.get("substeps"))
    return compute_numeric_spectrum(p, g, propagate_trajectory(p, g),
                                    build_correlator_grids(p, g), fg)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_spectrum_csv(f, s: Spectrum, reprs: dict | None = None) -> None:
    """Emit `omega,P1,P2,Q` rows after a comment header carrying the
    resolved parameters to the binary file f. Every float is exactly
    "%.17g" % value; the rows come from `_digits._csv_texts`, and the
    writer holds one chunk of them at a time.

    With a dict `reprs`, the same digit split also gives the repr text of
    the four columns, which goes there under omega, p1, p2 and q for
    write_spectrum_json: a list of chunk texts per column, a comma after
    each value, about 80 B per omega node in all.
    """
    header = "".join(f"# {key} = {_fmt(s.meta[key])}\n"
                     for key in sorted(s.meta))
    texts = ([reprs.setdefault(key, []) for key in ("omega", "p1", "p2", "q")]
             if reprs is not None else [])
    f.write((header + "omega,P1,P2,Q\n").encode())
    f.writelines(_csv_texts((s.omegas, s.p1, s.p2, s.q), *texts))


def write_spectrum_json(f, s: Spectrum, reprs: dict | None = None) -> None:
    """Write `s` to the binary file f as json.dumps(doc, indent=2,
    sort_keys=True) would, byte for byte.

    json.dumps with an indent runs the pure-Python encoder, one chunk per
    float, so only `meta` goes through it. Every float of the arrays is
    repr(value), as json writes a finite float (Spectrum admits no
    other). Every list is written from a list of chunk texts, the first
    of: the one `reprs` holds (write_spectrum_csv's, for omega, p1, p2
    and q); for a raw part's real list that is bit for bit p1 (p2), p1's
    (p2's) text, which goes into `reprs` and is kept until then, about
    40 B per omega node for both; the next list of
    `_digits._repr_texts`. So the writer holds the kept text, the text of
    the list it writes, about 20 B a node, and the rest of the chunk that
    runs on into the next list.
    Keys go out in sorted order: meta, omega, p1, p2, q, then raw_p1,
    raw_p2, raw_p3 as present, each with imag before real.
    """
    reprs = {} if reprs is None else reprs
    # (name, values, text up to the list, its indent, text after it)
    lists = [(key, values, f',\n  "{key}": ', "  ", "") for key, values in
             (("omega", s.omegas), ("p1", s.p1), ("p2", s.p2), ("q", s.q))]
    for key in ("raw_p1", "raw_p2", "raw_p3"):
        arr = getattr(s, key)
        if arr is not None:
            lists += [(key + ".imag", arr.imag,
                       f',\n  "{key}": {{\n    "imag": ', "    ", ""),
                      (key + ".real", arr.real, ',\n    "real": ', "    ",
                       "\n  }")]
    # compared as bits: -0.0 == 0.0, but their reprs differ
    same = {f"raw_{key}.real": key for key in ("p1", "p2")
            if getattr(s, "raw_" + key) is not None
            and np.array_equal(getattr(s, "raw_" + key).real.view(np.int64),
                               getattr(s, key).view(np.int64))}
    fresh = _repr_texts([values for name, values, *_ in lists
                         if name not in reprs and name not in same])
    meta = _json_text(s.meta, "  ")
    text = '{\n  "meta": ' + meta
    for name, _, head, indent, tail in lists:
        texts = reprs.get(same.get(name, name))
        if texts is None:
            texts = next(fresh)
            if name in same.values():
                reprs[name] = texts
        if not texts:
            text += head + "[]" + tail
            continue
        f.write((text + head + "[\n  " + indent).encode())
        text = "\n" + indent + "]" + tail
        sep = (",\n  " + indent).encode()
        f.writelines(piece.replace(b",", sep) for piece in texts[:-1])
        f.write(texts[-1][:-1].replace(b",", sep))
    f.write((text + "\n}\n").encode())


def _write_outputs(written: list[Path], outdir: Path, stem: str,
                   s: Spectrum, fmt: str) -> list[Path]:
    """Write `s` as `stem`.csv and/or `stem`.json, each file opened once;
    each file goes into `written` once it is created. With both formats
    the JSON writer takes the CSV writer's repr text of the four columns.
    Returns the files written here."""
    start = len(written)
    reprs = {} if fmt == "both" else None
    for ext, write in (("csv", write_spectrum_csv),
                       ("json", write_spectrum_json)):
        if fmt in (ext, "both"):
            path = outdir / f"{stem}.{ext}"
            with path.open("wb") as f:
                written.append(path)
                write(f, s, reprs)
    return written[start:]


def _json_text(doc, indent: str = "") -> str:
    """json.dumps(doc, indent=2, sort_keys=True), each line after the first
    indented further by `indent`, as doc sits nested at that depth."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + indent)


def _write_report(written: list[Path], path: Path, text: str) -> None:
    with path.open("w", encoding="utf-8") as f:
        written.append(path)
        f.write(text + "\n")


def _peak_table(s: Spectrum) -> list[dict]:
    return [{"omega": omega, "q": q, "sign": sign}
            for omega, q, sign in find_peaks(s)]


def run_spectrum(cfg: dict, outdir: Path, written: list[Path]) -> int:
    """Every configured engine's spectrum, computed before any is written,
    and with engine=both their comparison."""
    engine = cfg.get("engine", "both")
    fmt = cfg.get("format", "csv")
    p = _params_from(cfg)
    spectra = {name: _spectrum_for(name, p, cfg) for name in
               (("numeric", "closed_form") if engine == "both" else (engine,))}
    for name, s in spectra.items():
        _write_outputs(written, outdir, f"spectrum_{name}", s, fmt)
    if engine == "both":
        report = {"params": asdict(p),
                  "metrics": compare_spectra(spectra["numeric"],
                                             spectra["closed_form"])}
        _write_report(written, outdir / "comparison.json", _json_text(report))
    return 0


def run_sweep(cfg: dict, outdir: Path, written: list[Path]) -> int:
    """One spectrum file per Cartesian-product point plus a manifest.

    Sweeps run a single engine per invocation so every output file has an
    unambiguous provenance; the default is the closed-form engine. File
    names keep 6 significant digits of delta and tau, so points whose names
    coincide are rejected before any point runs. A closed-form sweep runs
    its points in one process per usable CPU (`_shares`), a numeric
    sweep in this one, in point order; the files, the manifest (written
    last) and the error raised are the same either way.
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

    jobs = [(index, stem, point)
            for index, (stem, point) in enumerate(points.items())]

    def run_point(written: list[Path], stem: str, point: tuple) -> str:
        """One point: its spectrum, its files (each into `written` once
        created) and its manifest entry, encoded as it sits in the
        manifest. A PulsespecError names the point."""
        d, t, n = point
        try:
            p = _params_from(cfg, delta=d, tau=t, n_pulses=n)
            s = _spectrum_for(engine, p, cfg)
        except PulsespecError as exc:
            exc.args = (f"sweep point delta = {d}, tau = {t}, n_pulses = "
                        f"{n}: {exc}",)
            raise
        files = _write_outputs(written, outdir, stem, s, fmt)
        return _json_text({
            "files": [f.name for f in files],
            "params": s.meta,
            "positive_weight_fraction": positive_weight_fraction(s),
            "peaks": _peak_table(s),
        }, "    ")
    from ._shares import run_shares
    entries = run_shares(jobs, engine, run_point, written)
    # each entry encoded where its point ran; joined as json.dumps would
    # nest them
    text = (_json_text({"engine": engine, "format": fmt})[:-2]
            + ',\n  "points": [\n    ' + ",\n    ".join(entries) + "\n  ]\n}")
    _write_report(written, outdir / "manifest.json", text)
    return 0


def run_validate(cfg: dict, outdir: Path, written: list[Path]) -> int:
    """Check the numeric engine against exact identities and against the
    closed form; write a report.

    The checks form one table, and exit 0 needs every one to pass; the
    report is written either way.
    """
    p = _params_from(cfg)
    fg = _freq_grid(cfg, p)
    g = make_time_grid(p, cfg.get("substeps"))
    traj = propagate_trajectory(p, g)
    kernel = build_correlator_grids(p, g)
    checks = node_checks(p, g, traj, kernel)
    s_num = compute_numeric_spectrum(p, g, traj, kernel, fg)
    s_closed = closed_spectrum(p, fg)
    metrics = compare_spectra(s_num, s_closed)
    agreement, hint = agreement_checks(metrics, s_num, s_closed)
    checks |= agreement
    passed = all(entry["pass"] for entry in checks.values())
    report = {"params": asdict(p), "checks": checks, "metrics": metrics,
              "peaks": _peak_table(s_closed), "passed": passed,
              "hint": hint}
    _write_report(written, outdir / "validation_report.json",
                  _json_text(report))
    return 0 if passed else 1


_COMMANDS = {"spectrum": run_spectrum, "sweep": run_sweep,
             "validate": run_validate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pulsespec",
        description="Absorption spectra of a periodically pulsed two-level "
                    "emitter. spectrum: one spectrum per configured engine; "
                    "sweep: one spectrum per parameter-grid point plus "
                    "manifest; validate: cross-check engines and "
                    "invariants.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True,
                        help="flat key=value config file")
    parser.add_argument("--output-dir", default=None,
                        help="override the config output_dir")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output_dir or cfg.get("output_dir", "."))
    written: list[Path] = []
    try:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            return _COMMANDS[args.command](cfg, outdir, written)
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            raise
    except PulsespecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
