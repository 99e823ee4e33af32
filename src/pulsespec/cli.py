"""Command-line front end: single runs, parameter sweeps, cross-validation.

Configs are flat key=value text files (blank lines and whole-line #
comments are skipped; a value holding # is an error). Scalar keys:
delta, gamma, tau, n_pulses, free_time, substeps, omega_min, omega_max,
omega_step, engine, output_dir, format. Sweep keys n_pulses_list,
tau_list, delta_list take comma-separated values. `validate` reads
neither engine nor format: it runs the numeric engine and compares it
with the closed form on every train.

Exit codes: 0 success, 1 validation tolerance failure, 2 config parse
error (a repeated key included), 3 parameter error, 4 output error (the
output directory cannot be made or a file cannot be written). A command
that fails with any error removes every file it had written; exit 1 is
not such a failure and keeps its report. CSV and JSON spectrum files are
byte-identical for identical configs: summation order and float
formatting are fixed, and every file carries the full resolved parameter
set (the CSV header, the JSON `meta`).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .analysis import compare_spectra, find_peaks, positive_weight_fraction
from .closed_form import closed_spectrum, f_analytic, rho_gg_analytic
from .core import (DriveParams, FrequencyGrid, PulsespecError, Spectrum,
                   TimeGrid, make_frequency_grid, make_time_grid, two_prod)
from .correlators import build_correlator_grids
from .lindblad import propagate_trajectory
from .spectrum_numeric import compute_numeric_spectrum


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

L2_REL_TOLERANCE = 0.05
SUM_RULE_TOLERANCE = 0.05
REFINEMENT_HINT = ("the engines disagree: the quadrature is too coarse "
                   "(increase substeps, a smaller dt)")


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


# Both float kernels format a value x of decimal exponent X, -6 <= X <= 16,
# from the error-free product |x| * 10**k = p + e, k = 16 - X: 10**k is
# exact for k <= 22, and 10**16 <= p + e < 10**17. The CSV takes the 17
# digits that "%.17g" prints, D = p + rint(e): p >= 2**53 is an even
# integer, so rint rounds ties to even, as CPython's dtoa does. JSON takes
# the shortest digits that read back as x, as repr does (see _repr_cells).
# Each value fills a fixed-width cell of ASCII and NUL bytes: sign,
# "0.000" prefix (X < 0), 17 digits each followed by a slot for the
# decimal point, "e+XX" suffix and separator. A mask chosen by sign, X
# and the number of significant digits keeps the bytes the format prints
# and zeroes the rest, and one bytes.translate drops the zeros. Any other
# value (zero, subnormals, X outside -6..16) goes through one % call per
# chunk.
_POW10 = np.array([float(10**k) for k in range(23)])
_CELL = np.frombuffer(b"-0.000" + b"0." * 17 + b"e-00,", dtype=np.uint8)
_CSV_CHUNK_ROWS = 256
_JSON_CHUNK_VALUES = 2048


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """"0000".."9999" as one uint32 of four ASCII bytes each, and the
    trailing zeros of each, 4 for "0000"."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        quads[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    quads = quads.reshape(10_000, 4)
    z = (quads == ord("0")).astype(np.int64)
    trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))
    return quads.view(np.uint32).ravel(), trailing


def _cell_masks(exponent_from: int, dot_zero: int) -> np.ndarray:
    """0xFF where the format prints a byte of the cell, by (negative,
    X + 6, significant digits), flattened to rows of the cell width.
    Exponent notation is used for X < -4 and X >= exponent_from; fixed
    notation writes integers with dot_zero digits after the point."""
    neg = np.arange(2)[:, None, None]
    exponent = np.arange(-6, 17)[:, None]
    digits = np.arange(18)
    sci = (exponent < -4) | (exponent >= exponent_from)
    # fixed notation keeps every integer digit; the point follows digit X,
    # or digit 0 in exponent notation, when a digit comes after it
    shown = np.where(sci | (exponent < 0), digits,
                     np.maximum(digits, exponent + 1 + dot_zero))
    point = np.where(sci, 0, np.where(exponent >= 0, exponent, -1))
    point = np.where(shown > point + 1, point, -1)
    prefix = np.where(~sci & (exponent < 0), 1 - exponent, 0)
    slot = np.arange(17)
    keep = np.zeros((2, 23, 18, _CELL.size), dtype=bool)
    keep[..., 0] = neg == 1
    keep[..., 1:6] = np.arange(5) < prefix[..., None]
    keep[..., 6:40:2] = slot < shown[..., None]
    keep[..., 7:40:2] = slot == point[..., None]
    keep[..., 40:44] = sci[..., None]
    keep[..., 44] = True
    return (keep * np.uint8(0xFF)).reshape(-1, _CELL.size)


_QUADS, _TRAILING_ZEROS = _quad_tables()
_CSV_MASKS = _cell_masks(17, 0)
_REPR_MASKS = _cell_masks(16, 1)


def _scaled(x: np.ndarray):
    """|x| (1.0 where the value takes the fallback), k in 0..22, and p, e
    with |x| * 10**k = p + e exactly, for a value x of decimal exponent
    X = 16 - k; and whether the value takes the fallback."""
    a = np.abs(x)
    # the double 1e-6 lies below 10**-6, so these values have -6 <= X <= 16
    fallback = (a <= 1e-6) | (a >= 1e17)
    a[fallback] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    k = 16 - k.astype(np.int64)
    np.minimum(np.maximum(k, 0, out=k), 22, out=k)
    p, e = two_prod(a, _POW10[k])
    # the log10 estimate may miss by one; compare p + e exactly with the
    # decade and move k once (a rounded 10**16 can stand for 9.99..95e15)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    moved = np.flatnonzero(low != high)
    k[moved] += low[moved].astype(np.int64) - high[moved]
    p[moved], e[moved] = two_prod(a[moved], _POW10[k[moved]])
    return a, k, p, e, fallback


def _cells(x: np.ndarray, d: np.ndarray, k: np.ndarray,
           fallback: np.ndarray, masks: np.ndarray, fmt: str) -> np.ndarray:
    """The cells of the values x from their 17-digit integers d,
    10**16 <= d < 10**17, and k = 16 - X, laid out by `masks`; values
    where `fallback` is set are "%-44" + fmt % value instead."""
    lead, rest = np.divmod(d, 10**16)
    halves = np.empty((x.size, 2), dtype=np.int64)
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    quads = np.empty((x.size, 4), dtype=np.int64)
    np.divmod(halves, 10**4, out=(quads[:, 0::2], quads[:, 1::2]))
    zeros = _TRAILING_ZEROS[quads]
    tail = zeros[:, 0]
    for j in (1, 2, 3):
        tail = zeros[:, j] + (quads[:, j] == 0) * tail
    cell = np.empty((x.size, _CELL.size), dtype=np.uint8)
    cell[:] = _CELL
    cell[:, 6] = lead + ord("0")
    cell[:, 8:40:2] = _QUADS[quads].view(np.uint8)
    cell[:, 43] = 32 + k    # ord("0") - X
    cell[k == 0, 41:44] = np.frombuffer(b"+16", dtype=np.uint8)
    # the mask row of (negative, X + 6, significant digits), X + 6 = 22 - k
    cell &= masks[(x < 0) * (23 * 18) + 413 - 18 * k - tail]
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        # neither format prints a space, so the padding drops with the NULs
        text = ("%-44" + fmt) * fallback.size % tuple(x[fallback].tolist())
        cell[fallback, :-1] = np.frombuffer(
            text.encode(), dtype=np.uint8).reshape(fallback.size, -1)
    return cell


def _csv_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-D float table as bytes: each value as
    "%.17g" % value, a comma between columns and a newline after each
    row."""
    rows, cols = table.shape
    x = table.ravel()
    _, k, p, e, fallback = _scaled(x)
    # no double with X in -6..16 rounds up to 10**17: that takes |x|
    # within 5e-18 of a power of ten, and the doubles nearest
    # 10**-5..10**17 are exact or above it
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    cell = _cells(x, d, k, fallback, _CSV_MASKS, ".17g")
    cell.reshape(rows, cols, -1)[:, -1, -1] = ord("\n")
    return cell.tobytes().translate(None, b"\0 ")


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """The cells of repr(value) for a 1-D float array, each followed by
    a comma: bytes.translate(None, b"\\0 ") of the cells gives the text.

    x rounds to v = |x| * 10**k = p + e. The doubles that read back as x
    fill [v - h, v + h], h = ulp(x) * 10**k / 2 (exact: 10**k has 5**k
    < 2**53 for its odd part); repr takes the endpoints only for an even
    mantissa. Its digits are those of the number of that interval with
    the most trailing zeros, the one nearest v where there are several
    (the steps of Steele & White's and Gay's digit generation). h > 0.55,
    so the interval is 1.1 to 23 wide: it holds the integer nearest v, at
    most one multiple of 100, which then has the most zeros, and
    otherwise up to three multiples of 10, of which the two around v are
    the ones to look at. Offsets from v are counted in units of 2**-54,
    where all of them are exact int64. Ties between two nearest numbers
    take the fallback. At a power of two the gap below is h / 2, but for
    each of the 76 powers of two of exponent -6..16 the wider interval
    gives the same digits, so h serves for both sides.
    """
    a, k, p, e, fallback = _scaled(x)
    bits = a.view(np.int64)
    # h * 2**54 = 10**k * 2**(E - 1022) for the biased exponent E of x;
    # the endpoints drop out for an odd mantissa
    h = _POW10[k] * ((bits & (2047 << 52)) + (1 << 52)).view(np.float64)
    h = h.astype(np.int64) - (bits & 1)
    near = np.rint(e)
    d = p.astype(np.int64) + near.astype(np.int64)   # the integer nearest v
    r = ((near - e) * 2.0**54).astype(np.int64)      # (d - v) * 2**54
    # the interval holds the integers d - down .. d + up
    down = (h + r) >> 54
    up = (h - r) >> 54
    ones = d % 10
    tens_low = ones <= down
    tens_high = 10 - ones <= up
    tens = tens_low | tens_high
    # with both multiples of 10 in the interval, the one nearer v
    rise = tens_high & (~tens_low | (ones > 5) | ((ones == 5) & (r < 0)))
    tie = np.where(tens, tens_low & tens_high & (ones == 5) & (r == 0),
                   np.abs(r) == 2**53)
    rest = d % 100
    hundreds_high = 100 - rest <= up
    hundreds = (rest <= down) | hundreds_high
    d = np.where(hundreds, d - rest + 100 * hundreds_high,
                 np.where(tens, d - ones + 10 * rise, d))
    # no d reaches 10**17: x would then be the double nearest 10**(X + 1)
    # and lie below it, and for X = -6..16 each of these doubles is the
    # power or above it
    fallback |= ~hundreds & tie
    return _cells(x, d, k, fallback, _REPR_MASKS, "r")


def write_spectrum_csv(path: Path, s: Spectrum) -> None:
    """Emit `omega,P1,P2,Q` rows after a comment header carrying the
    resolved parameters. Every float is exactly "%.17g" % value; rows
    are formatted by `_csv_rows` and written in chunks of
    _CSV_CHUNK_ROWS, so memory does not grow with the grid."""
    header = "".join(f"# {key} = {_fmt(s.meta[key])}\n"
                     for key in sorted(s.meta))
    columns = (s.omegas, s.p1, s.p2, s.q)
    with path.open("wb") as f:
        f.write((header + "omega,P1,P2,Q\n").encode())
        for start in range(0, s.omegas.size, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            f.write(_csv_rows(np.column_stack([c[rows] for c in columns])))


def write_spectrum_json(path: Path, s: Spectrum) -> None:
    """Write `s` as json.dumps(doc, indent=2, sort_keys=True) would, byte
    for byte.

    json.dumps with an indent runs the pure-Python encoder, one chunk per
    float, so only `meta` goes through it. Every float of the arrays is
    repr(value), as json writes a finite float (Spectrum admits no
    other), from the numpy kernel `_repr_cells` with a per-value %r
    fallback. The arrays are taken in chunks of _JSON_CHUNK_VALUES values
    that run on from one array into the next, and each chunk is written
    before the next is formatted, so memory does not grow with the grid.
    Keys go out in sorted order: meta, omega, p1, p2, q, then raw_p1,
    raw_p2, raw_p3 as present, each with imag before real.
    """
    items = [(f',\n  "{key}": ', arr, "  ", "") for key, arr in
             (("omega", s.omegas), ("p1", s.p1), ("p2", s.p2), ("q", s.q))]
    for key in ("raw_p1", "raw_p2", "raw_p3"):
        arr = getattr(s, key)
        if arr is not None:
            items += [(f',\n  "{key}": {{\n    "imag": ', arr.imag,
                       "    ", ""),
                      (',\n    "real": ', arr.real, "    ", "\n  }")]
    # (text up to the list's first value, its values, its indent); the
    # text after the last value goes into `text`
    lists = []
    meta = json.dumps(s.meta, indent=2, sort_keys=True).replace("\n", "\n  ")
    text = '{\n  "meta": ' + meta
    for head, values, indent, tail in items:
        if values.size:
            lists.append((text + head + "[\n  " + indent, values, indent))
            text = "\n" + indent + "]" + tail
        else:
            text += head + "[]" + tail
    ends = list(accumulate([values.size for _, values, _ in lists],
                           initial=0))
    with path.open("wb") as f:
        for start in range(0, ends[-1], _JSON_CHUNK_VALUES):
            stop = start + _JSON_CHUNK_VALUES
            runs = [(i, max(start, ends[i]) - ends[i],
                     min(stop, ends[i + 1]) - ends[i])
                    for i in range(len(lists))
                    if ends[i] < stop and ends[i + 1] > start]
            cells = _repr_cells(np.concatenate(
                [lists[i][1][first:last] for i, first, last in runs]))
            for i, first, last in runs:
                head, values, indent = lists[i]
                out = cells[:last - first].tobytes().translate(None, b"\0 ")
                cells = cells[last - first:]
                if first == 0:
                    f.write(head.encode())
                if last == values.size:
                    out = out[:-1]    # no comma after the last value
                f.write(out.replace(b",", (",\n  " + indent).encode()))
        f.write((text + "\n}\n").encode())


def _write_outputs(written: list[Path], outdir: Path, stem: str,
                   s: Spectrum, fmt: str) -> list[Path]:
    """Write `s` as `stem`.csv and/or `stem`.json; each file goes into
    `written` once its writer returns. Returns the files written here."""
    start = len(written)
    for ext, write in (("csv", write_spectrum_csv),
                       ("json", write_spectrum_json)):
        if fmt in (ext, "both"):
            path = outdir / f"{stem}.{ext}"
            write(path, s)
            written.append(path)
    return written[start:]


def _write_report(written: list[Path], path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    written.append(path)


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
        _write_report(written, outdir / "comparison.json", report)
    return 0


def run_sweep(cfg: dict, outdir: Path, written: list[Path]) -> int:
    """One spectrum file per Cartesian-product point plus a manifest.

    Sweeps run a single engine per invocation so every output file has an
    unambiguous provenance; the default is the closed-form engine. Files
    are written in point order, the manifest last. File names keep 6
    significant digits of delta and tau, so points whose names coincide
    are rejected before any point runs.
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

    manifest_points = []
    for stem, (d, t, n) in points.items():
        p = _params_from(cfg, delta=d, tau=t, n_pulses=n)
        s = _spectrum_for(engine, p, cfg)
        files = _write_outputs(written, outdir, stem, s, fmt)
        manifest_points.append({
            "files": [f.name for f in files],
            "params": s.meta,
            "positive_weight_fraction": positive_weight_fraction(s),
            "peaks": _peak_table(s),
        })
    manifest = {"engine": engine, "format": fmt, "points": manifest_points}
    _write_report(written, outdir / "manifest.json", manifest)
    return 0


def _check_table(checks: dict) -> dict:
    """{name: {"value", "tolerance", "pass"}} from {name: (value, tol)}."""
    return {name: {"value": value, "tolerance": tol,
                   "pass": bool(value <= tol)}
            for name, (value, tol) in checks.items()}


def _invariant_suite(p: DriveParams, g: TimeGrid,
                     traj: np.ndarray, block: np.ndarray) -> dict:
    """Node-level checks of the propagation against exact identities."""
    ee, gg = traj.T
    trace_dev = float(np.max(np.abs(ee + gg - 1.0)))
    population_dev = float(np.max(np.abs(gg - rho_gg_analytic(g.times, p))))
    # Every t node of residue r shares row r, so row r marched from node r
    # covers every stored value. The companion (row n_sub), the row of node
    # 0 past the pulse at tau, is zero before the next pulse, then row 0's
    # kernel one interval earlier times conj(free[0]): no division, which
    # is 0/0 once free[0] underflows. block[1] holds the left limits: the
    # kernel one sub-step earlier times the free step. Block column c
    # stands for theta = (c + 1)*dt.
    n_sub, last = g.substeps_per_interval, g.n_nodes - 1
    pair = 2 * n_sub
    free = np.exp((1j * p.delta - 0.5 * p.gamma) * np.array([p.tau, g.dt]))
    r = np.arange(n_sub + 1)[:, None]
    c = np.arange(pair + 1)
    companion = r == n_sub
    kernel = f_analytic((r % n_sub) * g.dt,
                        np.maximum(c - n_sub * companion, 0) * g.dt, p)
    kernel *= np.where(companion, (c >= n_sub) * free[0].conj(), 1.0)
    # a value counts where a t node's range reaches it; a pulse-free run
    # has no interior pulse and no companion. np.maximum and np.max keep a
    # NaN, so it fails the check.
    in_range = (c[1:] <= last - r) & (~companion | (p.n_pulses >= 1))
    dev = np.maximum(np.abs(block[0] - kernel[:, 1:]),
                     np.abs(block[1] - kernel[:, :-1] * free[1]))
    factor_dev = float(np.max(dev[in_range], initial=0.0))
    return _check_table({
        "trace": (trace_dev, 1e-12),
        "population_vs_analytic": (population_dev, 1e-10),
        "correlator_factorization": (factor_dev, 1e-9),
    })


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
    block = build_correlator_grids(p, g)
    checks = _invariant_suite(p, g, traj, block)
    s_num = compute_numeric_spectrum(p, g, traj, block, fg)
    s_closed = closed_spectrum(p, fg)
    metrics = compare_spectra(s_num, s_closed)
    total_closed = s_closed.raw_p3.real
    total_numeric = (s_num.raw_p1 + s_num.raw_p2).real
    sum_rule_rel = float(np.linalg.norm(total_numeric - total_closed)
                         / np.linalg.norm(total_closed))
    checks |= _check_table({
        "l2_rel": (metrics["l2_rel"], L2_REL_TOLERANCE),
        "sum_rule": (sum_rule_rel, SUM_RULE_TOLERANCE)})
    agree = checks["l2_rel"]["pass"] and checks["sum_rule"]["pass"]
    passed = all(entry["pass"] for entry in checks.values())
    report = {"params": asdict(p), "checks": checks, "metrics": metrics,
              "peaks": _peak_table(s_closed), "passed": passed,
              "hint": None if agree else REFINEMENT_HINT}
    _write_report(written, outdir / "validation_report.json", report)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pulsespec",
        description="Absorption spectra of a periodically pulsed "
                    "two-level emitter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text in (
            ("spectrum", run_spectrum,
             "compute one spectrum per configured engine"),
            ("sweep", run_sweep,
             "one spectrum per parameter-grid point plus manifest"),
            ("validate", run_validate, "cross-check engines and invariants")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="flat key=value config file")
        cmd.add_argument("--output-dir", default=None,
                         help="override the config output_dir")
        cmd.set_defaults(run=run)
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
            return args.run(cfg, outdir, written)
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
