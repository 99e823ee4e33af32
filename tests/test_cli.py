import contextlib
import errno
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pulsespec as ps
from conftest import closed_at, drive, floors, log_uniform
from oracles import mp_pair_blocks
from pulsespec import _digits, cli, validation


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_rows(path):
    lines = path.read_text().splitlines()
    return np.array([ln.split(",") for ln in lines
                     if not ln.startswith(("#", "omega"))], dtype=float)


def test_parse_config_types(tmp_path):
    path = write_cfg(tmp_path, """
# comment line

delta = 3.0
gamma = 2
tau = 0.2
n_pulses = 8
substeps = 25
engine = closed_form
format = both
output_dir = out
n_pulses_list = 8, 12, 16
tau_list = 0.2,0.3
free_time = 5
omega_min = -10
omega_max = 10.5
omega_step = 0.25
delta_list = 1, 2.5
""")
    cfg = cli.parse_config(path)
    assert cfg["delta"] == 3.0
    assert cfg["gamma"] == 2.0
    assert cfg["n_pulses"] == 8
    assert cfg["substeps"] == 25
    assert cfg["engine"] == "closed_form"
    assert cfg["format"] == "both"
    assert cfg["output_dir"] == "out"
    assert cfg["n_pulses_list"] == [8, 12, 16]
    assert cfg["tau_list"] == [0.2, 0.3]
    assert cfg["delta_list"] == [1.0, 2.5]
    for key, value in (("free_time", 5.0), ("omega_min", -10.0),
                       ("omega_max", 10.5), ("omega_step", 0.25)):
        assert cfg[key] == value
    for key in ("delta", "gamma", "tau", "free_time", "omega_min",
                "omega_max", "omega_step"):
        assert type(cfg[key]) is float
    for key in ("n_pulses", "substeps"):
        assert type(cfg[key]) is int
    assert all(type(v) is int for v in cfg["n_pulses_list"])
    assert all(type(v) is float for v in cfg["tau_list"] + cfg["delta_list"])


@pytest.mark.parametrize("line", [
    "unknown_key = 1",
    "delta = not_a_number",
    "n_pulses = 2.5",
    "engine = fancy",
    "format = xml",
    "just some words",
    "delta = 3\ntau = 0.2\n\ndelta = 5",
])
def test_parse_config_rejects(tmp_path, line):
    path = write_cfg(tmp_path, line)
    with pytest.raises(cli.ConfigError) as info:
        cli.parse_config(path)
    if line.startswith("delta = 3"):
        # a repeated key used to keep its last value silently
        assert "line 4" in str(info.value) and "line 1" in str(info.value)


def test_comment_after_a_value_exits_2_without_output(tmp_path, capsys):
    # a # after a string value used to become part of it: this config
    # made a directory named "out   # where files go" and exited 0
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n"
                              "engine = closed_form\n"
                              f"output_dir = {tmp_path / 'out'}   "
                              "# where files go\n")
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert "output_dir" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "nope.cfg"))


def test_spectrum_both_engines(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["comparison.json", "spectrum_closed_form.csv",
                     "spectrum_numeric.csv"]
    report = json.loads((out / "comparison.json").read_text())
    assert report["metrics"]["l2_rel"] < 0.05
    header = (out / "spectrum_numeric.csv").read_text().splitlines()
    data_start = next(i for i, ln in enumerate(header)
                      if not ln.startswith("#"))
    assert header[data_start] == "omega,P1,P2,Q"
    assert any("n_pulses = 8" in ln for ln in header[:data_start])
    assert any("engine = numeric" in ln for ln in header[:data_start])
    # every data row carries four 17-significant-digit fields
    row = header[data_start + 1].split(",")
    assert len(row) == 4
    float(row[0])


def test_spectrum_deterministic_output(tmp_path):
    cfg = write_cfg(tmp_path,
                    "delta = 3\ntau = 0.2\nn_pulses = 4\nengine = numeric\n")
    for sub in ("a", "b"):
        assert cli.main(["spectrum", "--config", cfg,
                         "--output-dir", str(tmp_path / sub)]) == 0
    first = (tmp_path / "a" / "spectrum_numeric.csv").read_bytes()
    second = (tmp_path / "b" / "spectrum_numeric.csv").read_bytes()
    assert first == second


def test_spectrum_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 4\n"
                              "engine = closed_form\nformat = json\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    doc = json.loads((out / "spectrum_closed_form.json").read_text())
    assert doc["meta"]["engine"] == "closed_form"
    assert len(doc["omega"]) == doc["meta"]["n_omega"]
    assert len(doc["raw_p3"]["real"]) == len(doc["omega"])
    q = np.array(doc["q"])
    p1 = np.array(doc["p1"])
    p2 = np.array(doc["p2"])
    assert np.max(np.abs(q - (p2 - p1))) <= 1e-12


def test_no_pulse_spectrum_run(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 0\n"
                              "free_time = 5\nengine = numeric\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    assert (out / "spectrum_numeric.csv").exists()


@pytest.mark.parametrize("command, name", [
    ("spectrum", "spectrum_numeric.csv"),
    ("validate", "validation_report.json"),
], ids=["spectrum", "validate"])
def test_tiny_pulse_free_horizon_runs(tmp_path, command, name):
    # free_time far below tau used to round down to a grid of no interval
    # and end in an IndexError traceback
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 1\nn_pulses = 0\n"
                              "free_time = 1e-12\nengine = numeric\n")
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output-dir", str(out)]) == 0
    if command == "spectrum":
        rows = csv_rows(out / name)
        assert rows.shape[0] > 1 and np.all(np.isfinite(rows))
    else:
        assert json.loads((out / name).read_text())["passed"] is True


@pytest.mark.parametrize("text", [
    # gamma*tau = 2e308 is beyond the double's range
    "delta = 3\ngamma = 1e308\ntau = 2\n",
    # the default grid reaches |omega| = 3*pi/tau ~ 1e301
    "delta = 3\ntau = 1e-300\n",
    "delta = 3\ntau = 0.2\nomega_min = 1e300\nomega_max = 1.5e300\n"
    "omega_step = 1e298\n",
], ids=["gamma", "tau", "omega"])
def test_non_finite_spectrum_exits_3_without_output(tmp_path, capsys, text):
    # gamma*tau overflows to inf, or omega*tau overflows the error-free
    # product that reduces the phase of the period factor, and the blocks
    # turn NaN; numpy's overflow and invalid warnings used to come first,
    # as RuntimeWarning under the suite's filterwarnings = error
    cfg = write_cfg(tmp_path, text + "n_pulses = 8\nengine = closed_form\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("NonFiniteSpectrum") and err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, text, files", [
    ("spectrum", "tau = 400\nn_pulses = 8\nengine = closed_form\n", 1),
    ("sweep", "n_pulses = 8\ntau_list = 0.2,100,400\n", 3),
], ids=["spectrum", "sweep"])
def test_closed_form_at_large_tau_writes_finite_files(tmp_path, command,
                                                      text, files):
    # gamma*tau = 800 used to overflow exp(2*g1*tau) and end in exit 3
    cfg = write_cfg(tmp_path, "delta = 3\n" + text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output-dir", str(out)]) == 0
    paths = sorted(out.glob("spectrum_*.csv"))
    assert len(paths) == files
    for path in paths:
        rows = csv_rows(path)
        assert rows.shape[0] > 1000 and np.all(np.isfinite(rows))


@pytest.mark.parametrize("text", [
    "delta = 1e300\ntau = 0.2\n",
    "delta = 3\ngamma = 1e300\ntau = 0.2\n",
    "delta = 3\ngamma = 1e-300\ntau = 0.2\n",
], ids=["delta", "gamma", "small_gamma"])
def test_extreme_rates_write_finite_closed_spectra(tmp_path, capsys, text):
    # these used to overflow the closed forms and exit 3; every exponent is
    # now bounded, the resonant sums at small gamma*tau are series, and P3
    # is about n_pulses*tau/g0
    cfg = write_cfg(tmp_path, text + "n_pulses = 8\nengine = closed_form\n"
                                     "format = json\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "spectrum_closed_form.json").read_text())
    meta = doc["meta"]
    omegas = np.array(doc["omega"])
    for j in (0, omegas.size // 3, omegas.size // 2, omegas.size - 1):
        refs = mp_pair_blocks(omegas[j], meta["delta"], meta["tau"], 8, 8,
                              meta["gamma"])
        for name, ref in zip(("raw_p1", "raw_p3"), refs):
            value = complex(doc[name]["real"][j], doc[name]["imag"][j])
            assert abs(value - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("text", [
    "n_pulses = 1\n", "n_pulses = 3\n", "n_pulses = 0\nfree_time = 2\n",
], ids=["one_pulse", "three_pulses", "pulse_free"])
def test_default_spectrum_runs_both_engines_on_every_train(tmp_path, text):
    # the closed form used to refuse these trains: exit 3
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n" + text)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "comparison.json").read_text())
    assert report["metrics"]["l2_rel"] <= 5e-3
    assert (out / "spectrum_closed_form.csv").exists()


def test_closed_form_sweep_over_short_trains(tmp_path):
    # one and three pulses used to end the sweep in exit 3
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n"
                              "n_pulses_list = 1,2,3\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [point["params"]["n_pulses"] for point in manifest["points"]] \
        == [1, 2, 3]


def test_pulse_free_horizon_overflow_exits_3_without_output(tmp_path, capsys):
    # free_time / tau overflows to inf, which used to crash math.ceil
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 1e-10\nn_pulses = 0\n"
                              "free_time = 1e300\nengine = numeric\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert "GridTooLarge" in capsys.readouterr().err
    assert list(out.iterdir()) == []


LONG_FREE_RUN = "delta = 3\ntau = 1e-3\nn_pulses = 0\nfree_time = 1e5\n"


def test_pulse_free_horizon_of_any_length_runs_in_closed_form(tmp_path):
    # 1e8 periods exited 3 with GridTooLarge from the time grid's budget,
    # which the closed form never builds
    cfg = write_cfg(tmp_path, LONG_FREE_RUN + "engine = closed_form\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    assert np.all(np.isfinite(csv_rows(out / "spectrum_closed_form.csv")))
    # one interval over the same double horizon as 1e5 periods of tau = 1,
    # so the same spectrum on the same frequencies
    grid = "omega_min = -10\nomega_max = 10\nomega_step = 0.05\n"
    rows = []
    for tau in ("1e-3", "1"):
        text = LONG_FREE_RUN.replace("tau = 1e-3", f"tau = {tau}")
        cfg = write_cfg(tmp_path, text + grid + "engine = closed_form\n",
                        f"{tau}.cfg")
        out = tmp_path / tau
        assert cli.main(["spectrum", "--config", cfg,
                         "--output-dir", str(out)]) == 0
        rows.append(csv_rows(out / "spectrum_closed_form.csv"))
    assert np.array_equal(rows[0], rows[1])


def test_pulse_free_horizon_past_the_time_grid_exits_3_numerically(tmp_path,
                                                                    capsys):
    # the numeric engine still refuses the 1e8-period grid, before any work
    cfg = write_cfg(tmp_path, LONG_FREE_RUN + "engine = numeric\n")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("GridTooLarge: ")
    assert list(out.iterdir()) == []


def test_pulse_count_above_2_53_exits_3_without_output(tmp_path, capsys):
    # 10**400 pulses were accepted, and the closed form then failed on
    # "int too large to convert to float" with a traceback and exit 1
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 1"
                              + "0" * 400 + "\nengine = closed_form\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("TooManyPulses: ")
    assert list(out.iterdir()) == []


def test_oversized_numeric_grid_exits_3_without_output(tmp_path, capsys):
    # 40000 substeps x 4400001 nodes: the chirp-z buffer alone would take
    # 17.6M cells, above the 2**24 cap
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 400\nn_pulses = 110\n"
                              "engine = numeric\n")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "GridTooLarge" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text, name", [
    ("n_pulses = 0\nfree_time = inf\n", "free_time"),
    ("n_pulses = 8\nomega_min = -10\nomega_max = 10\nomega_step = 0.1\n",
     "tau"),
])
def test_non_finite_parameter_exits_3_without_output(tmp_path, capsys, text,
                                                     name):
    # both used to end in an OverflowError from math.ceil
    tau = "inf" if name == "tau" else "0.2"
    cfg = write_cfg(tmp_path, f"delta = 3\ntau = {tau}\n{text}"
                              "engine = numeric\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert f"{name} must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_oversized_frequency_grid_exits_3_without_output(tmp_path, capsys):
    # about 9.4e10 frequencies, ~700 GiB for the grid alone
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n"
                              "omega_step = 1e-9\n")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "GridTooLarge" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# at the default 20 substeps (dt = 0.01) the window reaches
# |omega - delta| * dt = 5.97 rad; the numeric spectrum was written, at
# l2_rel 0.995 from the closed form
ALIASED = ("delta = 3\ntau = 0.2\nn_pulses = 20\nomega_min = 550\n"
           "omega_max = 600\n")


@pytest.mark.parametrize("engine", ["numeric", "both"])
def test_aliased_window_exits_3_without_output(tmp_path, capsys, engine):
    cfg = write_cfg(tmp_path, ALIASED + f"engine = {engine}\nformat = both\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == ("AliasedWindow: omega window [550, 600] reaches |omega - "
                   "delta| * dt = 5.97 >= pi at 20 substeps; it needs more "
                   "than 38.0062 substeps\n")
    assert list(out.iterdir()) == []


def test_validate_refuses_an_aliased_window(tmp_path, capsys):
    # validate used to compare the non-estimate with the closed form and
    # exit 1 at l2_rel 0.995; the numeric assembly now refuses it, as for
    # spectrum
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", write_cfg(tmp_path, ALIASED),
                     "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err == (
        "AliasedWindow: omega window [550, 600] reaches |omega - delta| * dt "
        "= 5.97 >= pi at 20 substeps; it needs more than 38.0062 substeps\n")
    assert list(out.iterdir()) == []


def test_aliased_sweep_point_is_named(tmp_path, capsys):
    # at 20 substeps the window reaches 1.97 rad at tau 0.2 and 3.94 at
    # tau 0.4; the first point's file is removed with the failure
    cfg = write_cfg(tmp_path, "delta = 3\ntau_list = 0.2,0.4\nn_pulses = 2\n"
                              "substeps = 20\nomega_min = 0\nomega_max = 200\n"
                              "omega_step = 1\nengine = numeric\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("AliasedWindow: sweep point delta = 3.0, tau = 0.4, "
                          "n_pulses = 2: omega window [0, 200] reaches ")
    assert err.count("\n") == 1 and list(out.iterdir()) == []


def test_oversized_grid_takes_precedence_over_an_aliased_window(tmp_path,
                                                                capsys):
    # both grids are built before the window is checked against dt
    cfg = write_cfg(tmp_path, ALIASED.replace("n_pulses = 20",
                                              "n_pulses = 300000")
                    + "engine = numeric\n")
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("GridTooLarge: ")


def test_long_train_beyond_old_phase_budget(tmp_path):
    # 14001 time nodes x 1201 frequencies: more cells than any one array
    # may have, but the transform never holds them all at once
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 700\n"
                              "substeps = 20\nengine = both\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    for name in ("numeric", "closed_form"):
        rows = csv_rows(out / f"spectrum_{name}.csv")
        assert rows.shape == (1201, 4) and np.all(np.isfinite(rows))
    report = json.loads((out / "comparison.json").read_text())
    assert report["metrics"]["l2_rel"] <= 0.05


def test_long_train_beyond_old_row_budget(tmp_path):
    # 100001 time nodes at 100 substeps: rows over the whole grid would
    # take 20200202 cells, above the cap; one pulse pair takes 81204
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 1\nn_pulses = 1000\n"
                              "engine = both\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    for name in ("numeric", "closed_form"):
        rows = csv_rows(out / f"spectrum_{name}.csv")
        assert rows.shape == (1201, 4) and np.all(np.isfinite(rows))
    report = json.loads((out / "comparison.json").read_text())
    assert report["metrics"]["l2_rel"] <= 0.05


def test_numeric_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 100001 time nodes: large enough that a transform built on threaded
    # matrix products rounds differently on one BLAS thread and on two
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 1\nn_pulses = 1000\n"
                              "engine = numeric\n")
    src = str(Path(ps.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "pulsespec.cli", "spectrum",
                        "--config", cfg, "--output-dir", str(out)],
                       env=env, check=True)
        outputs.append((out / "spectrum_numeric.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_validate_engines_agree_at_ten_thousand_pulses(tmp_path):
    # 200001 time nodes, the long-train target size
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 10000\n"
                              "engine = both\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["metrics"]["l2_rel"] <= 0.05


def test_csv_rows_match_per_value_formatting(tmp_path, closed8):
    # signed zeros, subnormals, the float max and random magnitudes
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).max,
               -np.finfo(float).max, 1.0 / 3.0, 1e-300]
    n = 64
    k = n - len(special)
    omegas = np.concatenate([special, rng.normal(size=k)
                             * 10.0 ** rng.integers(-300, 300, k)])
    p1 = np.concatenate([special[:4] * 2, rng.normal(size=k)])
    p2 = p1 + rng.normal(size=n)
    s = ps.Spectrum(omegas=omegas, p1=p1, p2=p2, meta=closed8.meta)
    path = tmp_path / "s.csv"
    with path.open("wb") as f:
        cli.write_spectrum_csv(f, s)
    lines = [f"# {key} = {cli._fmt(s.meta[key])}" for key in sorted(s.meta)]
    lines.append("omega,P1,P2,Q")
    for j in range(n):
        lines.append(",".join(f"{float(v):.17g}"
                              for v in (omegas[j], p1[j], p2[j], s.q[j])))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("raw_names", [("raw_p1", "raw_p2"), ("raw_p3",), ()],
                         ids=["numeric", "closed_form", "no_raw"])
def test_json_matches_per_value_writer(tmp_path, closed8, raw_names):
    # signed zeros, subnormals, the float max and random magnitudes
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).max, 1e-300]
    n = 40
    omegas = np.concatenate([special, rng.normal(size=n - len(special))
                             * 10.0 ** rng.integers(-300, 300,
                                                    n - len(special))])
    p1 = rng.normal(size=n)
    p2 = omegas[::-1].copy()
    raw = omegas + 1j * rng.normal(size=n)
    raws = dict(zip(raw_names, (raw, raw[::-1])))
    s = ps.Spectrum(omegas=omegas, p1=p1, p2=p2, meta=closed8.meta, **raws)
    path = tmp_path / "s.json"
    with path.open("wb") as f:
        cli.write_spectrum_json(f, s)
    # Python floats from tolist(): repr(np.float64(x)) is not repr(x)
    doc = {"meta": s.meta, "omega": s.omegas.tolist(), "p1": s.p1.tolist(),
           "p2": s.p2.tolist(), "q": s.q.tolist()}
    for name in raw_names:
        arr = getattr(s, name)
        doc[name] = {"real": arr.real.tolist(), "imag": arr.imag.tolist()}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", [0, 1])
def test_json_short_arrays_match_json_dumps(tmp_path, n):
    s = ps.Spectrum(omegas=np.full(n, 2.5), p1=np.zeros(n), p2=np.ones(n),
                    raw_p3=np.full(n, 1 - 2j), meta={"n_omega": n})
    path = tmp_path / "s.json"
    with path.open("wb") as f:
        cli.write_spectrum_json(f, s)
    doc = {"meta": s.meta, "omega": [2.5] * n, "p1": [0.0] * n,
           "p2": [1.0] * n, "q": [1.0] * n,
           "raw_p3": {"real": [1.0] * n, "imag": [-2.0] * n}}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


def spectrum_doc(s):
    """The document json.dumps would write for `s`, from Python floats."""
    doc = {"meta": s.meta, "omega": s.omegas.tolist(), "p1": s.p1.tolist(),
           "p2": s.p2.tolist(), "q": s.q.tolist()}
    for name in ("raw_p1", "raw_p2", "raw_p3"):
        arr = getattr(s, name)
        if arr is not None:
            doc[name] = {"real": arr.real.tolist(), "imag": arr.imag.tolist()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_numeric_long_json_matches_json_dumps_and_csv(tmp_path):
    # the benchmark's numeric_long run: 1201 omegas, with raw_p1 and raw_p2
    text = ("delta = 3.137\ntau = 0.2\nn_pulses = 80\nengine = numeric\n"
            "format = both\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == 0
    cfg = cli.parse_config(str(tmp_path / "run.cfg"))
    s = cli._spectrum_for("numeric", cli._params_from(cfg), cfg)
    path = out / "spectrum_numeric.json"
    assert path.read_bytes() == spectrum_doc(s).encode()
    q = json.loads(path.read_text())["q"]
    assert np.array_equal(q, csv_rows(out / "spectrum_numeric.csv")[:, 3])


def test_closed_form_sweep_json_matches_json_dumps(tmp_path):
    text = ("delta = 3\ntau_list = 0.05,0.2,1\nn_pulses = 8\n"
            "engine = closed_form\nformat = json\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == 0
    for tau in (0.05, 0.2, 1.0):
        path = out / f"spectrum_delta3_tau{tau:g}_np8.json"
        expected = spectrum_doc(closed_at(8, tau=tau))
        assert path.read_bytes() == expected.encode()


def numeric_like(n):
    """A spectrum of n random nodes with raw_p1 and raw_p2, whose real
    parts are p1 and p2, as the numeric engine's are."""
    rng = np.random.default_rng(3)
    raw1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    raw2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ps.Spectrum(omegas=np.linspace(-50.0, 50.0, n),
                       p1=raw1.real.copy(), p2=raw2.real.copy(),
                       raw_p1=raw1, raw_p2=raw2,
                       meta={"engine": "numeric", "n_omega": n})


def test_json_writer_peak_memory_is_bounded(tmp_path):
    # 30,000 nodes with raw_p1 and raw_p2: eight float arrays, 6.1 MB of
    # JSON; measured 1.76 MB, one chunk's text at a time plus the text of
    # p1 and p2, which the real parts of raw_p1 and raw_p2 reuse (0.76 MB
    # without it; the json.dumps writer peaked at 33.8 MB, a joined string
    # at 18.4 MB)
    s = numeric_like(30_000)
    path = tmp_path / "s.json"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with path.open("wb") as f:
            cli.write_spectrum_json(f, s)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 6e6
    assert peak <= 3e6


def test_csv_writer_peak_memory_is_bounded(tmp_path):
    # 30,000 nodes, 2.4 MB of CSV; measured 0.34 MB, one chunk of rows at
    # a time (the single % call over the whole table peaked at 8.27 MB)
    n = 30_000
    rng = np.random.default_rng(3)
    s = ps.Spectrum(omegas=np.linspace(-50.0, 50.0, n), p1=rng.normal(size=n),
                    p2=rng.normal(size=n),
                    meta={"engine": "numeric", "n_omega": n})
    path = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with path.open("wb") as f:
            cli.write_spectrum_csv(f, s)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2.3e6
    assert peak <= 0.4e6


def test_both_formats_peak_memory_is_bounded(tmp_path):
    # the spectrum of test_json_writer_peak_memory_is_bounded as CSV and
    # JSON; measured 2.92 MB, mostly the repr text of the four columns
    # that the CSV pass makes and the JSON writer takes
    s = numeric_like(30_000)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli._write_outputs([], tmp_path, "s", s, "both")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (tmp_path / "s.json").stat().st_size > 6e6
    assert peak <= 4e6


def written_files(tmp_path, s, fmt):
    """The bytes of each file `_write_outputs` writes for `s` in `fmt`."""
    out = tmp_path / fmt
    out.mkdir()
    return {f.name: f.read_bytes()
            for f in cli._write_outputs([], out, "s", s, fmt)}


def with_imag(real, imag):
    """A complex array keeping the sign of every real zero (adding a
    complex number to -0.0 gives 0.0)."""
    out = real.astype(complex)
    out.imag = imag
    return out


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["p1_plus", "p1_minus"])
def test_json_real_part_differing_by_a_zero_sign_keeps_its_repr(tmp_path,
                                                               zero):
    # raw_p1.real equals p1 as values but not as bits; raw_p2.real is p2
    # bit for bit, and is written from p2's text
    p1 = np.array([1.5, zero, -2.25])
    p2 = np.array([0.25, -0.0, 0.0])
    s = ps.Spectrum(omegas=np.arange(3.0), p1=p1, p2=p2,
                    raw_p1=with_imag(np.array([1.5, -zero, -2.25]), 0.5),
                    raw_p2=with_imag(p2, -1.0), meta={"n_omega": 3})
    assert written_files(tmp_path, s, "json") == {
        "s.json": spectrum_doc(s).encode()}
    assert written_files(tmp_path, s, "both")["s.json"] == (
        spectrum_doc(s).encode())


def special_spectrum():
    """Signed zeros, subnormals, 1e300 and the fallback's bounds in every
    column, raw_p1.real bit for bit p1 and raw_p2.real p2 but for the
    sign of a zero."""
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-6,
                        1e17, 1.0 / 3.0])
    p1, p2 = special, special[::-1].copy()
    return ps.Spectrum(omegas=special[::-1] * 3.0, p1=p1, p2=p2,
                       raw_p1=with_imag(p1, p2),
                       raw_p2=with_imag(np.where(p2 == 0, -p2, p2), p1),
                       raw_p3=with_imag(p2, special), meta={"n_omega": 9})


TRAINS = {"pulse_free": "n_pulses = 0\nfree_time = 2.0",
          "one_pulse": "n_pulses = 1", "fine": "n_pulses = 20\nsubsteps = 1447"}


@pytest.mark.parametrize("case", [f"{engine}-{train}" for train in TRAINS
                                  for engine in ("numeric", "closed_form")]
                         + ["special"])
def test_both_formats_write_the_bytes_of_each_format_alone(tmp_path, case):
    if case == "special":
        s = special_spectrum()
    else:
        engine, train = case.split("-")
        cfg = cli.parse_config(write_cfg(
            tmp_path, f"delta = 3\ntau = 0.2\n{TRAINS[train]}\n"))
        s = cli._spectrum_for(engine, cli._params_from(cfg), cfg)
    both = written_files(tmp_path, s, "both")
    assert both == written_files(tmp_path, s, "csv") | written_files(
        tmp_path, s, "json")
    assert both["s.json"] == spectrum_doc(s).encode()


def test_output_dir_from_config(tmp_path):
    out = tmp_path / "from_config"
    cfg = write_cfg(tmp_path, f"delta = 3\ntau = 0.2\nn_pulses = 4\n"
                              f"engine = closed_form\noutput_dir = {out}\n")
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert (out / "spectrum_closed_form.csv").exists()


def test_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "delta = 3\nwhat = 1\n", "bad.cfg")
    assert cli.main(["spectrum", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err

    still = write_cfg(tmp_path, "delta = 3\ntau = 0\nn_pulses = 7\n"
                                "engine = closed_form\n", "still.cfg")
    assert cli.main(["spectrum", "--config", still,
                     "--output-dir", str(tmp_path)]) == 3
    assert "NonPositiveTau" in capsys.readouterr().err

    missing = write_cfg(tmp_path, "delta = 3\n", "missing.cfg")
    assert cli.main(["spectrum", "--config", missing,
                     "--output-dir", str(tmp_path)]) == 3
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}"],
    ["validate"],
    ["--config", "{cfg}"],
], ids=["unknown-command", "no-config", "no-command"])
def test_usage_errors_exit_2_without_output(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 2\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        cli.main([arg.format(cfg=cfg) for arg in argv]
                 + ["--output-dir", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: pulsespec")
    assert sorted(tmp_path.iterdir()) == [Path(cfg)]


@pytest.mark.parametrize("command, settings, blocked", [
    ("spectrum", "engine = closed_form", "out"),
    ("sweep", "engine = closed_form", "out/spectrum_delta3_tau0.2_np12.csv"),
    ("spectrum", "format = both", "out/spectrum_closed_form.json"),
    ("spectrum", "engine = both", "out/comparison.json"),
    ("sweep", "engine = closed_form", "out/manifest.json"),
], ids=["spectrum-out", "sweep-out/spectrum_delta3_tau0.2_np12.csv",
        "spectrum-out/spectrum_closed_form.json",
        "spectrum-out/comparison.json", "sweep-out/manifest.json"])
def test_unusable_output_exits_4_without_traceback(tmp_path, capsys, command,
                                                   settings, blocked):
    # an output directory that is a regular file, and an output file name
    # taken by a directory; both used to end in an OSError traceback and
    # exit 1, the code of a validation failure
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses_list = 8,12\n"
                              f"n_pulses = 8\n{settings}\n")
    out = tmp_path / "out"
    if blocked == "out":
        out.write_text("")
    else:
        (tmp_path / blocked).mkdir(parents=True)
    assert cli.main([command, "--config", cfg, "--output-dir", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(tmp_path / blocked) in err
    # a failed command removes every file it had written
    assert not [f for f in tmp_path.rglob("spectrum_*") if f.is_file()]


@pytest.mark.parametrize("fmt, kernel", [("csv", "_csv_rows"),
                                         ("json", "_repr_cells")])
def test_write_failing_part_way_leaves_no_file(tmp_path, monkeypatch, capsys,
                                               fmt, kernel):
    # a disk that fills after the writer's first chunk; the file it had
    # opened used to stay behind, truncated (22,454 bytes of CSV, 50,957
    # of JSON), because it counted as written only once its writer returned
    formatted = getattr(_digits, kernel)
    calls = []

    def filling(values):
        calls.append(values.size)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return formatted(values)
    monkeypatch.setattr(_digits, kernel, filling)
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n"
                              f"engine = closed_form\nformat = {fmt}\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 4
    assert len(calls) == 2
    assert capsys.readouterr().err.startswith("output error: ")
    assert list(out.iterdir()) == []


def test_chunks_keep_their_cells_under_the_mmap_threshold(tmp_path,
                                                         monkeypatch):
    # glibc maps a block of 128 KiB or more afresh, so its pages fault on
    # every chunk; and the default 1201-row grid goes out in 2 or 3 CSV
    # chunks: more cost per-call dispatch, and one would leave
    # test_write_failing_part_way_leaves_no_file no second chunk to fail
    cells_of, rows_of = _digits._cells, _digits._csv_rows
    blocks, rows = [], []

    def cells(*args):
        out = cells_of(*args)
        blocks.append(out.nbytes)
        return out

    def csv_rows(table, *reprs):
        rows.append(len(table))
        return rows_of(table, *reprs)
    monkeypatch.setattr(_digits, "_cells", cells)
    monkeypatch.setattr(_digits, "_csv_rows", csv_rows)
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n"
                              "engine = closed_form\nformat = both\n")
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert sum(rows) == 1201 and 2 <= len(rows) <= 3
    # the JSON file's 4 x 1201 values fill at least one chunk
    assert len(blocks) > len(rows) + 1
    assert max(blocks) < 128 * 1024


def test_sweep_manifest(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n"
                              "n_pulses_list = 8,12\nengine = closed_form\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["manifest.json", "spectrum_delta3_tau0.2_np12.csv",
                     "spectrum_delta3_tau0.2_np8.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["engine"] == "closed_form"
    assert len(manifest["points"]) == 2
    point = manifest["points"][0]
    assert point["files"] == ["spectrum_delta3_tau0.2_np8.csv"]
    assert point["params"]["n_pulses"] == 8
    assert 0.0 < point["positive_weight_fraction"] < 1.0
    assert point["peaks"] and {"omega", "q", "sign"} <= set(point["peaks"][0])


def test_sweep_rejections(tmp_path):
    no_list = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n",
                        "nolist.cfg")
    assert cli.main(["sweep", "--config", no_list,
                     "--output-dir", str(tmp_path / "x")]) == 3
    both = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n"
                               "n_pulses_list = 8,12\nengine = both\n",
                     "both.cfg")
    assert cli.main(["sweep", "--config", both,
                     "--output-dir", str(tmp_path / "y")]) == 3


def test_sweep_cleans_partial_outputs(tmp_path):
    # the second point has a negative pulse count, which fails after the
    # first point's file is written; nothing may be left behind
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n"
                              "n_pulses_list = 8,-1\nengine = closed_form\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("delta_list", ["1.0000001, 1.0000002", "3, 3"])
def test_sweep_rejects_points_sharing_a_file_name(tmp_path, capsys,
                                                  delta_list):
    # file names keep 6 significant digits of delta, so both points would
    # write one file and the second would overwrite the first
    cfg = write_cfg(tmp_path, f"delta_list = {delta_list}\ntau = 0.2\n"
                              "n_pulses = 8\nengine = closed_form\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "spectrum_delta" in err and "both write" in err
    assert list(out.iterdir()) == []


def test_validate_pass_and_report(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 20\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert set(report) == {"params", "checks", "metrics", "peaks", "passed",
                           "hint"}
    assert report["passed"] is True
    checks = report["checks"]
    assert sorted(checks) == ["correlator_factorization", "l2_rel",
                              "population_vs_analytic", "sum_rule", "trace"]
    for entry in checks.values():
        assert entry["pass"] and entry["value"] <= entry["tolerance"]
    assert checks["l2_rel"]["value"] == report["metrics"]["l2_rel"] <= 0.05
    assert checks["sum_rule"]["value"] <= 0.05
    assert report["peaks"]
    assert report["hint"] is None


def test_validate_coarse_grid_fails_with_hint(tmp_path):
    # at 2 substeps (dt = 0.1) the window reaches |omega - delta| * dt =
    # 1.3 rad, below the aliasing bound; the default window reaches 5.0
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 20\n"
                              "substeps = 2\nomega_min = -10\n"
                              "omega_max = 10\nomega_step = 0.05\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is False
    # the propagation is exact at any grid; the quadrature is what is off
    failed = {name for name, entry in report["checks"].items()
              if not entry["pass"]}
    assert failed == {"l2_rel", "sum_rule"}
    assert "substeps" in report["hint"]


def test_validate_two_pulses_pass(tmp_path):
    # the closed form used to drop the population transient, which put
    # l2_rel at 0.99 at 2 pulses; what is left is the quadrature error,
    # measured 5.3e-3
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 2\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is True and report["hint"] is None
    assert report["metrics"]["l2_rel"] <= 0.01


def factorization_case(substeps=20, n_pulses=8):
    p = drive(n_pulses, free_time=2.0 if n_pulses == 0 else None)
    g = ps.make_time_grid(p, substeps)
    return p, g, ps.propagate_trajectory(p, g), ps.build_correlator_grids(p, g)


def factorization_passes(p, g, traj, kernel):
    check = validation.node_checks(p, g, traj, kernel)[
        "correlator_factorization"]
    return check["pass"]


def table_entry(n_sub, row, theta, side=0):
    """The kernel entry that row `row` (the companion is row n_sub) reads
    at theta*dt, theta <= 2*n_sub, as its post-pulse value or, side=1, as
    its left limit."""
    return floors(n_sub, row, side)[theta - 1], theta - 1


def test_factorization_check_covers_every_row_value():
    # at 20 substeps of drive(8) a 1-in-2 stride over (t, theta) nodes
    # never reaches the rows of odd residue; residue 1 at theta = 5*dt
    p, g, traj, kernel = factorization_case()
    assert factorization_passes(p, g, traj, kernel)
    kernel[table_entry(20, 1, 5)] += 1e-6
    assert not factorization_passes(p, g, traj, kernel)


def test_factorization_check_covers_every_table_entry():
    # every entry of the table is checked, including the ones no node
    # reads (row 0 past tau, row 2 below it), on trains that swap twice,
    # once and never
    for n_pulses in (8, 2, 1, 0):
        p, g, traj, kernel = factorization_case(4, n_pulses)
        assert factorization_passes(p, g, traj, kernel)
        for entry in np.ndindex(kernel.shape):
            changed = kernel.copy()
            changed[entry] += 1e-6
            assert not factorization_passes(p, g, traj, changed), (
                n_pulses, entry)


@pytest.mark.parametrize("values, row, theta", [
    ("rows", 20, 23),      # companion, past its first pulse
    ("before", 7, 13),     # residue 7 at its first crossing
    ("before", 20, 40),    # companion at its second crossing
])
def test_factorization_check_covers_companion_and_left_limits(
        values, row, theta):
    # the companion row and the pre-swap limits feed every crossing of the
    # assembly, and the check reads the table the quadrature reads, so a
    # fault in an entry they read fails it. theta*dt is column theta - 1
    # of the table (P = 40), read by the companion as row 20.
    p, g, traj, kernel = factorization_case()
    assert factorization_passes(p, g, traj, kernel)
    kernel[table_entry(20, row, theta, ("rows", "before").index(values))] \
        += 1e-6
    assert not factorization_passes(p, g, traj, kernel)


def test_factorization_check_covers_the_pair_factor():
    # the propagator over one pulse pair, kernel[2, -1], is the factor
    # that carries every row past its first pulse pair
    p, g, traj, kernel = factorization_case()
    assert factorization_passes(p, g, traj, kernel)
    kernel[2, -1] += 1e-6
    assert not factorization_passes(p, g, traj, kernel)


@pytest.mark.parametrize("side", [0, 1], ids=["rows", "before"])
def test_factorization_check_fails_on_nan(side):
    # max(dev, nan) kept the earlier value, so a NaN passed the check: a
    # NaN in the entry a post-pulse value or a left limit reads
    p, g, traj, kernel = factorization_case()
    kernel[table_entry(20, 3, 8, side)] = np.nan
    assert not factorization_passes(p, g, traj, kernel)


@pytest.mark.parametrize("n_pulses, substeps", [(8, 20), (1, 7), (20, 80)])
def test_node_checks_only_read_their_inputs(n_pulses, substeps):
    # the checks subtract into arrays of their own: the trajectory and the
    # kernel go on to the quadrature unchanged
    p, g, traj, kernel = factorization_case(substeps, n_pulses)
    kept = traj.tobytes(), kernel.tobytes()
    validation.node_checks(p, g, traj, kernel)
    assert (traj.tobytes(), kernel.tobytes()) == kept


def test_node_checks_memory_follows_the_starts():
    # the populations are checked at the 100,001 interval starts, not at
    # the 2,000,001 nodes: measured 4.97 MB traced, where checking every
    # node traced 98.1 MB
    p, g, traj, kernel = factorization_case(20, 100_000)
    tracemalloc.start()
    try:
        checks = validation.node_checks(p, g, traj, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(check["pass"] for check in checks.values())
    assert peak <= 6e6


@pytest.mark.filterwarnings("error")
def test_validate_at_large_gamma_tau_checks_the_companion(tmp_path, capsys):
    # exp((i*delta - gamma/2)*tau) underflows to 0 at tau 1000: dividing by
    # it made the companion's reference 0/0, with a RuntimeWarning, and the
    # NaN deviation passed the check. At 1000 substeps (dt = 1) the
    # default window reaches |omega - delta| * dt = 3.01 rad, below the
    # aliasing bound; at 4 it reached 752
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 1000\nn_pulses = 4\n"
                              "substeps = 1000\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == ""
    checks = json.loads((out / "validation_report.json").read_text())["checks"]
    factor = checks["correlator_factorization"]
    assert np.isfinite(factor["value"]) and factor["pass"]
    assert not checks["l2_rel"]["pass"]


def test_validate_ignores_the_engine_key(tmp_path):
    # engine = numeric or closed_form used to compare that engine with
    # itself, every metric 0 by construction
    reports = []
    for engine in ("numeric", "closed_form", None):
        text = "delta = 3\ntau = 0.2\nn_pulses = 8\n"
        if engine:
            text += f"engine = {engine}\n"
        out = tmp_path / str(engine)
        assert cli.main(["validate", "--config", write_cfg(tmp_path, text),
                         "--output-dir", str(out)]) == 0
        reports.append((out / "validation_report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    report = json.loads(reports[0])
    assert 0.0 < report["metrics"]["l2_rel"] <= 0.05
    assert len(report["checks"]) == 5


@pytest.mark.parametrize("text", [
    "n_pulses = 1\n", "n_pulses = 3\n", "n_pulses = 0\nfree_time = 2\n",
], ids=["one_pulse", "three_pulses", "pulse_free"])
def test_validate_without_closed_form_runs_the_node_checks(tmp_path, text):
    # the closed form used to refuse these trains, which left them the
    # node checks alone and metrics null; they now get the node checks and
    # the engine comparison, l2_rel measured 1.6e-3, 2.2e-3 and 1.1e-4
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n" + text)
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is True and report["hint"] is None
    assert sorted(report["checks"]) == ["correlator_factorization", "l2_rel",
                                        "population_vs_analytic", "sum_rule",
                                        "trace"]
    assert report["checks"]["l2_rel"]["value"] == report["metrics"]["l2_rel"]
    assert report["metrics"]["l2_rel"] <= 5e-3
    assert report["peaks"]


def test_default_grid_bounds_the_detuning_phase_step(tmp_path, capsys):
    # dt <= 0.01 whatever the detuning used to leave delta*dt unbounded:
    # at delta 300 validate failed (l2_rel 0.60, sum rule 1.02), and at
    # delta 1e5 spectrum wrote its files and exited 0. Bounding delta*dt
    # takes 4*|delta|*tau substeps, and at delta 1e7 the grid is too large
    cfg = write_cfg(tmp_path, "delta = 300\ntau = 0.2\nn_pulses = 20\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["checks"]["l2_rel"]["value"] <= 0.01
    big = write_cfg(tmp_path, "delta = 1e7\ntau = 0.2\nn_pulses = 20\n"
                              "engine = numeric\n", "big.cfg")
    out = tmp_path / "big"
    assert cli.main(["spectrum", "--config", big,
                     "--output-dir", str(out)]) == 3
    assert "GridTooLarge" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("delta", [3, 25], ids=["tau", "detuning"])
def test_validate_on_the_default_grid_at_2000_substeps(tmp_path, delta):
    # tau = 20 takes 2000 substeps, and so does delta*tau = 500; both were
    # GridTooLarge while the engine held (substeps + 1) x 2*substeps
    # tables. Measured l2_rel 7.8e-5 and 5.1e-3, each check well within its
    # tolerance
    cfg = write_cfg(tmp_path, f"delta = {delta}\ntau = 20\nn_pulses = 8\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["l2_rel"]["tolerance"] == 0.05


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")    # standard from Python 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attrs = target.partition(":")
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), name


@st.composite
def cli_runs(draw):
    """A command and a config over log-uniform magnitudes of every key: a
    pulse count past 2**53 included, a few substeps as often as the
    default, and each optional key present or left to its default."""
    command = draw(st.sampled_from(["spectrum", "validate"]))
    cfg = {"delta": draw(st.sampled_from([-1, 1])) * draw(log_uniform(-3, 4)),
           "tau": draw(log_uniform(-4, 4)),
           "n_pulses": draw(st.one_of(
               st.sampled_from([0, 1, 2, 3, 2**53, 2**53 + 1]),
               log_uniform(0, 17).map(int)))}
    if cfg["n_pulses"] == 0:
        cfg["free_time"] = draw(log_uniform(-3, 3))
    optional = {"gamma": log_uniform(-3, 3),
                "substeps": st.one_of(st.integers(1, 4),
                                      log_uniform(0, 4).map(int)),
                "omega_min": log_uniform(-2, 3).map(lambda w: -w),
                "omega_max": log_uniform(-2, 3),
                "omega_step": log_uniform(-3, 1),
                "engine": st.sampled_from(["numeric", "closed_form", "both"]),
                "format": st.sampled_from(["csv", "json", "both"])}
    for key, values in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    return command, cfg


def run_size(command, cfg):
    """"too large" where the run must stop at GridTooLarge, "slow" where it
    would compute a large grid, else None (a fast run, or one that stops
    at another named error)."""
    try:
        p = cli._params_from(cfg)
        n_omega = cli._freq_grid(cfg, p).omegas.size
        g = (ps.make_time_grid(p, cfg.get("substeps"))
             if command == "validate" or cfg.get("engine") != "closed_form"
             else None)
    except ps.GridTooLarge:
        return "too large"
    except ps.PulsespecError:
        return None
    if n_omega > 4000 or g and (g.n_nodes > 20_000
                                or g.substeps_per_interval > 200):
        return "slow"
    return None


def written_floats(path):
    """Every float of an output file: the CSV rows and the parameter
    values of its header, or every number of a JSON document."""
    if path.suffix == ".json":
        todo = [json.loads(path.read_text())]
        while todo:
            value = todo.pop()
            if isinstance(value, dict):
                todo += value.values()
            elif isinstance(value, list):
                todo += value
            elif isinstance(value, float):
                yield value
        return
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            try:
                yield float(line.partition(" = ")[2])
            except ValueError:     # the engine tag, or free_time = None
                pass
        elif line != "omega,P1,P2,Q":
            yield from map(float, line.split(","))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cli_runs())
def test_every_run_exits_with_a_named_code_and_finite_files(run):
    command, cfg = run
    size = run_size(command, cfg)
    assume(size != "slow")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "run.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in cfg.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(tmp / "run.cfg"),
                             "--output-dir", str(tmp / "out")])
        err = err.getvalue()
        files = sorted(path for path in tmp.joinpath("out").rglob("*")
                       if path.is_file())
        assert code in ((0, 1, 2, 3) if command == "validate" else (0, 2, 3))
        assert "Traceback" not in err
        if size == "too large":
            assert code == 3 and err.startswith("GridTooLarge: ")
        if code in (2, 3):
            assert err.count("\n") == 1 and files == []
        else:
            assert files
            for path in files:
                assert all(math.isfinite(x) for x in written_floats(path))
