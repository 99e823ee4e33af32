import json
import time

import numpy as np
import pytest

import pulsespec as ps
from conftest import drive
from pulsespec import cli


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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


@pytest.mark.parametrize("line", [
    "unknown_key = 1",
    "delta = not_a_number",
    "n_pulses = 2.5",
    "engine = fancy",
    "format = xml",
    "just some words",
])
def test_parse_config_rejects(tmp_path, line):
    path = write_cfg(tmp_path, line)
    with pytest.raises(cli.ConfigError):
        cli.parse_config(path)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_spectrum_exits_3_without_output(tmp_path, capsys):
    # gamma*tau = 800 overflows the closed forms to NaN
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 400\nn_pulses = 8\n"
                              "engine = closed_form\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 3
    assert "NonFiniteSpectrum" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_oversized_numeric_grid_exits_3_without_output(tmp_path, capsys):
    # 40000 substeps x 320001 nodes: the rows alone would take ~410 GB
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 400\nn_pulses = 8\n"
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


def test_long_train_beyond_old_phase_budget(tmp_path):
    # 14001 time nodes x 1201 frequencies: more cells than any one array
    # may have, but the transform never holds them all at once
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 700\n"
                              "substeps = 20\nengine = both\n")
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    for name in ("numeric", "closed_form"):
        lines = (out / f"spectrum_{name}.csv").read_text().splitlines()
        rows = np.array([ln.split(",") for ln in lines
                         if not ln.startswith(("#", "omega"))], dtype=float)
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
        lines = (out / f"spectrum_{name}.csv").read_text().splitlines()
        rows = np.array([ln.split(",") for ln in lines
                         if not ln.startswith(("#", "omega"))], dtype=float)
        assert rows.shape == (1201, 4) and np.all(np.isfinite(rows))
    report = json.loads((out / "comparison.json").read_text())
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
    cli.write_spectrum_csv(path, s)
    lines = [f"# {key} = {cli._fmt(s.meta[key])}" for key in sorted(s.meta)]
    lines.append("omega,P1,P2,Q")
    for j in range(n):
        lines.append(",".join(f"{float(v):.17g}"
                              for v in (omegas[j], p1[j], p2[j], s.q[j])))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_json_matches_per_value_writer(tmp_path, closed8):
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).max, 1e-300]
    n = 40
    omegas = np.concatenate([special, rng.normal(size=n - len(special))
                             * 10.0 ** rng.integers(-300, 300,
                                                    n - len(special))])
    p1 = rng.normal(size=n)
    p2 = omegas[::-1].copy()
    raw = omegas + 1j * rng.normal(size=n)
    s = ps.Spectrum(omegas=omegas, p1=p1, p2=p2, raw_p1=raw,
                    raw_p2=raw[::-1], raw_p3=None, meta=closed8.meta)
    path = tmp_path / "s.json"
    cli.write_spectrum_json(path, s)
    doc = {"meta": s.meta,
           "omega": [float(v) for v in s.omegas],
           "p1": [float(v) for v in s.p1],
           "p2": [float(v) for v in s.p2],
           "q": [float(v) for v in s.q]}
    for name in ("raw_p1", "raw_p2"):
        arr = getattr(s, name)
        doc[name] = {"real": [float(v) for v in arr.real],
                     "imag": [float(v) for v in arr.imag]}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


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

    odd = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 7\n"
                              "engine = closed_form\n", "odd.cfg")
    assert cli.main(["spectrum", "--config", odd,
                     "--output-dir", str(tmp_path)]) == 3
    assert "OddPulseCount" in capsys.readouterr().err

    missing = write_cfg(tmp_path, "delta = 3\n", "missing.cfg")
    assert cli.main(["spectrum", "--config", missing,
                     "--output-dir", str(tmp_path)]) == 3
    assert "tau" in capsys.readouterr().err


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
    # the second point has an odd pulse count, which the closed-form
    # engine rejects; nothing may be left behind
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\n"
                              "n_pulses_list = 8,7\nengine = closed_form\n")
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
    assert report["passed"] is True
    assert report["metrics"]["l2_rel"] <= 0.05
    assert report["sum_rule_rel"] <= 0.05
    assert all(entry["pass"] for entry in report["invariants"].values())
    assert report["peaks"]
    assert report["hint"] is None


def test_validate_coarse_grid_fails_with_hint(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 20\n"
                              "substeps = 2\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["passed"] is False
    assert "substeps" in report["hint"]


def test_factorization_check_covers_every_row_value():
    # at 20 substeps of drive(8) a 1-in-2 stride over (t, theta) nodes
    # never reaches the rows of odd residue
    p = drive(8)
    g = ps.make_time_grid(p, 20)
    traj = ps.propagate_trajectory(p, g)
    block = ps.build_correlator_grids(p, g)
    check = "correlator_factorization"
    assert cli._invariant_suite(p, g, traj, block)[check]["pass"]
    block[0, 1, 5 - 1] += 1e-6      # theta = 5*dt
    assert not cli._invariant_suite(p, g, traj, block)[check]["pass"]


@pytest.mark.parametrize("values, row, theta", [
    ("rows", 20, 23),      # companion, past its first pulse
    ("before", 7, 13),     # residue 7 at its first crossing
    ("before", 20, 40),    # companion at its second crossing
])
def test_factorization_check_covers_companion_and_left_limits(values, row,
                                                               theta):
    # the companion row and the pre-swap limits feed every crossing of the
    # assembly; the check used to cover the post-pulse residue rows only.
    # theta*dt is column theta - 1 of the one-pair block (P = 40), whose
    # [0] holds the post-pulse rows and [1] the left limits.
    p = drive(8)
    g = ps.make_time_grid(p, 20)
    traj = ps.propagate_trajectory(p, g)
    block = ps.build_correlator_grids(p, g)
    check = "correlator_factorization"
    assert cli._invariant_suite(p, g, traj, block)[check]["pass"]
    block[("rows", "before").index(values), row, theta - 1] += 1e-6
    assert not cli._invariant_suite(p, g, traj, block)[check]["pass"]


def test_factorization_check_covers_the_pair_factor():
    # row 0 at theta = P*dt is the factor that carries every row past its
    # first pulse pair
    p = drive(8)
    g = ps.make_time_grid(p, 20)
    traj = ps.propagate_trajectory(p, g)
    block = ps.build_correlator_grids(p, g)
    check = "correlator_factorization"
    assert cli._invariant_suite(p, g, traj, block)[check]["pass"]
    block[0, 0, -1] += 1e-6
    assert not cli._invariant_suite(p, g, traj, block)[check]["pass"]


def test_validate_single_engine_self_comparison(tmp_path):
    cfg = write_cfg(tmp_path, "delta = 3\ntau = 0.2\nn_pulses = 8\n"
                              "engine = closed_form\n")
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", cfg,
                     "--output-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["metrics"] == {"linf_abs": 0.0, "l2_rel": 0.0,
                                 "peak_amp_rel_diff": 0.0}
    assert report["sum_rule_rel"] is None
    assert report["passed"] is True
