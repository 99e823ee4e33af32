import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import pulsespec as ps
from conftest import drive
from pulsespec.spectrum_numeric import fft_length


def test_validate_reference_point():
    p = drive(8)
    assert p.gamma == 2.0


def test_validate_rejections():
    with pytest.raises(ps.NonPositiveTau):
        ps.validate_params(ps.DriveParams(delta=3.0, tau=0.0, n_pulses=8))
    with pytest.raises(ps.NonPositiveGamma):
        ps.validate_params(ps.DriveParams(delta=3.0, tau=0.2, n_pulses=8,
                                          gamma=0.0))
    with pytest.raises(ps.MissingFreeTime):
        ps.validate_params(ps.DriveParams(delta=3.0, tau=0.2, n_pulses=0))
    with pytest.raises(ps.ConflictingFreeTime):
        ps.validate_params(ps.DriveParams(delta=3.0, tau=0.2, n_pulses=8,
                                          free_time=5.0))
    with pytest.raises(ps.PulsespecError):
        ps.validate_params(ps.DriveParams(delta=3.0, tau=0.2, n_pulses=-1))


def test_params_are_checked_when_made():
    with pytest.raises(ps.NonPositiveTau):
        ps.DriveParams(delta=3.0, tau=-0.2, n_pulses=8)
    with pytest.raises(ps.MissingFreeTime):
        ps.DriveParams(delta=3.0, tau=0.2, n_pulses=0)


@pytest.mark.parametrize("field", ["delta", "tau", "gamma", "free_time"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_params_are_rejected(field, value):
    kwargs = {"delta": 3.0, "tau": 0.2, "n_pulses": 0, "free_time": 2.0,
              field: value}
    with pytest.raises(ps.PulsespecError):
        ps.DriveParams(**kwargs)


@pytest.mark.parametrize("value", [2.5, 4.0, True, np.float64(4.0)],
                         ids=["fraction", "float", "bool", "numpy_float"])
def test_non_integer_counts_are_rejected(value):
    # a fractional or boolean count used to pass: n_pulses then crashed the
    # numeric engine with a bare TypeError, and substeps was truncated
    with pytest.raises(ps.PulsespecError, match="n_pulses"):
        ps.DriveParams(delta=3.0, tau=0.2, n_pulses=value)
    with pytest.raises(ps.PulsespecError, match="substeps"):
        ps.make_time_grid(drive(8), value)


def test_numpy_integer_counts_are_kept_as_ints():
    # a numpy integer in meta or the validate report fails to write as JSON
    p = drive(np.int64(8))
    g = ps.make_time_grid(p, np.int64(7))
    assert g.n_nodes == 57
    assert type(p.n_pulses) is int and type(g.n_intervals) is int
    assert type(g.substeps_per_interval) is int
    json.dumps(ps.build_meta(p, ps.make_frequency_grid(p), "numeric", g))


@pytest.mark.parametrize("tau,expected", [
    (0.2, 20),     # 0.2/0.01 evaluates to 20.000000000000004
    (0.1, 20),
    (0.05, 20),
    (0.3, 30),
    (0.45, 45),
    (0.5, 50),
])
def test_default_substeps(tau, expected):
    assert ps.default_substeps(tau, 0.0) == expected
    # a detuning adds sub-steps only where |delta|*dt would pass 1/4
    delta = expected / (4.0 * tau)
    assert ps.default_substeps(tau, delta) == expected
    assert ps.default_substeps(tau, -delta) == expected
    assert ps.default_substeps(tau, 1.5 * delta) == math.ceil(1.5 * expected)
    assert ps.default_substeps(tau, -10.0 * delta) == 10 * expected


@pytest.mark.parametrize("tau, delta", [(1.0, 1e308), (1e307, 0.0)])
def test_default_substeps_overflow_is_grid_too_large(tau, delta):
    # 4*|delta|*tau and tau/0.01 overflow to inf, which math.ceil refuses
    # with an OverflowError
    with pytest.raises(ps.GridTooLarge):
        ps.make_time_grid(drive(8, delta=delta, tau=tau))


def test_time_grid_pulse_alignment():
    p = drive(8)
    g = ps.make_time_grid(p)
    assert g.substeps_per_interval == 20
    assert g.n_intervals == 8
    assert g.n_nodes == 161
    assert abs(g.dt * g.substeps_per_interval - p.tau) <= np.spacing(p.tau)
    for n in range(1, p.n_pulses + 1):
        assert abs(g.times[n * g.substeps_per_interval] - n * p.tau) <= 1e-12


def test_time_grid_deterministic():
    p = drive(8)
    a = ps.make_time_grid(p)
    b = ps.make_time_grid(p)
    assert np.array_equal(a.times, b.times)
    assert a.dt == b.dt


def test_time_grid_no_pulse_mode():
    p = drive(0, free_time=20.0)
    g = ps.make_time_grid(p)
    assert g.n_intervals == 100
    assert g.times[-1] == pytest.approx(20.0, abs=1e-12)
    # a horizon that is not a whole number of intervals is rounded up
    p2 = drive(0, free_time=1.9)
    g2 = ps.make_time_grid(p2)
    assert g2.n_intervals == 10
    assert g2.times[-1] >= 1.9
    # a horizon far below one interval used to round down to no interval
    g3 = ps.make_time_grid(drive(0, tau=1.0, free_time=1e-12))
    assert g3.n_intervals == 1
    assert g3.times[-1] >= 1e-12
    # free_time / tau overflows to inf
    with pytest.raises(ps.GridTooLarge):
        ps.make_time_grid(drive(0, tau=1e-10, free_time=1e300))


def test_time_grid_substeps_override():
    g = ps.make_time_grid(drive(8), 7)
    assert g.substeps_per_interval == 7
    assert g.n_nodes == 57
    with pytest.raises(ps.PulsespecError):
        ps.make_time_grid(drive(8), 0)


def test_time_grid_cell_budget():
    # the pair block, 2*(n_sub + 1)*2*n_sub values, is counted as at most
    # 4*(n_sub + 1)*min(n_nodes, 2*n_sub + 1) cells, and the chirp-z buffer,
    # 2*fft_length(n_nodes, M) values, as 4*n_nodes; the trajectory's
    # 2*n_nodes populations are below both
    budget = ps.core.MAX_ARRAY_CELLS
    largest = budget // 4, ps.core.MAX_FREQUENCY_NODES
    assert 2 * fft_length(*largest) <= budget
    assert 4 * 1448 * 2895 <= budget < 4 * 1449 * 2897
    assert ps.make_time_grid(drive(8), 1447).n_nodes == 8 * 1447 + 1
    with pytest.raises(ps.GridTooLarge):
        ps.make_time_grid(drive(8), 1448)
    # a one-interval grid is counted over its own nodes
    assert 4 * 2001 * 2001 <= budget < 4 * 2001 * 4001
    assert ps.make_time_grid(drive(1), 2000).n_nodes == 2001
    with pytest.raises(ps.GridTooLarge):
        ps.make_time_grid(drive(2), 2000)
    assert 4 * 4194301 <= budget < 4 * 4194321
    assert ps.make_time_grid(drive(209715), 20).n_nodes == 4194301
    with pytest.raises(ps.GridTooLarge):
        ps.make_time_grid(drive(209716), 20)


def test_time_grid_holds_no_array():
    # the largest grid the budget admits: 4194301 nodes, whose times alone
    # would take 33.5 MB
    tracemalloc.start()
    try:
        g = ps.make_time_grid(drive(209715), 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_nodes == 4194301
    assert peak < 64 * 1024


def test_frequency_grid_defaults():
    p = drive(8)
    fg = ps.make_frequency_grid(p)
    assert fg.omegas.size == 1201
    assert fg.omega_min == pytest.approx(-3 * math.pi / 0.2)
    assert fg.omega_max == pytest.approx(3 * math.pi / 0.2)
    assert abs(fg.omegas[600]) <= 1e-12
    assert fg.omegas[1] - fg.omegas[0] == pytest.approx(math.pi / 40.0)


def test_frequency_grid_explicit_and_errors():
    fg = ps.make_frequency_grid(omega_min=-1.0, omega_max=1.0, omega_step=0.5)
    assert np.allclose(fg.omegas, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ps.PulsespecError):
        ps.make_frequency_grid(omega_min=1.0, omega_max=-1.0, omega_step=0.5)
    with pytest.raises(ps.PulsespecError):
        ps.make_frequency_grid(omega_min=-1.0, omega_max=1.0, omega_step=-0.5)
    with pytest.raises(ps.PulsespecError):
        # only 2 nodes
        ps.make_frequency_grid(omega_min=0.0, omega_max=1.0, omega_step=1.0)
    with pytest.raises(ps.PulsespecError):
        ps.make_frequency_grid()


def test_frequency_grid_cell_budget():
    # the count is checked before any node is made
    with pytest.raises(ps.GridTooLarge):
        ps.make_frequency_grid(drive(8), omega_step=1e-9)
    # a spectrum run holds about 1.5 kB per frequency node with JSON output
    fg = ps.make_frequency_grid(omega_min=0.0, omega_max=131071.0,
                                omega_step=1.0)
    assert fg.omegas.size == 131072
    with pytest.raises(ps.GridTooLarge):
        ps.make_frequency_grid(omega_min=0.0, omega_max=131072.0,
                               omega_step=1.0)


def test_spectrum_container_invariants():
    om = np.linspace(-1, 1, 5)
    p1 = np.zeros(5)
    p2 = np.ones(5)
    s = ps.Spectrum(omegas=om, p1=p1, p2=p2)
    assert np.array_equal(s.q, p2 - p1)
    with pytest.raises(ps.GridMismatch):
        ps.Spectrum(omegas=om, p1=p1[:-1], p2=p2)
    # the writers would lay out raw lists of another length beside omegas
    for name in ("raw_p1", "raw_p2", "raw_p3"):
        with pytest.raises(ps.GridMismatch, match=name):
            ps.Spectrum(omegas=om, p1=p1, p2=p2,
                        **{name: np.ones(3, dtype=complex)})


@pytest.mark.parametrize("name", ["omegas", "p1", "p2", "q", "raw_p1",
                                  "raw_p2", "raw_p3"])
def test_spectrum_rejects_non_finite_values(name):
    # JSON has no token for a non-finite float, so every array a writer
    # formats must be finite; q overflows from finite p1 and p2
    big = np.finfo(float).max
    arrays = {"omegas": np.linspace(-1, 1, 5), "p1": np.zeros(5),
              "p2": np.ones(5), "raw_p1": np.ones(5, dtype=complex),
              "raw_p2": np.ones(5, dtype=complex),
              "raw_p3": np.ones(5, dtype=complex)}
    ps.Spectrum(**arrays)
    if name == "q":
        arrays["p1"][2], arrays["p2"][2] = -big, big
    elif name.startswith("raw"):
        arrays[name][2] = complex(1.0, np.nan)
    else:
        arrays[name][2] = np.inf
    with np.errstate(over="ignore"), pytest.raises(ps.NonFiniteSpectrum,
                                                   match=name):
        ps.Spectrum(**arrays)


def test_build_meta_contents():
    p = drive(8)
    fg = ps.make_frequency_grid(p)
    g = ps.make_time_grid(p)
    meta = ps.build_meta(p, fg, "numeric", grid=g)
    assert meta["engine"] == "numeric"
    assert meta["delta"] == 3.0
    assert meta["n_pulses"] == 8
    assert meta["n_omega"] == 1201
    assert meta["substeps_per_interval"] == 20
    assert meta["dt"] == pytest.approx(0.01)
    without_grid = ps.build_meta(p, fg, "closed_form")
    assert "substeps_per_interval" not in without_grid
    assert without_grid["engine"] == "closed_form"


def test_spectra_are_real_parts_and_meta_the_records(numeric8, closed8):
    # spectra are in units of the probe factor 2*A**2, which no parameter
    # sets, and meta holds the parameter records field by field
    assert not hasattr(ps, "DEFAULT_AMP")
    for s in (numeric8, closed8):
        assert np.array_equal(s.p1, s.raw_p1.real)
        assert np.array_equal(s.p2, s.raw_p2.real)
    p = drive(8)
    fg = ps.make_frequency_grid(p)
    keys = ["engine", *(f.name for f in dataclasses.fields(ps.DriveParams)),
            "omega_min", "omega_max", "omega_step", "n_omega"]
    assert "amp" not in keys
    assert sorted(ps.build_meta(p, fg, "closed_form")) == sorted(keys)
    keys += [f.name for f in dataclasses.fields(ps.TimeGrid)]
    meta = ps.build_meta(p, fg, "numeric", ps.make_time_grid(p))
    assert sorted(meta) == sorted(keys)
    assert numeric8.meta == meta
