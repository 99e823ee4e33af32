import math
from pathlib import Path

import numpy as np
import pytest

import pulsespec as ps
from conftest import drive, nearest_peak
from pulsespec.spectrum_numeric import theta_transform

GOLDEN = Path(__file__).parent / "data" / "numeric_golden.npz"

# (params, substeps) of the numeric spectra frozen in GOLDEN, each on its
# default frequency window at a tenth of the default resolution.
GOLDEN_CASES = {
    "drive8": (drive(8), None),
    "odd_train": (drive(3, delta=2.2, tau=0.37), 7),
    "fine_grid": (drive(20), 80),
    "pulse_free": (drive(0, tau=0.3, free_time=2.0), 7),
}


def golden_spectrum(name):
    p, substeps = GOLDEN_CASES[name]
    fg = ps.make_frequency_grid(p, omega_step=math.pi / (20.0 * p.tau))
    return ps.numeric_spectrum(p, fg, substeps=substeps)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_matches_golden_spectra(name):
    golden = np.load(GOLDEN)
    s = golden_spectrum(name)
    for part in ("raw_p1", "raw_p2"):
        ref = golden[f"{name}_{part}"]
        rel = np.max(np.abs(getattr(s, part) - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-12


def direct_transform(s, dt, omegas, block=1024):
    """s @ exp(-1j*dt*outer(arange(N), omegas)), a block of nodes at a time."""
    out = np.zeros((s.shape[0], omegas.size), dtype=complex)
    for first in range(0, s.shape[1], block):
        j = np.arange(first, min(first + block, s.shape[1]))
        out += s[:, j] @ np.exp(-1j * dt * np.outer(j, omegas))
    return out


def default_omegas(n_pulses):
    return ps.make_frequency_grid(drive(n_pulses)).omegas


# (nodes N, dt, omegas): the blocks of ceil(sqrt(N)) nodes fit N exactly,
# overhang by one node, fall one short; the smallest grid (one pulse, one
# substep); a single frequency; the 700-pulse grid of the CLI tests.
TRANSFORM_CASES = {
    "square": (121, 0.01, default_omegas(8)),
    "block_plus_one": (133, 0.01, default_omegas(8)),
    "block_minus_one": (131, 0.01, default_omegas(8)),
    "two_nodes": (2, 0.2, default_omegas(1)),
    "one_omega": (161, 0.01, np.array([3.0])),
    "long_train": (14001, 0.01, default_omegas(700)),
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_CASES))
def test_blocked_transform_matches_direct_sum(name):
    n, dt, omegas = TRANSFORM_CASES[name]
    rng = np.random.default_rng(n)
    s = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    ref = direct_transform(s, dt, omegas)
    got = theta_transform(s, dt, omegas)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_observed_dt_order_is_two():
    p = drive(8)
    fg = ps.make_frequency_grid(p)
    q10, q20, q40 = (ps.numeric_spectrum(p, fg, substeps=n).q
                     for n in (10, 20, 40))
    order = math.log2(np.linalg.norm(q10 - q20) / np.linalg.norm(q20 - q40))
    assert 1.8 <= order <= 2.2


def test_zero_grids_give_zero_spectrum():
    p = drive(2)
    g = ps.make_time_grid(p, 5)
    traj = ps.propagate_trajectory(p, g)
    cg = ps.build_correlator_grids(p, g, traj)
    fg = ps.make_frequency_grid(p)
    # zero propagator rows with the real populations, and the reverse
    zero_rows = np.zeros_like(cg.rows)
    for rows, before, pops in ((zero_rows, zero_rows, cg.pops),
                               (cg.rows, cg.before, np.zeros_like(cg.pops))):
        cg_zero = ps.CorrelatorGrid(rows=rows, before=before, pops=pops)
        s = ps.compute_numeric_spectrum(p, g, cg_zero, fg)
        assert np.all(s.p1 == 0.0)
        assert np.all(s.p2 == 0.0)
        assert np.all(s.q == 0.0)


def test_numeric_spectrum_structure(numeric8):
    s = numeric8
    assert s.meta["engine"] == "numeric"
    assert s.meta["substeps_per_interval"] == 20
    assert s.raw_p1 is not None and s.raw_p2 is not None
    assert np.allclose(s.p1, 2 * 0.5 * s.raw_p1.real, atol=1e-15)
    assert np.array_equal(s.q, s.p2 - s.p1)


def test_numeric_spectrum_peak_layout(numeric8):
    # stimulated-emission dip at the drive carrier, satellites further out
    peaks = ps.find_peaks(numeric8)
    central = nearest_peak(peaks, 0.0)
    assert abs(central[0]) < 1.0
    assert central[1] < 0.0
    assert any(12.0 < abs(pk[0]) < 18.0 for pk in peaks)


def test_grid_mismatch_between_grids():
    p = drive(2)
    g = ps.make_time_grid(p, 5)
    traj = ps.propagate_trajectory(p, g)
    cg = ps.build_correlator_grids(p, g, traj)
    g_other = ps.make_time_grid(p, 6)
    with pytest.raises(ps.GridMismatch):
        ps.compute_numeric_spectrum(p, g_other, cg, ps.make_frequency_grid(p))


def test_refinement_changes_little(numeric20):
    p = drive(20)
    fg = ps.make_frequency_grid(p)
    fine = ps.numeric_spectrum(p, fg, substeps=40)
    rel = np.linalg.norm(fine.q - numeric20.q) / np.linalg.norm(fine.q)
    assert rel <= 0.01


def test_sum_rule_against_closed_total(numeric20, closed20):
    total_numeric = (numeric20.raw_p1 + numeric20.raw_p2).real
    total_closed = closed20.raw_p3.real
    rel = np.linalg.norm(total_numeric - total_closed) / np.linalg.norm(total_closed)
    assert rel <= 0.05


def test_no_pulse_positive_single_peak(nopulse20):
    s = nopulse20
    assert np.all(s.q > 0.0)
    imax = int(np.argmax(s.q))
    assert s.omegas[imax] == pytest.approx(3.0, abs=0.1)


if __name__ == "__main__":
    # Regenerates GOLDEN from whichever pulsespec is importable.
    GOLDEN.parent.mkdir(exist_ok=True)
    arrays = {}
    for name in GOLDEN_CASES:
        s = golden_spectrum(name)
        arrays[f"{name}_raw_p1"] = s.raw_p1
        arrays[f"{name}_raw_p2"] = s.raw_p2
    np.savez(GOLDEN, **arrays)
