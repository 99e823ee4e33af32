import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulsespec as ps
from conftest import drive, nearest_peak
from pulsespec import spectrum_numeric
from pulsespec.lindblad import march
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


def test_transform_table_budget(monkeypatch):
    # 2 nodes make blocks of b = 2; the (b, M) table of z powers would
    # exceed the budget, and zero-stride inputs show it is never formed
    budget = ps.core.MAX_ARRAY_CELLS
    s = np.broadcast_to(0j, (2, 2))
    with pytest.raises(ps.GridTooLarge):
        theta_transform(s, 0.1, np.broadcast_to(0.0, (budget // 2 + 1,)))
    # at the boundary itself: 121 nodes make blocks of 11
    n, dt, omegas = TRANSFORM_CASES["square"]
    s = np.random.default_rng(0).normal(size=(2, n)) + 0j
    monkeypatch.setattr(spectrum_numeric, "MAX_ARRAY_CELLS",
                        11 * omegas.size)
    ref = direct_transform(s, dt, omegas)
    assert np.max(np.abs(theta_transform(s, dt, omegas) - ref)) <= (
        1e-12 * np.max(np.abs(ref)))
    with pytest.raises(ps.GridTooLarge):
        theta_transform(s, dt, np.append(omegas, 0.0))


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
    block = ps.build_correlator_grids(p, g)
    fg = ps.make_frequency_grid(p)
    # zero populations with the real rows give zero
    s = ps.compute_numeric_spectrum(p, g, np.zeros_like(traj), block, fg)
    assert np.all(s.p1 == 0.0)
    assert np.all(s.p2 == 0.0)
    assert np.all(s.q == 0.0)
    # zero rows past theta = 0 with the real populations leave the theta = 0
    # term alone, where every row is 1: a flat spectrum
    s = ps.compute_numeric_spectrum(p, g, traj, np.zeros_like(block), fg)
    for part in (s.p1, s.p2):
        assert part[0] > 0.0 and np.all(part == part[0])


def reference_raw(p, g, fg):
    """raw_p1/raw_p2 the long way: rows over the whole grid marched with
    `march` from each residue node and for the companion, a running sum
    of the weighted populations per row and node, and the direct
    transform."""
    n_sub, last = g.substeps_per_interval, g.n_nodes - 1
    traj = ps.propagate_trajectory(p, g)
    pops = np.array([traj[:, 0, 0], traj[:, 1, 1]])
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    rows = np.zeros((n_sub + 1, g.n_nodes), dtype=complex)
    before = np.zeros_like(rows)
    for r in range(n_sub + 1):
        # the companion is the swapped seed from the first pulse node
        start, m = (r, seed) if r < n_sub else (n_sub, ps.apply_pi_pulse(seed))
        stored, crossings = march(m, start, last - start, p, g)
        pre = stored.copy()
        pre[crossings] = ps.apply_pi_pulse(stored[crossings])
        rows[r, :last - start + 1] = stored[:, 1, 0]
        before[r, :last - start + 1] = pre[:, 1, 0]
    rows[n_sub, 0] = before[n_sub, 0] = 1.0
    dt = g.dt
    nodes = np.arange(last)
    residue = nodes % n_sub
    pulse = (residue == 0) & (nodes > 0) & (p.n_pulses >= 1)
    w_t = np.full(last, dt)
    w_t[0] *= 0.5
    w_t[pulse] *= 0.5
    post = w_t * pops[:, :last].real
    pre = np.where(pulse, w_t, 0.0) * pops[::-1, :last].real
    weights = np.zeros((2, n_sub + 1, last))
    weights[:, residue, nodes] = post
    weights[:, n_sub] = pre
    running = np.cumsum(weights, axis=2)[:, :, ::-1]
    mean = 0.5 * (rows[:, :last] + before[:, :last])
    s = np.zeros((2, last + 1), dtype=complex)
    s[:, :last] = np.einsum("rj,krj->kj", mean, running)
    s[:, 0] *= 0.5
    s *= dt
    s[:, last - nodes] += 0.5 * dt * (
        post * before[residue, last - nodes] + pre * before[n_sub, last - nodes])
    return direct_transform(s, dt, fg.omegas)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, 2]),
                 st.integers(0, 14).map(lambda k: 2 * k + 1),
                 st.integers(0, 30)),
       st.integers(1, 30), st.floats(-6.0, 6.0), st.floats(0.05, 1.0),
       st.integers(1, 30))
def test_pair_block_matches_full_rows(n_pulses, substeps, delta, tau,
                                      free_intervals):
    free_time = free_intervals * tau if n_pulses == 0 else None
    p = drive(n_pulses, delta=delta, tau=tau, free_time=free_time)
    g = ps.make_time_grid(p, substeps)
    fg = ps.make_frequency_grid(p, omega_step=math.pi / (20.0 * tau))
    s = ps.numeric_spectrum(p, fg, substeps=substeps)
    for got, ref in zip((s.raw_p1, s.raw_p2), reference_raw(p, g, fg)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref),
                                                            initial=1e-300)


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


def test_grid_mismatch_detected():
    # the trajectory must cover the time grid
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    block = ps.build_correlator_grids(p, g)
    with pytest.raises(ps.GridMismatch):
        ps.compute_numeric_spectrum(p, g, traj[:-1], block,
                                    ps.make_frequency_grid(p))


def test_grid_mismatch_between_grids():
    # the pair block must be the one of the time grid
    p = drive(2)
    g = ps.make_time_grid(p, 5)
    traj = ps.propagate_trajectory(p, g)
    block = ps.build_correlator_grids(p, ps.make_time_grid(p, 6))
    with pytest.raises(ps.GridMismatch):
        ps.compute_numeric_spectrum(p, g, traj, block,
                                    ps.make_frequency_grid(p))


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
