import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulsespec as ps
from conftest import MARCH_GRIDS, drive, nearest_peak
from marcher import (apply_pi_pulse, march, march_populations,
                     node_theta_sums)
from pulsespec.lindblad import _free_decay
from pulsespec.spectrum_numeric import fft_length, theta_sums, theta_transform

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


def direct_transform(s, dt, fg, block=1024):
    """sum_j s[:, j] * exp(-1j*dt*j*omega_k), a block of nodes at a time,
    at the exact nodes omega_k = omega_min + k*omega_step: each phase is
    formed and reduced by whole turns in long double, so it rounds only
    once, to float64, before np.exp."""
    two_pi = 2 * np.arccos(np.longdouble(-1))
    omegas = (np.longdouble(fg.omega_min)
              + np.arange(fg.omegas.size) * np.longdouble(fg.omega_step))
    out = np.zeros((s.shape[0], omegas.size), dtype=complex)
    for first in range(0, s.shape[1], block):
        j = np.arange(first, min(first + block, s.shape[1]))
        phase = np.outer(np.longdouble(dt) * j, omegas)
        phase -= np.round(phase / two_pi) * two_pi
        out += s[:, j] @ np.exp(-1j * phase.astype(float))
    return out


def default_grid(n_pulses):
    return ps.make_frequency_grid(drive(n_pulses))


# (nodes N, dt, frequency grid): three short sums of 121 to 133 nodes; the
# smallest grid (one pulse, one substep), far fewer nodes than
# frequencies; a single frequency; the 700-pulse grid of the CLI tests.
TRANSFORM_CASES = {
    "square": (121, 0.01, default_grid(8)),
    "block_plus_one": (133, 0.01, default_grid(8)),
    "block_minus_one": (131, 0.01, default_grid(8)),
    "two_nodes": (2, 0.2, default_grid(1)),
    "one_omega": (161, 0.01,
                  ps.FrequencyGrid(3.0, 3.0, 0.1, np.array([3.0]))),
    "long_train": (14001, 0.01, default_grid(700)),
}


def transform_case(name):
    n, dt, fg = TRANSFORM_CASES[name]
    rng = np.random.default_rng(n)
    return rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)), dt, fg


@pytest.mark.parametrize("name", sorted(TRANSFORM_CASES))
def test_blocked_transform_matches_direct_sum(name):
    # the chirp-z transform against the sum over blocks of nodes
    s, dt, fg = transform_case(name)
    ref = direct_transform(s, dt, fg)
    got = theta_transform(s, dt, fg)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def exact_transform(s, dt, fg, k):
    """sum_j s[:, j] * z**j at the node omega_min + k*omega_step itself,
    by Horner's rule in 40-digit arithmetic."""
    with mpmath.workdps(40):
        omega = mpmath.mpf(fg.omega_min) + k * mpmath.mpf(fg.omega_step)
        z = mpmath.expj(-omega * mpmath.mpf(dt))
        out = []
        for row in s:
            acc = mpmath.mpc(0)
            for value in row[::-1]:
                acc = acc * z + mpmath.mpc(value.real, value.imag)
            out.append(complex(acc))
    return np.array(out)


def test_transform_matches_exact_nodes():
    # the chirp-z transform read 3.2e-16 of max|X| here
    s, dt, fg = transform_case("long_train")
    got = theta_transform(s, dt, fg)
    m = fg.omegas.size
    for k in (0, m // 2, m - 1):
        err = np.max(np.abs(got[:, k] - exact_transform(s, dt, fg, k)))
        assert err <= 1e-15 * np.max(np.abs(got))


def test_fft_length_rule():
    # the smallest power of two holding the linear convolution, however
    # N + M - 1 splits into nodes and frequencies
    for need in range(1, 2900):
        expected = next(2**k for k in range(13) if 2**k >= need)
        assert fft_length(need, 1) == fft_length(1, need) == expected
    assert fft_length(1601, 1201) == 4096


def test_long_train_peak_memory():
    # 10,000 pulses x 20 substeps: 200001 time nodes, 1201 frequencies;
    # measured 26.0 MB above the inputs
    p = drive(10_000)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    kernel = ps.build_correlator_grids(p, g)
    fg = ps.make_frequency_grid(p)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ps.compute_numeric_spectrum(p, g, traj, kernel, fg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 30e6


@pytest.mark.parametrize("name", sorted(MARCH_GRIDS))
def test_theta_sums_match_the_node_reference(name):
    # the sums from the interval starts against the window sums over the
    # populations of every node of the reference march
    p, substeps = MARCH_GRIDS[name]
    g = ps.make_time_grid(p, substeps)
    kernel = ps.build_correlator_grids(p, g)
    got = theta_sums(p, g, ps.propagate_trajectory(p, g), kernel)
    ref = node_theta_sums(p, g, march_populations(p, g), kernel)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def long_double_nodes(p, g, starts):
    """The populations at every node from the interval starts, (ee*decay,
    gg + ee*feed) with the float64 tables of the free map, in long double."""
    decay = _free_decay(np.arange(g.substeps_per_interval) * g.dt, p)
    feed = (1.0 - decay).astype(np.longdouble)
    ee, gg = starts[:-1, :, None].astype(np.longdouble).transpose(1, 0, 2)
    nodes = np.empty((g.n_nodes, 2), dtype=np.longdouble)
    nodes[:-1, 0] = (ee * decay.astype(np.longdouble)).ravel()
    nodes[:-1, 1] = (gg + ee * feed).ravel()
    nodes[-1] = starts[-1]
    return nodes


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than float64 here")
def test_theta_sums_round_like_long_double():
    # 10,000 pulses x 20 substeps: measured 2.5e-16 of max|S| from the sums
    # evaluated in long double; the window sums over every node's
    # population in float64, node_theta_sums, read 5.7e-14
    p = drive(10_000)
    g = ps.make_time_grid(p, 20)
    kernel = ps.build_correlator_grids(p, g)
    starts = ps.propagate_trajectory(p, g)
    ref = node_theta_sums(p, g, long_double_nodes(p, g, starts), kernel)
    got = theta_sums(p, g, starts, kernel)
    assert np.max(np.abs(got - ref)) <= 5e-16 * np.max(np.abs(ref))


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
    kernel = ps.build_correlator_grids(p, g)
    fg = ps.make_frequency_grid(p)
    # zero populations with the real rows give zero
    s = ps.compute_numeric_spectrum(p, g, np.zeros_like(traj), kernel, fg)
    assert np.all(s.p1 == 0.0)
    assert np.all(s.p2 == 0.0)
    assert np.all(s.q == 0.0)
    # a zero table, rows past theta = 0 with their left limits and the
    # companion, with the real populations leaves the theta = 0 term alone,
    # where every row is 1: a flat spectrum
    s = ps.compute_numeric_spectrum(p, g, traj, np.zeros_like(kernel), fg)
    for part in (s.p1, s.p2):
        assert part[0] > 0.0 and np.all(part == part[0])


def reference_raw(p, g, fg):
    """raw_p1/raw_p2 the long way: rows over the whole grid marched with
    `march` from each residue node and for the companion, a running sum
    of the weighted populations per row and node, and the direct
    transform."""
    n_sub, last = g.substeps_per_interval, g.n_nodes - 1
    pops = march_populations(p, g).T
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    rows = np.zeros((n_sub + 1, g.n_nodes), dtype=complex)
    before = np.zeros_like(rows)
    for r in range(n_sub + 1):
        # the companion is the swapped seed from the first pulse node
        start, m = (r, seed) if r < n_sub else (n_sub, apply_pi_pulse(seed))
        stored, crossings = march(m, start, last - start, p, g)
        pre = stored.copy()
        pre[crossings] = apply_pi_pulse(stored[crossings])
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
    post = w_t * pops[:, :last]
    pre = np.where(pulse, w_t, 0.0) * pops[::-1, :last]
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
    return direct_transform(s, dt, fg)


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
    # the sums and the transform without the assembly, which refuses the
    # default window at 3 substeps or fewer, where it aliases
    raw = theta_transform(theta_sums(p, g, ps.propagate_trajectory(p, g),
                                     ps.build_correlator_grids(p, g)),
                          g.dt, fg)
    for got, ref in zip(raw, reference_raw(p, g, fg)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref),
                                                            initial=1e-300)


# at the default 20 substeps (dt = 0.01) the window [550, 600] reaches
# |omega - delta| * dt = 5.97 rad; the library returned a q off by 278
# times max|q_closed| there
ALIASED_LINE = ("AliasedWindow: omega window [550, 600] reaches |omega - "
                "delta| * dt = 5.97 >= pi at 20 substeps; it needs more "
                "than 38.0062 substeps")


def test_library_refuses_an_aliased_window():
    # the line the command line prints, from either library entry point
    p = drive(20)
    fg = ps.make_frequency_grid(p, omega_min=550.0, omega_max=600.0)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    kernel = ps.build_correlator_grids(p, g)
    for run in (lambda: ps.numeric_spectrum(p, fg),
                lambda: ps.compute_numeric_spectrum(p, g, traj, kernel, fg)):
        with pytest.raises(ps.AliasedWindow) as info:
            run()
        assert f"{type(info.value).__name__}: {info.value}" == ALIASED_LINE


def test_library_oversized_grid_takes_precedence_over_an_aliased_window():
    p = drive(300000)
    fg = ps.make_frequency_grid(p, omega_min=550.0, omega_max=600.0)
    with pytest.raises(ps.GridTooLarge):
        ps.numeric_spectrum(p, fg)


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
    # the trajectory must hold every interval start of the time grid
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    kernel = ps.build_correlator_grids(p, g)
    with pytest.raises(ps.GridMismatch):
        ps.compute_numeric_spectrum(p, g, traj[:-1], kernel,
                                    ps.make_frequency_grid(p))


def test_grid_mismatch_between_grids():
    # the kernel table must be the one of the time grid
    p = drive(2)
    g = ps.make_time_grid(p, 5)
    traj = ps.propagate_trajectory(p, g)
    kernel = ps.build_correlator_grids(p, ps.make_time_grid(p, 6))
    with pytest.raises(ps.GridMismatch):
        ps.compute_numeric_spectrum(p, g, traj, kernel,
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
