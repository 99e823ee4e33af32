import cmath
import math
import tracemalloc

import numpy as np
import pytest

import pulsespec as ps
from pulsespec.lindblad import march
from conftest import drive


def dm(ee, eg, ge, gg):
    """Density matrix in the [[ee, eg], [ge, gg]] layout."""
    return np.array([[ee, eg], [ge, gg]], dtype=complex)


def test_free_evolve_populations():
    p = drive(8)
    out = ps.free_evolve(dm(1.0, 0.0, 0.0, 0.0), 0.2, p)
    assert out[0, 0] == pytest.approx(math.exp(-0.4), abs=1e-15)
    assert out[1, 1] == pytest.approx(1.0 - math.exp(-0.4), abs=1e-15)
    assert out[0, 0].real == pytest.approx(0.670320, abs=1e-6)
    assert out[1, 1].real == pytest.approx(0.329680, abs=1e-6)


def test_free_evolve_identity_at_zero_dt():
    p = drive(8)
    m = dm(0.3 + 0.1j, 0.2 - 0.4j, -0.5j, 0.7)
    out = ps.free_evolve(m, 0.0, p)
    assert np.array_equal(out, m)


def test_free_evolve_coherence_rotation():
    p = drive(8)
    out = ps.free_evolve(dm(0.0, 0.0, 1.0, 0.0), 0.1, p)
    assert out[1, 0] == pytest.approx(cmath.exp((3j - 1.0) * 0.1), abs=1e-15)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 0.0
    assert out[1, 1] == 0.0


def test_free_evolve_conjugate_pair():
    # eg evolves with the conjugate factor of ge
    p = drive(8)
    out = ps.free_evolve(dm(0.0, 1.0, 1.0, 0.0), 0.17, p)
    assert out[0, 1] == pytest.approx(out[1, 0].conjugate(), abs=1e-15)


def test_free_evolve_rejects_negative_dt():
    with pytest.raises(ps.NegativeDt):
        ps.free_evolve(dm(1.0, 0.0, 0.0, 0.0), -0.01, drive(8))


def test_free_evolve_semigroup():
    p = drive(8)
    m = dm(0.4 + 0.2j, -0.1 + 0.3j, 0.6 - 0.2j, 0.1j)
    once = ps.free_evolve(m, 0.07 + 0.11, p)
    twice = ps.free_evolve(ps.free_evolve(m, 0.07, p), 0.11, p)
    assert np.max(np.abs(once - twice)) <= 1e-12


def test_pi_pulse_swaps_and_involutes():
    out = ps.apply_pi_pulse(dm(0.7, 0.0, 0.0, 0.3))
    assert out[0, 0] == 0.3 and out[1, 1] == 0.7
    m = dm(0.0, 2.0 + 1j, -0.5j, 0.0)
    swapped = ps.apply_pi_pulse(m)
    assert swapped[0, 1] == -0.5j and swapped[1, 0] == 2.0 + 1j
    assert np.array_equal(ps.apply_pi_pulse(ps.apply_pi_pulse(m)), m)


def test_trajectory_pulse_node_values():
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    assert traj.shape == (g.n_nodes, 2, 2)
    assert len(traj) == g.n_nodes
    n_sub = g.substeps_per_interval
    # stored value at t = tau is post-pulse: populations just swapped
    assert traj[n_sub, 0, 0] == pytest.approx(1.0 - math.exp(-0.4), abs=1e-12)
    # pre-pulse value at t = 2 tau recovered by one inverse swap
    pre = ps.apply_pi_pulse(traj[2 * n_sub])
    assert pre[0, 0] == pytest.approx((1.0 - math.exp(-0.4)) * math.exp(-0.4),
                                      abs=1e-12)
    assert pre[0, 0].real == pytest.approx(0.220991, abs=1e-6)


def test_trajectory_invariants():
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    for rho in traj:
        (ee, eg), (ge, gg) = rho
        assert abs(ee + gg - 1.0) <= 1e-12
        assert abs(ge - eg.conjugate()) <= 1e-12
        assert eg == 0.0 and ge == 0.0
        assert -1e-12 <= ee.real <= 1.0 + 1e-12
        assert abs(ee.imag) <= 1e-12 and abs(gg.imag) <= 1e-12


def test_trajectory_no_pulse_decay():
    p = drive(0, free_time=4.0)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    expected = np.exp(-p.gamma * g.times)
    worst = max(abs(rho[0, 0] - ref) for rho, ref in zip(traj, expected))
    assert worst <= 1e-12


@pytest.mark.parametrize("p, substeps", [
    (drive(8), None),
    (drive(3, delta=2.2, tau=0.37), 7),
    (drive(0, tau=0.3, free_time=2.0), 7),
    (drive(80), 20),
], ids=["drive8", "odd_train", "pulse_free", "drive80"])
def test_march_matches_step_by_step(p, substeps):
    # reference: one free_evolve per node, a swap at every pulse node
    g = ps.make_time_grid(p, substeps)
    n_sub = g.substeps_per_interval
    last = g.n_nodes - 1
    ge_seed = dm(0.0, 0.0, 1.0, 0.0)
    for seed, start in ((dm(1.0, 0.0, 0.0, 0.0), 0), (ge_seed, 0),
                        (ge_seed, 3)):
        stored, crossings = march(seed, start, last, p, g)
        m = seed
        swapped = []
        for j in range(1, last + 1):
            m = ps.free_evolve(m, g.dt, p)
            pre = m
            if (start + j) % n_sub == 0 and (start + j) // n_sub <= p.n_pulses:
                m = ps.apply_pi_pulse(m)
                swapped.append(j)
            assert np.max(np.abs(stored[j] - m)) <= 1e-12
            before = ps.apply_pi_pulse(stored[j]) if j in crossings else stored[j]
            assert np.max(np.abs(before - pre)) <= 1e-12
        assert crossings == swapped
        assert np.array_equal(stored[0], seed)


@pytest.mark.parametrize("n_pulses", [80, 5000])
def test_trajectory_peak_memory_is_its_result(n_pulses):
    # the march keeps no second copy of what it stores
    p = drive(n_pulses)
    g = ps.make_time_grid(p, 20)
    tracemalloc.start()
    try:
        traj = ps.propagate_trajectory(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * traj.nbytes
