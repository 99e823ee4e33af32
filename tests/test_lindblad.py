import cmath
import math

import numpy as np
import pytest

import pulsespec as ps
from conftest import drive


def test_free_evolve_populations():
    p = drive(8)
    rho = ps.DensityMatrix(ee=1.0, eg=0.0, ge=0.0, gg=0.0)
    out = ps.free_evolve(rho, 0.2, p)
    assert out.ee == pytest.approx(math.exp(-0.4), abs=1e-15)
    assert out.gg == pytest.approx(1.0 - math.exp(-0.4), abs=1e-15)
    assert out.ee.real == pytest.approx(0.670320, abs=1e-6)
    assert out.gg.real == pytest.approx(0.329680, abs=1e-6)


def test_free_evolve_identity_at_zero_dt():
    p = drive(8)
    m = ps.DensityMatrix(ee=0.3 + 0.1j, eg=0.2 - 0.4j, ge=-0.5j, gg=0.7)
    out = ps.free_evolve(m, 0.0, p)
    assert out == m


def test_free_evolve_coherence_rotation():
    p = drive(8)
    m = ps.DensityMatrix(ee=0.0, eg=0.0, ge=1.0, gg=0.0)
    out = ps.free_evolve(m, 0.1, p)
    assert out.ge == pytest.approx(cmath.exp((3j - 1.0) * 0.1), abs=1e-15)
    assert out.ee == 0.0
    assert out.eg == 0.0
    assert out.gg == 0.0


def test_free_evolve_conjugate_pair():
    # eg evolves with the conjugate factor of ge
    p = drive(8)
    m = ps.DensityMatrix(ee=0.0, eg=1.0, ge=1.0, gg=0.0)
    out = ps.free_evolve(m, 0.17, p)
    assert out.eg == pytest.approx(out.ge.conjugate(), abs=1e-15)


def test_free_evolve_rejects_negative_dt():
    with pytest.raises(ps.NegativeDt):
        ps.free_evolve(ps.DensityMatrix(1.0, 0.0, 0.0, 0.0), -0.01, drive(8))


def test_free_evolve_semigroup():
    p = drive(8)
    m = ps.DensityMatrix(ee=0.4 + 0.2j, eg=-0.1 + 0.3j, ge=0.6 - 0.2j, gg=0.1j)
    once = ps.free_evolve(m, 0.07 + 0.11, p)
    twice = ps.free_evolve(ps.free_evolve(m, 0.07, p), 0.11, p)
    for name in ("ee", "eg", "ge", "gg"):
        assert abs(getattr(once, name) - getattr(twice, name)) <= 1e-12


def test_pi_pulse_swaps_and_involutes():
    m = ps.DensityMatrix(ee=0.7, eg=0.0, ge=0.0, gg=0.3)
    out = ps.apply_pi_pulse(m)
    assert out.ee == 0.3 and out.gg == 0.7
    m = ps.DensityMatrix(ee=0.0, eg=2.0 + 1j, ge=-0.5j, gg=0.0)
    swapped = ps.apply_pi_pulse(m)
    assert swapped.eg == -0.5j and swapped.ge == 2.0 + 1j
    assert ps.apply_pi_pulse(ps.apply_pi_pulse(m)) == m


def test_trajectory_pulse_node_values():
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    assert len(traj) == g.n_nodes
    n_sub = g.substeps_per_interval
    # stored value at t = tau is post-pulse: populations just swapped
    assert traj[n_sub].ee == pytest.approx(1.0 - math.exp(-0.4), abs=1e-12)
    # pre-pulse value at t = 2 tau recovered by one inverse swap
    pre = ps.apply_pi_pulse(traj[2 * n_sub])
    assert pre.ee == pytest.approx((1.0 - math.exp(-0.4)) * math.exp(-0.4),
                                   abs=1e-12)
    assert pre.ee.real == pytest.approx(0.220991, abs=1e-6)


def test_trajectory_invariants():
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    for rho in traj:
        assert abs(rho.ee + rho.gg - 1.0) <= 1e-12
        assert abs(rho.ge - rho.eg.conjugate()) <= 1e-12
        assert rho.eg == 0.0 and rho.ge == 0.0
        assert -1e-12 <= rho.ee.real <= 1.0 + 1e-12
        assert abs(rho.ee.imag) <= 1e-12 and abs(rho.gg.imag) <= 1e-12


def test_trajectory_no_pulse_decay():
    p = drive(0, free_time=4.0)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    expected = np.exp(-p.gamma * g.times)
    worst = max(abs(rho.ee - ref) for rho, ref in zip(traj, expected))
    assert worst <= 1e-12
