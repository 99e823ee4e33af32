import cmath
import math

import mpmath
import numpy as np
import pytest

import pulsespec as ps
from conftest import drive


def test_rho0_values():
    p = drive(8)
    assert ps.rho0(0, p) == 1.0
    assert ps.rho0(1, p) == pytest.approx(1.0 - math.exp(-0.4), abs=1e-12)
    assert ps.rho0(1, p) == pytest.approx(0.329680, abs=1e-6)
    x = math.exp(-0.4)
    assert ps.rho0(240, p) == pytest.approx(1.0 / (1.0 + x), abs=1e-12)
    for m in range(0, 30):
        assert 0.0 < ps.rho0(m, p) <= 1.0
    with pytest.raises(ps.NegativeM):
        ps.rho0(-1, p)


def test_rho_gg_analytic_profile():
    p = drive(8)
    assert ps.rho_gg_analytic(0.0, p) == 0.0
    # left limit at the first pulse
    assert ps.rho_gg_analytic(0.2 - 1e-6, p) == pytest.approx(
        1.0 - math.exp(-0.4), abs=1e-5)
    # at the pulse node itself the post-pulse convention applies
    assert ps.rho_gg_analytic(0.2, p) == pytest.approx(math.exp(-0.4), abs=1e-12)
    with pytest.raises(ps.OutOfRangeT):
        ps.rho_gg_analytic(-0.1, p)
    with pytest.raises(ps.OutOfRangeT):
        ps.rho_gg_analytic(1.7, p)


def test_rho_gg_analytic_matches_trajectory():
    p = drive(8)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    worst = max(abs(traj[i, 1] - ps.rho_gg_analytic(g.times[i], p))
                for i in range(g.n_nodes))
    assert worst <= 1e-10


def test_kernel_branches():
    p = drive(8)
    assert ps.f_analytic(0.13, 0.0, p) == 1.0
    # same interval
    value = ps.f_analytic(0.05, 0.1, p)
    assert value == pytest.approx(cmath.exp((3j - 1.0) * 0.1), abs=1e-15)
    assert value == pytest.approx(math.exp(-0.1) * cmath.exp(0.3j), abs=1e-15)
    # one pulse between t and t + theta
    assert ps.f_analytic(0.1, 0.2, p) == 0.0
    # two pulses: decay envelope with re-wound phase
    value = ps.f_analytic(0.1, 0.45, p)
    assert abs(value) == pytest.approx(math.exp(-0.45), abs=1e-12)
    assert value == pytest.approx(
        math.exp(-0.45) * cmath.exp(1j * 3.0 * (0.45 - 2 * 0.2)), abs=1e-12)
    with pytest.raises(ps.NegativeTheta):
        ps.f_analytic(0.1, -0.01, p)


def test_kernel_magnitude_is_envelope_or_zero():
    p = drive(8)
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = rng.uniform(0.0, 1.4)
        theta = rng.uniform(0.0, 1.6 - t)
        value = ps.f_analytic(t, theta, p)
        mag = abs(value)
        envelope = math.exp(-p.gamma * theta / 2)
        assert mag == pytest.approx(envelope, abs=1e-12) or mag == 0.0


def test_kernel_phase_confinement():
    # wherever the kernel survives, its phase angle stays within
    # [-delta*tau, delta*tau]
    p = drive(8)
    rng = np.random.default_rng(11)
    bound = p.delta * p.tau + 1e-9
    for _ in range(300):
        t = rng.uniform(0.0, 1.5)
        theta = rng.uniform(0.0, 1.6 - t)
        value = ps.f_analytic(t, theta, p)
        if value == 0.0:
            continue
        assert abs(cmath.phase(value)) <= bound


def test_closed_forms_require_even_pulse_trains():
    with pytest.raises(ps.OddPulseCount):
        ps.closed_blocks(0.0, drive(7))
    with pytest.raises(ps.TooFewPulses):
        ps.closed_blocks(0.0, drive(0, free_time=1.0))


def test_closed_forms_vectorize():
    p = drive(8)
    omegas = np.array([-5.0, 0.0, 1.3, 16.0])
    vec1, vec3 = ps.closed_blocks(omegas, p)
    for k, omega in enumerate(omegas):
        p1, p3 = ps.closed_blocks(omega, p)
        assert vec1[k] == pytest.approx(complex(p1), abs=1e-15)
        assert vec3[k] == pytest.approx(complex(p3), abs=1e-15)
    # the populations and the kernel, across pulse instants and the horizon
    times = np.array([0.0, 0.13, 0.2, 0.4, 0.71, 1.6])
    thetas = np.array([0.0, 0.1, 0.45, 1.2, 0.2, 0.0])
    gg = ps.rho_gg_analytic(times, p)
    kernel = ps.f_analytic(times, thetas, p)
    for k, (t, theta) in enumerate(zip(times, thetas)):
        assert gg[k] == ps.rho_gg_analytic(float(t), p)
        assert kernel[k] == ps.f_analytic(float(t), float(theta), p)


def test_degenerate_resonance_is_finite():
    p = ps.validate_params(ps.DriveParams(delta=0.0, tau=0.2, n_pulses=8))
    assert np.all(np.isfinite(ps.closed_blocks(0.0, p)))


def test_affine_pulse_count_slope_stabilizes():
    # both closed forms are affine in the pulse count once the
    # exp(-n_pulses * gamma * tau / 2) transients die out
    omegas = ps.make_frequency_grid(drive(8)).omegas
    blocks = {n: np.array(ps.closed_blocks(omegas, drive(n)))
              for n in (40, 42, 80, 82)}
    slope_mid = (blocks[42] - blocks[40]) / 2.0
    slope_big = (blocks[82] - blocks[80]) / 2.0
    for mid, big in zip(slope_mid, slope_big):
        drift = np.linalg.norm(mid - big) / np.linalg.norm(big)
        assert drift <= 1e-3


def test_p3_leading_term_at_large_frequency():
    p = drive(20)
    omegas = np.arange(100.0, 300.01, 0.25)
    g0 = 1j * (omegas - p.delta) + 0.5 * p.gamma
    lead = p.n_pulses * p.tau / g0
    residual = np.abs(ps.closed_blocks(omegas, p)[1] - lead) / np.abs(lead)
    assert residual.max() < 0.4      # worst case sits on a 2*omega*tau resonance
    assert residual[0] < 0.05        # far off resonance the term dominates cleanly


def test_denominators_bounded_over_default_grid():
    p = drive(8)
    omegas = ps.make_frequency_grid(p).omegas
    g1 = 1j * omegas + 0.5 * p.gamma
    x = math.exp(-p.gamma * p.tau)
    floor_value = 1.0 - x
    for denominator in (1.0 - np.exp(-2.0 * g1 * p.tau),
                        1.0 - x * np.exp(2j * omegas * p.tau)):
        assert np.min(np.abs(denominator)) >= floor_value - 1e-12


def test_closed_spectrum_identity_and_meta(closed8):
    s = closed8
    assert s.meta["engine"] == "closed_form"
    assert s.raw_p3 is not None
    scale = 2 * 0.5
    assert np.max(np.abs(s.p1 + s.p2 - scale * s.raw_p3.real)) <= 1e-12
    assert np.array_equal(s.q, s.p2 - s.p1)


def mp_blocks(omega, p):
    """P1 and P3 at one frequency in 60-digit arithmetic, from the closed
    forms as first written: with exp(2*g1*tau) and exp(g0*tau), which
    overflow a double once gamma*tau passes about 709."""
    with mpmath.workdps(60):
        tau, n, gamma = mpmath.mpf(p.tau), p.n_pulses, mpmath.mpf(p.gamma)
        g0 = 1j * (mpmath.mpf(omega) - p.delta) + gamma / 2
        g1 = 1j * mpmath.mpf(omega) + gamma / 2
        g2 = g0 - gamma
        x = mpmath.exp(-gamma * tau)
        e_g0 = mpmath.exp(-g0 * tau)
        e_2g1 = mpmath.exp(2 * g1 * tau)
        e_ng1 = mpmath.exp(-n * g1 * tau)
        growth = (mpmath.exp(g2 * tau) - 1) / g2
        h = growth * (1 - e_g0) / (e_2g1 - 1)
        g = (1 - x) / gamma - e_g0 * growth + h
        r = (2 * (e_ng1 - 1) / (1 / e_2g1 - 1)
             + (x - x * x) * e_ng1 / (1 / e_2g1 - x * x))
        p1 = (g * (n + x / (1 + x)) - h * r) / ((1 + x) * g0)
        bracket = n - 2 * (1 - e_ng1) / (1 - 1 / e_2g1)
        p3 = (n * tau / g0 - n / g0 ** 2 * (1 - e_g0)
              + (mpmath.exp(g0 * tau) + e_g0 - 2)
              / (g0 ** 2 * (e_2g1 - 1)) * bracket)
        return complex(p1), complex(p3)


@pytest.mark.parametrize("taus, pulses, bound", [
    # the (tau, n_pulses) pairs of the closed-form benchmark sweep;
    # measured 5.8e-15
    ((0.1, 0.2, 0.4, 0.8), (2, 8, 20, 40, 80), 1e-14),
    # gamma*tau beyond the double's exponent range; measured 2.0e-16
    ((354.0, 400.0, 1e3), (2, 8, 10**9), 5e-16),
    # the cancellation at small tau that is still open, in
    # n - 2*(1 - exp(-n*g1*tau)) / (1 - exp(-2*g1*tau)); measured 1.8e-13
    # at tau = 0.01 and 1.9e-11 at 1e-3
    ((0.01, 1e-3), (2, 8, 80, 10**9), 5e-11),
], ids=["sweep", "large_tau", "small_tau"])
def test_closed_blocks_match_mpmath(taus, pulses, bound):
    worst = 0.0
    for tau in taus:
        for n in pulses:
            p = drive(n, tau=tau)
            omegas = ps.make_frequency_grid(p).omegas
            m = omegas.size
            nodes = omegas[[0, m // 4, m // 2, 3 * m // 4, m - 1]]
            got = ps.closed_blocks(nodes, p)
            for k, omega in enumerate(nodes):
                for value, ref in zip(got, mp_blocks(omega, p)):
                    worst = max(worst, abs(value[k] - ref) / abs(ref))
    assert worst <= bound
