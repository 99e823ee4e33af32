import cmath
import math

import numpy as np
import pytest

import pulsespec as ps
from conftest import drive


def test_gammas_reference_values():
    p = drive(8)
    g = ps.gammas(3.0, p)
    assert g.g0 == pytest.approx(1.0, abs=1e-15)
    g = ps.gammas(0.0, p)
    assert g.g1 == pytest.approx(1.0, abs=1e-15)
    assert g.g0 == pytest.approx(1.0 - 3.0j, abs=1e-15)
    assert g.g2 == pytest.approx(-1.0 - 3.0j, abs=1e-15)


def test_gammas_identity_exact():
    p = drive(8)
    for omega in (-17.3, -2.0, 0.0, 0.41, 5.0, 33.0):
        g = ps.gammas(omega, p)
        assert g.g2 - g.g0 + p.gamma == 0.0


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
    worst = max(abs(traj[i, 1, 1] - ps.rho_gg_analytic(g.times[i], p))
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
        ps.p1_closed(0.0, drive(7))
    with pytest.raises(ps.OddPulseCount):
        ps.p3_closed(0.0, drive(7))
    with pytest.raises(ps.TooFewPulses):
        ps.p1_closed(0.0, drive(0, free_time=1.0))


def test_closed_forms_vectorize():
    p = drive(8)
    omegas = np.array([-5.0, 0.0, 1.3, 16.0])
    vec = ps.p1_closed(omegas, p)
    for k, omega in enumerate(omegas):
        assert vec[k] == pytest.approx(complex(ps.p1_closed(omega, p)),
                                       abs=1e-15)
    vec3 = ps.p3_closed(omegas, p)
    for k, omega in enumerate(omegas):
        assert vec3[k] == pytest.approx(complex(ps.p3_closed(omega, p)),
                                        abs=1e-15)
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
    assert np.isfinite(ps.p1_closed(0.0, p))
    assert np.isfinite(ps.p3_closed(0.0, p))


def test_affine_pulse_count_slope_stabilizes():
    # both closed forms are affine in the pulse count once the
    # exp(-n_pulses * gamma * tau / 2) transients die out
    omegas = ps.make_frequency_grid(drive(8)).omegas
    for fn in (ps.p1_closed, ps.p3_closed):
        slope_mid = (fn(omegas, drive(42)) - fn(omegas, drive(40))) / 2.0
        slope_big = (fn(omegas, drive(82)) - fn(omegas, drive(80))) / 2.0
        drift = np.linalg.norm(slope_mid - slope_big) / np.linalg.norm(slope_big)
        assert drift <= 1e-3


def test_p3_leading_term_at_large_frequency():
    p = drive(20)
    omegas = np.arange(100.0, 300.01, 0.25)
    lead = p.n_pulses * p.tau / ps.gammas(omegas, p).g0
    residual = np.abs(ps.p3_closed(omegas, p) - lead) / np.abs(lead)
    assert residual.max() < 0.4      # worst case sits on a 2*omega*tau resonance
    assert residual[0] < 0.05        # far off resonance the term dominates cleanly


def test_denominators_bounded_over_default_grid():
    p = drive(8)
    fg = ps.make_frequency_grid(p)
    g1 = ps.gammas(fg.omegas, p).g1
    floor_value = math.exp(p.gamma * p.tau) - 1.0
    assert np.min(np.abs(np.exp(2.0 * g1 * p.tau) - 1.0)) >= floor_value - 1e-12


def test_closed_spectrum_identity_and_meta(closed8):
    s = closed8
    assert s.meta["engine"] == "closed_form"
    assert s.raw_p3 is not None
    scale = 2 * 0.5
    assert np.max(np.abs(s.p1 + s.p2 - scale * s.raw_p3.real)) <= 1e-12
    assert np.array_equal(s.q, s.p2 - s.p1)
