import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pulsespec as ps
from conftest import closed_at, drive, log_uniform
from oracles import (mp_closed_blocks, mp_pair_blocks, oracle_rho0,
                     where_kernel)


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


def test_rho_gg_analytic_on_a_pulse_free_run():
    # a pulse-free run is one interval over its whole horizon; it used to
    # raise OutOfRangeT at every t > 0
    p = drive(0, tau=0.3, free_time=2.0)
    times = ps.make_time_grid(p, 7).times
    free_decay = 1.0 - np.exp(-p.gamma * times)
    assert np.max(np.abs(ps.rho_gg_analytic(times, p) - free_decay)) <= 1e-15
    with pytest.raises(ps.OutOfRangeT):
        ps.rho_gg_analytic(p.n_intervals * p.tau + 0.01, p)


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


def bits(value):
    """The complex value or array as its raw 64-bit words, zero signs
    included, for bit-for-bit comparison."""
    return np.asarray(value, dtype=complex).reshape(-1).view(np.uint64)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_pulses=st.integers(0, 7), tau=st.floats(0.01, 3.0),
       delta=st.floats(-20.0, 20.0), gamma=st.floats(0.01, 10.0),
       sub=st.integers(1, 6),
       starts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       spans=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5))
def test_node_references_match_their_oracle_forms(n_pulses, tau, delta,
                                                  gamma, sub, starts, spans):
    # f_analytic forms each branch only on the cells that keep it, and must
    # equal the np.where form over the whole broadcast bit for bit; rho0
    # takes x**(M+1) with a sign in place of (-x)**(M+1), and it and the
    # ground population move by at most 1 ulp of 1, the scale of a
    # population (in the cancellation 1 - x**2 that is many ulps of rho0)
    p = ps.DriveParams(delta=delta, tau=tau, n_pulses=n_pulses, gamma=gamma,
                       free_time=None if n_pulses else 2.7 * tau)
    horizon = p.n_intervals * tau
    # pulse instants, theta = 0, odd and even m, and t + theta past the
    # last pulse, where m is capped at n_pulses
    dt = tau / sub
    grid = np.arange(p.n_intervals * sub + 1) * dt
    t = np.concatenate([grid, np.asarray(starts) * horizon])
    theta = np.concatenate([grid[:2 * sub + 2], np.asarray(spans) * horizon])

    def reference(t, theta):
        return where_kernel(t, theta, delta, tau, n_pulses, gamma)

    for args in ((t[:, None], theta), (t[:1, None], theta[None, :]),
                 (t[:theta.size], theta[:t.size]), (t[-1], theta[-1]),
                 (float(t[-1]), float(theta[-1])), (np.asarray(t[0]), 0.0)):
        kernel, expected = ps.f_analytic(*args, p), reference(*args)
        assert type(kernel) is type(expected)
        assert np.shape(kernel) == np.shape(expected)
        assert np.array_equal(bits(kernel), bits(expected))
    M = np.arange(n_pulses + 3)
    assert np.all(np.abs(ps.rho0(M, p) - oracle_rho0(M, tau, gamma))
                  <= np.spacing(1.0))
    times = np.clip(t, 0.0, horizon)
    index = np.minimum(np.floor(times / tau + 1e-9).astype(int), n_pulses)
    gg = 1.0 - oracle_rho0(index, tau, gamma) * np.exp(
        -gamma * (times - index * tau))
    assert np.all(np.abs(ps.rho_gg_analytic(times, p) - gg)
                  <= np.spacing(1.0))


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
    assert np.max(np.abs(s.p1 + s.p2 - s.raw_p3.real)) <= 1e-12
    assert np.array_equal(s.q, s.p2 - s.p1)


def mp_blocks(omega, p):
    """P1 and P3 at one frequency in 60-digit arithmetic, from the
    long-time limit of an even train as first written: with
    exp(2*g1*tau) and exp(g0*tau), which overflow a double once
    gamma*tau passes about 709. It drops the end-of-train population
    transient, which is of order x**n_pulses, x = exp(-gamma*tau)."""
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


def pair_blocks(omega, p):
    return mp_pair_blocks(omega, p.delta, p.tau, p.n_pulses, p.n_intervals,
                          p.gamma)


def reference_blocks(omega, p):
    """The long-time transcription where the transient x**n is below
    1e-30, the pair sum everywhere else."""
    transient = math.exp(-p.gamma * p.tau * p.n_pulses)
    if p.n_pulses % 2 == 0 and transient < 1e-30:
        return mp_blocks(omega, p)
    return pair_blocks(omega, p)


def worst_error(p, reference, omegas=None):
    """Largest relative error of closed_blocks on P1 and P3 against
    `reference` at the two ends, the quarters and the middle of the
    default grid, plus `omegas`."""
    grid = ps.make_frequency_grid(p).omegas
    m = grid.size
    nodes = np.append(grid[[0, m // 4, m // 2, 3 * m // 4, m - 1]],
                      [] if omegas is None else omegas)
    got = ps.closed_blocks(nodes, p)
    worst = 0.0
    for k, omega in enumerate(nodes):
        for value, ref in zip(got, reference(omega, p)):
            worst = max(worst, abs(value[k] - ref) / abs(ref))
    return worst


@pytest.mark.parametrize("taus, pulses, bound", [
    # the (tau, n_pulses) pairs of the closed-form benchmark sweep against
    # the pair sum; measured 1.7e-15
    ((0.1, 0.2, 0.4, 0.8), (2, 8, 20, 40, 80), 1e-14),
    # gamma*tau beyond the double's exponent range, against the long-time
    # transcription; measured 4.2e-16
    ((354.0, 400.0, 1e3), (2, 8, 10**9), 5e-16),
    # small tau, where 1 - exp(-2*g1*tau) and the pair-count bracket used
    # to cancel (1.9e-11 at 1e-3), and the same-interval integrals near
    # omega = delta lost 2e-16/|g0*tau| (1.4e-13) before their series;
    # measured 7.1e-16
    ((0.01, 1e-3), (2, 8, 80, 10**9), 1e-15),
], ids=["sweep", "large_tau", "small_tau"])
def test_closed_blocks_match_mpmath(taus, pulses, bound):
    worst = max(worst_error(drive(n, tau=tau), reference_blocks)
                for tau in taus for n in pulses)
    assert worst <= bound


@pytest.mark.parametrize("tau", [0.2, 1.0])
def test_closed_blocks_match_pair_sum_on_every_train(tau):
    # odd, one-pulse and pulse-free trains, which the closed forms used to
    # refuse, and the short even trains whose population transient they
    # dropped (P1 off by 0.136 at 2 pulses); measured 4.8e-16 at tau 0.2
    # and 5.5e-16 at tau 1
    worst = max(worst_error(drive(n, tau=tau,
                                  free_time=2.5 * tau if n == 0 else None),
                            pair_blocks)
                for n in [*range(13), 40, 80])
    assert worst <= 1e-15


@pytest.mark.parametrize("gamma", [1e-17, 1e-300])
def test_closed_blocks_at_vanishing_gamma(gamma):
    # exp(-gamma*tau) rounds to 1: the pulse-free sums divided by 1 - x
    # (ZeroDivisionError), and M*(1 - E) - (1 - E**M) cancelled at the
    # resonances E -> 1 (P1 off by 44 relative at 3 pulses, 0.37 at 8);
    # measured 6.1e-16
    trains = ((0, 0.5), (0, 20.0), (1, None), (3, None), (8, None),
              (20, None))
    worst = max(worst_error(ps.DriveParams(delta=3.0, tau=0.2, n_pulses=n,
                                           gamma=gamma, free_time=free_time),
                            pair_blocks)
                for n, free_time in trains)
    assert worst <= 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tau=st.floats(1e-3, 5.0), delta=st.floats(-10.0, 10.0),
       n_pulses=st.integers(0, 24), periods=st.floats(0.01, 24.0),
       where=st.floats(-1.0, 1.0))
def test_closed_blocks_match_pair_sum_property(tau, delta, n_pulses,
                                               periods, where):
    # measured 7.1e-16; 5.7e-13 at tau 1e-3 and omega = delta before the
    # same-interval integrals took their series below |g0*tau| = 0.1
    p = drive(n_pulses, delta=delta, tau=tau,
              free_time=periods * tau if n_pulses == 0 else None)
    omega = where * 3.0 * math.pi / tau
    assert worst_error(p, pair_blocks, [omega]) <= 2e-15


def test_one_pulse_is_the_pulse_free_run_over_one_period():
    # the pulse at tau ends the protocol, so it acts on nothing
    for tau, delta in ((0.2, 3.0), (0.913, -7.1)):
        one = closed_at(1, delta=delta, tau=tau)
        free = drive(0, delta=delta, tau=tau, free_time=tau)
        free = ps.closed_spectrum(free, ps.make_frequency_grid(free))
        for name in ("p1", "p2", "raw_p1", "raw_p3"):
            a, b = getattr(one, name), getattr(free, name)
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


@pytest.mark.parametrize("long, short", [
    ((1e-3, 1e5), (1.0, 1e5)),
    # 2e8 periods
    ((1e-7, 20.0), (0.2, 20.0)),
])
def test_pulse_free_horizon_of_any_length(long, short):
    # the closed form builds no time grid: both used to be GridTooLarge
    # from the time grid's cell budget. A pulse-free run is one interval
    # over its horizon, here the same double, so the spectra are the same
    fg = ps.make_frequency_grid(omega_min=-10.0, omega_max=10.0,
                                omega_step=0.01)
    spectra = [ps.closed_spectrum(drive(0, tau=tau, free_time=free_time), fg)
               for tau, free_time in (long, short)]
    assert np.all(np.isfinite(spectra[0].q))
    for name in ("q", "raw_p1", "raw_p3"):
        assert np.array_equal(getattr(spectra[0], name),
                              getattr(spectra[1], name))


@pytest.mark.parametrize("gamma", [2.0, 50.0, 1e-17, 1e-300])
@pytest.mark.parametrize("tau", [0.25, 0.2])
def test_closed_form_oracle_matches_pair_sum(tau, gamma):
    # two high-precision evaluations rounded to doubles, so one rounding
    # of each apart
    points = [(0.7, 3.0), (math.pi / tau, 3.0),
              (-2.0 * math.pi / tau + 1e-3, -1.0), (3.0, 3.0)]
    for n in [*range(13), 24]:
        for omega, delta in points:
            n_intervals = n or 3
            exact = mp_closed_blocks(omega, delta, tau, n, n_intervals, gamma)
            pair = mp_pair_blocks(omega, delta, tau, n, n_intervals, gamma)
            for value, ref in zip(exact, pair):
                assert abs(complex(value) - ref) <= 4e-16 * abs(ref)


def test_pair_sum_keeps_its_digits_at_resonance():
    # at omega = delta and gamma*tau = 2.5e-301 the same-interval integrals
    # are differences of order g0*tau**2, g0 = gamma/2, between terms of
    # order tau; at a fixed 60 digits they cancelled to nothing, and P3
    # read 0, 0 and 0.1875
    for n, n_intervals, p3 in ((1, 1, 0.03125), (2, 2, 0.0625),
                               (0, 3, 0.28125)):
        assert mp_pair_blocks(3.0, 3.0, 0.25, n, n_intervals,
                              1e-300)[1] == p3


def test_closed_form_oracle_precision_suffices():
    # the default precision agrees with 1000 digits where the cancellations
    # are deepest: gamma*tau = 1e-300 at omega = delta and on a harmonic,
    # the longest train and a pulse-free run of 2**60 periods; measured
    # 6e-283
    for n, n_intervals, omega in ((2**53, 2**53, 0.0),
                                  (2**53 - 1, 2**53 - 1, 5.0 * math.pi),
                                  (0, 2**60, 0.0), (3, 3, 1e-9)):
        args = (omega, omega, 0.2, n, n_intervals, 5e-300)
        default = mp_closed_blocks(*args)
        with mpmath.workdps(1000):
            finer = mp_closed_blocks(*args, digits=1000)
            for value, ref in zip(default, finer):
                assert abs(value - ref) <= 1e-250 * abs(ref)


@st.composite
def long_runs(draw):
    """(DriveParams, omega): trains up to 2**53 pulses and pulse-free
    horizons up to 2**60 periods, gamma*tau down to 1e-300, and omega
    near a harmonic k*pi/tau, off it by 1e-3 to 1e3 times 1/(M*tau), M
    the pair gaps summed (the periods for a pulse-free run); delta far,
    at omega, or as near."""
    tau = draw(log_uniform(-3, 1))
    gamma = draw(st.one_of(st.just(2.0),
                           log_uniform(-300, 1).map(lambda g: g / tau)))
    n = draw(st.one_of(st.integers(1, 30),
                       log_uniform(1.5, math.log10(2.0**53)).map(int),
                       st.sampled_from([2**53, 2**53 - 1, 0])))
    free_time = (draw(log_uniform(-2, math.log10(2.0**60))) * tau
                 if n == 0 else None)
    p = ps.DriveParams(delta=0.0, tau=tau, n_pulses=n, gamma=gamma,
                       free_time=free_time)
    scale = max(1, (n - 1) // 2 if n else p.n_intervals)
    offset = draw(st.sampled_from([-1.0, 1.0])) * draw(log_uniform(-3, 3))
    omega = (draw(st.integers(-40, 40)) * math.pi + offset / scale) / tau
    delta = draw(st.one_of(st.floats(-10.0, 10.0), st.just(omega),
                           log_uniform(-3, 3).map(
                               lambda d: omega + d / (scale * tau))))
    return dataclasses.replace(p, delta=delta), omega


# the change in P1 or P3 that a one-ulp shift of omega causes, plus one
# rounding of the value, bounds closed_blocks' error times this constant
# (a mixed forward-backward error); measured 3.8, at five ulps of P1 on
# a one-pulse train
ULP_SHIFT_ERROR_BOUND = 5.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(long_runs())
# long trains at small gamma, a few hundred 1/(M*tau) off a harmonic:
# measured 4e-15 and 9.7e-14 relative, where a one-ulp shift of omega
# moves the value by 7e-3 and 3e-11
@example((ps.DriveParams(delta=3.0, tau=0.01, n_pulses=2**53, gamma=1e-17),
          (2.0 * math.pi + 612.0 / (2**52 - 1)) / 0.01))
@example((ps.DriveParams(delta=3.0, tau=1e-3, n_pulses=10**9, gamma=1e-9),
          (2.0 * math.pi + 300.0 / 499999999) / 1e-3))
# gamma*tau = 1e-300 on the longest train, and over 2**60 periods at
# omega = delta
@example((ps.DriveParams(delta=3.0, tau=0.2, n_pulses=2**53, gamma=5e-300),
          (5.0 * math.pi + 37.5 / (2**52 - 1)) / 0.2))
@example((ps.DriveParams(delta=3.0, tau=0.2, n_pulses=0, gamma=5e-300,
                         free_time=0.2 * 2**60), 3.0))
def test_closed_blocks_within_its_conditioning(run):
    p, omega = run
    args = (p.delta, p.tau, p.n_pulses, p.n_intervals, p.gamma)
    exact = mp_closed_blocks(omega, *args)
    shifted = mp_closed_blocks(float(np.nextafter(omega, np.inf)), *args)
    for value, ref, moved in zip(ps.closed_blocks(omega, p), exact, shifted):
        scale = abs(moved - ref) + 2.0**-53 * abs(ref)
        assert abs(complex(value) - ref) <= ULP_SHIFT_ERROR_BOUND * scale
