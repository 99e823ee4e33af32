"""Long-time closed-form spectrum of the pulsed emitter.

Everything here follows from three ingredients: the excited population
relaxes exactly between pulses and is swapped by each pulse, which gives
a closed expression for the populations at any time; the correlator
kernel f(t, theta) propagating the ge element across pulse boundaries is
piecewise exponential with a phase confined to [-delta*tau, delta*tau];
and the double Fourier integrals then collapse into geometric sums. One
function evaluates both spectral building blocks per frequency from a
single set of exponentials shared across their terms, and none of those
exponentials grows with tau, so the closed forms hold at any tau.

The closed forms require an even pulse count of at least two: the
geometric resummation pairs consecutive intervals. The numeric engine
has no such restriction.

All operations accept a scalar frequency or an array (elementwise).
"""
from __future__ import annotations

import math

import numpy as np

from .core import (DriveParams, FrequencyGrid, PulsespecError, Spectrum,
                   build_meta)


class NegativeM(PulsespecError):
    pass


class OutOfRangeT(PulsespecError):
    pass


class NegativeTheta(PulsespecError):
    pass


class OddPulseCount(PulsespecError):
    pass


class TooFewPulses(PulsespecError):
    pass


def _interval_index(t, tau: float):
    # a time exactly at a pulse instant belongs to the later interval
    return np.floor(np.asarray(t, dtype=float) / tau + 1e-9).astype(int)


def rho0(M, p: DriveParams):
    """Excited population right after pulse M (M = 0 is the initial state).

    Equals (1 - (-x)**(M+1)) / (1 + x) with x = exp(-gamma*tau); the value
    lies in (0, 1] and tends to 1/(1 + x) for large M.
    """
    M = np.asarray(M)
    if np.any(M < 0):
        raise NegativeM(f"M must be >= 0, got {np.min(M)}")
    x = math.exp(-p.gamma * p.tau)
    return (1.0 - (-x) ** (M + 1)) / (1.0 + x)


def rho_gg_analytic(t, p: DriveParams):
    """Ground population at time t in [0, n_pulses*tau], post-pulse
    convention at the pulse instants."""
    t = np.asarray(t, dtype=float)
    horizon = p.n_pulses * p.tau
    outside = (t < 0) | (t > horizon + 1e-9 * max(1.0, horizon))
    if np.any(outside):
        raise OutOfRangeT(f"t = {t[outside][0]} outside [0, {horizon}]")
    M = _interval_index(t, p.tau)
    elapsed = t - M * p.tau
    return 1.0 - rho0(M, p) * np.exp(-p.gamma * elapsed)


def f_analytic(t, theta, p: DriveParams):
    """Propagation kernel of the ge element from t to t + theta.

    With m the number of pulses in (t, t + theta] (pulse instants count to
    the later side): the same-interval branch is exp((i*delta -
    gamma/2)*theta); odd m annihilates the kernel; even m >= 2 gives
    exp(-gamma*theta/2) * exp(i*delta*(theta - m*tau)), with the phase
    argument theta - m*tau confined to [-tau, tau].
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise NegativeTheta(f"theta must be >= 0, got {np.min(theta)}")
    lo = np.minimum(_interval_index(t, p.tau), p.n_pulses)
    hi = np.minimum(_interval_index(t + theta, p.tau), p.n_pulses)
    m = hi - lo
    same = np.exp((1j * p.delta - 0.5 * p.gamma) * theta)
    paired = (np.exp(-0.5 * p.gamma * theta)
              * np.exp(1j * p.delta * (theta - m * p.tau)))
    # [()] turns the 0-d result of scalar inputs into a scalar
    return np.where(m == 0, same, np.where(m % 2 == 1, 0.0j, paired))[()]


def closed_blocks(omega, p: DriveParams):
    """Long-time building blocks (P1, P3) at omega: P1 is the emission
    side, P3 = P1 + P2 the total.

    With g0 = i*(omega - delta) + gamma/2, g1 = i*omega + gamma/2,
    g2 = g0 - gamma and x = exp(-gamma*tau), the exponentials are
    expm1(-g0*tau), e1 = exp(-2*g1*tau), the phase u = exp(2i*omega*tau),
    exp((g0 - 2*g1)*tau), exp(-n_pulses*g1*tau) and expm1(g2*tau). No
    exponent has a positive real part, so nothing overflows at large tau.
    Every denominator is g0 (real part gamma/2), 1 - e1 or 1 - x*u, and
    the last two are at least 1 - x in magnitude, so both blocks are
    finite at every real frequency. P3 behaves as n_pulses*tau/g0 at
    large |omega|; its other terms carry an extra 1/g0.
    """
    if p.n_pulses % 2 != 0:
        raise OddPulseCount(
            f"closed forms need an even pulse count, got {p.n_pulses}")
    if p.n_pulses < 2:
        raise TooFewPulses(
            f"closed forms need at least 2 pulses, got {p.n_pulses}")
    tau, n = p.tau, p.n_pulses
    omega = np.asarray(omega, dtype=float)
    g0 = 1j * (omega - p.delta) + 0.5 * p.gamma
    g1 = 1j * omega + 0.5 * p.gamma
    g2 = g0 - p.gamma
    x = math.exp(-p.gamma * tau)
    # 1 - x and 1 - exp(-g0*tau) from expm1, which keeps their digits as
    # tau -> 0
    x_gap = -math.expm1(-p.gamma * tau)
    e0_gap = -np.expm1(-g0 * tau)
    e1 = np.exp(-2.0 * g1 * tau)
    u = np.exp(2j * omega * tau)
    growth = np.expm1(g2 * tau) / g2
    en = np.exp(-n * g1 * tau)
    # the geometric sum over pulse pairs, common to both blocks
    pairs = (1.0 - en) / (1.0 - e1)
    h = growth * e0_gap * e1 / (1.0 - e1)
    g = x_gap / p.gamma - (1.0 - e0_gap) * growth + h
    r = 2.0 * pairs + x_gap * u * en / (1.0 - x * u)
    p1 = (g * (n + x / (1.0 + x)) - h * r) / ((1.0 + x) * g0)
    # (exp(g0*tau) + exp(-g0*tau) - 2) * e1 as a product, without the
    # cancellation of the sum
    p3 = (n * tau / g0
          - n / g0 ** 2 * e0_gap
          + np.exp((g0 - 2.0 * g1) * tau) * e0_gap ** 2
          / (g0 ** 2 * (1.0 - e1)) * (n - 2.0 * pairs))
    return p1, p3


def closed_spectrum(p: DriveParams, fg: FrequencyGrid) -> Spectrum:
    """Evaluate the closed forms on a frequency grid.

    p1 = 2*amp**2 * Re{P1}, p2 = 2*amp**2 * Re{P3 - P1}, and the net
    absorption q = p2 - p1 = 2*amp**2 * Re{P3 - 2*P1}.
    """
    raw_p1, raw_p3 = closed_blocks(fg.omegas, p)
    raw_p2 = raw_p3 - raw_p1
    scale = 2.0 * p.amp * p.amp
    p1 = scale * raw_p1.real
    p2 = scale * raw_p2.real
    return Spectrum(omegas=fg.omegas.copy(), p1=p1, p2=p2,
                    raw_p1=raw_p1, raw_p2=raw_p2, raw_p3=raw_p3,
                    meta=build_meta(p, fg, "closed_form"))
