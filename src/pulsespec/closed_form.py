"""Long-time closed-form spectrum of the pulsed emitter.

Everything here follows from three ingredients: the excited population
relaxes exactly between pulses and is swapped by each pulse, which gives
a closed expression for the populations at any time; the correlator
kernel f(t, theta) propagating the ge element across pulse boundaries is
piecewise exponential with a phase confined to [-delta*tau, delta*tau];
and the double Fourier integrals then collapse into geometric sums. The
spectral building blocks are evaluated per frequency from three
gamma-parameters; each formula computes its exponentials once per
frequency and reuses them across terms, which avoids cancellation drift
between the sum pieces.

The closed forms require an even pulse count of at least two: the
geometric resummation pairs consecutive intervals. The numeric engine
has no such restriction.

All operations accept a scalar frequency or an array (elementwise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class GammaTriple:
    """The three complex rates entering every closed form.

    g0 = i*(omega - delta) + gamma/2
    g1 = i*omega + gamma/2
    g2 = g0 - gamma (the identity g2 - g0 + gamma = 0 holds exactly)
    """

    g0: complex
    g1: complex
    g2: complex


def gammas(omega, p: DriveParams) -> GammaTriple:
    g0 = 1j * (np.asarray(omega, dtype=float) - p.delta) + 0.5 * p.gamma
    g1 = 1j * np.asarray(omega, dtype=float) + 0.5 * p.gamma
    return GammaTriple(g0=g0, g1=g1, g2=g0 - p.gamma)


def _require_closed_form_pulses(p: DriveParams) -> None:
    if p.n_pulses % 2 != 0:
        raise OddPulseCount(
            f"closed forms need an even pulse count, got {p.n_pulses}")
    if p.n_pulses < 2:
        raise TooFewPulses(
            f"closed forms need at least 2 pulses, got {p.n_pulses}")


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


def p1_closed(omega, p: DriveParams):
    """Long-time emission-side building block P1(omega).

    Finite for every real frequency: all denominators contain either g0,
    g1 (real part gamma/2 > 0) or the factor exp(2*g1*tau) - 1 whose
    magnitude is bounded below by exp(gamma*tau) - 1.
    """
    _require_closed_form_pulses(p)
    tau, n = p.tau, p.n_pulses
    tr = gammas(omega, p)
    x = math.exp(-p.gamma * tau)
    e_g0 = np.exp(-tr.g0 * tau)
    e_2g1 = np.exp(2.0 * tr.g1 * tau)
    e_ng1 = np.exp(-n * tr.g1 * tau)
    growth = (np.exp(tr.g2 * tau) - 1.0) / tr.g2
    h = growth * (1.0 - e_g0) / (e_2g1 - 1.0)
    g = (1.0 - x) / p.gamma - e_g0 * growth + h
    r = (2.0 * (e_ng1 - 1.0) / (1.0 / e_2g1 - 1.0)
         + (x - x * x) * e_ng1 / (1.0 / e_2g1 - x * x))
    return (g * (n + x / (1.0 + x)) - h * r) / ((1.0 + x) * tr.g0)


def p3_closed(omega, p: DriveParams):
    """Long-time total building block P3(omega) = P1 + P2.

    The leading behaviour at large |omega| is n_pulses*tau/g0; the
    remaining terms carry an extra 1/g0 suppression.
    """
    _require_closed_form_pulses(p)
    tau, n = p.tau, p.n_pulses
    tr = gammas(omega, p)
    e_g0 = np.exp(-tr.g0 * tau)
    e_2g1 = np.exp(2.0 * tr.g1 * tau)
    e_ng1 = np.exp(-n * tr.g1 * tau)
    bracket = n - 2.0 * (1.0 - e_ng1) / (1.0 - 1.0 / e_2g1)
    return (n * tau / tr.g0
            - n / tr.g0 ** 2 * (1.0 - e_g0)
            + (np.exp(tr.g0 * tau) + e_g0 - 2.0)
            / (tr.g0 ** 2 * (e_2g1 - 1.0)) * bracket)


def closed_spectrum(p: DriveParams, fg: FrequencyGrid) -> Spectrum:
    """Evaluate the closed forms on a frequency grid.

    p1 = 2*amp**2 * Re{P1}, p2 = 2*amp**2 * Re{P3 - P1}, and the net
    absorption q = p2 - p1 = 2*amp**2 * Re{P3 - 2*P1}.
    """
    _require_closed_form_pulses(p)
    raw_p1 = np.asarray(p1_closed(fg.omegas, p), dtype=complex)
    raw_p3 = np.asarray(p3_closed(fg.omegas, p), dtype=complex)
    raw_p2 = raw_p3 - raw_p1
    scale = 2.0 * p.amp * p.amp
    p1 = scale * raw_p1.real
    p2 = scale * raw_p2.real
    return Spectrum(omegas=fg.omegas.copy(), p1=p1, p2=p2,
                    raw_p1=raw_p1, raw_p2=raw_p2, raw_p3=raw_p3,
                    meta=build_meta(p, fg, "closed_form"))
