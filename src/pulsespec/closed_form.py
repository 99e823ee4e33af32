"""Exact closed-form spectrum of the pulsed emitter, at any train length.

The excited population relaxes exactly between pulses and is swapped by
each pulse, which gives it in closed form at any time; the kernel
f(t, theta) that carries the ge element across pulses is piecewise
exponential with a phase confined to [-delta*tau, delta*tau]; so the
double Fourier integrals collapse into geometric sums over pairs of
intervals. They cover every train, odd, one-pulse and pulse-free
included, and keep the population transient at every length. omega may
be a scalar or an array; validate's node references live in validation.
"""
from __future__ import annotations

import math

import numpy as np

from .core import DriveParams, FrequencyGrid, Spectrum, build_meta, two_prod


def closed_blocks(omega, p: DriveParams):
    """Exact (P1, P3) at omega for every DriveParams: P1 is the emission
    side, P3 = P1 + P2 the total.

    Both sum over pairs of intervals a <= b < n = p.n_pulses; without
    pulses the kernel never breaks, so the horizon p.n_intervals*tau is
    one interval, the one-pulse train of that period. Interval a starts
    with the excited population pop(a) = rho0(a) = c0 + (1 - c0)*r**a,
    (c0, r) = (1/(1 + x), -x), x = exp(-gamma*tau). The kernel vanishes
    across an odd number of pulses and gains E = exp(-2*g1*tau) every 2
    intervals. With g0 = i*(omega - delta) + gamma/2, g1 = i*omega +
    gamma/2, g2 = g0 - gamma, M = (n - 1)//2,

        P1 = same1 sum_{a<n} pop(a)
             + a1*b sum_{m=1..M} E**m sum_{a<n-2*m} pop(a),
        P3 = same3 n + a3*b sum_{m=1..M} E**m (n - 2*m),

    same1 = int_0^tau ds exp(-gamma*s) int_s^tau du exp(-g0*(u - s)),
    same3 the same without exp(-gamma*s), and a1, a3, b the integrals over
    [0, tau] of exp(g2*s), exp(g0*s), exp(-g0*u). The sums are geometric,
    and x**2/E = conj(E). a3*b*E = exp((g0 - 2*g1)*tau)*b**2: no exponent
    has a positive real part, so nothing overflows at large tau. P3
    behaves as n*tau/g0 at large |omega|.
    """
    gamma = p.gamma
    tau, n = (p.tau, p.n_pulses) if p.n_pulses else (p.n_intervals * p.tau, 1)
    omega = np.asarray(omega, dtype=float)
    g0 = 1j * (omega - p.delta) + 0.5 * gamma
    g2 = g0 - gamma
    x = math.exp(-gamma * tau)
    # 1 - x and 1 - exp(-g0*tau) from expm1, exact as tau -> 0
    x_gap = -math.expm1(-gamma * tau)
    b = -np.expm1(-g0 * tau) / g0
    a1 = np.expm1(g2 * tau) / g2
    same1 = (x_gap / gamma - (1.0 - g0 * b) * a1) / g0
    same3 = (tau - b) / g0
    if 0.5 * gamma * tau < 0.1:
        # both cancel as 2e-16/|g0*tau|; below |g0*tau| = 0.1 they are the
        # triangle integrals tau**2 sum_k h_k(u, v)/(k + 2)!, h_k the complete
        # homogeneous polynomial, v = -g0*tau and u = -gamma*tau or 0
        near = np.abs(g0 * tau) < 0.1
        v = np.where(near, -g0 * tau, 0.0)
        u = np.reshape([-gamma * tau, 0.0], (2,) + (1,) * v.ndim)
        h, series = 1.0, 0.0
        for k in range(14):
            series = series + h / math.factorial(k + 2)
            h = v * h + u ** (k + 1)
        same1, same3 = np.where(near, tau * tau * series, (same1, same3))
    c0, r = 1.0 / (1.0 + x), -x
    # E = exp(z), z = -(gamma*tau + 2i*omega*tau) with omega*tau reduced by
    # whole multiples of pi from its error-free product, so that expm1 keeps
    # 1 - E at every resonance; 1.2246467991473532e-16 is pi - math.pi
    hi, lo = two_prod(omega, tau)
    turns = np.rint(hi / math.pi)
    c_hi, c_lo = two_prod(turns, math.pi)
    phase = (hi - c_hi) + (lo - c_lo - turns * 1.2246467991473532e-16)
    z = -(gamma * tau + 2j * phase)
    # s = sum_{k<M} E**k and d = sum_{k<M} (M - 1 - k)*E**k from expm1
    m = (n - 1) // 2
    e_gap, em_gap = np.expm1(z), np.expm1(m * z)
    s = em_gap / e_gap
    d = (m - s) / -e_gap
    if m and m * gamma * tau < 0.5:
        # d = -(M*(E - 1) - (E**M - 1))/(E - 1)**2 cancels as 2e-16/|M*z|;
        # below |M*z| = 1/2 its numerator is a Taylor series over z**2
        near = np.abs(m * z) < 0.5
        y = np.where(near, z, 0.0)
        series = sum((m - m ** (k + 2.0)) * y ** k / math.factorial(k + 2)
                     for k in range(17))
        scale = np.where(near, e_gap, 1.0) / np.where(near, z, 1.0)
        d = np.where(near, -series / (scale * scale), d)[()]
    # sum_{k<M} E**k (n - 2*(k+1)) and sum_{k<M} E**(k+1) (1 - r**(n -
    # 2*(k+1))), with sum_{k<M} (r**2/E)**k = conj(s)
    counts = 2 * d + (n - 2 * m) * s
    transient = ((1.0 + e_gap) * s
                 - r ** (n - 2 * m) * (1.0 + em_gap) * s.conj())
    p1 = (same1 * (c0 * n + (1.0 - c0) * (1.0 - r ** n) / (1.0 - r))
          + a1 * b * (c0 * (1.0 + e_gap) * counts
                      + (1.0 - c0) / (1.0 - r) * transient))
    p3 = same3 * n + np.exp(g0 * tau + z) * b * b * counts
    return p1, p3


def closed_spectrum(p: DriveParams, fg: FrequencyGrid) -> Spectrum:
    """Evaluate the closed forms on a frequency grid.

    p1 = Re{P1}, p2 = Re{P3 - P1}, and the net absorption
    q = p2 - p1 = Re{P3 - 2*P1}, in units of the probe factor 2*A**2.

    An omega or tau past about 1e300 (the phase's error-free product) or
    a gamma*tau past the double's range overflows; numpy's warnings are
    silenced so that NonFiniteSpectrum is the one signal.
    """
    with np.errstate(all="ignore"):
        raw_p1, raw_p3 = closed_blocks(fg.omegas, p)
        raw_p2 = raw_p3 - raw_p1
        return Spectrum(omegas=fg.omegas.copy(), p1=raw_p1.real.copy(),
                        p2=raw_p2.real.copy(), raw_p1=raw_p1, raw_p2=raw_p2,
                        raw_p3=raw_p3,
                        meta=build_meta(p, fg, "closed_form"))
