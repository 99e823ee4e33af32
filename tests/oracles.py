"""Independent brute-force quadrature oracle for the spectrum integrals.

Everything here is rebuilt directly from the analytic excitation profile
and the piecewise correlator kernel, with no imports from the package,
so the engines can be checked against an outside reference. The
two-dimensional trapezoid averages the one-sided limits at every pulse
crossing on both axes; without that the rule degrades to first order in
dt at the jumps and the comparison is meaningless at these tolerances.
The 60-digit pair sum does the same integrals exactly, interval by
interval.
"""
import math

import mpmath
import numpy as np


def oracle_rho0(m, tau, gamma=2.0):
    """Post-pulse excited population at the start of interval m, with the
    power taken of the negative base -x, x = exp(-gamma*tau)."""
    x = math.exp(-gamma * tau)
    return (1.0 - (-x) ** (np.asarray(m) + 1)) / (1.0 + x)


def oracle_kernel(m, theta, tau, delta, gamma=2.0):
    """Correlator kernel on branch index m (array-safe); odd m gives 0.

    Even m covers the same-interval branch too: m = 0 reduces to
    exp((i*delta - gamma/2) * theta).
    """
    m = np.asarray(m)
    return np.where(m % 2 == 0,
                    np.exp(-gamma * theta / 2.0)
                    * np.exp(1j * delta * (theta - m * tau)),
                    0.0)


def where_kernel(t, theta, delta, tau, n_pulses, gamma=2.0):
    """The kernel f(t, theta) with both branches formed over the whole
    broadcast and picked by np.where.

    m counts the pulses in (t, t + theta], a pulse instant on the later
    side and the count capped at n_pulses; m = 0 is the same-interval
    branch, and odd m gives 0. Scalar inputs give a scalar.
    """
    theta = np.asarray(theta, dtype=float)

    def interval(s):
        return np.minimum(np.floor(np.asarray(s, dtype=float) / tau + 1e-9)
                          .astype(int), n_pulses)

    m = interval(t + theta) - interval(t)
    same = np.exp((1j * delta - 0.5 * gamma) * theta)
    paired = (np.exp(-0.5 * gamma * theta)
              * np.exp(1j * delta * (theta - m * tau)))
    return np.where(m == 0, same, np.where(m % 2 == 1, 0.0j, paired))[()]


def brute_integrals(omegas, delta, tau, n_pulses, n_sub, gamma=2.0):
    """Jump-averaged 2D trapezoid of the three spectrum integrals.

    Returns (P1, P2, P3) as complex arrays over omegas, computed on the
    pulse-aligned grid dt = tau / n_sub.
    """
    dt = tau / n_sub
    n_nodes_last = n_pulses * n_sub
    idx = np.arange(n_nodes_last + 1)
    ts = idx * dt
    interval = idx // n_sub
    ree_post = oracle_rho0(interval, tau, gamma) * np.exp(
        -gamma * (ts - interval * tau))
    thetas = ts
    s1 = np.zeros(n_nodes_last + 1, dtype=complex)
    s2 = np.zeros(n_nodes_last + 1, dtype=complex)
    s3 = np.zeros(n_nodes_last + 1, dtype=complex)

    for i in range(n_nodes_last):
        length = n_nodes_last - i
        js = np.arange(length + 1)
        absolute = i + js
        th = thetas[: length + 1]
        wt = dt * (0.5 if i == 0 else 1.0)
        is_pulse_t = (i % n_sub == 0) and i > 0
        crossing = (absolute % n_sub == 0) & (js > 0) & (js < length)

        # Right-limit row in t (the stored, post-pulse trajectory value).
        m_post = absolute // n_sub - i // n_sub
        f = oracle_kernel(m_post, th, tau, delta, gamma)
        if crossing.any():
            f = f.copy()
            f[crossing] = 0.5 * (f[crossing] + oracle_kernel(
                m_post[crossing] - 1, th[crossing], tau, delta, gamma))
        f[length] = oracle_kernel(m_post[length] - 1, th[length],
                                  tau, delta, gamma)
        w_theta = np.full(length + 1, dt)
        w_theta[0] *= 0.5
        w_theta[-1] *= 0.5
        w = (0.5 * wt if is_pulse_t else wt) * w_theta * f
        s1[: length + 1] += w * ree_post[i]
        s2[: length + 1] += w * (1.0 - ree_post[i])
        s3[: length + 1] += w

        if is_pulse_t:
            # Left-limit companion row: one pulse fewer behind t, and the
            # crossing at t + theta on a pulse node moves to the earlier
            # interval as well.
            m_pre = (absolute // n_sub - (i // n_sub - 1)
                     - (absolute % n_sub == 0).astype(int))
            f = oracle_kernel(m_pre, th, tau, delta, gamma)
            if crossing.any():
                f = f.copy()
                f[crossing] = 0.5 * (f[crossing] + oracle_kernel(
                    m_pre[crossing] + 1, th[crossing], tau, delta, gamma))
            w = 0.5 * wt * w_theta * f
            ree_pre = 1.0 - ree_post[i]
            s1[: length + 1] += w * ree_pre
            s2[: length + 1] += w * (1.0 - ree_pre)
            s3[: length + 1] += w

    phases = np.exp(-1j * np.outer(thetas, np.asarray(omegas)))
    return s1 @ phases, s2 @ phases, s3 @ phases


def mp_pair_blocks(omega, delta, tau, n_pulses, n_intervals, gamma=2.0):
    """P1 and P3 at one frequency in 60-digit arithmetic, summed term by
    term over every pair of intervals a <= b < n_intervals: O(n**2) terms
    and no geometric resummation.

    Pair (a, b) integrates, over s and u in [0, tau] with u >= s when
    a == b, the excited population at a*tau + s (for P1; 1 for P3) times
    exp(-i*omega*theta) times the kernel across theta = (b - a)*tau + u
    - s. With pulses the population is oracle_rho0(a)*exp(-gamma*s) and
    the kernel is oracle_kernel on branch b - a; without pulses they are
    exp(-gamma*(a*tau + s)) and exp((i*delta - gamma/2)*theta).
    """
    with mpmath.workdps(60):
        tau, gamma = mpmath.mpf(tau), mpmath.mpf(gamma)
        g0 = 1j * (mpmath.mpf(omega) - mpmath.mpf(delta)) + gamma / 2
        g1 = 1j * mpmath.mpf(omega) + gamma / 2
        x = mpmath.exp(-gamma * tau)

        def integral(c):
            """int_0^tau exp(c*s) ds"""
            return tau if c == 0 else mpmath.expm1(c * tau) / c

        # [P1, P3]: weight exp(-k*gamma*s) at offset s, k = 1 and 0
        same = [(integral(-k * gamma)
                 - mpmath.exp(-g0 * tau) * integral(g0 - k * gamma)) / g0
                for k in (1, 0)]
        cross = [integral(g0 - k * gamma) * integral(-g0) for k in (1, 0)]
        if n_pulses:
            pops = [(1 - (-x) ** (a + 1)) / (1 + x)
                    for a in range(n_intervals)]
            factors = [0 if m % 2 else mpmath.exp(-g1 * m * tau)
                       for m in range(n_intervals)]
        else:
            pops = [x ** a for a in range(n_intervals)]
            factors = [mpmath.exp(-g0 * m * tau) for m in range(n_intervals)]
        blocks = [mpmath.mpc(0), mpmath.mpc(0)]
        for a in range(n_intervals):
            for k, weight in enumerate((pops[a], 1)):
                blocks[k] += weight * same[k]
                for b in range(a + 1, n_intervals):
                    if factors[b - a]:
                        blocks[k] += weight * factors[b - a] * cross[k]
        return complex(blocks[0]), complex(blocks[1])


def mp_closed_blocks(omega, delta, tau, n_pulses, n_intervals, gamma=2.0,
                     digits=None):
    """P1 and P3 at one frequency, as mpmath complex numbers, from the
    interval-pair algebra that closed_blocks sums: over the pairs of
    intervals a <= b < n, the same-interval integrals times the
    populations, plus every even gap 2*m times E**m, E = exp(-2*g1*tau).
    Each geometric series is summed by its exact formula, q*(1 - q**K)/(1
    - q) and the one with weights j, with no expm1 and no Taylor branch.
    A pulse-free run is the one-pulse train over its horizon, the double
    n_intervals*tau.

    The factors that cancel are 1 - E, 1 - E/x**2, 1 - x**K, g0*tau and
    the difference of the two transient series, each at least about
    gamma*tau/3 (|E| = x = exp(-gamma*tau) < 1); the weighted series loses
    twice their digits. So the default precision is 90 digits plus twice
    the decades of 1/(gamma*tau), 690 at gamma*tau = 1e-300.
    """
    n, tau = (n_pulses, tau) if n_pulses else (1, n_intervals * tau)
    if digits is None:
        decades = -mpmath.log10(mpmath.mpf(gamma) * mpmath.mpf(tau))
        digits = 90 + 2 * max(0, int(mpmath.ceil(decades)))
    with mpmath.workdps(digits):
        tau, gamma = mpmath.mpf(tau), mpmath.mpf(gamma)
        g0 = mpmath.mpc(gamma / 2, mpmath.mpf(omega) - mpmath.mpf(delta))
        g1 = mpmath.mpc(gamma / 2, omega)
        g2 = g0 - gamma
        x = mpmath.exp(-gamma * tau)
        r, c0 = -x, 1 / (1 + x)
        e = mpmath.exp(-2 * g1 * tau)

        def geometric(q, k):
            """sum_{j=1..k} q**j"""
            return q * (1 - q ** k) / (1 - q)

        def weighted(q, k):
            """sum_{j=1..k} j*q**j"""
            return (q * (1 - (k + 1) * q ** k + k * q ** (k + 1))
                    / (1 - q) ** 2)

        def pops(k):
            """sum_{a<k} pop(a), pop(a) = c0 + (1 - c0)*r**a"""
            return c0 * k + (1 - c0) * (1 - r ** k) / (1 - r)

        a1 = (mpmath.exp(g2 * tau) - 1) / g2
        a3 = (mpmath.exp(g0 * tau) - 1) / g0
        b = (1 - mpmath.exp(-g0 * tau)) / g0
        same1 = ((1 - x) / gamma - mpmath.exp(-g0 * tau) * a1) / g0
        same3 = (tau - b) / g0
        m = (n - 1) // 2
        # sum_{j=1..M} E**j (n - 2*j), and sum_{j=1..M} E**j (1 - r**(n -
        # 2*j)), r**2 = x**2
        counts = n * geometric(e, m) - 2 * weighted(e, m)
        transient = geometric(e, m) - r ** n * geometric(e / x ** 2, m)
        p1 = (same1 * pops(n)
              + a1 * b * (c0 * counts + (1 - c0) / (1 - r) * transient))
        p3 = same3 * n + a3 * b * counts
        return p1, p3
