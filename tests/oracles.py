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
import mpmath
import numpy as np


def oracle_rho0(m, tau, gamma=2.0):
    """Post-pulse excited population at the start of interval m."""
    x = np.exp(-gamma * tau)
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
