"""The checks of `validate` and the exact node references they read.
Only `core` is imported: the checks read the arrays the numeric engine
hands them, and the references share no table with either engine."""
from __future__ import annotations

import math

import numpy as np

from .core import DriveParams, PulsespecError, Spectrum, TimeGrid

L2_REL_TOLERANCE = 0.05
SUM_RULE_TOLERANCE = 0.05
REFINEMENT_HINT = ("the engines disagree: the quadrature is too coarse "
                   "(increase substeps, a smaller dt)")


class NegativeM(PulsespecError):
    pass


class OutOfRangeT(PulsespecError):
    pass


class NegativeTheta(PulsespecError):
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
    # (-x)**(M+1) as a sign times x**(M+1): numpy's power takes a scalar
    # path, about 17x slower, for a negative base
    return (1.0 + (1 - 2 * (M % 2)) * x ** (M + 1)) / (1.0 + x)


def rho_gg_analytic(t, p: DriveParams):
    """Ground population at time t in [0, n_intervals*tau], post-pulse
    convention at the pulse instants; a pulse-free run is one interval."""
    t = np.asarray(t, dtype=float)
    horizon = p.n_intervals * p.tau
    outside = (t < 0) | (t > horizon + 1e-9 * max(1.0, horizon))
    if np.any(outside):
        raise OutOfRangeT(f"t = {t[outside][0]} outside [0, {horizon}]")
    M = np.minimum(_interval_index(t, p.tau), p.n_pulses)
    elapsed = t - M * p.tau
    return 1.0 - rho0(M, p) * np.exp(-p.gamma * elapsed)


def f_analytic(t, theta, p: DriveParams):
    """Propagation kernel of the ge element from t to t + theta.

    With m the number of pulses in (t, t + theta] (pulse instants count to
    the later side): the same-interval branch is exp((i*delta -
    gamma/2)*theta); odd m annihilates the kernel; even m >= 2 gives
    exp(-gamma*theta/2) * exp(i*delta*(theta - m*tau)), with the phase
    argument theta - m*tau confined to [-tau, tau]. t and theta broadcast;
    the same-interval factor is evaluated on theta's own shape and copied
    into the m = 0 cells, the even-m factor only on the cells with even
    m >= 2, and the other cells are exact zeros.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise NegativeTheta(f"theta must be >= 0, got {np.min(theta)}")
    m = np.minimum(_interval_index(t + theta, p.tau), p.n_pulses)
    m -= np.minimum(_interval_index(t, p.tau), p.n_pulses)
    kernel = np.zeros(m.shape, dtype=complex)
    np.copyto(kernel, np.exp((1j * p.delta - 0.5 * p.gamma) * theta),
              where=m == 0)
    paired = ((m & 1) == 0) & (m > 0)
    theta, m = np.broadcast_to(theta, m.shape)[paired], m[paired]
    kernel[paired] = (np.exp(-0.5 * p.gamma * theta)
                      * np.exp(1j * p.delta * (theta - m * p.tau)))
    # [()] turns the 0-d result of scalar inputs into a scalar
    return kernel[()]


def check_table(checks: dict) -> dict:
    """{name: {"value", "tolerance", "pass"}} from {name: (value, tol)}."""
    return {name: {"value": value, "tolerance": tol,
                   "pass": bool(value <= tol)}
            for name, (value, tol) in checks.items()}


def node_checks(p: DriveParams, g: TimeGrid,
                traj: np.ndarray, kernel: np.ndarray) -> dict:
    """Node-level checks of the propagation against exact identities:
    traj and kernel are the arrays the quadrature reads, the outputs of
    propagate_trajectory and build_correlator_grids on g, and are only
    read. The populations are checked at the interval starts, the pulse
    instants, in O(n_intervals), and every kernel entry in O(n_sub)."""
    ee, gg = traj.T
    trace_dev = float(np.max(np.abs(ee + gg - 1.0)))
    n_sub, last = g.substeps_per_interval, g.n_nodes - 1
    starts = np.arange(0, last + 1, n_sub) * g.dt
    population_dev = float(np.max(np.abs(gg - rho_gg_analytic(starts, p))))
    # Entry (m, c), theta = (c + 1)*dt after m swaps, is read from start
    # node r < n_sub as the value at node r + c + 1 where that node has
    # floor m: r = m*n_sub - c - 1, clipped to a residue, reads it first.
    # Elsewhere it is read as the left limit there, f_analytic at
    # theta - dt times the free step: r = m*n_sub - c, clipped, reads it
    # first. Row 2 at theta = tau is read by the companion alone, which
    # starts before a pulse: swap, one interval, swap, so conj(free[0])
    # once two pulses fire, with no division, which is 0/0 once free[0]
    # underflows. No node reads row 0 past tau, the free rotation, which
    # the last node, after every pulse, gives; nor row 2 below tau, 0
    # with pulses, which its nearest node gives, one swap on.
    free = np.exp((1j * p.delta - 0.5 * p.gamma) * np.array([p.tau, g.dt]))
    m = np.arange(3)[:, None]
    c = np.arange(2 * n_sub)
    start = np.clip(m * n_sub - c - 1, 0, n_sub - 1)
    before = np.clip(m * n_sub - c, 0, n_sub - 1)
    is_left = ((start + c + 1) // n_sub != m) & ((before + c) // n_sub == m)
    start = np.where(is_left, before, start) * g.dt
    start[0, n_sub:] = last * g.dt
    ref = f_analytic(start, (c + 1 - is_left) * g.dt, p)
    ref[is_left] *= free[1]
    if p.n_pulses >= 2:
        ref[2, n_sub - 1] = free[0].conj()
    # np.max keeps a NaN, so it fails the check
    ref -= kernel
    factor_dev = float(np.max(np.abs(ref)))
    return check_table({
        "trace": (trace_dev, 1e-12),
        "population_vs_analytic": (population_dev, 1e-10),
        "correlator_factorization": (factor_dev, 1e-9),
    })


def agreement_checks(metrics: dict, s_num: Spectrum,
                     s_closed: Spectrum) -> tuple[dict, str | None]:
    """The l2_rel and sum-rule checks of the numeric spectrum against the
    closed form, and the refinement hint, None when both pass."""
    total_closed = s_closed.raw_p3.real
    total_numeric = (s_num.raw_p1 + s_num.raw_p2).real
    sum_rule_rel = float(np.linalg.norm(total_numeric - total_closed)
                         / np.linalg.norm(total_closed))
    checks = check_table({
        "l2_rel": (metrics["l2_rel"], L2_REL_TOLERANCE),
        "sum_rule": (sum_rule_rel, SUM_RULE_TOLERANCE)})
    agree = checks["l2_rel"]["pass"] and checks["sum_rule"]["pass"]
    return checks, None if agree else REFINEMENT_HINT
