"""Quadrature assembly of the numeric spectrum from propagator rows.

The double integral over (t, theta) is a trapezoidal rule on both axes
honoring the ragged theta ranges [0, T - t_i]. At pulse crossings the
integrands are discontinuous; every interior crossing node takes the
average of the two one-sided limits, the final theta node of a row takes
the left limit, and every interior pulse time combines the post-pulse
row with its pre-pulse companion at half weight each. This keeps the
composite rule second order in dt; sampling a single side of each jump
degrades it to first order. `correlators.build_correlator_grids`
returns both one-sided limits, the companion included, as one pair.

Every correlator row is a population from the trajectory times one of
the n_sub residue rows or the companion, which depend on the grid alone,
so the sum over t at fixed theta_j groups by row: each propagator row is
multiplied by the running sum of the weighted populations of the t nodes
whose theta range reaches past j. The final node of each range carries a
half weight and the left limit; it is the next node of its row, so it
extends that row's running sum by one node. The rows are known over one
pulse pair of P = 2*n_sub nodes, theta = dt..P*dt, and repeat with a
factor per pair, so with j = 1 + q*P + c

    S[1 + q*P + c] = factor**q * sum_r (post[r, c] * running[m, r]
                                        + before[r, c] * running[m', r]) / 2,

with post and before the two one-sided limits, m the number of t nodes
of row r whose range passes j, and m' = m + 1 where a range ends at j,
else m. m and m' take one of three values per q, so S is one matrix
product of the running sums at those three counts with the rows split
three ways, and nothing of size (n_sub + 1) x N is formed.

On the uniform grid theta_j = j*dt the transform to omega is the
polynomial sum_j S[j] z**j at z = exp(-i*omega_k*dt), at the nodes
omega_k = omega_min + k*omega_step of the frequency grid. For N nodes and
M frequencies it is Bluestein's chirp-z transform (Rabiner, Schafer &
Rader 1969): k*j = (k**2 + j**2 - (k - j)**2) / 2 makes the sum a
convolution, which FFTs of a fixed length of at least N + M - 1 evaluate
in O((N + M) log(N + M)) time and O(N + M) memory. The chirp phases
alpha*n**2/2 reach about 1e7 rad at N = 2e5, where forming them in plain
floating point costs up to 3e-9 of relative accuracy; they are
error-free products (Dekker 1971) of the double-double phase steps with
exact integers, reduced by whole turns before they round.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (DriveParams, FrequencyGrid, GridMismatch, Spectrum,
                   TimeGrid, build_meta, make_frequency_grid, make_time_grid,
                   two_prod)
from .correlators import build_correlator_grids
from .lindblad import propagate_trajectory


def compute_numeric_spectrum(p: DriveParams, g: TimeGrid, traj: np.ndarray,
                             pair: np.ndarray, fg: FrequencyGrid) -> Spectrum:
    """Assemble the numeric spectrum from the trajectory and the pair.

    traj is the propagate_trajectory output on g, pair the
    build_correlator_grids output. Trapezoid over t of the per-row theta
    transforms. The summation is collapsed over t first (S[j] = sum_i of
    fully weighted samples), so the theta transform runs once, by chirp-z,
    instead of once per row; the reduction order is fixed, making the
    output reproducible bit for bit.
    """
    n_sub = g.substeps_per_interval
    shape = (2, n_sub + 1, 2 * n_sub)
    if pair.shape != shape or traj.shape != (g.n_nodes, 2):
        raise GridMismatch(
            f"pair has shape {pair.shape} and trajectory {traj.shape}, "
            f"time grid needs {shape} and {(g.n_nodes, 2)}")
    raw_p1, raw_p2 = theta_transform(theta_sums(p, g, traj, pair), g.dt, fg)
    # copies: with views of the complex arrays validate ran 8% slower
    return Spectrum(omegas=fg.omegas.copy(), p1=raw_p1.real.copy(),
                    p2=raw_p2.real.copy(), raw_p1=raw_p1, raw_p2=raw_p2,
                    raw_p3=None,
                    meta=build_meta(p, fg, "numeric", grid=g))


def theta_sums(p: DriveParams, g: TimeGrid, traj: np.ndarray,
               pair: np.ndarray) -> np.ndarray:
    """S[k, j], j = 0..N-1: the trapezoid over t and theta of the
    correlators of population k at theta_j = j*dt, from the trajectory
    and the pair of matching shapes."""
    n_sub, n_int = g.substeps_per_interval, g.n_intervals
    period = 2 * n_sub
    rows, before = pair
    last = g.n_nodes - 1
    dt = g.dt
    # t node i < last owns the theta range j = 0..last-i; node `last` has
    # an empty range and a vanishing integral
    nodes = np.arange(last)
    pulse = (nodes % n_sub == 0) & (nodes > 0) & (p.n_pulses >= 1)
    w_t = np.full(last, dt)
    w_t[0] *= 0.5
    w_t[pulse] *= 0.5
    # pops[k, i] is population k of t node i, trapezoid-weighted, and
    # running[k, m, r] sums the first m nodes i = m'*n_sub + r of row r; the
    # companion's are the interior pulse nodes, populations swapped back
    pops = w_t * traj[:last].T
    running = np.zeros((2, n_int + 1, n_sub + 1))
    running[:, 1:, :n_sub] = pops.reshape(2, n_int, n_sub)
    running[:, 1:, n_sub] = pops[::-1, ::n_sub] * pulse[::n_sub]
    np.cumsum(running, axis=1, out=running)
    # At j = 1 + q*P + c, row r (the companion is row n_sub, from node 0)
    # is at node u = 1 + c + r of its march. The n_int - 2q - u // n_sub
    # t nodes of its residue whose ranges pass j take factor**q times the
    # mean of the two one-sided limits, which agree off a crossing. Where u
    # is a multiple of n_sub, as the last node is, one more node ends its
    # range at j, with half weight and the left limit, so half the left
    # limit counts n_int - 2q - (u - 1) // n_sub nodes. Both floors take
    # three values, so S is one product of the running sums at the three
    # counts per q with the rows split by floor; running is real, so it is
    # a real product with the rows' real and imaginary parts interleaved.
    n_q = (last - 1) // period + 1
    q = np.arange(n_q)
    u = np.arange(1, period + 1) + np.append(np.arange(n_sub), 0)[:, None]
    floor = np.arange(3)[:, None, None]
    split = np.where(u // n_sub == floor, rows, 0.0)
    np.add(split, before, out=split, where=(u - 1) // n_sub == floor)
    split *= 0.5
    count = np.maximum(n_int - 2 * q[:, None] - np.arange(3), 0)
    # body[k, q, c] is s[k, 1 + q*P + c]; past j = last it pads with zeros
    s = np.empty((2, 1 + n_q * period), dtype=complex)
    body = s[:, 1:].reshape(2, n_q, period)
    np.matmul(np.take(running, count, axis=1).reshape(2, n_q, -1),
              split.view(float).reshape(-1, 2 * period), out=body.view(float))
    body *= (rows[0, -1] ** q)[:, None]
    # the theta weight is dt, halved at j = 0, where every row is 1
    s[:, 0] = 0.5 * running[:, n_int].sum(axis=1)
    s *= dt
    return s[:, :last + 1]


def fft_length(n: int, m: int) -> int:
    """FFT length of the chirp-z transform of n nodes to m frequencies.

    The smallest power of two of at least n + m - 1, so the circular
    convolution does not wrap. It depends on (n, m) alone, which keeps
    the output reproducible bit for bit.
    """
    return 1 << (n + m - 2).bit_length()


# 2*pi as a double-double
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)


def _turns(rate, x):
    """rate*x modulo whole turns, in about [-1/2, 1/2], for the rate
    (hi, lo) in turns as a double-double and integers x < 2**53 held as
    doubles. hi*x is an error-free product, so whole turns drop out
    exactly and only the final sum rounds."""
    hi, lo = rate
    hi -= round(hi)
    p, e = two_prod(hi, x)
    e += lo * x
    p -= np.rint(p)
    p += e
    return p


def _rate(omega, dt):
    """omega*dt / (2*pi) as a double-double: the phase step in turns."""
    p, e = two_prod(omega, dt)
    hi = p / _TWO_PI[0]
    q, r = two_prod(hi, _TWO_PI[0])
    return hi, ((p - q) - r + e - hi * _TWO_PI[1]) / _TWO_PI[0]


def _cis(turns):
    """exp(-2*pi*i*turns), one cosine and one sine per value."""
    angle = turns * (-2.0 * math.pi)
    out = np.empty(turns.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def theta_transform(s: np.ndarray, dt: float,
                    fg: FrequencyGrid) -> np.ndarray:
    """sum_j s[:, j] * exp(-i*omega_k*j*dt) at the nodes
    omega_k = omega_min + k*omega_step of fg, k < M.

    Bluestein's chirp-z transform: with alpha = omega_step*dt, the sum
    over j >= 1 is the chirp exp(-i*alpha*k**2/2) times the convolution
    of s[:, j] * exp(-i*(omega_min*dt*j + alpha*j**2/2)) with
    exp(i*alpha*d**2/2), one FFT product of length fft_length(N, M).
    Every phase is alpha/2 or omega_min*dt, held in turns as a
    double-double, times an exact integer d**2 or j (N, M <= 2**26): an
    error-free product whose whole turns drop out before it rounds. The
    theta = 0 term s[:, 0] is added outside the FFT with its exact
    factor 1. numpy.fft is only looked up here: numpy loads it on first
    use, and importing it costs more than a small transform.
    """
    n, m = s.shape[1], fg.omegas.size
    length = fft_length(n, m)
    hi, lo = _rate(fg.omega_step, dt)
    j = np.arange(max(n, m), dtype=float)
    turns = _turns((0.5 * hi, 0.5 * lo), j * j)
    chirp = _cis(turns)
    turns = turns[1:n]
    turns += _turns(_rate(fg.omega_min, dt), j[1:n])
    conv = np.zeros((len(s), length), dtype=complex)
    np.multiply(s[:, 1:], _cis(turns), out=conv[:, 1:n])
    kernel = np.zeros(length, dtype=complex)
    np.conjugate(chirp[:m], out=kernel[:m])
    np.conjugate(chirp[1:n], out=kernel[:length - n:-1])
    np.fft.fft(conv, axis=1, out=conv)
    np.fft.fft(kernel, out=kernel)
    conv *= kernel
    np.fft.ifft(conv, axis=1, out=conv)
    raw = chirp[:m] * conv[:, :m]
    raw += s[:, :1]
    return raw


def numeric_spectrum(p: DriveParams, fg: FrequencyGrid | None = None,
                     substeps: int | None = None) -> Spectrum:
    """Convenience pipeline: trajectory, pair, then assembly."""
    g = make_time_grid(p, substeps)
    traj = propagate_trajectory(p, g)
    pair = build_correlator_grids(p, g)
    if fg is None:
        fg = make_frequency_grid(p)
    return compute_numeric_spectrum(p, g, traj, pair, fg)
