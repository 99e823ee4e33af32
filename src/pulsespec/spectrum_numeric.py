"""Quadrature assembly of the numeric spectrum from propagator rows.

The double integral over (t, theta) is a trapezoidal rule on both axes
honoring the ragged theta ranges [0, T - t_i]. At pulse crossings the
integrands are discontinuous; every interior crossing node takes the
average of the two one-sided limits carried by the pair block, the
final theta node of a row takes the left limit, and every interior pulse
time combines the post-pulse row with its pre-pulse companion at half
weight each. This keeps the composite rule second order in dt; sampling
a single side of each jump degrades it to first order.

Every correlator row is a population from the trajectory times one of
the n_sub + 1 propagator rows of the pair block, which depends on the
grid alone, so the sum over t at fixed theta_j groups by row: each
propagator row is multiplied by the running sum of the weighted
populations of the t nodes whose theta range reaches past j. The final
node of each range carries a half weight and the left limit, which adds
one term per t node. The rows are stored over one pulse pair of
P = 2*n_sub nodes, theta = dt..P*dt, and repeat with a factor per pair,
so with j = 1 + q*P + c

    S[1 + q*P + c] = factor**q * sum_r mean[r, c] * running[m(q, c, r), r],

with mean the average of the block's two one-sided limits and m the
number of t nodes of row r whose range passes j. m takes one of three
values per q, so S is one matrix product of the running sums at those
three counts with the block split three ways, and nothing of size
(n_sub + 1) x N is formed.

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
                             block: np.ndarray, fg: FrequencyGrid) -> Spectrum:
    """Assemble the numeric spectrum from the trajectory and the pair block.

    traj is the propagate_trajectory output on g, block the
    build_correlator_grids output. Trapezoid over t of the per-row theta
    transforms. The summation is collapsed over t first (S[j] = sum_i of
    fully weighted samples), so the theta transform runs once, by chirp-z,
    instead of once per row; the reduction order is fixed, making the
    output reproducible bit for bit.
    """
    n_sub = g.substeps_per_interval
    if (block.shape != (2, n_sub + 1, 2 * n_sub)
            or traj.shape != (g.n_nodes, 2)):
        raise GridMismatch(
            f"pair block has shape {block.shape} and trajectory "
            f"{traj.shape}, time grid needs {(2, n_sub + 1, 2 * n_sub)} "
            f"and {(g.n_nodes, 2)}")
    raw_p1, raw_p2 = theta_transform(theta_sums(p, g, traj, block), g.dt, fg)
    # copies: with views of the complex arrays validate ran 8% slower
    return Spectrum(omegas=fg.omegas.copy(), p1=raw_p1.real.copy(),
                    p2=raw_p2.real.copy(), raw_p1=raw_p1, raw_p2=raw_p2,
                    raw_p3=None,
                    meta=build_meta(p, fg, "numeric", grid=g))


def theta_sums(p: DriveParams, g: TimeGrid, traj: np.ndarray,
               block: np.ndarray) -> np.ndarray:
    """S[k, j], j = 0..N-1: the trapezoid over t and theta of the
    correlators of population k at theta_j = j*dt, from the trajectory
    and the pair block of matching shapes."""
    n_sub, n_int = g.substeps_per_interval, g.n_intervals
    pair = 2 * n_sub
    rows, before = block
    last = g.n_nodes - 1
    pops = traj[:last].T
    dt = g.dt
    # t node i < last owns the theta range j = 0..last-i; node `last` has
    # an empty range and a vanishing integral
    nodes = np.arange(last)
    pulse = (nodes % n_sub == 0) & (nodes > 0) & (p.n_pulses >= 1)
    w_t = np.full(last, dt)
    w_t[0] *= 0.5
    w_t[pulse] *= 0.5
    # post[k, i] / pre[k, i]: population k of t node i, trapezoid-weighted,
    # for the post-pulse row and for the pre-pulse companion, which takes
    # the populations swapped back and exists at interior pulse nodes only
    post = w_t * pops
    pre = np.where(pulse, w_t, 0.0) * pops[::-1]
    # running[k, m, r] sums the first m nodes i = m'*n_sub + r of row r
    # (the companion's nodes are the pulse nodes, r = 0)
    running = np.zeros((2, n_int + 1, n_sub + 1))
    running[:, 1:, :n_sub] = post.reshape(2, n_int, n_sub)
    running[:, 1:, n_sub] = pre[:, ::n_sub]
    np.cumsum(running, axis=1, out=running)
    # S[j] sums mean[r, j] * running[m, r] over the nodes i < last - j, whose
    # ranges contain j before their end; a crossing there takes the mean of
    # the two one-sided limits, which is the stored value elsewhere. With
    # j = 1 + q*P + c and row r starting at offset r (the companion at 0)
    # there are m = n_int - 2q - (1 + c + offset) // n_sub such nodes, and
    # the row value is factor**q times the block. The floor takes three
    # values, so S is one product of the running sums at the three counts
    # per q with the block split by floor; running is real, so it is a real
    # product with the block's real and imaginary parts interleaved.
    n_q = (last - 1) // pair + 1
    q = np.arange(n_q)
    offset = np.append(np.arange(n_sub), 0)
    shift = (np.arange(1, pair + 1) + offset[:, None]) // n_sub
    split = np.where(shift == np.arange(3)[:, None, None],
                     (rows + before) * 0.5, 0.0)
    count = np.maximum(n_int - 2 * q[:, None] - np.arange(3), 0)
    # body[k, q, c] is s[k, 1 + q*P + c]; past j = last it pads with zeros
    s = np.empty((2, 1 + n_q * pair), dtype=complex)
    body = s[:, 1:].reshape(2, n_q, pair)
    np.matmul(np.take(running, count, axis=1).reshape(2, n_q, -1),
              split.view(float).reshape(-1, 2 * pair), out=body.view(float))
    # the end node j = last - i of each range: half weight, left limit.
    # Node i = last - 1 - (q*P + c) ends in column c of row (-1 - c) % n_sub,
    # and of the companion for its swapped populations; reversed, the
    # weights line up with body
    c = np.arange(pair)
    ends = (post, before[(-1 - c) % n_sub, c]), (pre, before[n_sub])
    weight = np.zeros(n_q * pair)
    for k in range(2):
        for w, row in ends:
            np.multiply(0.5, w[k, ::-1], out=weight[:last])
            body[k] += weight.reshape(n_q, pair) * row
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
    """Convenience pipeline: trajectory, pair block, then assembly."""
    g = make_time_grid(p, substeps)
    traj = propagate_trajectory(p, g)
    block = build_correlator_grids(p, g)
    if fg is None:
        fg = make_frequency_grid(p)
    return compute_numeric_spectrum(p, g, traj, block, fg)
