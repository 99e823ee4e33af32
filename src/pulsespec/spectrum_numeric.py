"""Quadrature assembly of the numeric spectrum from the kernel table.

The double integral over (t, theta) is a trapezoidal rule on both axes
honoring the ragged theta ranges [0, T - t_i]. At pulse crossings the
integrands are discontinuous; every interior crossing node takes the
average of the two one-sided limits, the final theta node of a row takes
the left limit, and every interior pulse time combines the post-pulse
row with its pre-pulse companion at half weight each. This keeps the
composite rule second order in dt; sampling a single side of each jump
degrades it to first order.

Every correlator is a population from the trajectory times one entry
of the (3, P) kernel table of `correlators.build_correlator_grids`, P =
2*n_sub, so the sum over t at fixed theta_j groups by entry. From a
start node of residue r (the companion is residue n_sub), j = 1 + q*P +
c reaches node u = r + c + 1 of the row past q pulse pairs and reads
factor**q * kernel[f, c]: f = u // n_sub for the value, (u - 1) // n_sub
for the left limit. n_int - 2q - f nodes of residue r reach j, and the
left limit's floor counts one more where a range ends there. With
running[m, r] the weighted populations of the first m nodes of residue r,

    S[1 + q*P + c] = factor**q / 2 * sum_f kernel[f, c] * W_f,

W_f summing running[n_int - 2q - f, r] over the residues whose value has
floor f, and again over those whose left limit has. For c = a*n_sub + b
the value has floor a on r < n_sub - 1 - b, the left limit on r < n_sub
- b, and both a + 1 above: W_a is two prefix sums over r, W_(a+1) two
suffix sums, and the companion adds itself at floor 2. Each is a
cumulative sum, never a difference, so no digits cancel, and S costs
O(N) for N time nodes.

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
                             kernel: np.ndarray,
                             fg: FrequencyGrid) -> Spectrum:
    """Assemble the numeric spectrum from the trajectory and the kernel.

    traj is the propagate_trajectory output on g, kernel the
    build_correlator_grids output. Trapezoid over t of the per-row theta
    transforms. The summation is collapsed over t first (S[j] = sum_i of
    fully weighted samples), so the theta transform runs once, by chirp-z,
    instead of once per row; the reduction order is fixed, making the
    output reproducible bit for bit.
    """
    shape = (3, 2 * g.substeps_per_interval)
    if kernel.shape != shape or traj.shape != (g.n_nodes, 2):
        raise GridMismatch(
            f"kernel has shape {kernel.shape} and trajectory {traj.shape}, "
            f"time grid needs {shape} and {(g.n_nodes, 2)}")
    raw_p1, raw_p2 = theta_transform(theta_sums(p, g, traj, kernel), g.dt,
                                     fg)
    # copies: with views of the complex arrays validate ran 8% slower
    return Spectrum(omegas=fg.omegas.copy(), p1=raw_p1.real.copy(),
                    p2=raw_p2.real.copy(), raw_p1=raw_p1, raw_p2=raw_p2,
                    raw_p3=None,
                    meta=build_meta(p, fg, "numeric", grid=g))


def _doubled_windows(x: np.ndarray) -> np.ndarray:
    """w[:, r] + w[:, r + 1], r = 0..n - 1, for w[:, r] the sum of x over
    the rows r' < r of its axis 1: two prefix sums, never a difference."""
    w = np.zeros((x.shape[0], x.shape[1] + 1) + x.shape[2:])
    np.cumsum(x, axis=1, out=w[:, 1:])
    return np.add(w[:, :-1], w[:, 1:])


def theta_sums(p: DriveParams, g: TimeGrid, traj: np.ndarray,
               kernel: np.ndarray) -> np.ndarray:
    """S[k, j], j = 0..N-1: the trapezoid over t and theta of the
    correlators of population k at theta_j = j*dt, from the trajectory
    and the kernel table of matching shapes."""
    n_sub, n_int = g.substeps_per_interval, g.n_intervals
    period = 2 * n_sub
    last = g.n_nodes - 1
    # t node i < last owns the theta range j = 0..last-i; node `last` has
    # an empty range and a vanishing integral. Node 0 and the interior
    # pulse nodes take half the weight. running[k, m, r] sums population
    # k, weighted, over the first m nodes i = m'*n_sub + r of residue r;
    # the companion's, column n_sub, are the interior pulse nodes,
    # populations swapped back.
    running = np.zeros((2, n_int + 1, n_sub + 1))
    w_t = np.full(last, g.dt)
    w_t[0] *= 0.5
    if p.n_pulses >= 1:
        w_t[n_sub::n_sub] *= 0.5
    np.multiply(traj[:last].T.reshape(2, n_int, n_sub),
                w_t.reshape(n_int, n_sub), out=running[:, 1:, :n_sub])
    if p.n_pulses >= 1:
        running[:, 2:, n_sub] = running[::-1, 2:, 0]
    np.cumsum(running, axis=1, out=running)
    # at[k, r, f, q] holds the running sums at the count n_int - 2q - f of
    # floor f; past j = last the count is 0 and the sums pad with zeros.
    # q is the last axis, so every product below runs along it.
    n_q = (last - 1) // period + 1
    q = np.arange(n_q)
    count = np.maximum(n_int - 2 * q - np.arange(3)[:, None], 0)
    at = np.take(running, count, axis=1).transpose(0, 3, 1, 2)
    del running, w_t
    # On half a of the pair, c = a*n_sub + b, floor a reads the residues
    # below n_sub - b (the left limit) and n_sub - 1 - b (the value), the
    # windows of prefix n_sub - 1 - b read backwards, and floor a + 1 the
    # residues above, the windows of suffix b read forwards.
    prefix = _doubled_windows(at[:, :n_sub, :2])[:, ::-1]
    suffix = _doubled_windows(at[:, n_sub - 1::-1, 1:])
    # the companion's running sums count from node 0, one interval before
    # its first node, so its floor 2 reads them at the count of floor 1;
    # at q = 0, floor 0 counts every node, where every row is 1
    companion = at[:, n_sub, 1].copy()
    theta_zero = 0.5 * at[:, :, 0, 0].sum(axis=1)
    del at
    # body[k, c, q] is s[k, 1 + q*P + c] before the pair factor; each
    # window adds value and left limit, so the kernel takes the 1/2 of
    # their mean
    body = np.empty((2, 2, n_sub, n_q), dtype=complex)
    for a in (0, 1):
        half = 0.5 * kernel[:, a * n_sub:(a + 1) * n_sub, None]
        np.multiply(prefix[:, :, a], half[a], out=body[:, a])
        body[:, a] += suffix[:, :, a] * half[a + 1]
    del prefix, suffix
    # the companion has floor 2 in its value from c = n_sub - 1 and in
    # its left limit from c = n_sub, up to the end of the pair, where its
    # value has floor 3: weight 1/2, then 1, then 1/2. Its other floor is
    # 1, where kernel[1] is 0 on every train with a companion.
    weight = np.ones(n_sub + 1)
    weight[[0, -1]] = 0.5
    body = body.reshape(2, period, n_q)
    body[:, n_sub - 1:] += ((weight * kernel[2, n_sub - 1:])[:, None]
                            * companion[:, None])
    s = np.empty((2, 1 + n_q * period), dtype=complex)
    np.multiply(body.transpose(0, 2, 1), (kernel[2, -1] ** q)[:, None],
                out=s[:, 1:].reshape(2, n_q, period))
    # the theta weight is dt, halved at j = 0
    s[:, 0] = theta_zero
    s *= g.dt
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
    """Convenience pipeline: trajectory, kernel, then assembly."""
    g = make_time_grid(p, substeps)
    traj = propagate_trajectory(p, g)
    kernel = build_correlator_grids(p, g)
    if fg is None:
        fg = make_frequency_grid(p)
    return compute_numeric_spectrum(p, g, traj, kernel, fg)
