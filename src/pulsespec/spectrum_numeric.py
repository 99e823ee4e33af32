"""Quadrature assembly of the numeric spectrum from the kernel table.

The double integral over (t, theta) is a trapezoidal rule on both axes
honoring the ragged theta ranges [0, T - t_i]. At pulse crossings the
integrands are discontinuous; every interior crossing node takes the
average of the two one-sided limits, the final theta node of a row takes
the left limit, and every interior pulse time combines the post-pulse
row with its pre-pulse companion at half weight each. This keeps the
composite rule second order in dt; sampling a single side of each jump
degrades it to first order.

Every correlator is a node's population times one entry of the (3, P)
kernel table of `correlators.build_correlator_grids`, P = 2*n_sub, so
the sum over t at fixed theta_j groups by entry. From a start node of
residue r (the companion is residue n_sub), j = 1 + q*P + c reaches node
u = r + c + 1 of the row past q pulse pairs and reads factor**q *
kernel[f, c]: f = u // n_sub for the value, (u - 1) // n_sub for the
left limit. n_int - 2q - f nodes of residue r reach j, and the left
limit's floor counts one more where a range ends there. So

    S[1 + q*P + c] = factor**q / 2 * sum_f kernel[f, c] * W_f,

W_f summing the weighted populations of the first n_int - 2q - f nodes
of the residues whose value has floor f, and again of those whose left
limit has: for c = a*n_sub + b, floor a on r < n_sub - 1 - b (value)
and r < n_sub - b (left limit), a + 1 above, and the companion at floor
2. A node holds its interval start's populations after r free steps, so
W_f is three per-count sources (ee and gg summed over the starts, and
the count) times prefix or suffix sums of per-residue coefficients. No
sum is a difference, so no digits cancel. The trajectory is
O(n_intervals), the windows O(n_sub), and S, formed in O(N) for N time
nodes, is the only O(N) array.

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
                   refuse_aliasing, two_prod)
from .correlators import build_correlator_grids
from .lindblad import _free_decay, propagate_trajectory


def compute_numeric_spectrum(p: DriveParams, g: TimeGrid, traj: np.ndarray,
                             kernel: np.ndarray,
                             fg: FrequencyGrid) -> Spectrum:
    """Assemble the numeric spectrum from the trajectory and the kernel.

    traj is the propagate_trajectory output on g, kernel the
    build_correlator_grids output. Trapezoid over t of the per-row theta
    transforms. The summation is collapsed over t first (S[j] = sum_i of
    fully weighted samples), so the theta transform runs once, by chirp-z,
    instead of once per row; the reduction order is fixed and no product
    goes through BLAS, so the output is reproducible bit for bit.
    Raises GridMismatch where the shapes do not fit g, and
    core.AliasedWindow where fg reaches pi in |omega - delta| * dt
    (`core.refuse_aliasing`), before any sum is formed.
    """
    shape = (3, 2 * g.substeps_per_interval)
    if kernel.shape != shape or traj.shape != (g.n_intervals + 1, 2):
        raise GridMismatch(
            f"kernel has shape {kernel.shape} and trajectory {traj.shape}, "
            f"time grid needs {shape} and {(g.n_intervals + 1, 2)}")
    refuse_aliasing(p, g, fg)
    raw_p1, raw_p2 = theta_transform(theta_sums(p, g, traj, kernel), g.dt,
                                     fg)
    # copies: with views of the complex arrays validate ran 8% slower
    return Spectrum(omegas=fg.omegas.copy(), p1=raw_p1.real.copy(),
                    p2=raw_p2.real.copy(), raw_p1=raw_p1, raw_p2=raw_p2,
                    raw_p3=None,
                    meta=build_meta(p, fg, "numeric", grid=g))


# columns per block of theta_sums' rows, small at any substep count
_BLOCK = 4096


def _doubled_windows(x: np.ndarray) -> np.ndarray:
    """w[..., b] + w[..., b + 1], b = 0..n - 1, for w[..., b] the sum of x
    over its last axis below b: two prefix sums, never a difference."""
    w = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.cumsum(x, axis=-1, out=w[..., 1:])
    return np.add(w[..., :-1], w[..., 1:])


def theta_sums(p: DriveParams, g: TimeGrid, traj: np.ndarray,
               kernel: np.ndarray) -> np.ndarray:
    """S[k, j], j = 0..N-1: the trapezoid over t and theta of the
    correlators of population k at theta_j = j*dt, from the interval
    starts and the kernel table of matching shapes."""
    n_sub, n_int = g.substeps_per_interval, g.n_intervals
    last = g.n_nodes - 1
    # sources[m, s] at the count m: ee and gg summed over the starts
    # 1..m-1, about the last start c as cumsum(start - c) + (m - 1)*c so
    # that each rounds once, and m >= 1, which carries node 0
    sources = np.zeros((n_int + 1, 3))
    centre = traj[-1]
    np.cumsum(traj[1:n_int] - centre, axis=0, out=sources[2:, :2])
    sources[2:, :2] += np.arange(1, n_int)[:, None] * centre
    sources[1:, 2] = 1.0
    # at[q, f]: the sources at the count n_int - 2q - f, 0 past j = last
    n_q = (last - 1) // (2 * n_sub) + 1
    q = np.arange(n_q)
    at = sources[np.maximum(n_int - 2 * q[:, None] - np.arange(3), 0)]
    # coef[k, s, r]: population k of a node of residue r per unit of
    # source s (of the count: the first interval's nodes), times its
    # weight, dt in t times dt in theta, halved at node 0 and the interior
    # pulse nodes, and for the mean of value and left limit in a window
    decay = _free_decay(np.arange(n_sub) * g.dt, p)
    coef = np.zeros((2, 3, n_sub))
    coef[:, 0] = decay, 1.0 - decay
    coef[1, 1] = 1.0
    coef[:, 2] = coef[:, 0] * traj[0, 0] + coef[:, 1] * traj[0, 1]
    coef[:, 2, 0] *= 0.5
    if p.n_pulses >= 1:
        coef[:, :2, 0] *= 0.5
    coef *= 0.5 * g.dt * g.dt
    # The companion, the interior pulse nodes with populations swapped
    # back, reads source 1 - k at half weight. Its value has floor 2 from
    # c = n_sub - 1, its left limit from c = n_sub, up to floor 3 at the
    # pair's end: weight 1/2, then 1, then 1/2. Counting from node 0, an
    # interval before its first node, it reads the count of floor 1, row
    # 4 - 3a - k of half a, where kernel[1] is 0 with a companion.
    swapped = 0.5 * g.dt * g.dt * (p.n_pulses >= 1)
    share = np.full((2, n_sub), swapped)
    share[0, :-1] = 0.0
    share[:, -1] *= 0.5
    s = np.empty((2, 1 + 2 * n_q * n_sub), dtype=complex)
    # the theta weight is halved at j = 0, where every row is 1
    s[:, 0] = ((coef.sum(axis=2) * sources[n_int]).sum(axis=1)
               + 0.5 * swapped * sources[n_int, 1::-1])
    halves = kernel.reshape(3, 2, n_sub)
    rows = np.empty((6, min(n_sub, _BLOCK)), dtype=complex)
    for k in (0, 1):
        # floor a reads the windows of prefix n_sub - 1 - b backwards,
        # floor a + 1 those of suffix b forwards
        prefix = _doubled_windows(coef[k])[:, ::-1]
        suffix = _doubled_windows(coef[k, :, ::-1])
        body = s[k, 1:].reshape(n_q, 2, n_sub)
        for a in (0, 1):
            for start in range(0, n_sub, _BLOCK):
                b = slice(start, start + _BLOCK)
                part = rows[:, :min(_BLOCK, n_sub - start)]
                np.multiply(prefix[:, b], halves[a, a, b], out=part[:3])
                np.multiply(suffix[:, b], halves[a + 1, a, b], out=part[3:])
                part[4 - 3 * a - k] += share[a, b] * halves[2, a, b]
                # real sources times complex rows as one real einsum
                np.einsum("qj,jx->qx", at[:, a:a + 2].reshape(n_q, 6),
                          part.view(float), out=body[:, a, b].view(float))
        body *= (kernel[2, -1] ** q)[:, None, None]
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
    fg = make_frequency_grid(p) if fg is None else fg
    g = make_time_grid(p, substeps)
    traj = propagate_trajectory(p, g)
    kernel = build_correlator_grids(p, g)
    return compute_numeric_spectrum(p, g, traj, kernel, fg)
