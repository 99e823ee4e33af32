"""Quadrature assembly of the numeric spectrum from propagator rows.

The double integral over (t, theta) is a trapezoidal rule on both axes
honoring the ragged theta ranges [0, T - t_i]. At pulse crossings the
integrands are discontinuous; every interior crossing node takes the
average of the two one-sided limits carried by the pair block, the
final theta node of a row takes the left limit, and every interior pulse
time combines the post-pulse row with its pre-pulse companion at half
weight each. This keeps the composite rule second order in dt; sampling
a single side of each jump degrades it to first order.

Every correlator row is a population from the trajectory's diagonal
times one of the n_sub + 1 propagator rows of the pair block, which
depends on the grid alone, so the sum over t at fixed theta_j groups by
row: each propagator row is multiplied by the running sum of the weighted
populations of the t nodes whose theta range reaches past j. The final
node of each range carries a half weight and the left limit, which adds
one term per t node. The rows are stored over one pulse pair of
P = 2*n_sub nodes, theta = dt..P*dt, and repeat with a factor per pair,
so with j = 1 + q*P + c

    S[1 + q*P + c] = factor**q * sum_r mean[r, c] * running[r, m(q, c, r)],

with mean the average of the block's two one-sided limits and m the
number of t nodes of row r whose range passes j. m takes one of three
values per q, and each is one matrix product over the rows, so nothing
of size (n_sub + 1) x N is formed.

On the uniform grid theta_j = j*dt the transform to omega is the
polynomial sum_j S[j] z**j at z = exp(-i*omega*dt). For N nodes and M
frequencies it is evaluated in blocks of b = ceil(sqrt(N)) nodes: one
matrix product per block with the table of z**l, l < b, and Horner's rule
in z**b over the blocks. That takes O(sqrt(N) * M) memory and about
sqrt(N) vector steps, against N steps for Horner's rule over the nodes.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (MAX_ARRAY_CELLS, DriveParams, FrequencyGrid, GridMismatch,
                   GridTooLarge, Spectrum, TimeGrid, build_meta,
                   make_frequency_grid, make_time_grid)
from .correlators import build_correlator_grids
from .lindblad import propagate_trajectory


def compute_numeric_spectrum(p: DriveParams, g: TimeGrid, traj: np.ndarray,
                             block: np.ndarray, fg: FrequencyGrid) -> Spectrum:
    """Assemble the numeric spectrum from the trajectory and the pair block.

    traj is the propagate_trajectory output on g, block the
    build_correlator_grids output. Trapezoid over t of the per-row theta
    transforms. The summation is collapsed over t first (S[j] = sum_i of
    fully weighted samples), so the theta transform runs once, blocked in
    z = exp(-i*omega*dt), instead of once per row; the reduction order is
    fixed, making the output reproducible bit for bit at a fixed BLAS
    thread count.
    """
    n_sub, n_int = g.substeps_per_interval, g.n_intervals
    pair = 2 * n_sub
    if block.shape != (2, n_sub + 1, pair) or traj.shape != (g.n_nodes, 2, 2):
        raise GridMismatch(
            f"pair block has shape {block.shape} and trajectory "
            f"{traj.shape}, time grid needs {(2, n_sub + 1, pair)} and "
            f"{(g.n_nodes, 2, 2)}")
    rows, before = block
    pops = traj.diagonal(axis1=1, axis2=2).T
    last = g.n_nodes - 1
    dt = g.dt
    # t node i < last owns the theta range j = 0..last-i; node `last` has
    # an empty range and a vanishing integral
    nodes = np.arange(last)
    residue = nodes % n_sub
    pulse = (residue == 0) & (nodes > 0) & (p.n_pulses >= 1)
    w_t = np.full(last, dt)
    w_t[0] *= 0.5
    w_t[pulse] *= 0.5
    # post[k, i] / pre[k, i]: population k of t node i, trapezoid-weighted,
    # for the post-pulse row and for the pre-pulse companion, which takes
    # the populations swapped back and exists at interior pulse nodes only;
    # populations are real, so the weights are too
    post = w_t * pops[:, :last].real
    pre = np.where(pulse, w_t, 0.0) * pops[::-1, :last].real
    # running[k, r, m] sums the first m nodes i = m'*n_sub + r of row r
    # (the companion's nodes are the pulse nodes, r = 0)
    running = np.zeros((2, n_sub + 1, n_int + 1))
    running[:, :n_sub, 1:] = post.reshape(2, n_int, n_sub).transpose(0, 2, 1)
    running[:, n_sub, 1:] = pre[:, ::n_sub]
    np.cumsum(running, axis=2, out=running)
    # S[j] sums mean[r, j] * running[r, m] over the nodes i < last - j, whose
    # ranges contain j before their end; a crossing there takes the mean of
    # the two one-sided limits, which is the stored value elsewhere. With
    # j = 1 + q*P + c and row r starting at offset r (the companion at 0)
    # there are m = n_int - 2q - (1 + c + offset) // n_sub such nodes, and
    # the row value is factor**q times the block, so each of the three values
    # of the floor is one product over the rows; running is real, so each is
    # a real product with the block's real and imaginary parts interleaved.
    n_q = (last - 1) // pair + 1
    q = np.arange(n_q)
    offset = np.append(np.arange(n_sub), 0)
    shift = (np.arange(1, pair + 1) + offset[:, None]) // n_sub
    mean = (rows + before) * 0.5
    s = np.zeros((2, n_q, 2 * pair))
    for k in range(3):
        count = np.maximum(n_int - 2 * q - k, 0)
        s += (running[:, :, count].transpose(0, 2, 1)
              @ np.where(shift == k, mean, 0.0).view(float))
    s = s.view(complex)
    power = rows[0, -1] ** q
    s *= power[:, None]
    # the theta weight is dt, halved at j = 0, where every row is 1
    s = np.concatenate((0.5 * running[:, :, n_int].sum(axis=1)[:, None],
                        s.reshape(2, n_q * pair)[:, :last]), axis=1)
    s *= dt
    # the end node j = last - i of each range: half weight, left limit
    ends, col = np.divmod(last - 1 - nodes, pair)
    s[:, last - nodes] += 0.5 * dt * power[ends] * (
        post * before[residue, col] + pre * before[n_sub, col])
    raw = theta_transform(s, dt, fg.omegas)
    raw_p1, raw_p2 = raw
    scale = 2.0 * p.amp * p.amp
    p1 = scale * raw_p1.real
    p2 = scale * raw_p2.real
    return Spectrum(omegas=fg.omegas.copy(), p1=p1, p2=p2,
                    raw_p1=raw_p1, raw_p2=raw_p2, raw_p3=None,
                    meta=build_meta(p, fg, "numeric", grid=g))


def theta_transform(s: np.ndarray, dt: float,
                    omegas: np.ndarray) -> np.ndarray:
    """sum_j s[:, j] * z**j at z = exp(-i*omega*dt) for every omega.

    Baby-step/giant-step: with b = ceil(sqrt(N)) and node j = q*b + l,
    each block q of b nodes is one product with the (b, M) table of z**l,
    and Horner's rule in z**b runs over the ceil(N/b) blocks, last first.
    Raises GridTooLarge before forming a table above MAX_ARRAY_CELLS.
    """
    n = s.shape[1]
    b = math.isqrt(n - 1) + 1
    if b * omegas.size > MAX_ARRAY_CELLS:
        raise GridTooLarge(
            f"{b} x {omegas.size} table of z powers needs more than "
            f"{MAX_ARRAY_CELLS} array cells")
    zpow = np.exp(-1j * dt * np.outer(np.arange(b), omegas))
    zb = np.exp(-1j * dt * b * omegas)
    first = (n - 1) // b * b
    raw = s[:, first:] @ zpow[:n - first]
    for q in range(first - b, -1, -b):
        raw *= zb
        raw += s[:, q:q + b] @ zpow
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
