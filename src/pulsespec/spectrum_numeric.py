"""Quadrature assembly of the numeric spectrum from propagator rows.

The double integral over (t, theta) is a trapezoidal rule on both axes
honoring the ragged theta ranges [0, T - t_i]. At pulse crossings the
integrands are discontinuous; every interior crossing node takes the
average of the two one-sided limits carried by the correlator grid, the
final theta node of a row takes the left limit, and every interior pulse
time combines the post-pulse row with its pre-pulse companion at half
weight each. This keeps the composite rule second order in dt; sampling
a single side of each jump degrades it to first order.

Every correlator row is a population times one of the n_sub + 1
propagator rows, so the sum over t at fixed theta_j groups by row: each
propagator row is multiplied by the running sum of the weighted
populations of the t nodes whose theta range reaches past j. The final
node of each range carries a half weight and the left limit, which adds
one term per t node.

On the uniform grid theta_j = j*dt the transform to omega is the
polynomial sum_j S[j] z**j at z = exp(-i*omega*dt), evaluated by Horner's
rule over the nodes: O(N + M) memory for N nodes and M frequencies.
"""
from __future__ import annotations

import numpy as np

from .core import (DriveParams, FrequencyGrid, GridMismatch, Spectrum,
                   TimeGrid, build_meta, make_frequency_grid, make_time_grid,
                   validate_params)
from .correlators import CorrelatorGrid, build_correlator_grids
from .lindblad import propagate_trajectory


def compute_numeric_spectrum(p: DriveParams, g: TimeGrid, cg: CorrelatorGrid,
                             fg: FrequencyGrid) -> Spectrum:
    """Assemble the numeric spectrum from prebuilt correlator grids.

    Trapezoid over t of the per-row theta transforms. The summation is
    collapsed over t first (S[j] = sum_i of fully weighted samples), so
    the theta transform runs once, by Horner's rule in z = exp(-i*omega*dt),
    instead of once per row; the reduction order is fixed, making the
    output reproducible bit for bit.
    """
    validate_params(p)
    n_sub = g.substeps_per_interval
    if cg.rows.shape != (n_sub + 1, g.n_nodes):
        raise GridMismatch(
            f"correlator rows have shape {cg.rows.shape}, time grid needs "
            f"{(n_sub + 1, g.n_nodes)}")
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
    # the populations swapped back and exists at interior pulse nodes only
    post = w_t * cg.pops[:, :last]
    pre = np.where(pulse, w_t, 0.0) * cg.pops[::-1, :last]
    weights = np.zeros((2, n_sub + 1, last), dtype=complex)
    weights[:, residue, nodes] = post
    weights[:, n_sub] = pre
    # running[k, row, j] sums the nodes i < last - j, whose ranges contain
    # j before their end; a crossing there takes the mean of the two
    # one-sided limits, which is the stored value elsewhere. The theta
    # weight is dt, halved at j = 0.
    running = np.cumsum(weights, axis=2)[:, :, ::-1]
    mean = 0.5 * (cg.rows[:, :last] + cg.before[:, :last])
    s = np.zeros((2, last + 1), dtype=complex)
    s[:, :last] = np.sum(mean * running, axis=1)
    s[:, 0] *= 0.5
    s *= dt
    # the end node j = last - i of each range: half weight, left limit
    s[:, last - nodes] += 0.5 * dt * (
        post * cg.before[residue, last - nodes]
        + pre * cg.before[n_sub, last - nodes])
    z = np.exp(-1j * dt * fg.omegas)
    raw = np.zeros((2, fg.omegas.size), dtype=complex)
    for column in s.T[::-1]:
        raw = raw * z + column[:, None]
    raw_p1, raw_p2 = raw
    scale = 2.0 * p.amp * p.amp
    p1 = scale * raw_p1.real
    p2 = scale * raw_p2.real
    return Spectrum(omegas=fg.omegas.copy(), p1=p1, p2=p2, q=p2 - p1,
                    raw_p1=raw_p1, raw_p2=raw_p2, raw_p3=None,
                    meta=build_meta(p, fg, "numeric", grid=g))


def numeric_spectrum(p: DriveParams, fg: FrequencyGrid | None = None,
                     substeps: int | None = None) -> Spectrum:
    """Convenience pipeline: trajectory, correlator grids, then assembly."""
    g = make_time_grid(p, substeps)
    traj = propagate_trajectory(p, g)
    cg = build_correlator_grids(p, g, traj)
    if fg is None:
        fg = make_frequency_grid(p)
    return compute_numeric_spectrum(p, g, cg, fg)
