"""The free map's tables and the physical trajectory of populations.

Between pulses the excited population ee relaxes at rate gamma into the
ground population gg, and the coherence ge rotates at the detuning while
decaying at gamma/2 (eg takes the conjugate). The tables are the exact
exponentials of that linear map, not an Euler or Runge-Kutta step, so the
only numerical error in a march is floating-point rounding. A pulse is an
instantaneous swap of ee with gg and of eg with ge. Neither map mixes
populations with coherences, and the emitter starts with none, so the
physical state is its two populations alone; the correlators read the
ge-propagator alone, from the rotation table of _free_map.
"""
from __future__ import annotations

import numpy as np

from .core import DriveParams, TimeGrid


def _free_map(dt, p: DriveParams) -> tuple[np.ndarray, np.ndarray]:
    """(decay, rot) of the free map over the elapsed times dt >= 0: ee is
    multiplied by decay and feeds gg by 1 - decay, so ee + gg is conserved
    exactly; ge is multiplied by rot and eg by its conjugate."""
    dt = np.asarray(dt, dtype=float)
    return (np.exp(-p.gamma * dt),
            np.exp((1j * p.delta - 0.5 * p.gamma) * dt))


def propagate_trajectory(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the populations from ee = 1 across every grid node.

    Returns an (n_nodes, 2) float array of (ee, gg); nodes at pulse
    instants store the post-pulse populations. The nominal pulse at the
    final node is applied too; it carries no weight in any time integral.
    Each interval's starting populations are stepped as floats by the free
    map and the swap, and then fill the interval's nodes in place.
    """
    n_sub, n_int, pulses = g.substeps_per_interval, g.n_intervals, p.n_pulses
    decay = _free_map(np.arange(n_sub + 1) * g.dt, p)[0]
    feed = 1.0 - decay
    d, f = float(decay[n_sub]), float(feed[n_sub])
    e, q, ee, gg = 1.0, 0.0, [1.0], [0.0]
    for n in range(1, n_int + 1):
        e, q = e * d, q + e * f
        if n <= pulses:
            e, q = q, e
        ee.append(e)
        gg.append(q)
    ee, gg = np.array(ee), np.array(gg)
    # node k of an interval holds (ee*decay_k, gg + ee*feed_k) of its start.
    # A ufunc buffers a broadcast operand on a strided view, so the outer
    # products go through einsum and gg is copied in before the one add of
    # equal shapes.
    out = np.empty((g.n_nodes, 2))
    cells = out[:-1].reshape(n_int, n_sub, 2)
    np.einsum("i,j->ij", ee[:-1], feed[:n_sub], out=cells[..., 0])
    np.copyto(cells[..., 1], gg[:-1, None])
    cells[..., 1] += cells[..., 0]
    np.einsum("i,j->ij", ee[:-1], decay[:n_sub], out=cells[..., 0])
    out[-1] = ee[-1], gg[-1]
    return out
