"""The free map's tables and the populations at the interval starts.

Between pulses the excited population ee relaxes at rate gamma into the
ground population gg, and the coherence ge rotates at the detuning while
decaying at gamma/2 (eg takes the conjugate). The tables are the exact
exponentials of that linear map, not an Euler or Runge-Kutta step, so the
only numerical error in a march is floating-point rounding. A pulse is an
instantaneous swap of ee with gg and of eg with ge. Neither map mixes
populations with coherences, and the emitter starts with none, so the
physical state is its two populations alone; the correlators read the
ge-propagator alone, from the rotation table of _free_rotation.
"""
from __future__ import annotations

import numpy as np

from .core import DriveParams, TimeGrid


def _free_decay(dt: np.ndarray, p: DriveParams) -> np.ndarray:
    """The free map's decay over the elapsed times dt >= 0: ee is
    multiplied by it and feeds gg by 1 - decay, so ee + gg is conserved
    exactly."""
    return np.exp(-p.gamma * dt)


def _free_rotation(dt: np.ndarray, p: DriveParams,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The free map's rotation over the elapsed times dt >= 0: ge is
    multiplied by it and eg by its conjugate. A complex `out` may be dt
    itself, which then holds the times in its real part."""
    rate = np.multiply(1j * p.delta - 0.5 * p.gamma, dt, out=out)
    return np.exp(rate, out=out)


def propagate_trajectory(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the populations from ee = 1 across the interval starts.

    Returns an (n_intervals + 1, 2) float array of (ee, gg) at the nodes
    m*n_sub, post-pulse at the pulse instants; the nominal pulse at the
    final node is applied too, and carries no weight in any time
    integral. Node r of an interval holds (ee*decay_r, gg + ee*feed_r) of
    its start, which the quadrature forms itself. Each start is stepped
    as floats by the free map and the swap, in place in the result.
    """
    d = float(_free_decay(g.substeps_per_interval * g.dt, p))
    f = 1.0 - d
    out = np.empty((g.n_intervals + 1, 2))
    e, q = out[0, 0], out[0, 1] = 1.0, 0.0
    for n in range(1, g.n_intervals + 1):
        e, q = e * d, q + e * f
        if n <= p.n_pulses:
            e, q = q, e
        out[n, 0], out[n, 1] = e, q
    return out
