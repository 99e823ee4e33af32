"""Exact inter-pulse propagation, the instantaneous pulse map, and the
physical trajectory.

A density matrix is a complex array of shape (..., 2, 2) in the layout
[[ee, eg], [ge, gg]]; the maps act on any such matrix, physical or not.
Between pulses populations relax at rate gamma and coherences rotate at
the detuning while decaying at gamma/2. The update is the exact
exponential of that linear map, not an Euler or Runge-Kutta step, so the
only numerical error in a march is floating-point rounding. A pulse is
an instantaneous swap of the two populations and the two coherences.
Neither map mixes populations with coherences, so the trajectory steps
its populations alone and the correlator rows their (ge, eg) pair alone.
"""
from __future__ import annotations

import numpy as np

from .core import DriveParams, PulsespecError, TimeGrid


class NegativeDt(PulsespecError):
    pass


def _free_map(dt, p: DriveParams) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise factor (dt.shape + (2, 2)) and ee -> gg feed (dt.shape)
    of the free map over the elapsed times dt."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0):
        raise NegativeDt(f"dt must be >= 0, got {dt}")
    decay = np.exp(-p.gamma * dt)
    rot = np.exp((1j * p.delta - 0.5 * p.gamma) * dt)
    factor = np.stack([decay, rot.conj(), rot, np.ones_like(decay)], axis=-1)
    return factor.reshape(dt.shape + (2, 2)), 1.0 - decay


def free_evolve(m: np.ndarray, dt, p: DriveParams) -> np.ndarray:
    """Propagate m over the elapsed times dt (broadcast against the batch
    axes of m) with no pulse.

    ee decays as exp(-gamma*dt) and feeds gg so that ee + gg is conserved
    exactly; ge picks up exp((i*delta - gamma/2)*dt) and eg its conjugate.
    """
    factor, feed = _free_map(dt, p)
    out = m * factor
    out[..., 1, 1] += m[..., 0, 0] * feed
    return out


def apply_pi_pulse(m: np.ndarray) -> np.ndarray:
    """Swap ee with gg and eg with ge (a view of m); applying it twice is
    the identity."""
    return m[..., ::-1, ::-1]


def propagate_trajectory(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the physical state from ee = 1 across every grid node.

    Returns an (n_nodes, 2, 2) array; nodes at pulse instants store the
    post-pulse matrix. The nominal pulse at the final node is applied too;
    it carries no weight in any time integral. Each interval's starting
    populations are stepped as floats by the free map and the swap, and
    then fill the interval's nodes in place.
    """
    n_sub, n_int, pulses = g.substeps_per_interval, g.n_intervals, p.n_pulses
    factor, feed = _free_map(np.arange(n_sub + 1) * g.dt, p)
    decay = factor[:, 0, 0].real
    d, f = float(decay[n_sub]), float(feed[n_sub])
    e, q, ee, gg = 1.0, 0.0, [1.0], [0.0]
    for n in range(1, n_int + 1):
        e, q = e * d, q + e * f
        if n <= pulses:
            e, q = q, e
        ee.append(e)
        gg.append(q)
    ee, gg = np.array(ee)[:, None], np.array(gg)[:, None]
    # node k of an interval holds (ee*decay_k, gg + ee*feed_k) of its start,
    # copied in first: a ufunc buffers every broadcast operand it is given
    out = np.zeros((g.n_nodes, 2, 2), dtype=complex)
    cells = out.real[:-1].reshape(n_int, n_sub, 2, 2)
    for slot, table in ((cells[..., 0, 0], decay), (cells[..., 1, 1], feed)):
        np.copyto(slot, ee[:-1])
        slot *= table[:n_sub]
    cells[..., 1, 1] += gg[:-1]
    out[-1, 0, 0], out[-1, 1, 1] = ee[-1, 0], gg[-1, 0]
    return out
