"""Exact inter-pulse propagation, the instantaneous pulse map, and the one
march that both the state and the regression rows run.

A density matrix is a complex array of shape (..., 2, 2) in the layout
[[ee, eg], [ge, gg]]; the maps act on any such matrix, physical or not.
Between pulses populations relax at rate gamma and coherences rotate at
the detuning while decaying at gamma/2. The update is the exact
exponential of that linear map, not an Euler or Runge-Kutta step, so the
only numerical error in a march is floating-point rounding. A pulse is
an instantaneous swap of the two populations and the two coherences.
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


def march(m, start: int, length: int, p: DriveParams,
          g: TimeGrid) -> tuple[np.ndarray, list[int]]:
    """March m, the value at grid node `start`, over `length` sub-steps.

    Returns (stored, crossings). stored has shape
    m.shape[:-2] + (length + 1, 2, 2); crossings lists the sub-steps k at
    which a pulse fires, at every node start + k = n*substeps_per_interval,
    n = 1..n_pulses. stored holds the post-pulse value there; the pre-swap
    value is apply_pi_pulse of it. The free-map factors for elapsed times
    k*dt, k = 0..n_sub, are computed once, so each inter-pulse segment is
    one broadcast multiply plus the ee -> gg feed.
    """
    n_sub = g.substeps_per_interval
    factor, feed = _free_map(np.arange(n_sub + 1) * g.dt, p)
    m = np.asarray(m, dtype=complex)
    stored = np.empty(m.shape[:-2] + (length + 1, 2, 2), dtype=complex)
    stored[..., 0, :, :] = m
    crossings = []
    j = 0
    while j < length:
        end = min(length, (start + j) // n_sub * n_sub + n_sub - start)
        v = stored[..., j, None, :, :]
        seg = stored[..., j + 1:end + 1, :, :]
        seg[...] = v * factor[1:end - j + 1]
        seg[..., 1, 1] += v[..., 0, 0] * feed[1:end - j + 1]
        if (start + end) % n_sub == 0 and (start + end) // n_sub <= p.n_pulses:
            crossings.append(end)
            stored[..., end, :, :] = apply_pi_pulse(seg[..., -1, :, :]).copy()
        j = end
    return stored, crossings


def propagate_trajectory(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the physical state from ee = 1 across every grid node.

    Returns an (n_nodes, 2, 2) array; nodes at pulse instants store the
    post-pulse matrix. The nominal pulse at the final node is applied too;
    it carries no weight in any time integral.
    """
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return march(rho0, 0, g.n_nodes - 1, p, g)[0]
