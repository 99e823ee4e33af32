"""The generic 2 x 2 marcher: the reference of the trajectory and of the
kernel table.

A density matrix is a complex array of shape (..., 2, 2) in the layout
[[ee, eg], [ge, gg]]; the maps below act on any such matrix, physical or
not. The package builds each of its stages from the part of the matrix
it reads, since the free map and the swap never mix populations with
coherences. `march` advances whole matrices instead, with the same
free-map tables and the same swap, so the package's trajectory must
equal `march_trajectory` exactly, not to a tolerance. The kernel table
forms each propagator from one exponential where the march multiplies
two or three, so `march_block` matches it within rounding, and bit for
bit where both form the same products: the free rotation before the
first pulse and the companion.
Unlike `oracles`, this module uses the package's free map on purpose.
"""
import numpy as np

from pulsespec import PulsespecError
from pulsespec.lindblad import _free_decay, _free_rotation


class NegativeDt(PulsespecError):
    pass


def _free_map(dt, p):
    """Elementwise factor (dt.shape + (2, 2)) and ee -> gg feed (dt.shape)
    of the free map over the elapsed times dt."""
    dt = np.asarray(dt, dtype=float)
    if np.any(dt < 0):
        raise NegativeDt(f"dt must be >= 0, got {dt}")
    decay, rot = _free_decay(dt, p), _free_rotation(dt, p)
    factor = np.stack([decay, rot.conj(), rot, np.ones_like(decay)], axis=-1)
    return factor.reshape(dt.shape + (2, 2)), 1.0 - decay


def free_evolve(m, dt, p):
    """Propagate m over the elapsed times dt (broadcast against the batch
    axes of m) with no pulse.

    ee decays as exp(-gamma*dt) and feeds gg so that ee + gg is conserved
    exactly; ge picks up exp((i*delta - gamma/2)*dt) and eg its conjugate.
    """
    factor, feed = _free_map(dt, p)
    out = m * factor
    out[..., 1, 1] += m[..., 0, 0] * feed
    return out


def apply_pi_pulse(m):
    """Swap ee with gg and eg with ge (a view of m); applying it twice is
    the identity."""
    return m[..., ::-1, ::-1]


def march(m, start, length, p, g):
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


def march_trajectory(p, g):
    """The physical state marched from ee = 1 across every grid node."""
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return march(rho0, 0, g.n_nodes - 1, p, g)[0]


def march_block(p, g):
    """The (2, n_sub + 1, 2*n_sub) block of one-sided limits, from one
    batched march of whole matrices: [0] holds the post-pulse values and
    [1] the pre-swap left limits, of the residue rows r < n_sub and of the
    companion, row n_sub. Row r is the seed ge = 1 freely evolved from
    node r to node n_sub, swapped there, and marched on; column c is
    theta = (c + 1)*dt. Where a t node's range reaches it, entry [side, r,
    c] is, within rounding, the `pulsespec.build_correlator_grids` table
    entry that `conftest.floors` names. The march runs on to node P at
    least, past the end of a one-interval grid.
    """
    n_nodes, n_sub = g.n_nodes, g.substeps_per_interval
    pair = 2 * n_sub
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    head = free_evolve(seed, np.arange(n_sub + 1) * g.dt, p)
    # row r holds head[n_sub - r] at node n_sub, before the swap there
    at_pulse = head[::-1]
    r = np.arange(n_sub + 1)
    swap = (r == n_sub) | (p.n_pulses >= 1)
    post = np.where(swap[:, None, None], apply_pi_pulse(at_pulse), at_pulse)
    length = min(max(n_nodes - 1, pair), 3 * n_sub) - n_sub
    stored, crossings = march(post, n_sub, length, p, g)
    # the left limit at a crossing is the ge element before the swap, which
    # the swap moved to eg
    marched = np.stack([stored[:, :, 1, 0], stored[:, :, 1, 0]])
    marched[1][:, crossings] = stored[:, crossings, 0, 1]
    marched[1][:, 0] = at_pulse[:, 1, 0]
    block = np.zeros((2, n_sub + 1, pair), dtype=complex)
    np.copyto(block[:, :, :n_sub - 1], head[1:n_sub, 1, 0],
              where=np.arange(1, n_sub) < (n_sub - r)[:, None])
    theta = (n_sub - r)[:, None] + np.arange(length + 1)
    in_pair = (theta >= 1) & (theta <= pair)
    block[:, np.broadcast_to(r[:, None], theta.shape)[in_pair],
          theta[in_pair] - 1] = marched[:, in_pair]
    return block
