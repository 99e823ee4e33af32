"""Two-time correlators as populations times one pulse pair of periodic
propagator rows.

For every grid time t the two correlators

    C1(t, theta) = <sigma_+(t + theta) sigma_-(t)>
    C2(t, theta) = <sigma_-(t) sigma_+(t + theta)>

follow from the quantum regression theorem: a (2, 2) matrix in the
[[ee, eg], [ge, gg]] layout, seeded from the physical state at t, evolves
in theta under the free map and the swap of `lindblad`, and its ge
element [1, 0] is recorded. Populations never feed the ge/eg pair under
either map, so only that pair is marched, and on the physical trajectory
the seeds are (ge, eg) = (ee(t), 0) for C1 and (gg(t), 0) for C2. Both
correlators are therefore a population times one ge-propagator
K_i(theta), the march of the seed ge = 1 from node i.

Pulses sit on every n_sub-th node and every crossing before T counts, so
K_i depends on i only through i mod n_sub: row r < n_sub, marched from
node r, serves every node of residue r, C1[i](theta) = ee_i *
K_{i % n_sub}(theta) and C2 likewise with gg_i.

One pulse pair, P = 2*n_sub sub-steps, is the Floquet period of the ge
element: two swaps return it to its place, so every row obeys
K(theta + P*dt) = factor * K(theta) for theta > 0, where factor is
exp(-gamma*tau) with pulses and the free factor over 2*tau without. The
rows depend on the grid alone, not on the state, and every train of three
or more pulses at the same delta, tau and substeps has the same rows
(shorter trains end before the march does). The march is stored over one
pair only, and with it its one-sided limits, as the pair of two
(n_sub + 1) x P arrays whose column c is theta = (c + 1)*dt: the value at
theta_j = j*dt, j >= 1, is factor**((j - 1) // P) * pair[side, :, (j - 1)
% P]. factor is row 0 at theta = P*dt, pair[0, 0, -1]; it is 0 on a
one-pulse train, whose grid ends before 2*tau. Entries past the grid, at
theta beyond (n_nodes - 1 - r)*dt in row r, are 0. At theta = 0 every row
is exactly 1, which the assembly adds on its own.

Side 0 holds the post-pulse values: when t + theta lands exactly on a
pulse instant the recorded value is the one immediately after the swap.
The correlators are discontinuous there, and a trapezoidal rule sampling
only one side of each jump loses an order of accuracy, so the quadrature
averages the two one-sided limits at every jump, and at an interior pulse
time it also needs the companion, the row started from the pre-pulse
state, as row n_sub. The left limits and the companion are not marched:
the build derives them once from the post-pulse values. Between pulses a
row rotates freely, so a left limit, side 1, is one sub-step of rotation
after the value before it. The companion is swapped right after
theta = 0, so it is zero until the next pulse swaps in
conj(exp((i*delta - gamma/2)*tau)) times row 0 one interval earlier.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import DriveParams, TimeGrid
from .lindblad import _free_map


def build_correlator_grids(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the propagator rows over one pulse pair and derive the pair.

    Returns the (2, n_sub + 1, 2*n_sub) complex pair of the module
    docstring: [0] the post-pulse values and [1] the left limits over
    theta = dt..2*tau of the residue rows and, as row n_sub, of the
    companion. Row r is the free rotation of the seed ge = 1 from node r
    to node n_sub. From each of the pulse nodes n_sub and 2*n_sub on, where
    the (ge, eg) pair is swapped if that pulse fires, it is its ge there
    times the rotation table. Entries past the grid are 0.
    """
    n_sub, period = g.substeps_per_interval, 2 * g.substeps_per_interval
    rot = _free_map(np.arange(n_sub + 1) * g.dt, p)[1]
    pair = np.zeros((2, n_sub + 1, period), dtype=complex)
    post, before = pair
    post[:n_sub, :n_sub - 1] = rot[1:n_sub]   # overwritten from node n_sub on
    # skew[s, r] is row r at node n_sub + s, theta = n_sub - r + s: flat
    # index r*P + theta - 1 = n_sub - 1 + s + r*(P - 1). Past node 2*n_sub
    # only the rows r >= s - n_sub are within theta <= P*dt.
    item = pair.itemsize
    skew = as_strided(post.reshape(-1)[n_sub - 1:], (period, n_sub),
                      (item, (period - 1) * item))
    # (ge, eg) of row r at node n_sub, before the swap there: the seed
    # rotated over n_sub - r steps, and a zero signed as a full march signs it
    ge_eg = np.array([rot[:0:-1], 0 * rot[:0:-1].conj()])
    for k in (0, 1):
        if k < p.n_pulses:
            ge_eg = ge_eg[::-1]
        ge = skew[k * n_sub] = ge_eg[0]
        # one product per node, as numpy buffers a broadcast operand at up
        # to the size of the result; a grid of two intervals ends at node P
        for s in range(1, n_sub if k == 0 or g.n_nodes - 1 > period else 1):
            np.multiply(ge[k * s:], rot[s], out=skew[k * n_sub + s, k * s:])
        ge_eg = ge_eg * np.array([[rot[n_sub]], [rot[n_sub].conj()]])
    # the companion from row 0 one interval earlier, which is 1 at theta = 0
    post[n_sub, n_sub - 1:] = (rot[n_sub].conj()
                               * np.append(1.0, post[0, :n_sub]))
    # left limits one sub-step after the values before them; flat, as
    # numpy buffers a broadcast operand over 2-D views, and column 0, from
    # theta = 0, is 1 for the residue rows and 0 for the companion
    np.multiply(rot[1], post.reshape(-1)[:-1], out=before.reshape(-1)[1:])
    before[:, 0] = rot[1] * (np.arange(n_sub + 1) < n_sub)
    # row r reaches theta = (last - r)*dt at most
    last = g.n_nodes - 1
    for r in range(max(last - period + 1, 0), n_sub + 1):
        pair[:, r, max(last - r, 0):] = 0.0
    return pair
