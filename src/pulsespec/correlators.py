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
K_i depends on i only through i mod n_sub. There are n_sub + 1 rows:

 * row r < n_sub is the residue-r propagator, marched from node r.
   C1[i](theta) = ee_i * K_{i % n_sub}(theta), C2 likewise with gg_i.
 * row n_sub is the residue-0 pre-pulse companion: at an interior pulse
   time t = n*tau the correlators also have a row started from the
   pre-pulse state, whose theta = 0 entry is recorded before the swap and
   which is swapped right after. It is the march of the swapped seed
   from the first pulse node n_sub, with its theta = 0 entry set to 1.
   Its populations are those of the stored (post-pulse) node swapped back.

One pulse pair, P = 2*n_sub sub-steps, is the Floquet period of the ge
element: two swaps return it to its place, so every row obeys
K(theta + P*dt) = factor * K(theta) for theta > 0, where factor is
exp(-gamma*tau) with pulses and the free factor over 2*tau without. The
rows depend on the grid alone, not on the state, and every train of three
or more pulses at the same delta, tau and substeps has the same rows
(shorter trains end before the march does). They are stored over one pair
only, as an (n_sub + 1) x P block whose column c is theta = (c + 1)*dt:
the value at theta_j = j*dt, j >= 1, is
factor**((j - 1) // P) * block[:, (j - 1) % P]. factor is row 0 at
theta = P*dt, [0, 0, -1] of the stored block; it is 0 on a one-pulse
train, whose grid ends before 2*tau. Entries past the grid are 0. At
theta = 0 every row is exactly 1, which the assembly adds on its own.

Stored values follow the post-pulse convention: when t + theta lands
exactly on a pulse instant the recorded value is the one immediately
after the swap. The correlators are discontinuous there, and a
trapezoidal rule sampling only one side of each jump loses an order of
accuracy, so block[1] holds the pre-swap one-sided limits, equal to
block[0] away from crossings. Downstream quadrature averages the two
one-sided limits at every jump.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import DriveParams, TimeGrid
from .lindblad import _free_map


def build_correlator_grids(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the propagator rows over one pulse pair.

    Returns the (2, n_sub + 1, 2*n_sub) complex block of the residue rows
    and the pre-pulse companion over theta = dt..2*tau, as in the module
    docstring: [0] holds the post-pulse values and [1] the pre-swap left
    limits. Row r (the companion is r = n_sub) is the free rotation of the
    seed ge = 1 from node r to node n_sub. There the rows are swapped (the
    companion even without pulses, as it is defined by the swap) and
    march on, until row 0 has reached theta = P*dt and the companion too
    where the grid is that long, as the (ge, eg) pair times the rotation
    table over at most two segments that end on pulse nodes.
    """
    n_sub, pair = g.substeps_per_interval, 2 * g.substeps_per_interval
    rot = _free_map(np.arange(n_sub + 1) * g.dt, p)[1]
    rot_eg = rot.conj()
    # row r holds ge = rot[n_sub - r] at node n_sub, before the swap there,
    # and eg = 0 * rot_eg[n_sub - r], a zero signed as a full march signs it
    at_pulse, zero = rot[::-1], 0 * rot_eg[::-1]
    r = np.arange(n_sub + 1)
    swap = (r == n_sub) | (p.n_pulses >= 1)
    ge = post = np.where(swap, zero, at_pulse)
    eg = np.where(swap, at_pulse, zero)
    length = min(max(g.n_nodes - 1, pair), 3 * n_sub) - n_sub
    marched = []
    for s0, s1 in ((0, n_sub), (n_sub, length))[:1 + (length > n_sub)]:
        left = ge * rot[1:s1 - s0 + 1, None]
        ge, eg = left[-1], eg * rot_eg[s1 - s0]
        if s1 % n_sub == 0 and s1 // n_sub + 1 <= p.n_pulses:
            ge, eg = eg, ge
        marched.append((s0, s1, left, ge))
    block = np.zeros((2, n_sub + 1, pair), dtype=complex)
    # skew[:, s, r] is row r at theta = n_sub - r + s, s sub-steps past node
    # n_sub: flat index r*pair + theta - 1 = n_sub - 1 + s + r*(pair - 1).
    # Past theta = P*dt it wraps onto thetas up to n_sub - r of row r + 1,
    # which the head and the first segment hold, so those are written last.
    item = block.itemsize
    skew = as_strided(block[:, 0, n_sub - 1:], (2, pair + 1, n_sub + 1),
                      (block.strides[0], item, (pair - 1) * item))
    for s0, s1, left, end in marched[::-1]:
        skew[:, s0 + 1:s1 + 1] = left
        skew[0, s1] = end
    # the companion's theta = 0 is left out
    skew[0, 0, :n_sub], skew[1, 0, :n_sub] = post[:n_sub], at_pulse[:n_sub]
    np.copyto(block[:, :, :n_sub - 1], rot[1:n_sub],
              where=np.arange(1, n_sub) < (n_sub - r)[:, None])
    return block
