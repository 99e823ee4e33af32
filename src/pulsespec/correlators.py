"""Two-time correlators as populations times one pulse pair of periodic
propagator rows.

For every grid time t the two correlators

    C1(t, theta) = <sigma_+(t + theta) sigma_-(t)>
    C2(t, theta) = <sigma_-(t) sigma_+(t + theta)>

follow from the quantum regression theorem: a (2, 2) matrix in the
[[ee, eg], [ge, gg]] layout, seeded from the physical state at t, is
marched forward in theta by `lindblad.march`, the same function that
marches the state itself, and its ge element [1, 0] is recorded.
Population components never feed the ge/eg pair under either the free
map or the swap, and on the physical trajectory the seeds are
(ge, eg) = (ee(t), 0) for C1 and (gg(t), 0) for C2. Both correlators are
therefore a population times one ge-propagator K_i(theta), the march of
the seed ge = 1 from node i.

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
accuracy, so `before` holds the pre-swap one-sided limits, equal to
`rows` away from crossings. Downstream quadrature averages the two
one-sided limits at every jump.
"""
from __future__ import annotations

import numpy as np

from .core import DriveParams, TimeGrid
from .lindblad import apply_pi_pulse, free_evolve, march


def build_correlator_grids(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """March the propagator rows over one pulse pair.

    Returns the (2, n_sub + 1, 2*n_sub) complex block of the residue rows
    and the pre-pulse companion over theta = dt..2*tau, as in the module
    docstring: [0] holds the post-pulse values and [1] the pre-swap left
    limits. Row r (the companion is r = n_sub) starts from the seed ge = 1
    at node r, and its n_sub - r sub-steps to node n_sub are the seed
    times the free map over those elapsed times. There the rows are
    swapped (the companion even without pulses, as it is defined by the
    swap) and march on together until row 0 has reached theta = P*dt, and
    the companion too where the grid is that long, so the march holds at
    most (n_sub + 1) x min(n_nodes, P + 1) matrices.
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
    # row 0 reaches theta = P*dt n_sub sub-steps past node n_sub, the
    # companion 2*n_sub, if the grid is that long
    length = min(max(n_nodes - 1, pair), 3 * n_sub) - n_sub
    stored, crossings = march(post, n_sub, length, p, g)
    # the left limit at a crossing is the ge element before the swap, which
    # the swap moved to eg
    marched = np.stack([stored[:, :, 1, 0], stored[:, :, 1, 0]])
    marched[1][:, crossings] = stored[:, crossings, 0, 1]
    marched[1][:, 0] = at_pulse[:, 1, 0]
    # column c is theta = (c + 1)*dt, so the companion's theta = 0 is left out
    block = np.zeros((2, n_sub + 1, pair), dtype=complex)
    np.copyto(block[:, :, :n_sub - 1], head[1:n_sub, 1, 0],
              where=np.arange(1, n_sub) < (n_sub - r)[:, None])
    theta = (n_sub - r)[:, None] + np.arange(length + 1)
    in_pair = (theta >= 1) & (theta <= pair)
    block[:, np.broadcast_to(r[:, None], theta.shape)[in_pair],
          theta[in_pair] - 1] = marched[:, in_pair]
    return block
