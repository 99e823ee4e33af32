"""Two-time correlators as populations times periodic propagator rows.

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
K_i depends on i only through i mod n_sub. The grid stores n_sub + 1
rows over the node range:

 * rows[r] for r < n_sub is the residue-r propagator, marched from node r.
   C1[i][j] = ee_i * rows[i % n_sub][j] and C2[i][j] = gg_i * rows[...][j]
   for theta_j = j*dt, j = 0..n_nodes-1-i; entries past the range of
   node r lie beyond the final node, carry no quadrature weight and are
   zero.
 * rows[n_sub] is the residue-0 pre-pulse companion: at an interior pulse
   time t = n*tau the correlators also have a row started from the
   pre-pulse state, whose theta = 0 entry is recorded before the swap and
   which is swapped right after. It is the march of the swapped seed
   from the first pulse node n_sub, with its theta = 0 entry set to 1,
   over the range of that node. Its populations are those of the stored
   (post-pulse) node swapped back.

Every row reaches node n_sub within its first interval, so from there all
rows march as one batch; no row is marched on its own.

Stored values follow the post-pulse convention: when t + theta lands
exactly on a pulse instant the recorded value is the one immediately
after the swap. The correlators are discontinuous there, and a
trapezoidal rule sampling only one side of each jump loses an order of
accuracy, so `before` holds the pre-swap one-sided limits, equal to
`rows` away from crossings. Downstream quadrature averages the two
one-sided limits at every jump.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DriveParams, GridMismatch, TimeGrid, validate_params
from .lindblad import apply_pi_pulse, free_evolve, march


@dataclass
class CorrelatorGrid:
    """Periodic propagator rows plus the trajectory populations.

    rows and before are (n_sub + 1) x n_nodes: the post-pulse and pre-swap
    values of the residue rows and of the pre-pulse companion (see the
    module docstring). pops is 2 x n_nodes: the ee and gg populations of
    the trajectory.
    """

    rows: np.ndarray
    before: np.ndarray
    pops: np.ndarray


def _tails(a: np.ndarray, n_sub: int) -> np.ndarray:
    """View of the (n_sub + 1) x n_nodes C-contiguous a whose row r starts
    at column n_sub - r and holds n_nodes - n_sub entries: in the
    flattened array these starts lie n_nodes - 1 apart."""
    width = a.shape[1] - 1
    flat = a.reshape(-1)[n_sub:n_sub + (n_sub + 1) * width]
    return flat.reshape(n_sub + 1, width)[:, :width + 1 - n_sub]


def build_correlator_grids(p: DriveParams, g: TimeGrid,
                           traj: np.ndarray) -> CorrelatorGrid:
    """March the propagator rows over the grid and take the populations
    of traj, the propagate_trajectory output on the same grid.

    Row r (the companion is r = n_sub) starts from the seed ge = 1 at node
    r, and its n_sub - r sub-steps to node n_sub are the seed times the
    free map over those elapsed times. There the rows are swapped (the
    companion even without pulses, as it is defined by the swap) and march
    on together over the same last - n_sub sub-steps, in chunks of
    ceil((n_sub + 1) / 8) rows: the march holds whole 2 x 2 matrices,
    eight cells per node against the two kept, so a chunk's transient
    stays at the size of rows plus before.
    """
    validate_params(p)
    n_nodes, n_sub = g.n_nodes, g.substeps_per_interval
    if len(traj) != n_nodes:
        raise GridMismatch(
            f"trajectory has {len(traj)} nodes, grid has {n_nodes}")
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    head = free_evolve(seed, np.arange(n_sub + 1) * g.dt, p)
    # row r holds head[n_sub - r] at node n_sub, before the swap there
    at_pulse = head[::-1]
    r = np.arange(n_sub + 1)
    swap = (r == n_sub) | (p.n_pulses >= 1)
    post = np.where(swap[:, None, None], apply_pi_pulse(at_pulse), at_pulse)
    rows = np.zeros((n_sub + 1, n_nodes), dtype=complex)
    before = np.zeros(rows.shape, dtype=complex)
    in_head = np.arange(n_sub) < (n_sub - r)[:, None]
    for a in (rows, before):
        np.copyto(a[:, :n_sub], head[:n_sub, 1, 0], where=in_head)
    rows_tail, before_tail = _tails(rows, n_sub), _tails(before, n_sub)
    chunk = -(-(n_sub + 1) // 8)
    for first in range(0, n_sub + 1, chunk):
        rows_here = slice(first, first + chunk)
        stored, pre = march(post[rows_here], n_sub, n_nodes - 1 - n_sub, p, g)
        pre[:, 0] = at_pulse[rows_here]
        rows_tail[rows_here] = stored[:, :, 1, 0]
        before_tail[rows_here] = pre[:, :, 1, 0]
    # the companion records its theta = 0 value before the swap
    rows[n_sub, 0] = 1.0
    return CorrelatorGrid(rows=rows, before=before,
                          pops=np.array([traj[:, 0, 0], traj[:, 1, 1]]))
