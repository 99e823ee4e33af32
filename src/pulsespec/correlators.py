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
marched rows over the full node range:

 * rows[r] for r < n_sub is the residue-r propagator, marched from node r.
   C1[i][j] = ee_i * rows[i % n_sub][j] and C2[i][j] = gg_i * rows[...][j]
   for theta_j = j*dt, j = 0..n_nodes-1-i; entries past that range lie
   beyond the final node and carry no quadrature weight.
 * rows[n_sub] is the residue-0 pre-pulse companion: at an interior pulse
   time t = n*tau the correlators also have a row started from the
   pre-pulse state, whose theta = 0 entry is recorded before the swap and
   which is swapped right after. It is the march of the swapped seed
   from node 0 with its theta = 0 entry set to 1. Its populations are
   those of the stored (post-pulse) node swapped back.

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
from .lindblad import apply_pi_pulse, march


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


def build_correlator_grids(p: DriveParams, g: TimeGrid,
                           traj: np.ndarray) -> CorrelatorGrid:
    """March the propagator rows over the grid and take the populations
    of traj, the propagate_trajectory output on the same grid."""
    validate_params(p)
    n_nodes, n_sub = g.n_nodes, g.substeps_per_interval
    if len(traj) != n_nodes:
        raise GridMismatch(
            f"trajectory has {len(traj)} nodes, grid has {n_nodes}")
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    rows = np.empty((n_sub + 1, n_nodes), dtype=complex)
    before = np.empty_like(rows)
    for r, m in enumerate([seed] * n_sub + [apply_pi_pulse(seed)]):
        stored, pre = march(m, r % n_sub, n_nodes - 1, p, g)
        rows[r], before[r] = stored[:, 1, 0], pre[:, 1, 0]
    rows[n_sub, 0] = before[n_sub, 0] = 1.0
    return CorrelatorGrid(rows=rows, before=before,
                          pops=np.array([traj[:, 0, 0], traj[:, 1, 1]]))
