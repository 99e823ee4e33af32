"""Two-time correlators as populations times periodic propagator rows.

For every grid time t the two correlators

    C1(t, theta) = <sigma_+(t + theta) sigma_-(t)>
    C2(t, theta) = <sigma_-(t) sigma_+(t + theta)>

follow from the quantum regression theorem: a matrix seeded from the
physical state at t is marched forward in theta with the same exact free
map and pulse swaps as the state itself, and its ge element is recorded.
Population components never feed the ge/eg pair under either the free
map or the swap, and on the physical trajectory the seeds are
(ge, eg) = (ee(t), 0) for C1 and (gg(t), 0) for C2. Both correlators are
therefore a population times one ge-propagator K_i(theta), the march of
(ge, eg) = (1, 0) from node i.

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
   which is swapped right after. Its populations are those of the stored
   (post-pulse) node swapped back.

Stored values follow the post-pulse convention: when t + theta lands
exactly on a pulse instant the recorded value is the one immediately
after the swap. The correlators are discontinuous there, and a
trapezoidal rule sampling only one side of each jump loses an order of
accuracy, so `before` holds the pre-swap one-sided limits, equal to
`rows` away from crossings. Downstream quadrature averages the two
one-sided limits at every jump.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import DriveParams, GridMismatch, TimeGrid, validate_params
from .lindblad import DensityMatrix


@dataclass
class CorrelatorGrid:
    """Periodic propagator rows plus the trajectory populations.

    rows and before are (n_sub + 1) x n_nodes: the post-pulse and pre-swap
    values of the residue rows and of the pre-pulse companion (see the
    module docstring). pops is 2 x n_nodes: the ee and gg populations of
    the trajectory.
    """

    t_nodes: np.ndarray
    rows: np.ndarray
    before: np.ndarray
    pops: np.ndarray
    dt: float
    substeps_per_interval: int
    n_pulses: int


def _march_ge_row(start: int, length: int, n_sub: int, n_pulses: int,
                  r_ge: complex,
                  initial_pulse: bool) -> tuple[np.ndarray, np.ndarray]:
    """March (ge, eg) = (1, 0) over `length` sub-steps from node `start`.

    Returns (stored, before): stored follows the post-pulse convention,
    before holds the pre-swap limit at crossing nodes and the same values
    elsewhere. Crossings sit at absolute node indices that are multiples
    of n_sub with pulse number in 1..n_pulses; with n_pulses = 0 the two
    arrays are one and the same object. initial_pulse applies a swap
    right after recording the theta = 0 value (pre-pulse companion rows).

    Between crossings both components are geometric in the one-step
    factor, so each segment is filled with one cumulative product instead
    of a scalar loop.
    """
    stored = np.empty(length + 1, dtype=complex)
    before = stored if n_pulses == 0 else np.empty(length + 1, dtype=complex)
    stored[0] = before[0] = 1.0
    ge, eg = (0j, 1 + 0j) if initial_pulse else (1 + 0j, 0j)
    r_eg = r_ge.conjugate()
    j = 0
    while j < length:
        boundary = ((start + j) // n_sub + 1) * n_sub - start
        j_next = min(length, boundary)
        k = j_next - j
        seg_ge = ge * np.cumprod(np.full(k, r_ge))
        seg_eg = eg * np.cumprod(np.full(k, r_eg))
        stored[j + 1:j_next + 1] = seg_ge
        if before is not stored:
            before[j + 1:j_next + 1] = seg_ge
        ge = seg_ge[-1]
        eg = seg_eg[-1]
        if j_next == boundary and 1 <= (start + j_next) // n_sub <= n_pulses:
            before[j_next] = ge
            ge, eg = eg, ge
            stored[j_next] = ge
        j = j_next
    return stored, before


def build_correlator_grids(p: DriveParams, g: TimeGrid,
                           traj: list[DensityMatrix]) -> CorrelatorGrid:
    """Build the propagator rows for the grid and take the populations of
    the trajectory.

    traj must come from propagate_trajectory on the same grid (post-pulse
    node convention).
    """
    validate_params(p)
    n_nodes = g.n_nodes
    if len(traj) != n_nodes:
        raise GridMismatch(
            f"trajectory has {len(traj)} nodes, grid has {n_nodes}")
    n_sub = g.substeps_per_interval
    r_ge = cmath.exp((1j * p.delta - 0.5 * p.gamma) * g.dt)
    marched = [_march_ge_row(r, n_nodes - 1, n_sub, p.n_pulses, r_ge,
                             r == n_sub)
               for r in range(n_sub + 1)]
    pops = np.array([[m.ee for m in traj], [m.gg for m in traj]],
                    dtype=complex)
    return CorrelatorGrid(t_nodes=g.times,
                          rows=np.array([s for s, _ in marched]),
                          before=np.array([b for _, b in marched]),
                          pops=pops, dt=g.dt, substeps_per_interval=n_sub,
                          n_pulses=p.n_pulses)
