"""Two-time correlators as populations times one kernel per pulse count.

For every grid time t the two correlators

    C1(t, theta) = <sigma_+(t + theta) sigma_-(t)>
    C2(t, theta) = <sigma_-(t) sigma_+(t + theta)>

follow from the quantum regression theorem: a (2, 2) matrix in the
[[ee, eg], [ge, gg]] layout, seeded from the physical state at t, evolves
in theta under the free map and the swap of `lindblad`, and its ge
element [1, 0] is recorded. Populations never feed the ge/eg pair under
either map, so only that pair matters, and on the physical trajectory
the seeds are (ge, eg) = (ee(t), 0) for C1 and (gg(t), 0) for C2. Both
correlators are therefore a population times the ge-propagator from t
to t + theta.

That propagator depends on theta and on m, the number of swaps in
between, alone. With no swap it is the free rotation rot(theta) =
exp((i*delta - gamma/2)*theta). One swap moves the seed to eg, which
the ge element never sees again before the next swap, so odd m gives 0.
Two swaps tau apart give conj(rot(tau)) * rot(theta - tau), wherever
they fall, since the seed rotates as ge for theta - tau and as eg for
tau. Pulses sit on every n_sub-th node and the quadrature reads theta up
to one pulse pair, P = 2*n_sub sub-steps, at a time, so the whole engine
reads one (3, P) table

    kernel[m, c] = the propagator at theta = (c + 1)*dt
                   after min(m, n_pulses) swaps.

Row 2 is defined from theta = tau on, where two swaps fit, and is 0
below. A pulse-free train never swaps, so every row is the free rotation
out to 2*tau. Past one pair every propagator repeats up to the factor
kernel[2, -1]: the propagator over two swaps and 2*tau, exp(-gamma*tau)
with pulses and rot(2*tau) without (0 on a one-pulse train, whose grid
ends at tau). At theta = 0 every row is exactly 1, which the assembly
adds on its own.

At a pulse instant the correlators jump, and the quadrature reads both
one-sided limits there: from a start node of residue r, the value at
node u = r + c + 1 after the swap there is kernel[u // n_sub, c], and the
left limit before it kernel[(u - 1) // n_sub, c]. At an interior pulse
time it also reads the companion, the propagator from the pre-pulse
state, which is the row of a residue n_sub: the swap at its start
counts.
"""
from __future__ import annotations

import numpy as np

from .core import DriveParams, TimeGrid
from .lindblad import _free_map


def build_correlator_grids(p: DriveParams, g: TimeGrid) -> np.ndarray:
    """The (3, 2*n_sub) complex kernel table of the module docstring.

    Row 0 is the free rotation table at theta = dt..2*tau. Row 2 is
    conj(rot(tau)) times the rotation table from theta = tau on, formed
    as the companion's march forms it: the swapped-in conj(rot(tau)),
    then one product per sub-step.
    """
    n_sub = g.substeps_per_interval
    rot = _free_map(np.arange(2 * n_sub + 1) * g.dt, p)[1]
    kernel = np.zeros((3, 2 * n_sub), dtype=complex)
    kernel[0] = rot[1:]
    if p.n_pulses == 0:
        kernel[1:] = rot[1:]
    elif p.n_pulses >= 2:
        np.multiply(rot[n_sub].conj(), rot[:n_sub + 1],
                    out=kernel[2, n_sub - 1:])
    return kernel
