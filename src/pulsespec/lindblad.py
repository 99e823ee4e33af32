"""Exact inter-pulse propagation and the instantaneous pulse map.

Between pulses the 2x2 matrix equations decouple: populations relax at
rate gamma and coherences rotate at the detuning while decaying at
gamma/2. The update used here is the exact exponential of that linear
map, not an Euler or Runge-Kutta step, so the only numerical error in a
trajectory is floating-point rounding. A pulse is an instantaneous swap
of the two populations and the two coherences.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DriveParams, PulsespecError, TimeGrid, validate_params


class NegativeDt(PulsespecError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 matrix in (ee, eg, ge, gg) layout.

    A physical state has trace one, ge the conjugate of eg and real
    populations; the maps below act on any matrix of this layout.
    """

    ee: complex
    eg: complex
    ge: complex
    gg: complex


def free_evolve(m: DensityMatrix, dt: float, p: DriveParams) -> DensityMatrix:
    """Propagate m over dt with no pulse.

    ee decays as exp(-gamma*dt) and feeds gg so that ee + gg is conserved
    exactly; ge picks up exp((i*delta - gamma/2)*dt) and eg its conjugate.
    """
    if dt < 0:
        raise NegativeDt(f"dt must be >= 0, got {dt}")
    decay = math.exp(-p.gamma * dt)
    rot = cmath.exp((1j * p.delta - 0.5 * p.gamma) * dt)
    return DensityMatrix(
        ee=m.ee * decay,
        eg=m.eg * rot.conjugate(),
        ge=m.ge * rot,
        gg=m.gg + m.ee * (1.0 - decay),
    )


def apply_pi_pulse(m: DensityMatrix) -> DensityMatrix:
    """Swap ee with gg and eg with ge; applying it twice is the identity."""
    return DensityMatrix(ee=m.gg, eg=m.ge, ge=m.eg, gg=m.ee)


def propagate_trajectory(p: DriveParams, g: TimeGrid) -> list[DensityMatrix]:
    """March the physical state from ee = 1 across every grid node.

    A pulse fires at every node n*substeps_per_interval for n = 1..n_pulses;
    the value stored at such a node is the post-pulse matrix (the pre-pulse
    one is recovered by one more swap). The nominal pulse at the final node
    is applied too; it carries no weight in any time integral but keeps the
    node values consistent with the counting of completed pulses. In the
    pulse-free mode no swaps occur.
    """
    validate_params(p)
    n_sub = g.substeps_per_interval
    rho = DensityMatrix(ee=1.0 + 0.0j, eg=0.0j, ge=0.0j, gg=0.0j)
    out = [rho]
    for k in range(1, g.n_nodes):
        rho = free_evolve(rho, g.dt, p)
        if p.n_pulses >= 1 and k % n_sub == 0:
            rho = apply_pi_pulse(rho)
        out.append(rho)
    return out
