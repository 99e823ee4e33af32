"""A fixed piece of work whose time tracks the speed of the host.

The benchmark runs on a few cores of a shared machine whose speed drifts by
up to 2x over seconds to minutes as other tenants load it; CPU time follows
wall time, so the slowdown does not show as waiting. The probe does the
kinds of work pulsespec does, in fixed amounts: many short numpy calls (the
correlator row marches), element-wise Python over an array (peak finding)
and float-to-text conversion (the CSV and JSON writers). Timed next to each
invocation, it gives the host's speed at that moment, and an invocation's
wall time scaled by REFERENCE_S / probe time is close to independent of it.

The probe is part of the benchmark, not of pulsespec, so a change to the
package cannot change it; it depends only on Python and numpy.
"""
from __future__ import annotations

import time

import numpy as np

# The probe's time on an idle 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest,
# Python 3.11, numpy 2.4. Scaled times are in seconds of such a host.
REFERENCE_S = 0.021

_RATIO = complex(0.999, 0.001)
_PEAKS = np.abs(np.sin(np.linspace(0.0, 300.0, 30000)))
_VALUES = np.linspace(0.0, 40.0, 8000)


def _work() -> None:
    for _ in range(2000):
        np.cumprod(np.full(300, _RATIO))
    y = _PEAKS
    hits = 0
    for j in range(1, y.size - 1):
        if y[j] > y[j - 1] and y[j] > y[j + 1]:
            hits += 1
    "\n".join(",".join(format(float(v), ".17g") for v in _VALUES[j:j + 4])
              for j in range(0, _VALUES.size, 4))


def probe() -> float:
    """Wall time of the probe's fixed work, in seconds.

    The work runs once untimed first: straight after an invocation, a
    first run can take up to 2x longer than the next.
    """
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
