"""Parameter records, time/frequency grids, and the spectrum container.

All quantities are expressed in reduced units with the spontaneous emission
rate gamma = 2, so the free emitter line is 1/(omega**2 + 1). The probe
coupling amplitude only sets the overall scale of the spectra and defaults
to amp = sqrt(1/2), i.e. 2*amp**2 = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class PulsespecError(ValueError):
    """Base class for parameter and grid errors raised by this package."""


class NonPositiveTau(PulsespecError):
    pass


class NonPositiveGamma(PulsespecError):
    pass


class MissingFreeTime(PulsespecError):
    pass


class ConflictingFreeTime(PulsespecError):
    pass


class GridMismatch(PulsespecError):
    pass


class NonFiniteSpectrum(PulsespecError):
    pass


class GridTooLarge(PulsespecError):
    pass


DEFAULT_GAMMA = 2.0
DEFAULT_AMP = math.sqrt(0.5)
# Largest number of cells any array of the numeric engine may have
# (2**24 complex values take 256 MiB).
MAX_ARRAY_CELLS = 2**24
# Largest frequency grid: a spectrum run with JSON output peaks at about
# 1.5 kB per frequency node, so 131072 nodes stay near 200 MB.
MAX_FREQUENCY_NODES = MAX_ARRAY_CELLS // 128


@dataclass(frozen=True)
class DriveParams:
    """Physical and protocol parameters.

    delta      detuning of the emitter transition from the pulse carrier
               (rotating frame, rad per unit time)
    tau        inter-pulse period, > 0
    n_pulses   total number of pulses, >= 0; protocol time is n_pulses*tau
               when n_pulses >= 1
    gamma      spontaneous emission rate, > 0
    amp        probe coupling amplitude, > 0; spectra scale as 2*amp**2
    free_time  total evolution time for the pulse-free mode; required when
               n_pulses = 0 and forbidden otherwise
    """

    delta: float
    tau: float
    n_pulses: int
    gamma: float = DEFAULT_GAMMA
    amp: float = DEFAULT_AMP
    free_time: float | None = None

    def __post_init__(self):
        validate_params(self)


def validate_params(p: DriveParams) -> DriveParams:
    """Check the DriveParams invariants and return p unchanged.

    Every DriveParams runs this when it is made. Defaults (gamma, amp) are
    filled by the dataclass itself; this only rejects inconsistent or
    non-finite values.
    """
    if not p.tau > 0:
        raise NonPositiveTau(f"tau must be positive, got {p.tau}")
    if not p.gamma > 0:
        raise NonPositiveGamma(f"gamma must be positive, got {p.gamma}")
    if not p.amp > 0:
        raise PulsespecError(f"amp must be positive, got {p.amp}")
    for name in ("delta", "tau", "gamma", "amp", "free_time"):
        value = getattr(p, name)
        if value is not None and not math.isfinite(value):
            raise PulsespecError(f"{name} must be finite, got {value}")
    if p.n_pulses < 0:
        raise PulsespecError(f"n_pulses must be >= 0, got {p.n_pulses}")
    if p.n_pulses == 0:
        if p.free_time is None:
            raise MissingFreeTime("n_pulses = 0 requires free_time")
        if not p.free_time > 0:
            raise PulsespecError(f"free_time must be positive, got {p.free_time}")
    elif p.free_time is not None:
        raise ConflictingFreeTime(
            "free_time only applies to the pulse-free mode (n_pulses = 0)")
    return p


def default_substeps(tau: float) -> int:
    """Sub-steps per interval giving dt <= 0.01 with a floor of 20.

    The small slack inside ceil absorbs cases like 0.2/0.01 evaluating to
    20.000000000000004 in floating point.
    """
    return max(20, math.ceil(tau / 0.01 - 1e-9))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform node grid t_i = i*dt aligned with the pulse instants.

    dt is defined as tau/substeps_per_interval, never independently, so
    every pulse time n*tau falls exactly on node n*substeps_per_interval.
    """

    substeps_per_interval: int
    dt: float
    n_intervals: int
    times: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.times.size


def make_time_grid(p: DriveParams, substeps: int | None = None) -> TimeGrid:
    """Build the propagation grid for params p.

    For n_pulses >= 1 the grid spans [0, n_pulses*tau]. For the pulse-free
    mode the horizon is rounded up to a whole number of intervals, so the
    grid covers at least free_time. Raises GridTooLarge when the numeric
    engine's largest array would exceed MAX_ARRAY_CELLS. That is either
    the march of the propagator rows over one pulse pair, 2 x 2 matrices
    for n_sub + 1 rows over at most min(n_nodes, 2*n_sub + 1) nodes, or
    the trajectory, 2 x 2 matrices over n_nodes.
    """
    n_sub = default_substeps(p.tau) if substeps is None else int(substeps)
    if n_sub < 1:
        raise PulsespecError(f"substeps must be >= 1, got {n_sub}")
    dt = p.tau / n_sub
    if p.n_pulses >= 1:
        n_intervals = p.n_pulses
    else:
        n_intervals = math.ceil(p.free_time / p.tau - 1e-9)
    n_total = n_intervals * n_sub
    n_nodes = n_total + 1
    cells = 4 * max((n_sub + 1) * min(n_nodes, 2 * n_sub + 1), n_nodes)
    if cells > MAX_ARRAY_CELLS:
        raise GridTooLarge(
            f"{n_sub} substeps x {n_nodes} nodes need {cells} array "
            f"cells, above {MAX_ARRAY_CELLS}")
    times = np.arange(n_nodes) * dt
    return TimeGrid(substeps_per_interval=n_sub, dt=dt,
                    n_intervals=n_intervals, times=times)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency nodes omega_min + k*omega_step, endpoints included."""

    omega_min: float
    omega_max: float
    omega_step: float
    omegas: np.ndarray


def make_frequency_grid(p: DriveParams | None = None,
                        omega_min: float | None = None,
                        omega_max: float | None = None,
                        omega_step: float | None = None) -> FrequencyGrid:
    """Build a frequency grid, defaulting to the window [-3pi/tau, 3pi/tau]
    with step pi/(200*tau).

    The default window covers the central feature plus at least two
    satellite orders of the pulsed spectrum. Raises GridTooLarge when the
    grid would have more than MAX_FREQUENCY_NODES nodes.
    """
    if omega_min is None or omega_max is None or omega_step is None:
        if p is None:
            raise PulsespecError(
                "omega_min/omega_max/omega_step are required without params")
        half = 3.0 * math.pi / p.tau
        if omega_min is None:
            omega_min = -half
        if omega_max is None:
            omega_max = half
        if omega_step is None:
            omega_step = math.pi / (200.0 * p.tau)
    if not omega_min < omega_max:
        raise PulsespecError(
            f"omega_min must be below omega_max, got [{omega_min}, {omega_max}]")
    if not omega_step > 0:
        raise PulsespecError(f"omega_step must be positive, got {omega_step}")
    steps = (omega_max - omega_min) / omega_step + 1e-9
    if not steps < MAX_FREQUENCY_NODES:
        raise GridTooLarge(f"frequency grid of step {omega_step} needs "
                           f"more than {MAX_FREQUENCY_NODES} nodes")
    n_steps = int(math.floor(steps))
    omegas = omega_min + omega_step * np.arange(n_steps + 1)
    if omegas.size < 3:
        raise PulsespecError(
            f"frequency grid needs at least 3 nodes, got {omegas.size}")
    return FrequencyGrid(omega_min=omega_min, omega_max=omega_max,
                         omega_step=omega_step, omegas=omegas)


@dataclass
class Spectrum:
    """Spectra on a frequency grid.

    p1 is the emission side, p2 the absorption side, q = p2 - p1 the net
    absorption, which the container computes. raw_p1/raw_p2/raw_p3 keep the
    complex values before the 2*amp**2 * Re{} step when the producing
    engine has them. meta records the resolved parameters, grid
    descriptors, and the engine tag ("numeric" or "closed_form").
    """

    omegas: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    q: np.ndarray = field(init=False)
    raw_p1: np.ndarray | None = None
    raw_p2: np.ndarray | None = None
    raw_p3: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.omegas.size
        for name in ("p1", "p2"):
            size = getattr(self, name).size
            if size != n:
                raise GridMismatch(f"{name} has {size} values for {n} nodes")
        self.q = self.p2 - self.p1
        for name in ("p1", "p2", "q"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteSpectrum(f"{name} has non-finite values")


def build_meta(p: DriveParams, fg: FrequencyGrid, engine: str,
               grid: TimeGrid | None = None) -> dict:
    """Resolved parameter set embedded in every Spectrum and output file."""
    meta = {
        "engine": engine,
        "delta": p.delta,
        "gamma": p.gamma,
        "tau": p.tau,
        "n_pulses": p.n_pulses,
        "amp": p.amp,
        "free_time": p.free_time,
        "omega_min": fg.omega_min,
        "omega_max": fg.omega_max,
        "omega_step": fg.omega_step,
        "n_omega": int(fg.omegas.size),
    }
    if grid is not None:
        meta["substeps_per_interval"] = grid.substeps_per_interval
        meta["dt"] = grid.dt
        meta["n_intervals"] = grid.n_intervals
    return meta
