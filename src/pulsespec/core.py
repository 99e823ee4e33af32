"""Parameter records, time/frequency grids, the spectrum container, and
Dekker's error-free product, which the chirp-z phases, the closed form's
phase reduction and the writers' digit kernels share.

All quantities are expressed in reduced units with the spontaneous emission
rate gamma = 2, so the free emitter line is 1/(omega**2 + 1). The probe
coupling A only scales the spectra, so they are in units of 2*A**2: p1 and
p2 are the real parts of the raw integrals.
"""
from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

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


class TooManyPulses(PulsespecError):
    pass


class AliasedWindow(PulsespecError):
    pass


DEFAULT_GAMMA = 2.0
# The time grid's size rule: 4 x n_nodes cells at most (2**24 complex
# values take 256 MiB). Arrays in n_sub pass it on one interval: the
# kernel table's 6 x n_sub cells by 1.5 times, and validate's check of
# that table (about 0.5 kB a substep, traced) by about 8.
MAX_ARRAY_CELLS = 2**24
# Largest frequency grid: a closed-form spectrum run with JSON output peaks
# at about 0.26 kB per frequency node above the interpreter's ~30 MB, so
# 131072 nodes stay near 65 MB.
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
    free_time  total evolution time for the pulse-free mode; required when
               n_pulses = 0 and forbidden otherwise

    The probe coupling A is no parameter: it only scales the spectra,
    which are in units of 2*A**2.
    """

    delta: float
    tau: float
    n_pulses: int
    gamma: float = DEFAULT_GAMMA
    free_time: float | None = None

    def __post_init__(self):
        validate_params(self)
        # a numpy integer is kept as an int, which meta and JSON can hold
        object.__setattr__(self, "n_pulses", operator.index(self.n_pulses))

    @property
    def n_intervals(self) -> int:
        """Periods of tau the protocol spans: n_pulses, or free_time rounded
        up to whole periods, however many; GridTooLarge only where
        free_time / tau overflows to inf, which has no ceiling."""
        if self.n_pulses >= 1:
            return self.n_pulses
        intervals = self.free_time / self.tau
        if intervals == math.inf:
            raise GridTooLarge("free_time / tau overflows a double")
        # a horizon within 1e-9 intervals of zero still takes one interval
        return max(1, math.ceil(intervals - 1e-9))


def validate_params(p: DriveParams) -> DriveParams:
    """Check the DriveParams invariants and return p unchanged.

    Every DriveParams runs this when it is made. The default gamma is
    filled by the dataclass itself; this only rejects inconsistent or
    non-finite values.
    """
    if not p.tau > 0:
        raise NonPositiveTau(f"tau must be positive, got {p.tau}")
    if not p.gamma > 0:
        raise NonPositiveGamma(f"gamma must be positive, got {p.gamma}")
    for name in ("delta", "tau", "gamma", "free_time"):
        value = getattr(p, name)
        if value is not None and not math.isfinite(value):
            raise PulsespecError(f"{name} must be finite, got {value}")
    n_pulses = _count("n_pulses", p.n_pulses)
    if n_pulses < 0:
        try:
            count = str(n_pulses)
        except ValueError:  # past Python's int-to-str digit limit
            count = f"a negative count of {n_pulses.bit_length()} bits"
        raise PulsespecError(f"n_pulses must be >= 0, got {count}")
    if n_pulses > 2**53:
        # counts up to 2**53 are exact doubles, as the phase reductions need
        raise TooManyPulses(f"n_pulses must be <= 2**53, got "
                            f"{n_pulses.bit_length()} bits")
    if p.n_pulses == 0:
        if p.free_time is None:
            raise MissingFreeTime("n_pulses = 0 requires free_time")
        if not p.free_time > 0:
            raise PulsespecError(f"free_time must be positive, got {p.free_time}")
    elif p.free_time is not None:
        raise ConflictingFreeTime(
            "free_time only applies to the pulse-free mode (n_pulses = 0)")
    return p


def _count(name: str, value) -> int:
    """value as an int, for a whole number of any integer type; a bool, a
    float or anything else operator.index refuses raises PulsespecError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise PulsespecError(f"{name} must be an integer, got {value!r}")


def default_substeps(tau: float, delta: float) -> int:
    """Sub-steps per interval giving dt <= 0.01 and |delta|*dt <= 1/4, with
    a floor of 20.

    The second bound keeps the phase the ge element turns in one step
    small at any detuning. The small slack inside ceil absorbs cases like
    0.2/0.01 evaluating to 20.000000000000004 in floating point. The
    count is not bounded here, make_time_grid is; GridTooLarge only where
    tau/0.01 or 4*|delta|*tau overflows to inf, which has no ceiling.
    """
    steps = max(tau / 0.01, 4.0 * abs(delta) * tau)
    if steps == math.inf:
        raise GridTooLarge("substeps per interval overflow a double")
    return max(20, math.ceil(steps - 1e-9))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform node grid t_i = i*dt aligned with the pulse instants.

    dt is defined as tau/substeps_per_interval, never independently, so
    every pulse time n*tau falls exactly on node n*substeps_per_interval.
    The grid holds no array: the node times are formed on each access.
    """

    substeps_per_interval: int
    dt: float
    n_intervals: int

    @property
    def n_nodes(self) -> int:
        return self.n_intervals * self.substeps_per_interval + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dt


def make_time_grid(p: DriveParams, substeps: int | None = None) -> TimeGrid:
    """Build the propagation grid for params p.

    Without `substeps` each interval takes default_substeps(tau, delta)
    sub-steps. The grid spans p.n_intervals periods: [0, n_pulses*tau],
    or for the pulse-free mode at least free_time. Raises GridTooLarge
    when 4 x n_nodes cells exceed MAX_ARRAY_CELLS, the time grid's one
    size rule, compared in exact integers. That bounds the chirp-z buffer,
    2 x fft_length(n_nodes, M) values, for every M up to
    MAX_FREQUENCY_NODES, and every array in n_nodes; arrays in n_sub pass
    it on one interval, as MAX_ARRAY_CELLS states.
    """
    n_sub = (default_substeps(p.tau, p.delta) if substeps is None
             else _count("substeps", substeps))
    if n_sub < 1:
        raise PulsespecError(f"substeps must be >= 1, got {n_sub}")
    n_nodes = p.n_intervals * n_sub + 1
    if 4 * n_nodes > MAX_ARRAY_CELLS:
        raise GridTooLarge(
            f"{n_sub} substeps x {n_nodes} nodes need {4 * n_nodes} array "
            f"cells, above {MAX_ARRAY_CELLS}")
    return TimeGrid(substeps_per_interval=n_sub, dt=p.tau / n_sub,
                    n_intervals=p.n_intervals)


def refuse_aliasing(p: DriveParams, g: TimeGrid, fg: FrequencyGrid) -> None:
    """Raise AliasedWindow where the numeric engine's transform cannot
    estimate the window: max(|omega_min - delta|, |omega_max - delta|) * dt
    reaches pi. The engine samples theta at dt, so its sum is periodic in
    omega - delta with period 2*pi/dt, and from pi on a node takes the
    value of a frequency nearer delta. Below pi the error still grows with
    |omega - delta| * dt; `validate` measures it. Its one caller is
    `spectrum_numeric.compute_numeric_spectrum`, so every numeric
    spectrum, of the library and of every command, passes this rule."""
    reach = max(abs(fg.omega_min - p.delta), abs(fg.omega_max - p.delta))
    if reach * g.dt >= math.pi:
        raise AliasedWindow(
            f"omega window [{fg.omega_min:g}, {fg.omega_max:g}] reaches "
            f"|omega - delta| * dt = {reach * g.dt:.3g} >= pi at "
            f"{g.substeps_per_interval} substeps; it needs more than "
            f"{reach * p.tau / math.pi:.6g} substeps")


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
    absorption, which the container computes. raw_p1/raw_p2/raw_p3 are the
    complex integrals when the producing engine has them; p1 and p2 are
    the real parts of raw_p1 and raw_p2. meta records the resolved
    parameters, grid descriptors, and the engine tag ("numeric" or
    "closed_form").
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
        for name in ("p1", "p2", "raw_p1", "raw_p2", "raw_p3"):
            v = getattr(self, name)
            if v is not None and v.size != n:
                raise GridMismatch(f"{name} has {v.size} values for {n} nodes")
        self.q = self.p2 - self.p1
        # the writers format every one of these floats, and JSON has no
        # token for a non-finite one
        for name in ("omegas", "p1", "p2", "q", "raw_p1", "raw_p2", "raw_p3"):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise NonFiniteSpectrum(f"{name} has non-finite values")


def build_meta(p: DriveParams, fg: FrequencyGrid, engine: str,
               grid: TimeGrid | None = None) -> dict:
    """Resolved parameter set embedded in every Spectrum and output file:
    the engine, the DriveParams and TimeGrid fields, and the frequency
    grid's descriptors."""
    meta = {"engine": engine, **asdict(p), "omega_min": fg.omega_min,
            "omega_max": fg.omega_max, "omega_step": fg.omega_step,
            "n_omega": int(fg.omegas.size)}
    if grid is not None:
        meta |= asdict(grid)
    return meta


# Veltkamp's splitter 2**27 + 1
_SPLITTER = 134217729.0


def _split(x):
    """x = hi + lo exactly, each half short enough for exact products."""
    hi = x * _SPLITTER
    hi = hi - (hi - x)
    return hi, x - hi


def two_prod(a, b):
    """Dekker's error-free product: a*b == p + e exactly, elementwise,
    for doubles whose product neither overflows nor underflows."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e
