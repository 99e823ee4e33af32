import numpy as np
import pytest
from hypothesis import strategies as st

import pulsespec as ps


def drive(n_pulses, delta=3.0, tau=0.2, free_time=None):
    return ps.DriveParams(delta=delta, tau=tau, n_pulses=n_pulses,
                          free_time=free_time)


# (params, substeps) on which the trajectory equals the reference march of
# whole matrices exactly, and the kernel table its values within rounding:
# pulse-free, the one- and two-pulse trains that end the march early,
# three pulses, one substep, the benchmark grids, long trains, a negative
# detuning, and the golden cases of test_spectrum_numeric
MARCH_GRIDS = {
    "pulse_free": (drive(0, tau=0.3, free_time=2.0), 7),
    "pulse_free_short": (drive(0, free_time=0.3), 7),
    "one_pulse": (drive(1), 7),
    "two_pulses": (drive(2), 7),
    "three_pulses": (drive(3), 7),
    "four_pulses_one_substep": (drive(4), 1),
    "numeric_long": (drive(80), 20),
    "validate_both": (drive(20), 80),
    "long_train": (drive(700), 20),
    "very_long_train": (drive(10000), 20),
    "negative_detuning": (drive(5, delta=-7.1, tau=0.913), 13),
    "drive8": (drive(8), None),
    "odd_train": (drive(3, delta=2.2, tau=0.37), 7),
}


def floors(n_sub, row, side=0):
    """The kernel row that row `row` reads at column c, theta = (c + 1)*dt,
    of one pulse pair: the floor of node u = row + c + 1, or of u - 1 for
    the left limits (side=1). Rows below n_sub are the residue rows and
    row n_sub is the companion, whose value at the end of the pair has
    floor 3, past the table."""
    return (row + np.arange(2 * n_sub) + 1 - side) // n_sub


def unfold(kernel, row, count, side=0):
    """Row `row` over theta_j = j*dt, j < count, of the one-sided limits
    that the (3, P) `kernel` table stands for: 1 at j = 0, then
    factor**((j - 1) // P) times kernel[f, (j - 1) % P], with f the floor
    of `floors` (0 at floor 3) and factor = kernel[2, -1], the
    propagator over one pulse pair; side=1 gives the left limits instead
    of the post-pulse values."""
    period = kernel.shape[1]
    one_pair = np.append(kernel, np.zeros((1, period)), axis=0)[
        floors(period // 2, row, side), np.arange(period)]
    c = np.arange(count - 1)
    return np.append(1.0, kernel[2, -1] ** (c // period)
                     * one_pair[c % period])


def log_uniform(low, high):
    """10**u for u uniform in [low, high]."""
    return st.floats(low, high).map(lambda u: 10.0 ** u)


def closed_at(n_pulses, delta=3.0, tau=0.2):
    p = drive(n_pulses, delta=delta, tau=tau)
    return ps.closed_spectrum(p, ps.make_frequency_grid(p))


# The reference operating point (delta 3, tau 0.2) shows up everywhere;
# cache the expensive spectra once per session.

@pytest.fixture(scope="session")
def closed8():
    return closed_at(8)


@pytest.fixture(scope="session")
def closed20():
    return closed_at(20)


@pytest.fixture(scope="session")
def numeric8():
    p = drive(8)
    return ps.numeric_spectrum(p, ps.make_frequency_grid(p))


@pytest.fixture(scope="session")
def numeric20():
    p = drive(20)
    return ps.numeric_spectrum(p, ps.make_frequency_grid(p))


@pytest.fixture(scope="session")
def nopulse20():
    """Numeric spectrum with the pulses switched off over a long window."""
    p = drive(0, free_time=20.0)
    return ps.numeric_spectrum(p, ps.make_frequency_grid(p))


def grid_step(s):
    return float(s.omegas[1] - s.omegas[0])


def nearest_peak(peaks, target):
    return min(peaks, key=lambda pk: abs(pk[0] - target))
