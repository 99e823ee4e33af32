import numpy as np
import pytest

import pulsespec as ps


def drive(n_pulses, delta=3.0, tau=0.2, free_time=None):
    return ps.DriveParams(delta=delta, tau=tau, n_pulses=n_pulses,
                          free_time=free_time)


def unfold(block, row, count, side=0):
    """Row `row` of the pair block over theta_j = j*dt, j < count,
    unfolded from its one pair over theta = dt..P*dt: 1 at j = 0, then
    factor**((j - 1) // P) times column (j - 1) % P of block[side], with
    factor = block[0, 0, -1], row 0 at theta = P*dt. side=1 gives the left
    limits instead of the post-pulse values."""
    c = np.arange(count - 1)
    pair = block.shape[2]
    return np.append(1.0, block[0, 0, -1] ** (c // pair)
                     * block[side, row, c % pair])


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
