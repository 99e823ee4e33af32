"""The JSON writer prints every float exactly as CPython's repr does.

`_digits._repr_cells` takes the shortest digits that read back as the value
from an error-free product, its rounding interval and a byte mask for
values of decimal exponent -6..16, and sends zeros, subnormals, every
other magnitude and ties between two shortest forms through one %r call;
each case here compares its output with repr(value).
"""
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from pulsespec import _digits
from test_csv_format import FLOAT_MAX, check as check_csv, finite


def check(values):
    """The kernel's text against repr(value), naming the first values
    that differ."""
    x = np.asarray(values, dtype=float).ravel()
    text = _digits._repr_cells(x).tobytes().translate(None, b"\0 ").decode()
    got = text.split(",")
    assert got.pop() == "" and len(got) == x.size
    wrong = [(v, g) for v, g in zip(x.tolist(), got) if g != repr(v)]
    assert not wrong[:5]


def neighbours(values, ulps):
    """values with the doubles up to `ulps` steps below and above them."""
    out = [np.asarray(values, dtype=float)]
    for direction in (0.0, np.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_raw_bit_patterns_match_repr(values):
    check(values)


def test_powers_of_two_and_their_neighbours():
    # at a power of two the doubles below lie half as far apart as those
    # above; the kernel takes the wider gap on both sides, which holds for
    # each power of two it formats, 2**-19..2**56, all of them here
    powers = np.ldexp(1.0, np.arange(-24, 60))
    values = neighbours(powers, 2)
    check(np.concatenate([values, -values]))


def test_powers_of_ten_and_their_neighbours():
    # no double of exponent -6..16 has its shortest form in the next
    # decade: that would take the double nearest 10**m below 10**m, and
    # for m = -5..17 it is 10**m or above it (1e-6 and 1e-7 lie below,
    # but their exponent is -7 and they take the fallback)
    for m in range(-5, 18):
        assert Fraction(float(f"1e{m}")) >= Fraction(10) ** m
    assert repr(float("1e-6")) == "1e-06"
    powers = [float(f"1e{m}") for m in range(-30, 31)]
    values = neighbours(powers, 3)
    check(np.concatenate([values, -values]))


def test_decade_neighbours_among_ordinary_values():
    # next to a power of ten the log10 estimate of X misses by one, and
    # the fix-up that moves k runs only for the values of a chunk that
    # need it; here the neighbours of 10**-6..10**16 of both signs sit
    # among ordinary values in one chunk of each kernel
    rng = np.random.default_rng(17)
    near = neighbours([float(f"1e{m}") for m in range(-6, 17)], 3)
    ordinary = (rng.normal(size=4 * near.size)
                * 10.0 ** rng.integers(-6, 17, 4 * near.size))
    values = rng.permutation(np.concatenate([near, -near, ordinary]))
    check(values)
    check_csv(values, cols=2)


def test_ties_between_shortest_candidates():
    rng = np.random.default_rng(7)
    # w / 2 for odd w in 2e14..2e15: 16 digits ending in 5, a tie at the
    # 15th digit; the interval is narrower than 1e-15 of the value, so
    # repr prints all 16
    sixteen = rng.integers(10**14, 10**15, 500) + 0.5
    # w / 4 for odd w in 2**51..4e15: 17 digits ending in 5 whose interval
    # holds both 16-digit neighbours, a tie at the 16th digit
    seventeen = (rng.integers(2**50, 2 * 10**15, 500) * 2 + 1) / 4
    # odd / 2**(k + 1): x * 10**k is a half, a tie between two 17-digit
    # numbers unless the interval also holds a multiple of 10
    halves = []
    for k in range(1, 23):
        scale = 2 ** (k + 1)
        low = math.ceil(Fraction(10) ** (16 - k) * scale)
        high = min(math.floor(Fraction(10) ** (17 - k) * scale), 2**53)
        for odd in rng.integers(low // 2, high // 2, 40) * 2 + 1:
            halves.append(int(odd) / scale)
    for values in (sixteen, seventeen, halves):
        check(values)
        check(-np.array(values))
    assert all(len(repr(v)) == 17 for v in sixteen.tolist())


def test_notation_switches():
    check([0.0001, 1e-05, 0.00012, 1.2e-05, 9999999999999998.0, 1e16,
           1.2345678901234568e+16, 123456789012345.6, 1000000000000000.0,
           -1000000000000000.0, 1.0, 10.0, 0.5])
    text = _digits._repr_cells(np.array([0.0001, 1e-05, 9999999999999998.0,
                                     1e16, 1e15]))
    assert text.tobytes().translate(None, b"\0 ") == (
        b"0.0001,1e-05,9999999999999998.0,1e+16,1000000000000000.0,")


def test_zeros_subnormals_and_extremes():
    check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.2250738585072014e-308, FLOAT_MAX, -FLOAT_MAX, 1e-7, 1e17])


def test_arrays_of_zero_and_one_values():
    assert _digits._repr_cells(np.array([])).size == 0
    for value in (0.1, -2.5, 0.0, 1e300):
        check([value])


def test_random_magnitudes_and_short_decimals_match_repr():
    rng = np.random.default_rng(13)
    magnitudes = (rng.choice([-1.0, 1.0], 100_000)
                  * 10.0 ** rng.uniform(-8.0, 18.0, 100_000))
    decimals = (rng.integers(1, 10**6, 50_000)
                / 10.0 ** rng.integers(0, 12, 50_000))
    integers = rng.integers(1, 10**17, 50_000).astype(float)
    for values in (magnitudes, decimals, -decimals, integers):
        check(values)
