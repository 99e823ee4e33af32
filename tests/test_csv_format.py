"""The CSV writer prints every float exactly as CPython's "%.17g" does.

`_digits._csv_rows` takes the 17 digits from an error-free product and a byte
mask for values of decimal exponent -6..16 and sends zeros, subnormals and
every other magnitude through one % call; each case here compares its
output with "%.17g" % value.
"""
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from pulsespec import _digits

FLOAT_MAX = float(np.finfo(float).max)


def check(values, cols=1):
    """Rows of the kernel against "%.17g" % value, naming the first rows
    that differ (a diff of the whole text would take minutes)."""
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    expected = [",".join("%.17g" % v for v in row) for row in table.tolist()]
    lines = _digits._csv_rows(table).decode().split("\n")
    assert lines.pop() == "" and len(lines) == len(expected)
    wrong = [(row, got, want) for row, got, want
             in zip(table.tolist(), lines, expected) if got != want]
    assert not wrong[:5]


def doubles(sign, exponent, mantissa):
    bits = (np.uint64(sign) << np.uint64(63)
            | np.uint64(exponent) << np.uint64(52) | np.uint64(mantissa))
    return float(bits.view(np.float64))


# every finite exponent, and the binades 2**-24..2**57 the digit path covers
finite = st.builds(doubles, st.integers(0, 1),
                   st.one_of(st.integers(0, 2046), st.integers(999, 1080)),
                   st.integers(0, 2**52 - 1))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(finite, min_size=1, max_size=40))
def test_raw_bit_patterns_match_percent_format(values):
    check(values)


def test_powers_of_ten_and_their_neighbours():
    # the log10 estimate of the exponent misses by one next to a power of
    # ten; the double nearest 1e-14 lies below it and rounds up to it
    powers = np.array([float(f"1e{m}") for m in range(-30, 31)])
    values = np.concatenate([np.nextafter(powers, 0.0), powers,
                             np.nextafter(powers, np.inf)])
    check(np.concatenate([values, -values]))
    check([9.9999999999999999e-6, 0.99999999999999994, 9.9999999999999995e-7,
           99999999999999984.0, 99999999999999999.0, 9.999999999999999e16])


def test_ties_at_the_eighteenth_digit_round_to_even():
    # x = odd / 2**(k + 1) makes x * 10**k an exact half for k >= 1; with
    # 10**X <= x < 10**(X + 1), X = 16 - k, it is a tie between two
    # 17-digit roundings
    rng = np.random.default_rng(5)
    values = []
    for k in range(1, 23):
        scale = 2 ** (k + 1)
        low = math.ceil(Fraction(10) ** (16 - k) * scale)
        high = min(math.floor(Fraction(10) ** (17 - k) * scale), 2**53)
        for odd in rng.integers(low // 2, high // 2, 40) * 2 + 1:
            x = int(odd) / scale
            assert (Fraction(x) * 10**k).denominator == 2
            values.append(x)
    check(values)
    check(-np.array(values))


def test_zeros_subnormals_and_extremes():
    check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
           2.2250738585072014e-308, FLOAT_MAX, -FLOAT_MAX, 1e-7, 1e17])


def test_tables_of_fallback_values_and_of_both_paths():
    # 1..9 times 10**X with X outside -6..16: every value takes the % call
    rng = np.random.default_rng(9)
    outside = (rng.choice([-1.0, 1.0], 60) * rng.uniform(1.0, 9.0, 60)
               * 10.0 ** rng.choice([-300, -40, -8, 17, 40, 300], 60))
    fallback = np.concatenate([[0.0, -0.0, 5e-324, FLOAT_MAX], outside])
    check(fallback, cols=4)
    digits = rng.normal(size=64) * 10.0 ** rng.integers(-6, 17, 64)
    both = np.stack([fallback, digits], axis=1)
    check(both, cols=4)
    check(both.T, cols=4)


def test_random_magnitudes_match_percent_format():
    # 100,000 values over 1e-8..1e18, where most take the digit path
    rng = np.random.default_rng(13)
    values = (rng.choice([-1.0, 1.0], 100_000)
              * 10.0 ** rng.uniform(-8.0, 18.0, 100_000))
    check(values, cols=4)
