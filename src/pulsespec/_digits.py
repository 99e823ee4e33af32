"""Exact numpy kernels for the floats of the spectrum files: the text of
"%.17g" for CSV and of repr for JSON, with a per-value % fallback."""
from __future__ import annotations

import numpy as np

from .core import two_prod


# Both float kernels format a value x of decimal exponent X, -6 <= X <= 16,
# from the error-free product |x| * 10**k = p + e, k = 16 - X: 10**k is
# exact for k <= 22, and 10**16 <= p + e < 10**17. The CSV takes the 17
# digits that "%.17g" prints, D = p + rint(e): p >= 2**53 is an even
# integer, so rint rounds ties to even, as CPython's dtoa does. JSON takes
# the shortest digits that read back as x, as repr does (see _repr_cells).
# Each value fills a fixed-width cell of ASCII and NUL bytes: sign,
# "0.000" prefix (X < 0), 17 digits each followed by a slot for the
# decimal point, "e+XX" suffix and separator. A mask chosen by sign, X
# and the number of significant digits keeps the bytes the format prints
# and zeroes the rest, and one bytes.translate drops the zeros. Any other
# value (zero, subnormals, X outside -6..16) goes through one % call per
# chunk.
_POW10 = np.array([float(10**k) for k in range(23)])
_CELL = np.frombuffer(b"-0.000" + b"0." * 17 + b"e-00,", dtype=np.uint8)
_CSV_CHUNK_ROWS = 256
_JSON_CHUNK_VALUES = 2048


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """"0000".."9999" as one uint32 of four ASCII bytes each, and the
    trailing zeros of each, 4 for "0000"."""
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        quads[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    quads = quads.reshape(10_000, 4)
    z = (quads == ord("0")).astype(np.int64)
    trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))
    return quads.view(np.uint32).ravel(), trailing


def _cell_masks(exponent_from: int, dot_zero: int) -> np.ndarray:
    """0xFF where the format prints a byte of the cell, by (negative,
    X + 6, significant digits), flattened to rows of the cell width.
    Exponent notation is used for X < -4 and X >= exponent_from; fixed
    notation writes integers with dot_zero digits after the point."""
    neg = np.arange(2)[:, None, None]
    exponent = np.arange(-6, 17)[:, None]
    digits = np.arange(18)
    sci = (exponent < -4) | (exponent >= exponent_from)
    # fixed notation keeps every integer digit; the point follows digit X,
    # or digit 0 in exponent notation, when a digit comes after it
    shown = np.where(sci | (exponent < 0), digits,
                     np.maximum(digits, exponent + 1 + dot_zero))
    point = np.where(sci, 0, np.where(exponent >= 0, exponent, -1))
    point = np.where(shown > point + 1, point, -1)
    prefix = np.where(~sci & (exponent < 0), 1 - exponent, 0)
    slot = np.arange(17)
    keep = np.zeros((2, 23, 18, _CELL.size), dtype=bool)
    keep[..., 0] = neg == 1
    keep[..., 1:6] = np.arange(5) < prefix[..., None]
    keep[..., 6:40:2] = slot < shown[..., None]
    keep[..., 7:40:2] = slot == point[..., None]
    keep[..., 40:44] = sci[..., None]
    keep[..., 44] = True
    return (keep * np.uint8(0xFF)).reshape(-1, _CELL.size)


_QUADS, _TRAILING_ZEROS = _quad_tables()
_CSV_MASKS = _cell_masks(17, 0)
_REPR_MASKS = _cell_masks(16, 1)


def _scaled(x: np.ndarray):
    """|x| (1.0 where the value takes the fallback), k in 0..22, and p, e
    with |x| * 10**k = p + e exactly, for a value x of decimal exponent
    X = 16 - k; and whether the value takes the fallback."""
    a = np.abs(x)
    # the double 1e-6 lies below 10**-6, so these values have -6 <= X <= 16
    fallback = (a <= 1e-6) | (a >= 1e17)
    a[fallback] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    k = 16 - k.astype(np.int64)
    np.minimum(np.maximum(k, 0, out=k), 22, out=k)
    p, e = two_prod(a, _POW10[k])
    # the log10 estimate may miss by one; compare p + e exactly with the
    # decade and move k once (a rounded 10**16 can stand for 9.99..95e15)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    moved = np.flatnonzero(low != high)
    k[moved] += low[moved].astype(np.int64) - high[moved]
    p[moved], e[moved] = two_prod(a[moved], _POW10[k[moved]])
    return a, k, p, e, fallback


def _cells(x: np.ndarray, d: np.ndarray, k: np.ndarray,
           fallback: np.ndarray, masks: np.ndarray, fmt: str) -> np.ndarray:
    """The cells of the values x from their 17-digit integers d,
    10**16 <= d < 10**17, and k = 16 - X, laid out by `masks`; values
    where `fallback` is set are "%-44" + fmt % value instead."""
    lead, rest = np.divmod(d, 10**16)
    halves = np.empty((x.size, 2), dtype=np.int64)
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    quads = np.empty((x.size, 4), dtype=np.int64)
    np.divmod(halves, 10**4, out=(quads[:, 0::2], quads[:, 1::2]))
    zeros = _TRAILING_ZEROS[quads]
    tail = zeros[:, 0]
    for j in (1, 2, 3):
        tail = zeros[:, j] + (quads[:, j] == 0) * tail
    cell = np.empty((x.size, _CELL.size), dtype=np.uint8)
    cell[:] = _CELL
    cell[:, 6] = lead + ord("0")
    cell[:, 8:40:2] = _QUADS[quads].view(np.uint8)
    cell[:, 43] = 32 + k    # ord("0") - X
    cell[k == 0, 41:44] = np.frombuffer(b"+16", dtype=np.uint8)
    # the mask row of (negative, X + 6, significant digits), X + 6 = 22 - k
    cell &= masks[(x < 0) * (23 * 18) + 413 - 18 * k - tail]
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        # neither format prints a space, so the padding drops with the NULs
        text = ("%-44" + fmt) * fallback.size % tuple(x[fallback].tolist())
        cell[fallback, :-1] = np.frombuffer(
            text.encode(), dtype=np.uint8).reshape(fallback.size, -1)
    return cell


def _csv_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-D float table as bytes: each value as
    "%.17g" % value, a comma between columns and a newline after each
    row."""
    rows, cols = table.shape
    x = table.ravel()
    _, k, p, e, fallback = _scaled(x)
    # no double with X in -6..16 rounds up to 10**17: that takes |x|
    # within 5e-18 of a power of ten, and the doubles nearest
    # 10**-5..10**17 are exact or above it
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    cell = _cells(x, d, k, fallback, _CSV_MASKS, ".17g")
    cell.reshape(rows, cols, -1)[:, -1, -1] = ord("\n")
    return cell.tobytes().translate(None, b"\0 ")


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """The cells of repr(value) for a 1-D float array, each followed by
    a comma: bytes.translate(None, b"\\0 ") of the cells gives the text.

    x rounds to v = |x| * 10**k = p + e. The doubles that read back as x
    fill [v - h, v + h], h = ulp(x) * 10**k / 2 (exact: 10**k has 5**k
    < 2**53 for its odd part); repr takes the endpoints only for an even
    mantissa. Its digits are those of the number of that interval with
    the most trailing zeros, the one nearest v where there are several
    (the steps of Steele & White's and Gay's digit generation). h > 0.55,
    so the interval is 1.1 to 23 wide: it holds the integer nearest v, at
    most one multiple of 100, which then has the most zeros, and
    otherwise up to three multiples of 10, of which the two around v are
    the ones to look at. Offsets from v are counted in units of 2**-54,
    where all of them are exact int64. Ties between two nearest numbers
    take the fallback. At a power of two the gap below is h / 2, but for
    each of the 76 powers of two of exponent -6..16 the wider interval
    gives the same digits, so h serves for both sides.
    """
    a, k, p, e, fallback = _scaled(x)
    bits = a.view(np.int64)
    # h * 2**54 = 10**k * 2**(E - 1022) for the biased exponent E of x;
    # the endpoints drop out for an odd mantissa
    h = _POW10[k] * ((bits & (2047 << 52)) + (1 << 52)).view(np.float64)
    h = h.astype(np.int64) - (bits & 1)
    near = np.rint(e)
    d = p.astype(np.int64) + near.astype(np.int64)   # the integer nearest v
    r = ((near - e) * 2.0**54).astype(np.int64)      # (d - v) * 2**54
    # the interval holds the integers d - down .. d + up
    down = (h + r) >> 54
    up = (h - r) >> 54
    ones = d % 10
    tens_low = ones <= down
    tens_high = 10 - ones <= up
    tens = tens_low | tens_high
    # with both multiples of 10 in the interval, the one nearer v
    rise = tens_high & (~tens_low | (ones > 5) | ((ones == 5) & (r < 0)))
    tie = np.where(tens, tens_low & tens_high & (ones == 5) & (r == 0),
                   np.abs(r) == 2**53)
    rest = d % 100
    hundreds_high = 100 - rest <= up
    hundreds = (rest <= down) | hundreds_high
    d = np.where(hundreds, d - rest + 100 * hundreds_high,
                 np.where(tens, d - ones + 10 * rise, d))
    # no d reaches 10**17: x would then be the double nearest 10**(X + 1)
    # and lie below it, and for X = -6..16 each of these doubles is the
    # power or above it
    fallback |= ~hundreds & tie
    return _cells(x, d, k, fallback, _REPR_MASKS, "r")
