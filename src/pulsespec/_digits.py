"""Exact numpy kernels for the floats of the spectrum files: the text of
"%.17g" for CSV and of repr for JSON, with a per-value % fallback. Both
take their digits from one decimal split of each value (`_scaled`), and
`_csv_rows` can make a table's repr text from the split it makes for the
CSV, so a run writing both formats splits each value once. The writers
take the text chunk by chunk, `_csv_texts` as a stream of row chunks and
`_repr_texts` as one list of chunk texts per array, each chunk's arrays
under glibc's mmap threshold."""
from __future__ import annotations

from itertools import accumulate

import numpy as np

from .core import two_prod


# Both float kernels format a value x of decimal exponent X, -6 <= X <= 16,
# from the error-free product |x| * 10**k = p + e, k = 16 - X: 10**k is
# exact for k <= 22, and 10**16 <= p + e < 10**17. The CSV takes the 17
# digits that "%.17g" prints, D = p + rint(e): p >= 2**53 is an even
# integer, so rint rounds ties to even, as CPython's dtoa does. JSON takes
# the shortest digits that read back as x, as repr does (see _shortest).
# Each value fills a cell of six uint64 words of ASCII and NUL bytes, each
# word one take from _WORDS: sign, "0.000" prefix (X < 0), lead digit and
# decimal point; four words of four digits, each followed by a slot for
# the point; "e+XX" suffix and separator. A mask row chosen by X and the
# number of significant digits keeps the bytes the format prints and
# zeroes the rest, and one bytes.translate drops the zeros. Any other value
# (zero, subnormals, X outside -6..16) goes through one % call per chunk.
_POW10 = np.array([float(10**k) for k in range(23)])
# 2560 values take 120 KiB of cells, so every per-chunk array stays under
# glibc's 128 KiB mmap threshold, past which chunks fault fresh pages
_JSON_CHUNK_VALUES = 2560
_CSV_CHUNK_ROWS = _JSON_CHUNK_VALUES // 4    # four values a row


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The words of a cell: "d.d.d.d." by quad 0000..9999; sign, prefix,
    lead digit and point at 10000 + 10 * negative + lead digit; "e+XX," at
    10020 + k. And at 10000 * j + quad, for the digit quad j = 0..3 after
    the lead, 397 plus the place 1..16 of its last nonzero digit, or 397
    for 0000."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    quads = np.full((10_000, 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = digits.T + ord("0")
    words = [f"{sign}0.000{lead}." for sign in "\0-" for lead in range(10)]
    words += [f"e{16 - k:+03d},\0\0\0" for k in range(23)]
    words = np.concatenate([quads.view(np.uint64).ravel(), np.frombuffer(
        "".join(words).encode(), np.uint64)])
    last = ((digits > 0) * np.arange(1, 5, dtype=np.int16)[:, None]).max(0)
    step = np.arange(0, 16, 4, dtype=np.int16)[:, None]
    return words, (397 + np.where(last > 0, last + step, 0)).ravel()


def _cell_masks(exponent_from: int, dot_zero: int) -> np.ndarray:
    """All ones where the format prints a byte of the cell, by (X + 6,
    significant digits), as rows of six uint64 words. Exponent notation
    is used for X < -4 and X >= exponent_from; fixed notation writes
    integers with dot_zero digits after the point."""
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
    keep = np.zeros((23, 18, 48), dtype=bool)
    keep[..., [0, 44]] = True    # sign (NUL for x > 0) and separator
    keep[..., 1:6] = np.arange(5) < prefix[..., None]
    keep[..., 6:40:2] = slot < shown[..., None]
    keep[..., 7:40:2] = slot == point[..., None]
    keep[..., 40:44] = sci[..., None]
    return (keep * np.uint8(0xFF)).reshape(-1, 48).view(np.uint64)


_WORDS, _PLACES = _tables()
_QUAD_OFFSETS = np.arange(0, 40_000, 10_000)[:, None]
_CSV_MASKS = _cell_masks(17, 0)
_REPR_MASKS = _cell_masks(16, 1)


def _scaled(x: np.ndarray):
    """|x| (1.0 where the value takes the fallback), k in 0..22, 10**k,
    e and the 17-digit integer d = p + rint(e), where |x| * 10**k = p + e
    exactly for a value x of decimal exponent X = 16 - k; and whether the
    value takes the fallback. d holds the digits "%.17g" prints."""
    a = np.abs(x)
    # the double 1e-6 lies below 10**-6, so these values have -6 <= X <= 16
    fallback = (a <= 1e-6) | (a >= 1e17)
    a[fallback] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    k = 16 - k.astype(np.int64)
    np.minimum(np.maximum(k, 0, out=k), 22, out=k)
    b = _POW10.take(k)
    p, e = two_prod(a, b)
    # the log10 estimate may miss by one (a rounded 10**16 can stand for
    # 9.99..95e15): whether p + e reaches 10**16 and 10**17, exactly, and
    # k moved once where it reaches both or neither
    above = p - [[1e16], [1e17]] + e >= 0
    moved = np.flatnonzero(above[0] == above[1])
    if moved.size:
        k[moved] += 1 - above[:, moved].sum(axis=0)
        b[moved] = _POW10.take(k[moved])
        p[moved], e[moved] = two_prod(a[moved], b[moved])
    # no double with X in -6..16 rounds up to 10**17: that takes |x|
    # within 5e-18 of a power of ten, and the doubles nearest
    # 10**-5..10**17 are exact or above it
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    return a, k, b, e, d, fallback


def _cells(x: np.ndarray, d: np.ndarray, k: np.ndarray,
           fallback: np.ndarray, masks: np.ndarray, fmt: str) -> np.ndarray:
    """The cells of the values x from their 17-digit integers d,
    10**16 <= d < 10**17 (overwritten), and k = 16 - X, laid out by `masks`;
    values where `fallback` is set are "%-44" + fmt % value instead."""
    # the lead digit, 10 more for a negative value, and the digit quads,
    # each division by a scalar into a contiguous row
    d += (x.view(np.int64) >> 63) & 10**17
    parts = np.empty((5, x.size), dtype=np.int64)
    np.floor_divide(d, 10**16, out=parts[0])
    d -= parts[0] * 10**16
    np.floor_divide(d, 10**8, out=parts[1])
    np.subtract(d, parts[1] * 10**8, out=parts[3])
    np.subtract(parts[1::2], parts[1::2] // 10**4 * 10**4, out=parts[2::2])
    parts[1::2] //= 10**4
    # the mask row of (X + 6, significant digits), X + 6 = 22 - k
    row = _PLACES.take(parts[1:] + _QUAD_OFFSETS).max(axis=0) - 18 * k
    parts[0] += 10_000
    words = np.empty((x.size, 6), dtype=np.int64)
    words[:, :5] = parts.T
    np.add(k, 10_020, out=words[:, 5])
    del parts
    cell = _WORDS.take(words)
    del words
    cell &= masks.take(row, axis=0)
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        # neither format prints a space, so the padding drops with the NULs
        text = ("%-44" + fmt) * fallback.size % tuple(x[fallback].tolist())
        cell.view(np.uint8)[fallback, :44] = np.frombuffer(
            text.encode(), dtype=np.uint8).reshape(fallback.size, -1)
    return cell


def _csv_rows(table: np.ndarray, *reprs: list) -> bytes:
    """The rows of a 2-D float table as bytes: each value as
    "%.17g" % value, a comma between columns and a newline after each
    row. Given one list per column, also appends to each the repr text
    of that column's values, a comma after each, from the same split."""
    rows, cols = table.shape
    x = table.ravel()
    a, k, b, e, d, fallback = _scaled(x)
    if reprs:
        digits, shortest_fallback = _shortest(a, b, e, d, fallback)
        cell = _cells(x, digits, k, shortest_fallback, _REPR_MASKS, "r")
        del digits, shortest_fallback
        for texts, column in zip(reprs, cell.reshape(rows, cols, -1)
                                 .transpose(1, 0, 2)):
            texts.append(column.tobytes().translate(None, b"\0 "))
        del cell
    del a, b, e
    cell = _cells(x, d, k, fallback, _CSV_MASKS, ".17g")
    cell.view(np.uint8).reshape(rows, cols, -1)[:, -1, 44] = ord("\n")
    text = cell.tobytes()
    del cell, d, k
    return text.translate(None, b"\0 ")


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """The cells of repr(value) for a 1-D float array, each followed by
    a comma: bytes.translate(None, b"\\0 ") of the cells gives the text."""
    a, k, b, e, d, fallback = _scaled(x)
    d, fallback = _shortest(a, b, e, d, fallback)
    return _cells(x, d, k, fallback, _REPR_MASKS, "r")


def _csv_texts(columns: tuple[np.ndarray, ...], *reprs: list):
    """The CSV rows of equal-length float columns, as `_csv_rows` writes
    them, in byte chunks of _CSV_CHUNK_ROWS (640) rows, each formatted only
    when it is asked for. Given one list per column, `_csv_rows` also
    appends to each the repr text of that column's chunk."""
    for start in range(0, columns[0].size, _CSV_CHUNK_ROWS):
        rows = slice(start, start + _CSV_CHUNK_ROWS)
        yield _csv_rows(np.column_stack([c[rows] for c in columns]), *reprs)


def _repr_texts(arrays: list[np.ndarray]):
    """The repr text of each array's values, a comma after each, as one
    list of chunk texts per array, in order. The values go through
    `_repr_cells` in chunks of _JSON_CHUNK_VALUES (2560) that run on from
    one array into the next, each chunk formatted only when a list it holds
    values of is asked for, and each list yielded once its last value is
    formatted."""
    ends = list(accumulate([values.size for values in arrays], initial=0))
    texts = {i: [] for i in range(len(arrays))}
    for start in range(0, ends[-1], _JSON_CHUNK_VALUES):
        stop = start + _JSON_CHUNK_VALUES
        runs = [(i, max(start, ends[i]) - ends[i],
                 min(stop, ends[i + 1]) - ends[i])
                for i in range(len(arrays))
                if ends[i] < stop and ends[i + 1] > start]
        cells = _repr_cells(np.concatenate(
            [arrays[i][first:last] for i, first, last in runs]))
        for i, first, last in runs:
            texts[i].append(
                cells[:last - first].tobytes().translate(None, b"\0 "))
            cells = cells[last - first:]
        for i in [i for i in texts if ends[i + 1] <= stop]:
            yield texts.pop(i)
    yield from texts.values()


def _shortest(a, b, e, d, fallback) -> tuple[np.ndarray, np.ndarray]:
    """The digits of repr from the split of `_scaled`, as new arrays: a
    17-digit integer whose digits, trailing zeros dropped, repr prints,
    and where a value takes the fallback.

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
    bits = a.view(np.int64)
    # h * 2**54 = 10**k * 2**(E - 1022) for the biased exponent E of x;
    # the endpoints drop out for an odd mantissa
    h = b * ((bits & (2047 << 52)) + (1 << 52)).view(np.float64)
    h = h.astype(np.int64) - (bits & 1)
    # d is the integer nearest v, and r = (d - v) * 2**54
    r = ((np.rint(e) - e) * 2.0**54).astype(np.int64)
    # the interval holds the integers d - down .. d + up
    down = (h + r) >> 54
    up = (h - r) >> 54
    rest = d - d // 100 * 100
    ones = rest - rest // 10 * 10
    tens_low = ones <= down
    tens_high = 10 - ones <= up
    tens = tens_low | tens_high
    # with both multiples of 10 in the interval, the one nearer v
    rise = tens_high & (~tens_low | (ones > 5) | ((ones == 5) & (r < 0)))
    tie = np.where(tens, tens_low & tens_high & (ones == 5) & (r == 0),
                   np.abs(r) == 2**53)
    hundreds_high = 100 - rest <= up
    hundreds = (rest <= down) | hundreds_high
    d = np.where(hundreds, d - rest + 100 * hundreds_high,
                 np.where(tens, d - ones + 10 * rise, d))
    # no d reaches 10**17: x would then be the double nearest 10**(X + 1)
    # and lie below it, and for X = -6..16 each of these doubles is the
    # power or above it
    return d, fallback | (~hundreds & tie)
