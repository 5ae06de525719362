"""The text `"%.17g" % x` of float64 values, one at a time or a block at once.

`format_fields` writes a block of values into fixed-width fields, with the
bytes `format_float` would write for each.  %.17g writes 0 and the
magnitudes [1e-4, 1e17) in fixed notation (exponent -4 to 16; the float 1e-4
is just above 10**-4).  For those the kernel finds the 17 significant digits
N and the exponent E exactly, with IEEE float64 add, multiply and floor and
int64 arithmetic only: |x| * 10**(16 - E) as an exact double-double
(Dekker's product; 10**s is exact for s <= 22), rounded half-even.  Every
other float (subnormals, tiny and huge magnitudes) goes through
format_float one at a time.
"""

from __future__ import annotations

import numpy as np

_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % float(x)


_E_MIN, _E_MAX = -4, 16
_POW10 = np.array([float(10**s) for s in range(_E_MAX - _E_MIN + 1)])
# "0000" to "9999" as uint32 text, built from the ten digits by broadcasting
# (a list of 10 000 strings would raise the peak RSS of every `gla` command)
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
for _p in range(4):
    _DIGITS4[..., _p] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape((10,) + (1,) * (3 - _p))
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()


def _split(a):
    """Dekker's split: a == hi + lo, each with at most 26 significant bits."""
    hi = a * 134217729.0  # 2**27 + 1
    hi -= hi - a
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, s: np.ndarray):
    """a * 10**s as hi + lo exactly, hi the rounded product (Dekker's
    product: lo sums the error of hi from the four partial products of the
    halves, each step exact).  Overwrites `a`; at most six arrays of its
    size are alive at once."""
    hi = a * _POW10[s]
    a_hi, a[:] = _split(a)
    lo = a_hi * _POW10_HI[s]
    lo -= hi
    a_hi *= _POW10_LO[s]
    lo += a_hi
    del a_hi
    lo += a * _POW10_HI[s]
    a *= _POW10_LO[s]
    lo += a
    return hi, lo


def _byte_words(texts) -> np.ndarray:
    """(3, len(texts)) uint64: the three little-endian words of each text,
    padded with NUL bytes to 24."""
    data = b"".join(text.ljust(24, b"\0") for text in texts)
    return np.frombuffer(data, np.uint64).reshape(-1, 3).T.copy()


# Over the 24 bytes of a number's digits: _LOW[:, j] keeps bytes 0..j-1,
# _ABOVE[:, j] bytes j+1.., and _POINT[:, j] is "." at byte j.
_LOW = _byte_words([b"\xff" * j for j in range(25)])
_ABOVE = ~_LOW[:, 1:19]
_POINT = _byte_words([b"\0" * j + b"." for j in range(18)])
# What precedes the digits, by sign and exponent: "-" and, for E < 0, "0."
# and -E-1 zeros; at most 6 bytes.
_PREFIX = np.array(
    [
        int.from_bytes(b"-"[:neg] + (b"0." + b"0" * (-e - 1) if e < 0 else b""), "little")
        for neg in (0, 1)
        for e in range(_E_MIN, _E_MAX + 1)
    ],
    np.uint64,
)


def format_fields(values: np.ndarray, out: np.ndarray) -> None:
    """Write _FLOAT_FMT % v of each finite float64 v in `values` into its
    row of `out`, an (N, 4) uint64 array: the text's bytes in order, with
    NUL bytes between and after them, and byte 31 left NUL.  Each
    temporary is dropped once used, so a block peaks at eight float64
    arrays of its size."""
    n = values.size
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e17)
    others = np.flatnonzero(~fixed & (a != 0))
    zeros = np.flatnonzero(a == 0)
    np.copyto(a, 1.0, where=~fixed)  # 0 and the others go through as 1
    del fixed
    e = np.log10(a)
    np.floor(e, out=e)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    e = e.astype(np.int64)
    hi, lo = _times_pow10(a, _E_MAX - e)
    del a
    # log10 is not exact: step E until 10**16 <= hi + lo < 10**17
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    while edge.size:
        h, l = hi[edge], lo[edge]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64) - ((h < 1e16) | ((h == 1e16) & (l < 0)))
        edge = edge[step != 0]
        e[edge] += step[step != 0]
        hi[edge], lo[edge] = _times_pow10(np.abs(values[edge]), _E_MAX - e[edge])
    # hi >= 2**53 is an even integer, so hi + lo rounds half-even to hi + rint(lo)
    n17 = hi.astype(np.int64)
    del hi
    n17 += np.rint(lo, out=lo).astype(np.int64)
    del lo
    carry = np.flatnonzero(n17 == 10**17)
    n17[carry] = 10**16
    e[carry] += 1
    n17[zeros] = 0

    # the 17 digits as text, bytes 8..24 of each field: four uint32 of four
    # digits and the last digit in byte 24
    quads = out.view(np.uint32)
    first16 = n17 // 10
    n17 -= 10 * first16
    quads[:, 6] = n17 + ord("0")
    quads[:, 7] = 0
    trailing_zero = np.flatnonzero(n17 == 0)
    del n17
    top8 = first16 // 10**8
    first16 -= top8 * 10**8
    for col, eight in ((2, top8), (4, first16)):
        four = eight // 10**4
        eight -= four * 10**4
        quads[:, col] = _DIGITS4[four]
        quads[:, col + 1] = _DIGITS4[eight]
    del top8, first16, eight, four
    # significant digits: the 17 less the trailing zeros (0 digits for 0)
    significant = np.full(n, 17)
    nonzero = out.view(np.uint8)[trailing_zero, 8:25] != ord("0")
    significant[trailing_zero] = (17 - np.argmax(nonzero[:, ::-1], axis=1)) * nonzero.any(axis=1)
    del nonzero

    # The point goes after the E + 1 integer digits, and the digits after it
    # move up a byte; for E < 0 the prefix holds it, and it goes past the
    # digits.  A point with no digit after it is cut off with the zeros.
    point = np.where(e >= 0, e + 1, 17)
    length = np.where(e < 0, significant, np.where(significant > point, significant + 1, point))
    del significant
    for k in (2, 1, 0):  # word k of the digits is field word k + 1
        text = out[:, k + 1] << 8
        if k:
            text |= out[:, k] >> 56
        text &= _ABOVE[k][point]
        text |= out[:, k + 1] & _LOW[k][point]
        text |= _POINT[k][point]
        text &= _LOW[k][length]
        out[:, k + 1] = text
    out[:, 0] = _PREFIX[np.signbit(values) * (_E_MAX - _E_MIN + 1) + (e - _E_MIN)]

    fields = out.view(np.uint8)
    for i in others.tolist():
        fields[i] = np.frombuffer(format_float(values[i]).encode().ljust(32, b"\0"), np.uint8)
