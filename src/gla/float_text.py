"""The text `"%.17g" % x` of float64 values, one at a time or a block at
once, and back.

`format_fields` writes a block of values into fixed-width fields, with the
bytes `format_float` would write for each.  %.17g writes 0 and the
magnitudes [1e-4, 1e17) in fixed notation (exponent -4 to 16; the float 1e-4
is just above 10**-4).  For those the kernel finds the 17 significant digits
N and the exponent E exactly, with IEEE float64 add, multiply and floor and
int64 arithmetic only: |x| * 10**(16 - E) as an exact double-double
(Dekker's product; 10**s is exact for s <= 22), rounded half-even.  Every
other float (subnormals, tiny and huge magnitudes) goes through
format_float one at a time.

`parse_fields` reads a block of decimal fields back, with float()'s
rounding, from the same Dekker product and uint64 words; it leaves what it
cannot read exactly (exponent form among them) to its caller.
"""

from __future__ import annotations

import numpy as np

_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % float(x)


_E_MIN, _E_MAX = -4, 16
# 10**s, exact for s <= 22 (the reader's largest scale); 10**23 and 10**24
# only pad the table for fields the reader rejects
_POW10 = np.array([float(10**s) for s in range(25)])
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


# ---------------------------------------------------------------------------
# The other direction: decimal fields to float64, exactly.
# ---------------------------------------------------------------------------

_U64 = np.uint64
_BYTES_10 = _U64(0x1010101010101010)
_BYTES_F0 = _U64(0xF0F0F0F0F0F0F0F0)
_BYTES_06 = _U64(0x0606060606060606)
_BYTES_30 = _U64(0x3030303030303030)
_BYTES_33 = _U64(0x3333333333333333)
_SHIFT_8, _SHIFT_56 = _U64(8), _U64(56)
# Over the 24-byte window that ends where a field ends, _BEFORE[j][n] is
# the part of word j before the field's last n bytes, and _LOW[j][p] the
# part of it before byte p.
_BEFORE = np.ascontiguousarray(_LOW[:, ::-1])
_LOW_WORDS = np.ascontiguousarray(_LOW)
# A word with 1 in byte i alone, times _WHERE[j], has 8j + i + 1 in its top
# byte: the place of a point in word j of the window, plus one.
_WHERE = [_U64(sum((8 * j + i + 1) << (8 * (7 - i)) for i in range(8))) for j in range(3)]
_EXPONENT = _U64(0x7FF0000000000000)
# A residual within this fraction of a gap from half a gap is a near-tie.
_TIE_MARGIN = 2.0**-20


def _windows(data: np.ndarray, ends: np.ndarray) -> list:
    """The 24 bytes before each end as three uint64 arrays, the window's
    little-endian words, each from two aligned words and shifts."""
    if data.ctypes.data % 8:
        data = data.copy()
    aligned = np.frombuffer(data, np.uint64, count=data.size // 8)
    first = ends - 24
    index = first >> 3
    shift = (first & 7).astype(np.uint64)
    shift <<= _U64(3)
    # the next word's part in two steps: a shift by 64 is not defined
    rest = shift ^ _U64(56)
    lower = aligned[index]
    window = []
    for _ in range(3):
        index += 1
        upper = aligned[index]
        lower >>= shift
        part = upper << rest
        part <<= _SHIFT_8
        lower |= part
        window.append(lower)
        lower = upper
    return window


def _eight_digits(word: np.ndarray) -> np.ndarray:
    """The value of each uint64's 8 ASCII digits, its first byte the most
    significant, in place (Lemire's SWAR: pairs, then quads, then all)."""
    word &= _U64(0x0F0F0F0F0F0F0F0F)
    word *= _U64(2561)
    word >>= _SHIFT_8
    word &= _U64(0x00FF00FF00FF00FF)
    word *= _U64(6553601)
    word >>= _U64(16)
    word &= _U64(0x0000FFFF0000FFFF)
    word *= _U64(42949672960001)
    word >>= _U64(32)
    return word


def _quotients(whole: np.ndarray, fraction: np.ndarray):
    """N / 10**f rounded to nearest even, for N = whole in [0, 2**63) and
    f = fraction <= 22, and a mask of the quotients it decided.

    10**f is exact, so for N < 2**53 the quotient of fl(N) rounds once
    (Clinger's fast path).  Otherwise q = fl(fl(N) / 10**f) lies within 1.5
    ulps of N / 10**f.  The residual N - q * 10**f is formed from Dekker's
    product (q with two 26-bit halves, 10**f exact with its own), fl(N) - hi
    exactly (Sterbenz) and the exact N - fl(N), so only its last two
    roundings are inexact, far below _TIE_MARGIN.  In gaps from q to its
    neighbour on the residual's side (an ulp, half that below a power of
    two), a residual below 1/2 keeps q, and one from 1/2 to 3/2 moves q to
    that neighbour, unless past it onto a power of two below, where the
    gaps halve; any other, and one near 1/2 or 3/2, is left undecided."""
    n_hi = whole.astype(np.float64)
    n_lo = whole - n_hi.astype(np.int64)
    p10 = _POW10[fraction]
    q = n_hi / p10
    hi = q * p10
    q_hi, q_lo = _split(q)
    p_hi = _POW10_HI[fraction]
    p_lo = _POW10_LO[fraction]
    lo = q_hi * p_hi
    lo -= hi
    q_hi *= p_lo
    lo += q_hi
    p_hi *= q_lo
    lo += p_hi
    q_lo *= p_lo
    lo += q_lo
    del q_hi, q_lo, p_hi, p_lo
    n_hi -= hi
    residual = n_lo.astype(np.float64)
    residual -= lo
    residual += n_hi
    del n_hi, n_lo, hi, lo
    # the gap from q's exponent (q is normal, or 0 where N is)
    bits = q.view(np.uint64)
    gap = np.maximum(bits & _EXPONENT, _U64(53 << 52))
    gap -= _U64(52 << 52)
    gap = gap.view(np.float64)
    below = residual < 0
    gap[below & (bits << _U64(12) == 0)] *= 0.5
    size = np.abs(residual)
    size /= p10
    size /= gap
    large = whole >= 2**53
    move = size > 0.5 + _TIE_MARGIN
    move &= size < 1.5 - _TIE_MARGIN
    move &= large
    decided = size < 0.5 - _TIE_MARGIN
    decided |= move
    np.copysign(gap, residual, out=gap)
    gap *= move
    q += gap
    # `bits` is the moved q's: a power of two reached from above
    decided &= ~(below & (size > 1) & (bits << _U64(12) == 0))
    decided |= ~large
    return q, decided


def parse_fields(data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Read the decimal fields data[starts[i]:ends[i]] of a uint8 array:
    (values, taken, integral).  A field is taken when it is an optional "-"
    and 1 to 22 ASCII digits with at most one "." between two of them, 24
    bytes at most, whose digits N (the point dropped) are below 9.22e18:
    its value is N / 10**f, f the digits after the point, rounded to
    nearest even exactly as float() rounds it.  Every other field, and a
    few near ties (see _quotients), is left to the caller (taken False,
    value undefined).  `integral` marks the taken fields of digits alone
    below 2**53, which int() reads as the same number.  Each field needs 24
    bytes of `data` before its end and 8 from it (an empty field's start
    is its end).

    The window of 24 bytes that ends with each field is read as three
    little-endian uint64 words.  The sign and the bytes before the field
    become "0"; the point, the one byte with bit 4 clear that a taken field
    keeps, is cut out with a shift; every byte left must be a digit; and
    SWAR multiplies turn each word's 8 digits into an integer.  Then
    _quotients rounds N / 10**f."""
    ends = np.asarray(ends, np.int64)
    lengths = ends - starts
    negative = data[starts] == ord("-")
    digits = lengths - negative
    np.clip(digits, 0, 24, out=digits)
    window = _windows(data, ends)
    # the field alone, "0" before it, and the point's place plus one (0 for
    # none): a byte with bit 4 clear, times _WHERE, in the top byte
    point = 0
    for word, before, where in zip(window, _BEFORE, _WHERE):
        before = before[digits]
        before &= word ^ _BYTES_30
        word ^= before
        marks = ~word
        marks &= _BYTES_10
        marks >>= _U64(4)
        marks *= where
        marks >>= _SHIFT_56
        point += marks
    del before, marks
    np.minimum(point, 24, out=point)
    point = point.astype(np.intp)
    # cut the point out: the bytes before it move up one, a "0" comes in;
    # then every byte must be a digit (high nibble 3, and no carry into it
    # adding 6)
    taken = lengths <= 24
    carry = _U64(ord("0"))
    for word, low in zip(window, _LOW_WORDS):
        shifted = word << _SHIFT_8
        shifted |= carry
        carry = word >> _SHIFT_56
        shifted ^= word
        shifted &= low[point]
        word ^= shifted
        check = word + _BYTES_06
        check &= _BYTES_F0
        check >>= _U64(4)
        shifted = word & _BYTES_F0
        check |= shifted
        taken &= check == _BYTES_33
    del carry, shifted, check
    # the byte cut out was a point, with digits on both sides
    with_point = point > 0
    fraction = 24 - point
    taken &= (data[ends - fraction - 1] == ord(".")) | ~with_point
    fraction *= with_point
    taken &= fraction >= with_point
    taken &= digits > fraction + with_point
    high, middle, low = (_eight_digits(word) for word in window)
    del window
    taken &= high < 922
    high *= _U64(10**8)
    high += middle
    high *= _U64(10**8)
    high += low
    whole = high.view(np.int64)
    del middle, low
    whole *= taken  # a field not taken reads as 0, so no cast can overflow
    integral = whole < 2**53
    integral &= taken
    integral &= ~with_point
    integral &= ~negative
    values, decided = _quotients(whole, fraction)
    taken &= decided
    sign = negative.astype(np.uint64)
    sign <<= _U64(63)
    values.view(np.uint64)[:] |= sign
    return values, taken, integral
