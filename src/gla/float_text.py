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

Both kernels work in a `Workspace`: every step writes into its arrays in
place (`out=`, with one dtype per call), so a caller that passes one
workspace for all its blocks allocates the block-sized arrays once.
"""

from __future__ import annotations

import numpy as np

_FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return _FLOAT_FMT % float(x)


class Workspace:
    """Named scratch arrays that the kernels reuse from call to call, so a
    block allocates and frees nothing.  A name's array grows (a quarter
    past the size asked for) when a call needs more, and never shrinks;
    what a call leaves in it is garbage to the next."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name: str, rows: int, n: int, dtype=np.float64) -> np.ndarray:
        """A (rows, n) array of `dtype`, in the same memory on every call."""
        size = rows * n
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size + size // 4, dtype)
        return buffer[:size].reshape(rows, n)


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


def _split(a, hi, scratch):
    """Dekker's split in place: `hi` gets the high half of `a` and `a` the
    low half, each with at most 26 significant bits, their sum exact."""
    np.multiply(a, 134217729.0, out=hi)  # 2**27 + 1
    np.subtract(hi, a, out=scratch)
    hi -= scratch
    a -= hi


_POW10_HI, _POW10_LO = np.empty(25), _POW10.copy()
_split(_POW10_LO, _POW10_HI, np.empty(25))


def _gather(table, index, out):
    """table[index] into `out`; every index is in range."""
    return np.take(table, index, out=out, mode="clip")


def _times_pow10(a, s, hi, lo, t, p):
    """a * 10**s as hi + lo exactly, into `hi` and `lo`, hi the rounded
    product (Dekker's product: lo sums the error of hi from the four
    partial products of the halves, each step exact).  Overwrites `a`, and
    `t` and `p`, its scratch."""
    np.multiply(a, _gather(_POW10, s, p), out=hi)
    _split(a, t, p)
    np.multiply(t, _gather(_POW10_HI, s, p), out=lo)
    lo -= hi
    t *= _gather(_POW10_LO, s, p)
    lo += t
    np.multiply(a, _gather(_POW10_HI, s, p), out=t)
    lo += t
    a *= _gather(_POW10_LO, s, p)
    lo += a


def _byte_words(texts) -> np.ndarray:
    """(3, len(texts)) uint64: the three little-endian words of each text,
    padded with NUL bytes to 24."""
    data = b"".join(text.ljust(24, b"\0") for text in texts)
    return np.frombuffer(data, np.uint64).reshape(-1, 3).T.copy()


_U64 = np.uint64
_SHIFT_8, _SHIFT_56 = _U64(8), _U64(56)
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


def format_fields(values: np.ndarray, out: np.ndarray, work: Workspace | None = None) -> None:
    """Write _FLOAT_FMT % v of each finite float64 v in `values` into its
    row of `out`, an (N, 4) uint64 array: the text's bytes in order, with
    NUL bytes between and after them, and byte 31 left NUL.  The
    block-sized arrays (eight of 8-byte words and two of flags) are
    `work`'s, or a new workspace's."""
    n = values.size
    if work is None:
        work = Workspace()
    a, f, hi, lo, t, p = work("format floats", 6, n)
    e, s = work("format ints", 2, n, np.int64)
    mask, other = work("format flags", 2, n, bool)
    np.abs(values, out=a)
    np.less(a, 1e17, out=mask)
    mask &= np.greater_equal(a, 1e-4, out=other)  # fixed notation
    zeros = np.flatnonzero(np.equal(a, 0, out=other))
    np.logical_not(mask, out=other)
    np.copyto(a, 1.0, where=other)  # 0 and the others go through as 1
    other[zeros] = False
    others = np.flatnonzero(other)
    np.log10(a, out=f)
    np.floor(f, out=f)
    np.clip(f, _E_MIN, _E_MAX, out=f)
    np.copyto(e, f, casting="unsafe")
    np.subtract(_E_MAX, e, out=s)
    _times_pow10(a, s, hi, lo, t, p)
    # log10 is not exact: step E until 10**16 <= hi + lo < 10**17
    np.less_equal(hi, 1e16, out=mask)
    mask |= np.greater_equal(hi, 1e17, out=other)
    edge = np.flatnonzero(mask)
    while edge.size:
        h, l = hi[edge], lo[edge]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64) - ((h < 1e16) | ((h == 1e16) & (l < 0)))
        edge = edge[step != 0]
        e[edge] += step[step != 0]
        parts = np.empty((4, edge.size))
        _times_pow10(np.abs(values[edge]), _E_MAX - e[edge], *parts)
        hi[edge], lo[edge] = parts[:2]
    # hi >= 2**53 is an even integer, so hi + lo rounds half-even to hi + rint(lo)
    n17, rest = a.view(np.int64), s
    np.copyto(n17, hi, casting="unsafe")
    np.copyto(rest, np.rint(lo, out=lo), casting="unsafe")
    n17 += rest
    carry = np.flatnonzero(np.equal(n17, 10**17, out=mask))
    n17[carry] = 10**16
    e[carry] += 1
    n17[zeros] = 0

    # the 17 digits as text, bytes 8..24 of each field: four uint32 of four
    # digits and the last digit in byte 24
    quads = out.view(np.uint32)
    top8, first16, four = n17, hi.view(np.int64), t.view(np.int64)
    digits4 = p.view(np.uint32)[:n]
    np.floor_divide(n17, 10, out=first16)
    np.multiply(first16, 10, out=rest)
    n17 -= rest
    quads[:, 6] = np.add(n17, ord("0"), out=rest)
    # the trailing zeros of the 17 digits of each field whose last digit is
    # 0: one more than those of its first 16 (below 10**16), which lose 8,
    # 4, 2 and then 1 zeros where they end in that many; 0 has all 17
    trailing_zero = np.flatnonzero(np.equal(n17, 0, out=mask))
    lead = first16[trailing_zero]
    trailing = np.ones(lead.size, np.int64)
    for drop in (8, 4, 2, 1):
        cut = lead // 10**drop
        whole = cut * 10**drop == lead
        lead = np.where(whole, cut, lead)
        trailing += whole * drop
    trailing[lead == 0] = 17
    np.floor_divide(first16, 10**8, out=top8)
    first16 -= np.multiply(top8, 10**8, out=rest)
    for col, eight in ((2, top8), (4, first16)):
        np.floor_divide(eight, 10**4, out=four)
        eight -= np.multiply(four, 10**4, out=rest)
        quads[:, col] = _gather(_DIGITS4, four, digits4)
        quads[:, col + 1] = _gather(_DIGITS4, eight, digits4)
    # significant digits: the 17 less the trailing zeros (0 digits for 0)
    significant = s
    significant.fill(17)
    significant[trailing_zero] = 17 - trailing

    # The point goes after the E + 1 integer digits, and the digits after it
    # move up a byte; for E < 0 the prefix holds it, and it goes past the
    # digits.  A point with no digit after it is cut off with the zeros.
    point, length = f.view(np.int64), lo.view(np.int64)
    text, part = a.view(np.uint64), t.view(np.uint64)
    np.less(e, 0, out=mask)
    np.add(e, 1, out=point)
    np.copyto(point, 17, where=mask)
    np.add(significant, np.greater(significant, point, out=other), out=length)
    np.maximum(length, point, out=length)
    np.copyto(length, significant, where=mask)
    for k in (2, 1, 0):  # word k of the digits is field word k + 1
        np.left_shift(out[:, k + 1], _SHIFT_8, out=text)
        if k:
            text |= np.right_shift(out[:, k], _SHIFT_56, out=part)
        text &= _gather(_ABOVE[k], point, part)
        np.bitwise_and(out[:, k + 1], _gather(_LOW[k], point, part), out=part)
        text |= part
        text |= _gather(_POINT[k], point, part)
        text &= _gather(_LOW[k], length, part)
        out[:, k + 1] = text
    index = point
    np.subtract(e, _E_MIN, out=index)
    np.add(index, _E_MAX - _E_MIN + 1, out=index, where=np.signbit(values, out=mask))
    out[:, 0] = _gather(_PREFIX, index, text)

    fields = out.view(np.uint8)
    for i in others.tolist():
        fields[i] = np.frombuffer(format_float(values[i]).encode().ljust(32, b"\0"), np.uint8)


# ---------------------------------------------------------------------------
# The other direction: decimal fields to float64, exactly.
# ---------------------------------------------------------------------------

_BYTES_10 = _U64(0x1010101010101010)
_BYTES_F0 = _U64(0xF0F0F0F0F0F0F0F0)
_BYTES_06 = _U64(0x0606060606060606)
_BYTES_30 = _U64(0x3030303030303030)
_BYTES_33 = _U64(0x3333333333333333)
# Over the 24-byte window that ends where a field ends, _BEFORE[j][n] is
# the part of word j before the field's last n bytes, and _LOW[j][p] the
# part of it before byte p.
_BEFORE = np.ascontiguousarray(_LOW[:, ::-1])
# A word with 1 in byte i alone, times _WHERE[j], has 8j + i + 1 in its top
# byte: the place of a point in word j of the window, plus one.
_WHERE = [_U64(sum((8 * j + i + 1) << (8 * (7 - i)) for i in range(8))) for j in range(3)]
_EXPONENT = _U64(0x7FF0000000000000)
# A residual within this fraction of a gap from half a gap is a near-tie.
_TIE_MARGIN = 2.0**-20


def _windows(data: np.ndarray, ends: np.ndarray, words, index, shift, rest, part):
    """The 24 bytes before each end as three uint64 arrays, the window's
    little-endian words, each from two aligned words and shifts: into
    words[:3], with words[3] and the other arrays as scratch."""
    if data.ctypes.data % 8:
        data = data.copy()
    aligned = np.frombuffer(data, np.uint64, count=data.size // 8)
    np.subtract(ends, 24, out=index)
    np.bitwise_and(index, 7, out=shift.view(np.int64))
    shift <<= _U64(3)
    index >>= 3
    # the next word's part in two steps: a shift by 64 is not defined
    np.bitwise_xor(shift, _U64(56), out=rest)
    _gather(aligned, index, words[0])
    for lower, upper in zip(words[:3], words[1:]):
        index += 1
        _gather(aligned, index, upper)
        lower >>= shift
        np.left_shift(upper, rest, out=part)
        part <<= _SHIFT_8
        lower |= part


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


def _quotients(whole, fraction, q, scratch, flags):
    """N / 10**f rounded to nearest even, for N = whole in [0, 2**63) and
    f = fraction <= 22, into `q`, and a mask of the quotients it decided,
    one of the five rows of `flags`; `scratch` is nine float64 rows.

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
    n_hi, p10, hi, lo, q_hi, q_lo, p_hi, p_lo, n_lo = scratch
    n_lo = n_lo.view(np.int64)
    below, large, move, decided, mask = flags
    np.copyto(n_hi, whole, casting="unsafe")
    np.copyto(n_lo, n_hi, casting="unsafe")
    np.subtract(whole, n_lo, out=n_lo)
    np.divide(n_hi, _gather(_POW10, fraction, p10), out=q)
    np.multiply(q, p10, out=hi)
    np.copyto(q_lo, q)
    _split(q_lo, q_hi, lo)
    _gather(_POW10_HI, fraction, p_hi)
    _gather(_POW10_LO, fraction, p_lo)
    np.multiply(q_hi, p_hi, out=lo)
    lo -= hi
    q_hi *= p_lo
    lo += q_hi
    p_hi *= q_lo
    lo += p_hi
    q_lo *= p_lo
    lo += q_lo
    n_hi -= hi
    residual = q_hi
    np.copyto(residual, n_lo, casting="unsafe")
    residual -= lo
    residual += n_hi
    # the gap from q's exponent (q is normal, or 0 where N is)
    bits, low_bits = q.view(np.uint64), q_lo.view(np.uint64)
    gap = p_hi.view(np.uint64)
    np.bitwise_and(bits, _EXPONENT, out=gap)
    np.maximum(gap, _U64(53 << 52), out=gap)
    gap -= _U64(52 << 52)
    gap = gap.view(np.float64)
    np.less(residual, 0, out=below)
    np.left_shift(bits, _U64(12), out=low_bits)
    np.logical_and(below, np.equal(low_bits, 0, out=mask), out=mask)
    np.multiply(gap, 0.5, out=gap, where=mask)
    size = lo
    np.abs(residual, out=size)
    size /= p10
    size /= gap
    np.greater_equal(whole, 2**53, out=large)
    np.greater(size, 0.5 + _TIE_MARGIN, out=move)
    move &= np.less(size, 1.5 - _TIE_MARGIN, out=mask)
    move &= large
    np.less(size, 0.5 - _TIE_MARGIN, out=decided)
    decided |= move
    np.copysign(gap, residual, out=gap)
    gap *= move
    q += gap
    # `bits` is the moved q's: a power of two reached from above
    np.left_shift(bits, _U64(12), out=low_bits)
    np.logical_and(below, np.equal(low_bits, 0, out=mask), out=mask)
    mask &= np.greater(size, 1, out=move)
    decided &= np.logical_not(mask, out=mask)
    decided |= np.logical_not(large, out=mask)
    return decided


def parse_fields(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, work: Workspace | None = None):
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
    is its end).  The three arrays, and the block-sized scratch, are
    `work`'s (or a new workspace's), so they hold until its next call.

    The window of 24 bytes that ends with each field is read as three
    little-endian uint64 words.  The sign and the bytes before the field
    become "0"; the point, the one byte with bit 4 clear that a taken field
    keeps, is cut out with a shift; every byte left must be a digit; and
    SWAR multiplies turn each word's 8 digits into an integer.  Then
    _quotients rounds N / 10**f."""
    if work is None:
        work = Workspace()
    ends = np.asarray(ends, np.int64)
    n = ends.size
    # rows 3 to 11 are dead once the digits are read: _quotients' scratch
    rows = work("parse", 13, n)
    fraction, values, high = rows[0].view(np.int64), rows[1], rows[2].view(np.uint64)
    lengths, digits, point, index = rows[3:7].view(np.int64)
    middle, low, carry, shift, rest, part = rows[7:].view(np.uint64)
    words = [high, middle, low, carry]
    flags = work("parse flags", 8, n, bool)
    negative, taken, integral, with_point, mask = flags[:5]
    (byte,) = work("parse bytes", 1, n, np.uint8)
    np.subtract(ends, starts, out=lengths)
    np.equal(_gather(data, starts, byte), ord("-"), out=negative)
    np.subtract(lengths, negative, out=digits)
    np.clip(digits, 0, 24, out=digits)
    _windows(data, ends, words, index, shift, rest, part)
    window = words[:3]
    # the field alone, "0" before it, and the point's place plus one (0 for
    # none): a byte with bit 4 clear, times _WHERE, in the top byte
    marks = point.view(np.uint64)
    marks.fill(0)
    for word, before, where in zip(window, _BEFORE, _WHERE):
        _gather(before, digits, part)
        part &= np.bitwise_xor(word, _BYTES_30, out=rest)
        word ^= part
        np.invert(word, out=part)
        part &= _BYTES_10
        part >>= _U64(4)
        part *= where
        part >>= _SHIFT_56
        marks += part
    np.minimum(point, 24, out=point)
    # cut the point out: the bytes before it move up one, a "0" comes in;
    # then every byte must be a digit (high nibble 3, and no carry into it
    # adding 6)
    np.less_equal(lengths, 24, out=taken)
    carry.fill(ord("0"))
    for word, kept in zip(window, _LOW):
        np.left_shift(word, _SHIFT_8, out=shift)
        shift |= carry
        np.right_shift(word, _SHIFT_56, out=carry)
        shift ^= word
        shift &= _gather(kept, point, part)
        word ^= shift
        np.add(word, _BYTES_06, out=part)
        part &= _BYTES_F0
        part >>= _U64(4)
        part |= np.bitwise_and(word, _BYTES_F0, out=shift)
        taken &= np.equal(part, _BYTES_33, out=mask)
    # the byte cut out was a point, with digits on both sides
    np.greater(point, 0, out=with_point)
    np.subtract(24, point, out=fraction)
    np.subtract(ends, fraction, out=index)
    index -= 1
    np.equal(_gather(data, index, byte), ord("."), out=mask)
    mask |= np.logical_not(with_point, out=integral)
    taken &= mask
    fraction *= with_point
    taken &= np.greater_equal(fraction, with_point, out=mask)
    taken &= np.greater(digits, np.add(fraction, with_point, out=index), out=mask)
    for word in window:
        _eight_digits(word)
    taken &= np.less(high, _U64(922), out=mask)
    high *= _U64(10**8)
    high += middle
    high *= _U64(10**8)
    high += low
    whole = high.view(np.int64)
    whole *= taken  # a field not taken reads as 0, so no cast can overflow
    np.less(whole, 2**53, out=integral)
    integral &= taken
    integral &= np.logical_not(with_point, out=mask)
    integral &= np.logical_not(negative, out=mask)
    taken &= _quotients(whole, fraction, values, rows[3:12], flags[3:])
    sign = part
    np.copyto(sign, negative)
    sign <<= _U64(63)
    values.view(np.uint64)[:] |= sign
    return values, taken, integral
