"""Python's ``repr`` of a whole array of floats, as bytes in fixed slots.

``write_reprs(values, out)`` writes ``repr(float(v))`` of every float64 ``v``
of ``values`` into the 24-byte slot ``out[...]`` beside it (three
little-endian 64-bit words), padded with NUL bytes anywhere in the slot: the
slot with its NULs removed is exactly ``repr(float(v)).encode()``.  CLI
``scan`` formats its CSV numbers with it.

``repr`` prints the shortest decimal that reads back as the same double,
positionally for 1e-4 <= |x| < 1e16 and in exponent form otherwise.  For the
positional range the digits are found here for the whole array at once, with
exact arithmetic, in the manner of Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018).  Every other value (zeros, |x| < 1e-4, |x| >= 1e16,
inf and nan) goes through ``repr`` one at a time.

Why the digits are exact.  Write x = m 2^e with 2^52 <= m < 2^53, let p be
the largest j with double(10^j) <= x (repr's decimal exponent, as its
shortest digits decide it) and k = 16 - p, so 1 <= k <= 20.

1. V = x 10^k is computed exactly, as an int64 ``i`` plus a double fraction
   ``f`` in [0, 1).  10^k is a double, so Dekker's product splits x 10^k
   into prod + err with no rounding.  prod is above 2^53, hence an integer.
   V is a multiple of 2^(e + k) >= 2^-47 and |err| <= 8, so err - floor(err)
   is a double too.  V < 1e17, and V >= 1e16 except when x = double(10^p)
   lies below 10^p (its digits are then "1", that is, 10^16).
2. The reals that read back as x lie within 2^(e-1) of it; w, that
   half-width times 10^k, is an exact double in (0.55, 11.1).  Two
   refinements never change an output in this range and are left out.  A
   bound counts as inside when m is even, but a bound times 10^k,
   (2m +- 1) 5^k 2^(e+k-1), is an integer only for x >= 2^52 (k = 1, e = 0
   or 1), and then has no more trailing zeros than V = 10 x, which is
   nearer.  Below a power of two the gap is half as wide, but no candidate
   falls in its missing half (the tests check each of the 67 powers of two
   in the range).
3. repr gives the multiple of 10^j within w of V for the largest j, of two
   the one nearer V, and at a tie the one with an even last digit (dtoa's
   mode 0).  As the interval is symmetric, that is the multiple of 10^j
   nearest V.  As 2w < 23, at most one multiple of 100 fits: when one does,
   it is the answer, with any further trailing zeros it has.  Otherwise the
   answer is the multiple of 10 nearest V if it fits, else the integer
   nearest V.
4. Each comparison with w is exact: the distance is an integer plus or
   minus f, which is a double whenever it is below 16, and larger distances
   fail either way.

The chosen 17-digit integer then goes into the slot as repr lays it out:
the integer part, a dot, and the fraction's digits up to the last nonzero
one, or "0".

Working set.  A call takes every intermediate from one scratch allocation of
73 bytes per value: nine rows of 64-bit words, which each step overwrites in
turn through ufuncs with ``out=`` (and no casting buffers), and one row of
bytes that flags the values left to ``repr``.  The call makes a fixed number
of allocations whatever its size, so one call can format a whole block of
CSV rows; beyond the scratch, only the values that go through ``repr`` take
memory, their own strings.
"""

from __future__ import annotations

import bisect

import numpy as np

__all__ = ["WIDTH", "WORD", "write_reprs"]

WIDTH = 24  # bytes of the longest float repr, '-2.2250738585072014e-308'
WORD = np.dtype("<u8")  # a slot is three little-endian words on every machine

_LOW, _HIGH = float("1e-4"), 1e16  # repr is positional for _LOW <= |x| < _HIGH

# Per binade [2^E, 2^(E+1)), E = -14 .. 53 (from double(1e-4) up to 1e16): the
# double(10^j) at which its decimal exponent rises by one (a binade holds at
# most one); _BELOW[E + 14] - 5 is the decimal exponent of its lower end.
_BIASED_MIN = 1023 - 14
_POWERS = [float(f"1e{j}") for j in range(-5, 18)]
_BELOW = [bisect.bisect_right(_POWERS, 2.0**e) - 1 for e in range(-14, 54)]
_P_NEXT = np.array([_POWERS[j + 1] for j in _BELOW])

# Per step s = 2 (E + 14) + (x >= that power), that is per binade and decimal
# exponent p: the first slot layout of the place b = p + 5 of the last integer
# digit (see below), 10^k for k = 16 - p and its Veltkamp split into two
# halves of at most 26 bits each (for Dekker's exact product), and half an
# ulp times 10^k.
_SPLIT = 134217729.0  # 2^27 + 1
_STEPS = [(j - 5 + up, e) for j, e in zip(_BELOW, range(-14, 54)) for up in (0, 1)]
_FIRST_LAYOUT = np.array([34 * (p + 4) for p, _ in _STEPS])
_TEN = np.array([float(10 ** (16 - p)) for p, _ in _STEPS])
_TEN_HI = _SPLIT * _TEN - (_SPLIT * _TEN - _TEN)
_TEN_LO = _TEN - _TEN_HI
_HALF_WIDTH = np.array([2.0 ** (e - 53) for _, e in _STEPS]) * _TEN
del _POWERS, _BELOW, _STEPS


def _slots(texts) -> np.ndarray:
    """Byte strings as NUL-padded slots: row w holds word w of each."""
    words = np.frombuffer(b"".join(t.ljust(WIDTH, b"\0") for t in texts), WORD)
    return np.ascontiguousarray(words.reshape(-1, 3).T, np.uint64)


def _marks(b: int, negative: int) -> bytes:
    """The dot after byte b and, for a negative value, the minus sign."""
    text = bytearray(b + 1) + b"."
    if negative:
        text[min(b, 5) - 1] = ord("-")
    return bytes(text)


# A positional repr in a slot: the 22 bytes "00000" + 17 digits, with the dot
# inserted after byte b = p + 5 (the last integer digit, 1 <= b <= 20).
# Bytes a = min(b, 5) to b are the integer part, the bytes after the dot the
# fraction, up to byte c = max(length + 5, b + 2) for the count of digits up
# to the last nonzero one, and a minus sign takes byte a - 1.  Per layout
# 2 (17 (b - 1) + length - 1) + negative, the tables hold the masks of the
# integer and the fraction bytes (0xFF on the bytes they keep) and the marks.
_LAYOUTS = [(b, max(length + 5, b + 2), negative)
            for b in range(1, 21) for length in range(1, 18) for negative in (0, 1)]
_INTEGER = _slots(bytes(min(b, 5)) + b"\xff" * (b + 1 - min(b, 5)) for b, _, _ in _LAYOUTS)
_FRACTION = _slots(bytes(b + 2) + b"\xff" * (c - b - 1) for b, c, _ in _LAYOUTS)
_MARKS = _slots(_marks(b, negative) for b, _, negative in _LAYOUTS)
del _LAYOUTS

# A _digits8 word whose highest nonzero byte is number j (a digit 1..9) lies in
# [2^(8j), 2^(8j+4)), where its double's biased exponent is 1023 + 8j to
# 1026 + 8j (rounding to 53 bits cannot carry it further), and a zero word's is
# 0.  Less these biases and shifted right by 3, the exponents of the two words
# of the digits after the lead one count those up to the last nonzero one (or
# fall below zero for a zero word).
_COUNT_BIAS = 1023 - 8  # and 64 less for the second word

_ROWS = 9  # 64-bit words of scratch per value, besides the byte of its slow flag


def _scale(values, slow, negative, inside, f, i) -> None:
    """Steps 1 and 2 for |x| of each of ``values``: marks the values below 0 in
    ``negative`` and those outside [1e-4, 1e16) in ``slow`` (scaled as 1.0),
    and leaves 34 (b - 1), the first slot layout of b = p + 5, in ``i[8]``,
    V = x 10^k as ``i[6] + f[4]`` and w in ``f[5]``.  ``f`` and ``i`` are
    float64 and int64 views of the scratch rows; ``inside`` is scratch."""
    x, step = f[0], i[1]  # step: 2 (E + 14) + (x >= the binade's power of ten)
    np.copyto(x.reshape(values.shape), values)
    np.less(x, 0, out=negative)
    np.abs(x, out=x)
    np.greater_equal(x, _LOW, out=inside)
    np.less(x, _HIGH, out=slow)
    np.logical_and(inside, slow, out=inside)
    np.logical_not(inside, out=slow)
    np.copyto(x, 1.0, where=slow)
    np.right_shift(i[0], 52, out=step)
    np.subtract(step, _BIASED_MIN, out=step)
    # every index is in range; mode="raise" would buffer the output of take
    np.take(_P_NEXT, step, out=f[2], mode="clip")
    np.greater_equal(x, f[2], out=inside)
    np.left_shift(step, 1, out=step)
    np.copyto(i[3], inside)
    np.add(step, i[3], out=step)
    np.take(_FIRST_LAYOUT, step, out=i[8], mode="clip")
    # Dekker's product of x and the double 10^k: prod in f[3], err in f[4]
    np.take(_TEN, step, out=f[2], mode="clip")
    np.multiply(x, f[2], out=f[3])
    x_hi, x_lo, err, hi, lo = f[2], f[0], f[4], f[5], f[6]
    np.multiply(x, _SPLIT, out=x_hi)
    np.subtract(x_hi, x, out=err)
    np.subtract(x_hi, err, out=x_hi)
    np.subtract(x, x_hi, out=x_lo)  # x is not read again
    np.take(_TEN_HI, step, out=hi, mode="clip")
    np.take(_TEN_LO, step, out=lo, mode="clip")
    np.multiply(x_hi, hi, out=err)
    np.subtract(err, f[3], out=err)
    np.multiply(x_hi, lo, out=x_hi)
    np.add(err, x_hi, out=err)
    np.multiply(x_lo, hi, out=hi)
    np.add(err, hi, out=err)
    np.multiply(x_lo, lo, out=lo)
    np.add(err, lo, out=err)
    # V = prod + floor(err) as an integer, plus the fraction err - floor(err)
    whole = f[5]
    np.floor(err, out=whole)
    np.subtract(err, whole, out=err)
    np.copyto(i[6], f[3], casting="unsafe")
    np.copyto(i[3], whole, casting="unsafe")
    np.add(i[6], i[3], out=i[6])
    np.take(_HALF_WIDTH, step, out=f[5], mode="clip")


def _round_up(q, up, tie, odd, step) -> None:
    """Adds 1 to each of ``q`` where ``up``, and where ``tie`` when q is odd;
    ``odd`` and ``step`` are int64 scratch."""
    np.bitwise_and(q, 1, out=odd)
    np.copyto(step, tie)
    np.bitwise_and(odd, step, out=odd)
    np.copyto(step, up)
    np.add(q, odd, out=q)
    np.add(q, step, out=q)


def _choose(v, other, where, diff, step) -> None:
    """Replaces ``v`` by ``other`` where ``where``, without branches;
    ``diff`` and ``step`` are int64 scratch."""
    np.subtract(other, v, out=diff)
    np.copyto(step, where)
    np.multiply(diff, step, out=diff)
    np.add(v, diff, out=v)


def _nearest(f, i, flags) -> None:
    """Step 3: replaces V = i[6] + f[4] by the multiple of 10^j nearest to V
    for the largest j that puts one within w = f[5] of V; at a tie, the one
    with an even last digit.  Rows 0 to 3 and the ``flags`` are scratch."""
    frac, w, v = f[4], f[5], i[6]
    near2, near1, up, tie = flags
    # the multiple of 100 nearest V, as (V // 100 + up) 100 in i[0]
    np.floor_divide(v, 100, out=i[0])
    np.multiply(i[0], 100, out=i[1])
    np.subtract(v, i[1], out=i[1])  # the last two digits
    np.greater_equal(i[1], 50, out=up)
    np.copyto(f[2], i[1])
    np.add(f[2], frac, out=f[2])
    np.subtract(100, i[1], out=i[1])
    np.copyto(f[3], i[1])
    np.subtract(f[3], frac, out=f[3])
    np.minimum(f[2], f[3], out=f[2])
    np.less(f[2], w, out=near2)  # only one can be
    np.copyto(i[2], up)
    np.add(i[0], i[2], out=i[0])
    np.multiply(i[0], 100, out=i[0])
    # the multiple of 10 nearest V, as (V // 10 + up) 10 in i[1]
    below = f[3]
    np.floor_divide(v, 10, out=i[1])
    np.multiply(i[1], 10, out=i[2])
    np.subtract(v, i[2], out=i[2])
    np.copyto(below, i[2])
    np.add(below, frac, out=below)
    np.subtract(10, below, out=f[2])
    np.minimum(below, f[2], out=f[2])
    np.less(f[2], w, out=near1)
    np.greater(below, 5, out=up)
    np.equal(below, 5, out=tie)
    _round_up(i[1], up, tie, i[2], i[3])
    np.multiply(i[1], 10, out=i[1])
    # the integer nearest V, in place, then the choice
    np.greater(frac, 0.5, out=up)
    np.equal(frac, 0.5, out=tie)
    _round_up(v, up, tie, i[2], i[3])
    _choose(v, i[1], near1, i[2], i[3])
    _choose(v, i[0], near2, i[2], i[3])


# Per step of _digits8: lanes of 64 >> j bits, each below 10^(8 >> j), split
# at 10^(4 >> j) by a multiply-shift division, exact in that range, and the
# quotient and remainder packed into lanes half as wide, q | r << s, computed
# as n << s - q ((divisor << s) - 1)
_LANE_STEPS = (
    (10000, 109951163, 40, 0xFFFFFFFF, 32),
    (100, 10486, 20, 0x0000007F0000007F, 16),
    (10, 103, 10, 0x000F000F000F000F, 8),
)


def _digits8(n: np.ndarray, t: np.ndarray) -> None:
    """Replaces each n < 10^8 of ``n`` by its 8 decimal digits as the bytes of
    a word, the first digit in the lowest byte (bytes 0..9, not yet ASCII);
    ``t`` is scratch of the same shape."""
    for divisor, multiplier, shift, lanes, s in _LANE_STEPS:
        np.multiply(n, multiplier, out=t)
        np.right_shift(t, shift, out=t)
        np.bitwise_and(t, lanes, out=t)
        np.left_shift(n, s, out=n)
        np.multiply(t, (divisor << s) - 1, out=t)
        np.subtract(n, t, out=n)


def write_reprs(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr(float(v))`` of each of ``values`` into ``out``, an array of
    little-endian 64-bit words of shape ``values.shape + (3,)`` (see the
    module docstring for the scratch it takes).  ``values`` may be any view,
    even one that interleaves with ``out``, as long as the two do not overlap."""
    shape, n = values.shape, values.size
    scratch = np.empty((8 * _ROWS + 1) * n, np.uint8)
    u = scratch[: 8 * _ROWS * n].view(np.uint64).reshape(_ROWS, n)
    f, i = u.view(np.float64), u.view(np.int64)
    slow, flags = scratch[8 * _ROWS * n :].view(np.bool_), u[7].view(np.bool_).reshape(8, n)
    _scale(values, slow, flags[4], flags[0], f, i)
    _nearest(f, i, flags[:4])  # 17 digits in i[6], the first nonzero
    # the lead digit in row 0 and the other 16 as two _digits8 words in rows 1, 2
    z, t, pair, layout = u[:3], u[3:6], u[6:8], i[8]
    v = i[6]
    np.floor_divide(v, 10**16, out=i[0])
    np.multiply(i[0], 10**16, out=i[1])
    np.subtract(v, i[1], out=v)
    np.floor_divide(v, 10**8, out=i[1])
    np.multiply(i[1], 10**8, out=i[2])
    np.subtract(v, i[2], out=i[2])
    _digits8(z[1:], t[:2])
    # the slot layout, with the count of digits up to the last nonzero one
    count = t[:2].view(np.int64)
    np.copyto(count.view(np.float64), z[1:], casting="unsafe")
    np.right_shift(t[:2], 52, out=t[:2])
    np.subtract(count[0], _COUNT_BIAS, out=count[0])
    np.subtract(count[1], _COUNT_BIAS - 64, out=count[1])
    np.right_shift(count, 3, out=count)
    np.maximum(count[0], count[1], out=count[0])
    np.maximum(count[0], 0, out=count[0])  # length - 1
    np.left_shift(count[0], 1, out=count[0])
    np.add(layout, count[0], out=layout)
    np.copyto(i[3], flags[4])
    np.add(layout, i[3], out=layout)
    # "00000", the lead digit and the other 16 as bytes 0..21 of z
    np.add(z[1:], 0x3030303030303030, out=z[1:])
    np.left_shift(z[1], 48, out=t[0])
    np.left_shift(z[0], 40, out=z[0])
    np.bitwise_or(z[0], 0x303030303030, out=z[0])
    np.bitwise_or(z[0], t[0], out=z[0])
    np.left_shift(z[2], 48, out=t[0])
    np.right_shift(z[2], 16, out=z[2])
    np.right_shift(z[1], 16, out=z[1])
    np.bitwise_or(z[1], t[0], out=z[1])
    # the slot in t: the integer part of z, the fraction of z one byte on
    # (word by word, through one row), and the marks
    np.take(_INTEGER, layout, axis=1, out=t, mode="clip")
    np.bitwise_and(t, z, out=t)
    np.right_shift(z[:2], 56, out=pair)
    np.left_shift(z, 8, out=z)
    np.bitwise_or(z[1:], pair, out=z[1:])
    for w in range(3):
        np.take(_FRACTION[w], layout, out=pair[0], mode="clip")
        np.bitwise_and(pair[0], z[w], out=pair[0])
        np.bitwise_or(t[w], pair[0], out=t[w])
    np.take(_MARKS, layout, axis=1, out=z, mode="clip")
    np.bitwise_or(t, z, out=t)
    for w in range(3):
        out[..., w] = t[w].reshape(shape)
    if slow.any():
        where = np.unravel_index(np.flatnonzero(slow), shape)
        text = np.array([repr(v) for v in values[where].tolist()], dtype=f"S{WIDTH}")
        out[where] = text.view(WORD).reshape(-1, 3)
