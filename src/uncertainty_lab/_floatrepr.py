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
"""

from __future__ import annotations

import bisect

import numpy as np

__all__ = ["WIDTH", "WORD", "write_reprs"]

WIDTH = 24  # bytes of the longest float repr, '-2.2250738585072014e-308'
WORD = np.dtype("<u8")  # a slot is three little-endian words on every machine

_LOW, _HIGH = float("1e-4"), 1e16  # repr is positional for _LOW <= |x| < _HIGH

# 10^k, which is a double for k <= 22, and its Veltkamp split into two halves
# of at most 26 bits each, for Dekker's exact product
_SPLIT = 134217729.0  # 2^27 + 1
_TENS = [float(10**k) for k in range(21)]
_TENS_HI = [_SPLIT * t - (_SPLIT * t - t) for t in _TENS]
_TENS_LO = [t - hi for t, hi in zip(_TENS, _TENS_HI)]
_TENS, _TENS_HI, _TENS_LO = map(np.array, (_TENS, _TENS_HI, _TENS_LO))

# Per binade [2^E, 2^(E+1)), E = -14 .. 53 (from double(1e-4) up to 1e16): the
# decimal exponent of its lower end, the double(10^j) at which it rises by
# one (a binade holds at most one), and half an ulp of its doubles.
_BIASED_MIN = 1023 - 14
_POWERS = [float(f"1e{j}") for j in range(-5, 18)]
_BELOW = [bisect.bisect_right(_POWERS, 2.0**e) - 1 for e in range(-14, 54)]
_P_BASE = np.array([j - 5 for j in _BELOW])
_P_NEXT = np.array([_POWERS[j + 1] for j in _BELOW])
_HALF_ULP = np.array([2.0 ** (e - 53) for e in range(-14, 54)])
del _POWERS, _BELOW


def _slots(texts) -> np.ndarray:
    """Byte strings as NUL-padded slots: row w holds word w of each."""
    words = np.frombuffer(b"".join(t.ljust(WIDTH, b"\0") for t in texts), WORD)
    return words.reshape(-1, 3).T.copy()


# A positional repr in a slot: the 22 bytes "00000" + 17 digits, with the dot
# inserted after byte b = p + 5 (the last integer digit, 1 <= b <= 20).
# Bytes a = min(b, 5) to b are the integer part, the bytes after the dot
# the fraction up to byte c, and a minus sign takes byte a - 1.  The masks
# are 0xFF on the bytes they keep.
_INTEGER = _slots(bytes(min(b, 5)) + b"\xff" * (b + 1 - min(b, 5)) for b in range(21))  # [b]
_FRACTION = _slots(  # [23 b + c]
    bytes(b + 2) + b"\xff" * (c - b - 1) for b in range(21) for c in range(23)
)


def _marks(b: int, negative: bool) -> bytes:
    """The dot after byte b and, for a negative value, the minus sign."""
    text = bytearray(b + 1) + b"."
    if negative:
        text[min(b, 5) - 1] = ord("-")
    return bytes(text)


_MARKS = _slots(  # [2 b + negative]
    [b"", b""]  # b = 0 does not occur
    + [_marks(b, negative) for b in range(1, 21) for negative in (False, True)]
)


def _times_power_of_ten(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x 10^k as prod + err exactly: Dekker's product of x and the double 10^k."""
    prod = x * _TENS[k]
    x_hi = _SPLIT * x
    x_hi -= x_hi - x
    x_lo = x - x_hi
    hi, lo = _TENS_HI[k], _TENS_LO[k]
    return prod, ((x_hi * hi - prod) + x_hi * lo + x_lo * hi) + x_lo * lo


def _scaled(x: np.ndarray) -> tuple:
    """For positive doubles in [1e-4, 1e16): their decimal exponent p, x 10^k
    as an int64 and a fraction, and the half-width w of the interval of reals
    that read back as x, times 10^k (see the module docstring)."""
    binade = (x.view(WORD) >> 52).astype(np.intp) - _BIASED_MIN
    p = _P_BASE[binade] + (x >= _P_NEXT[binade])
    k = 16 - p
    prod, f = _times_power_of_ten(x, k)
    whole = np.floor(f)
    f -= whole
    i = prod.astype(np.int64)
    i += whole.astype(np.int64)
    return p, i, f, _HALF_ULP[binade] * _TENS[k]


def _nearest(i: np.ndarray, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The multiple of 10^j nearest to V = i + f for the largest j that puts
    one within w of V; at a tie, the one with an even last digit."""
    hundreds = i // 100 * 100
    units = i - hundreds
    near2 = np.minimum(units + f, (100 - units) - f) < w  # only one can be
    tens = i // 10 * 10
    below = (i - tens) + f
    near1 = np.minimum(below, 10 - below) < w
    up1 = (below > 5) | ((below == 5) & (tens // 10 & 1 == 1))
    up0 = (f > 0.5) | ((f == 0.5) & (i & 1 == 1))
    return np.where(
        near2, hundreds + 100 * (units >= 50), np.where(near1, tens + 10 * up1, i + up0)
    )


def _digits8(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10^8 as the bytes of a word, the
    first digit in the lowest byte (bytes 0..9, not yet ASCII)."""
    n = n.astype(WORD)
    high = n // 10000
    n = high | (n - high * 10000) << 32  # two 4-digit halves in 32-bit lanes
    t = (n * 10486 >> 20) & 0x0000007F0000007F  # each lane // 100, exact below 10^4
    n = t | (n - t * 100) << 16  # four 2-digit lanes of 16 bits
    t = (n * 103 >> 10) & 0x000F000F000F000F  # each lane // 10, exact below 100
    return t | (n - t * 10) << 8


def _through_last_nonzero(raw: np.ndarray) -> np.ndarray:
    """How many bytes of a ``_digits8`` word run up to its last nonzero one.

    A word whose highest nonzero byte is number j (a digit 1..9) lies in
    [2^(8j), 2^(8j+4)), where its float exponent from ``frexp`` is 8j+1 to
    8j+4 (rounding to 53 bits cannot carry it to 8j+5); a zero word has
    exponent 0."""
    return (np.frexp(raw.astype(np.float64))[1] + 7) // 8


def write_reprs(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr(float(v))`` of each of ``values`` into ``out``, an array of
    little-endian 64-bit words of shape ``values.shape + (3,)`` (see the
    module docstring).  Temporaries take ~130 bytes per value: pass a few
    thousand values at a time."""
    flat = np.ravel(values)
    magnitude = np.abs(flat)
    fast = (magnitude >= _LOW) & (magnitude < _HIGH)
    p, *scaled = _scaled(np.where(fast, magnitude, 1.0))
    del magnitude
    digits = _nearest(*scaled)  # 17 digits, the first nonzero
    del scaled
    lead = digits // 10**16
    digits -= lead * 10**16
    eights = digits // 10**8
    raw = _digits8(np.stack((eights, digits - eights * 10**8)))
    del digits, eights
    last = _through_last_nonzero(raw)
    length = 1 + np.where(raw[1] != 0, 8 + last[1], last[0])  # digits up to the last nonzero
    middle, end = raw + 0x3030303030303030
    del raw, last
    # "00000", the lead digit and the other 16 as bytes 0..21 of three words
    z = (0x3030303030 | (lead.astype(WORD) + 0x30) << 40 | middle << 48,
         middle >> 16 | end << 48,
         end >> 16)
    b = p + 5
    fraction = 23 * b + np.maximum(length + 5, b + 2)
    marks = 2 * b + (flat < 0)
    for w in range(3):
        later = z[w] << 8  # the same bytes one place on
        if w:
            later |= z[w - 1] >> 56
        text = z[w] & _INTEGER[w].take(b) | later & _FRACTION[w].take(fraction)
        text |= _MARKS[w].take(marks)
        out[..., w] = text.reshape(values.shape)
    slow = ~fast
    if slow.any():
        text = np.array([repr(v) for v in flat[slow].tolist()], dtype=f"S{WIDTH}")
        out[slow.reshape(values.shape)] = text.view(WORD).reshape(-1, 3)
