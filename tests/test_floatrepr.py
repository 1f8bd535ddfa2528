"""The block formatter's bytes against Python's ``repr``, value by value.

Why the formatter can be exact (the module docstring has the details): for
1e-4 <= |x| < 1e16 it finds the decimal exponent p of x and computes
V = x 10^(16 - p) exactly, as an int64 and a fraction, from Dekker's
error-free product of x and the double 10^(16 - p).  The reals that read
back as x lie within w of V: half an ulp times the same power of ten.
repr gives the multiple of 10^j within w of V for the largest j, the one
nearer V when two fit, and at a tie the one with an even last digit.  The
families below aim at each of these steps: exact short decimals and their
neighbours (large j), powers of two times small odd numbers (the narrower
gap below a power of two, which the formatter may ignore only because no
candidate falls in it, and ties), double(10^j) and its neighbours (the
decimal exponent), the ends of the positional range, and every binade (the
fallback to ``repr``).
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from uncertainty_lab._floatrepr import WIDTH, WORD, write_reprs


def _formatted(values: np.ndarray) -> bytes:
    """The formatter's output for ``values`` from one call, one per line, NULs
    removed."""
    slots = np.zeros((len(values), 4), WORD)
    slots[:, 3] = ord("\n")
    write_reprs(values, slots[:, :3])
    text = slots.view(np.uint8)
    return text[text != 0].tobytes()


def _assert_reprs(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    got = _formatted(values)
    expected = ("\n".join(map(repr, values.tolist())) + "\n").encode()
    if got != expected:
        for v, line in zip(values.tolist(), got.split(b"\n")):
            assert line == repr(v).encode(), (v, line)
        raise AssertionError("outputs differ in length")


def _neighbours(values: np.ndarray, ulps: int) -> np.ndarray:
    """``values`` and the doubles up to ``ulps`` steps above and below them."""
    bits = values.view(np.int64)
    return np.concatenate([(bits + s).view(np.float64) for s in range(-ulps, ulps + 1)])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)  # a stall of the machine is no failure
def test_any_finite_float_matches_repr(values):
    _assert_reprs(values)


def test_hard_families_match_repr():
    rng = np.random.default_rng(20261019)
    digits = rng.integers(1, 17, 80000)  # 1- to 16-digit decimals, mostly in [1e-4, 1e16)
    decimals = [
        float(f"{m}e{e}")
        for m, e in zip(
            rng.integers(10 ** (digits - 1), 10**digits, dtype=np.int64).tolist(),
            rng.integers(-3 - digits, 17 - digits).tolist(),
        )
    ]
    small_odd = np.array([1, 3, 5, 7, 9, 15, 25, 125, 625], dtype=np.float64)
    exponents = np.union1d(np.arange(-80, 60), np.arange(-1074, 1014, 7))  # dense near 1
    powers_of_two = np.ldexp(small_odd[:, None], exponents[None, :]).ravel()
    powers_of_ten = np.array([float(f"1e{j}") for j in range(-323, 309)])
    values = np.concatenate([
        rng.standard_normal(250000) / 8,  # scan amplitudes
        10 ** rng.uniform(-4, 15, 250000),
        rng.integers(0, 2**64, 60000, dtype=np.uint64).view(np.float64),  # every binade
        _neighbours(np.array(decimals), 2),
        _neighbours(powers_of_two, 1),
        _neighbours(powers_of_ten, 2),
        np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.int64).astype(np.float64),
        1e16 + 2.0 * np.arange(-2000, 2000),
        np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308]),
    ])
    assert len(values) > 900000
    signs = rng.integers(0, 2, len(values), dtype=np.uint64) << np.uint64(63)
    _assert_reprs((values.view(np.uint64) ^ signs).view(np.float64))


def test_the_longest_repr_fills_the_slot():
    longest = -2.2250738585072014e-308
    assert len(repr(longest)) == WIDTH
    _assert_reprs([longest, -1.7976931348623157e308])


def test_writes_into_a_strided_view():
    # the CLI writes slots inside a row buffer, between other columns
    values = np.array([[0.1, -2.5e-5, 3.0], [1e300, -0.0, 0.000123456789]])
    buf = np.zeros((2, 3, 5), WORD)
    write_reprs(values, buf[:, :, 1:4])
    assert not buf[:, :, [0, 4]].any()
    text = buf[:, :, 1:4].copy().view(np.uint8).reshape(6, WIDTH)
    assert [row[row != 0].tobytes() for row in text] == [
        repr(v).encode() for v in values.ravel().tolist()
    ]


def test_working_set_is_at_most_80_bytes_per_value():
    # the most values one scan block holds: d = 2, 2048 rows of 7 numbers,
    # each in the last word of its 32-byte slot as the CLI stages them
    slots = np.zeros((2048, 7, 4), WORD)
    values = slots[..., 3].view(np.float64)
    values[...] = np.random.default_rng(29).standard_normal((2048, 7)) / 8
    write_reprs(values, slots[..., :3])
    tracemalloc.start()
    try:
        write_reprs(values, slots[..., :3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == 14336
    assert peak <= 80 * values.size, peak / values.size
