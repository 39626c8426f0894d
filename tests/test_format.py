"""The field-table kernel against `"%.17g" % v`, byte for byte."""

import io
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spde_moments._format import FMT, RowText, _digits, _tables

from dense_reference import format_tables


def lines(values: np.ndarray) -> tuple[bytes, bytes]:
    """The lines `0,i,value` of a row of values, by the kernel and by %."""
    fh = io.BytesIO()
    RowText(values.shape, 1).write(fh, 0, values)
    expected = "".join(f"0,{i},{FMT % x}\n" for i, x in enumerate(values.tolist()))
    return fh.getvalue(), expected.encode()


def assert_matches(values: np.ndarray) -> None:
    got, expected = lines(values)
    if got != expected:
        pairs = zip(got.splitlines(), expected.splitlines())
        raise AssertionError([pair for pair in pairs if pair[0] != pair[1]][:5])


def ulps_around(x: float, count: int) -> list[float]:
    """x and the `count` floats on either side of it."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def test_random_bit_patterns_and_specials():
    # random signs and mantissas; the exponent field is uniform over all
    # 2048 values for one pattern in fifty, which brings zeros,
    # subnormals, nan and inf, and otherwise uniform over the exact range
    # and a few binary orders beyond it, since % takes microseconds far out
    rng = np.random.default_rng(21)
    count = 10**6
    exponent = np.where(rng.random(count) < 0.02, rng.integers(0, 2048, count),
                        rng.integers(1023 - 40, 1023 + 60, count)).astype(np.uint64)
    bits = rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    bits &= ~np.uint64(0x7FF << 52)
    bits |= exponent << np.uint64(52)
    values = bits.view(np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               np.nan, -np.nan, np.inf, -np.inf, 1.7976931348623157e308]
    values[:len(special)] = special
    assert (exponent == 0).sum() >= 5 and (exponent == 0x7FF).sum() >= 5
    assert 0.85 < _digits(values)[0].mean() < 0.95
    assert_matches(values)


def test_powers_of_ten_and_their_neighbours():
    values = [y for k in range(-12, 18) for y in ulps_around(float(10.0**k), 4)]
    values += [-y for y in values]
    assert_matches(np.array(values))


def test_ties_round_half_to_even():
    ties = np.array([1000000000000000.25, 1000000000000000.75, -1000000000000000.25])
    got, _ = lines(ties)
    assert got == b"0,0,1000000000000000.2\n0,1,1000000000000000.8\n0,2,-1000000000000000.2\n"
    assert_matches(ties)


def test_digits_beyond_float_precision():
    # a float64 detour of the 17 digits would round them to a multiple of 2
    values = np.array([0.1, 1.0 / 3.0, 2.0 / 3.0, 0.7, 1e-5, 123456.789, 2.0**53 + 2])
    ok, _, _, d = _digits(values)
    assert ok.all() and (d > 2**53).all() and (d % 2 == 1).sum() >= 4
    assert_matches(values)


def test_fixed_and_exponent_forms_with_trailing_zeros():
    values = np.array([1e-5, 1.5e-5, 1e-4, 0.00012, 0.5, 1.0, 10.0, 1200.0, 1.25, 1e16, 1.5e16,
                       9.999999999999998e16, 1e17, 1e-11, 1e-12, -0.001, -1e-7, 123.0, 4.0e15])
    assert_matches(values)


def test_scalar_rows_and_row_indices():
    fh = io.BytesIO()
    text = RowText((), 12)
    for k in (0, 9, 10, 11):
        text.write(fh, k, np.float64(-2.5 * k))
    assert fh.getvalue() == b"0,-0\n9,-22.5\n10,-25\n11,-27.5\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_property_matches_percent(values):
    assert_matches(np.array(values, dtype=np.float64))


def test_tables_equal_the_digit_arithmetic_build_and_stay_small():
    # the uint8 grid of digit characters gives the tables of the int64
    # arithmetic on the groups 0..9999, byte for byte, and builds them
    # without its (10^4, 4) int64 temporaries: 0.26 MiB traced, 0.69 before
    tracemalloc.start()
    try:
        built = _tables.__wrapped__()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for got, expected in zip(built, format_tables(), strict=True):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
    assert peak < 0.4 * 2**20
