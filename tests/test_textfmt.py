"""The vectorised %g and integer kernels against CPython's own formatting."""
import numpy as np
import pytest

from cmcpinch.textfmt import (_decide, format_g, format_int, join, lines,
                              text_rows)


def printf(values, p):
    return "".join("%.*g\n" % (p, v) for v in values.tolist()).encode("ascii")


def kernel(values, p):
    return lines([format_g(values, p), b"\n"])


def powers_and_neighbours():
    powers = 10.0 ** np.arange(-30, 31)
    return np.concatenate((powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)))


EDGE = np.array([1234567885.0, 1234567890125.0, 9.9999999995e-05,
                 999999999.5, 99999999.95, 0.0, -0.0, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0,
                 -1.0, 0.1, 1e-4, 1e-5, 1e16, 123456789.0, 1.0000000005])


@pytest.mark.parametrize("p", [9, 12])
def test_random_bit_patterns(p):
    rng = np.random.default_rng(p)
    bits = rng.integers(0, 2 ** 64, size=10 ** 5, dtype=np.uint64)
    values = bits.view(np.float64)
    assert kernel(values, p) == printf(values, p)


@pytest.mark.parametrize("p", [9, 12])
def test_values_the_kernel_decides(p):
    # magnitudes inside the exact window |k| <= 22, where all but the
    # near-ties are decided by the kernel rather than by CPython
    rng = np.random.default_rng(100 + p)
    values = (rng.standard_normal(10 ** 5)
              * 10.0 ** rng.integers(-8, 20, 10 ** 5))
    assert _decide(values, p)[0].mean() > 0.99
    assert kernel(values, p) == printf(values, p)


@pytest.mark.parametrize("p", [9, 12])
def test_ties_powers_of_ten_and_specials(p):
    # exact halves at every digit count up to p + 1, so some are ties at
    # p digits that round half to even, and some are not
    rng = np.random.default_rng(200 + p)
    halves = np.concatenate([rng.integers(10 ** (d - 1), 10 ** d, 2000) + 0.5
                             for d in range(1, p + 2)])
    values = np.concatenate((EDGE, -EDGE, powers_and_neighbours(), halves,
                             halves * 2.0 ** -40))
    assert kernel(values, p) == printf(values, p)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
@pytest.mark.parametrize("p", [9, 12])
def test_a_log10_off_by_one_changes_no_byte(p, shift, monkeypatch):
    # the proof does not rest on floor(log10 |x|) being the exponent: a
    # wrong e must fail the kernel's range tests, also at the edges of
    # the exact window |k| <= 22, and leave the value to CPython
    rng = np.random.default_rng(300 + p)
    values = (rng.standard_normal(2 * 10 ** 4)
              * 10.0 ** rng.integers(p - 26, p + 26, 2 * 10 ** 4))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert kernel(values, p) == printf(values, p)


def test_the_kernels_leave_their_input_alone():
    # ravel() returns a view of a contiguous 1-D column, not a copy, so
    # the kernels see the caller's memory
    values = np.concatenate((EDGE, -EDGE, [5e-320, -1e-310, 1e-30, -1e40]))
    assert np.shares_memory(np.asarray(values).ravel(), values)
    bits = values.view(np.uint64).copy()
    for p in (9, 12):
        format_g(values, p)
        np.testing.assert_array_equal(values.view(np.uint64), bits)
    n = np.array([0, 7, 10, 99999, 100000, 2 ** 53 + 1], dtype=np.uint64)
    assert np.shares_memory(np.asarray(n).ravel(), n)
    kept = n.copy()
    format_int(n)
    np.testing.assert_array_equal(n, kept)


def test_named_ties_round_half_to_even():
    assert kernel(np.array([1234567885.0]), 9) == b"1.23456788e+09\n"
    assert kernel(np.array([1234567890125.0]), 12) == b"1.23456789012e+12\n"
    assert kernel(np.array([-0.0, 5e-324]), 9) == b"-0\n4.94065646e-324\n"


def test_empty_column():
    assert format_g(np.zeros(0), 9).shape[1] == 0
    assert lines([format_g(np.zeros(0), 9), b"\n"]) == b""


def test_precision_out_of_range():
    with pytest.raises(ValueError):
        format_g(np.ones(3), 16)


def test_integers_across_digit_widths():
    values = np.array([0, 1, 9, 10, 99, 100, 999, 1000, 99999, 100000,
                       123456789, 1234567890, 2 ** 53 + 1, 10 ** 18])
    want = "".join(f"{v}\n" for v in values.tolist()).encode("ascii")
    assert lines([format_int(values), b"\n"]) == want
    for top in (9, 99, 99999):
        values = np.arange(top + 2)
        want = "".join(f"{v}\n" for v in values.tolist()).encode("ascii")
        assert lines([format_int(values), b"\n"]) == want


def test_negative_integers_are_rejected():
    with pytest.raises(ValueError):
        format_int(np.array([3, -1]))


def test_lines_joins_literals_and_blank_cells():
    x = format_g(np.array([1.5, -2.0, 0.25]), 12)
    g = format_g(np.array([3.0, 4.0, 5.0]), 12)
    g[:, 1] = 0
    assert lines([x, b",", g, b"\n"]) == b"1.5,3\n-2,\n0.25,5\n"


def test_join_drops_rows_no_element_uses():
    # 1.5 and 2.25 use a digit, a point and two digits of the 2p + 9 slots
    block = format_g(np.array([1.5, 2.25]), 9)
    assert block.shape[0] == 27
    assert join([b"<", block, b">"]).tolist() == [
        list(b"<1.5\0>"), list(b"<2.25>")]


def test_text_rows_block_is_a_view_of_its_text():
    text, block = text_rows(2, 3)
    assert text == bytearray(6)
    block[:] = [list(b"ab\0"), list(b"c\0d")]
    assert text == b"ab\0c\0d"
    assert lines([format_int(np.array([7, 10])), b"\n"]) == b"7\n10\n"
