"""``sums.power_norms``, the one scaled l^p reduction of the package.

A row whose largest p-th power stays in [2^-1000, 2^1000] is reduced directly,
so its norm is a plain ``math.fsum`` of the p-th powers over the divisor, to the
p-th root; the terms' powers are numpy's, so the oracle's scalar powers may
differ from them by an ulp.  A row outside that range is normed relative to
the power of two of its largest term (p <= 1000), which commutes with rounding:
2^k times a row in range gives exactly 2^k times its norm.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustrace.sums import power_norms

EXPONENTS = [1.0, 2.0, 3.0, 1000.0]


@st.composite
def rows_in_range(draw, p: float):
    """(rows, divisor): each row's largest term m 2^e, 1/2 <= m < 1, with e p <= 1000
    and (e - 1) p >= -1000, the other terms fractions of it."""
    count, length = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    low, high = math.ceil(1 - 1000 / p), math.floor(1000 / p)
    rows = []
    for _ in range(count):
        top = math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), draw(st.integers(low, high)))
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=length - 1, max_size=length - 1))
        row = [top * f for f in fractions] + [top]
        rows.append(draw(st.permutations(row)))
    return np.array(rows), draw(st.sampled_from([1.0, 3.0, float(length)]))


def fsum_oracle(row, p: float, divisor: float) -> float:
    return (math.fsum(x**p for x in row) / divisor) ** (1.0 / p)


@pytest.mark.parametrize("p", EXPONENTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rows_in_range_match_math_fsum(p, data):
    rows, divisor = data.draw(rows_in_range(p))
    got = power_norms(rows, p, divisor)
    want = [fsum_oracle(row, p, divisor) for row in rows.tolist()]
    if p == 1.0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=2.0**-50, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(st.floats(0.0, 1e300), min_size=5, max_size=5), min_size=1, max_size=4))
def test_infinite_p_is_the_row_max(rows):
    assert power_norms(rows, math.inf) == [max(row) for row in rows]


@pytest.mark.parametrize("p", [2.0, 3.0, 1000.0])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_power_of_two_scale_commutes(p, data):
    # a row with its largest term in [1, 2) is reduced directly; times 2^k it is
    # scaled back by exactly 2^k, so the same sum and root come out
    threshold = math.floor(1000 / p)
    shift = data.draw(st.one_of(st.integers(threshold + 1, 900), st.integers(-900, -threshold - 1)))
    row = [data.draw(st.floats(1.0, 2.0, exclude_max=True))]
    row += data.draw(st.lists(st.floats(2.0**-100, 1.0), min_size=0, max_size=30))
    scaled = [math.ldexp(x, shift) for x in row]
    assert power_norms([scaled], p, 7.0) == [math.ldexp(power_norms([row], p, 7.0)[0], shift)]


def test_empty_and_zero_rows():
    assert power_norms(np.zeros((2, 0)), 2.0) == [0.0, 0.0]
    assert power_norms(np.zeros((1, 3)), 3.0, 3.0) == [0.0]
    assert power_norms(np.zeros((1, 3)), 1e10) == [0.0]


def test_norm_beyond_float64_is_refused():
    with pytest.raises(OverflowError):
        power_norms([[1.9 * 2.0**1023, 2.0**1023]], 2.0)
