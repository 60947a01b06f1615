"""``sums.power_norms``, the one scaled l^p reduction of the package.

A row whose largest p-th power stays in [2^-1000, 2^1000] is reduced directly,
so its norm is a plain ``math.fsum`` of the p-th powers over the divisor, to the
p-th root; the terms' powers are numpy's, so the oracle's scalar powers may
differ from them by an ulp.  A row outside that range is normed relative to
the power of two of its largest term (p <= 1000), which commutes with rounding:
2^k times a row in range gives exactly 2^k times its norm.  Groups cut from
one 1-D array are normed exactly as the same groups given as 2-D rows.
"""

import math
import operator

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


@st.composite
def term_groups(draw):
    """Groups of nonnegative terms m s, m in [0, 4] and s a scale from 2^-1074 to
    1e300, some groups empty, so groups that are scaled into range lie beside groups
    that are not, and 1e300 beside 1e-300 within one group."""
    scale = st.sampled_from([1.0, 1e300, 1e-300, 2.0**-1074])
    term = st.builds(operator.mul, st.floats(0.0, 4.0), scale)
    return draw(st.lists(st.lists(term, max_size=12), min_size=1, max_size=6))


def bits(values: list[float]) -> list[str]:
    return [x.hex() for x in values]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf, 1e10])
@settings(max_examples=100, deadline=None)
@given(groups=term_groups(), divisor=st.sampled_from([1.0, 3.0]))
def test_cut_groups_match_their_own_rows(p, groups, divisor):
    values = np.array([x for group in groups for x in group])
    cuts = np.cumsum([0] + [len(group) for group in groups])
    got = power_norms(values, p, divisor, cuts=cuts)
    assert bits(got) == bits([power_norms([group], p, divisor)[0] for group in groups])
    # groups of one length are the rows of one 2-D array too
    length = min(map(len, groups))
    rows = np.array([group[:length] for group in groups]).reshape(len(groups), length)
    assert bits(power_norms(rows.reshape(-1), p, divisor, cuts=np.arange(len(groups) + 1) * length)) == bits(
        power_norms(rows, p, divisor))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf, 1e10])
def test_empty_groups_read_zero(p):
    # np.maximum.reduceat would give an empty group the next group's first term
    five, seven = (power_norms([[x]], p)[0] for x in (5.0, 7.0))
    assert bits(power_norms([5.0, 7.0], p, cuts=[0, 0, 1, 1, 2, 2])) == bits([0.0, five, 0.0, seven, 0.0])
    assert power_norms(np.array([]), p, cuts=[0, 0, 0]) == [0.0, 0.0]
