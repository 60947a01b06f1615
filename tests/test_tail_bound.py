"""``groups.dual_tail_bound``: an upper bound on every series tail it is asked
for, and inf exactly when the series is not summable.

The exact tails come from closed forms (pi coth pi, Jacobi theta by Poisson
summation) or from brute force out to where the terms vanish; a power-law
tail, which vanishes nowhere, is compared with its brute-force partial tail out
to 2 10^6.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustrace.criteria import check_tt1
from torustrace.groups import SU2, Torus, dual_tail_bound, enumerate_dual, is_summable

FAR = 2 * 10**6


def theta(t: float) -> float:
    """sum_k e^{-t k^2} over Z, by Poisson summation: sqrt(pi/t) sum_k e^{-pi^2 k^2/t}."""
    return math.sqrt(math.pi / t) * math.fsum(math.exp(-math.pi**2 * k * k / t) for k in range(-40, 41))


def box(t: float, radius: int) -> float:
    return math.fsum(math.exp(-t * k * k) for k in range(-radius, radius + 1))


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 10, 100, 10**5])
def test_bessel_alpha_2_on_the_circle(cutoff):
    # sum_k 1/(1 + k^2) = pi coth pi
    k = np.arange(-cutoff, cutoff + 1, dtype=np.float64)
    exact = math.pi / math.tanh(math.pi) - math.fsum(1.0 / (1.0 + k * k))
    bound = dual_tail_bound(Torus(1), cutoff, 2.0, -2.0, 0.0)
    assert exact <= bound < math.inf
    assert cutoff < 5 or bound <= 1.2 * exact  # 2/R against 2 sum_{k > R} 1/(1 + k^2)


# (t, radius) pairs whose tail is above 1e-10 of theta, so the subtraction keeps it
HEAT_TORUS = [(t, radius) for t in (0.01, 0.1, 1.0, 3.0) for radius in (0, 1, 2, 3, 6, 20)
              if t * (radius + 1) ** 2 < 20]


@pytest.mark.parametrize("t, radius", HEAT_TORUS)
def test_heat_on_the_circle(t, radius):
    exact = theta(t) - box(t, radius)
    assert exact <= dual_tail_bound(Torus(1), radius, 0.0, 0.0, t) < math.inf


@pytest.mark.parametrize("t, radius", HEAT_TORUS)
def test_heat_on_the_two_torus(t, radius):
    # the points outside the box of radius R: theta^2 minus the box sum squared
    exact = theta(t) ** 2 - box(t, radius) ** 2
    assert exact <= dual_tail_bound(Torus(2), radius, 0.0, 0.0, t) < math.inf


@pytest.mark.parametrize("t", [0.001, 0.01, 0.1, 1.0, 5.0])
@pytest.mark.parametrize("cutoff", [0, 0.5, 2.5, 10, 60.25])
def test_heat_on_su2(t, cutoff):
    # d^2 e^{-t (d^2 - 1)/4} over d > floor(2 cutoff) + 1, out to where the terms are 0
    d = np.arange(math.floor(2 * cutoff) + 2, 10**5, dtype=np.float64)
    terms = d * d * np.exp(-t * (d * d - 1.0) / 4.0)
    assert terms[-1] == 0.0
    exact = math.fsum(terms)
    assert exact <= dual_tail_bound(SU2(True), cutoff, 2.0, 0.0, t) < math.inf


@pytest.mark.parametrize("b", [-1.05, -1.5, -2.0, -4.0, -10.0])
@pytest.mark.parametrize("radius", [0, 1, 16, 520])
def test_power_law_on_the_circle(b, radius):
    k = np.arange(radius + 1, FAR + 1, dtype=np.float64)
    partial = 2 * math.fsum((1.0 + k * k) ** (b / 2))
    assert partial <= dual_tail_bound(Torus(1), radius, 0.0, b, 0.0) < math.inf


@pytest.mark.parametrize("b", [-2.5, -3.0, -5.0])
@pytest.mark.parametrize("radius", [0, 1, 8, 64])
def test_power_law_on_the_two_torus(b, radius):
    # the points with R < |xi|_inf <= 1000, one row per distinct |xi|^2
    total, inner = (enumerate_dual(Torus(2), r) for r in (1000, radius))
    partial = (math.fsum(np.repeat(np.sqrt(1.0 + total.lam) ** b, total.mult))
               - math.fsum(np.repeat(np.sqrt(1.0 + inner.lam) ** b, inner.mult)))
    assert partial <= dual_tail_bound(Torus(2), radius, 0.0, b, 0.0) < math.inf


@pytest.mark.parametrize("a, b", [(2.0, -3.5), (2.0, -4.0), (2.0, -3.1), (1.0, -3.0), (0.0, -1.5),
                                  (2.0, -2000.0)])
@pytest.mark.parametrize("cutoff", [0, 0.5, 20, 200])
def test_power_law_on_su2(a, b, cutoff):
    # d^a <xi>^b with <xi> = sqrt(d^2 + 3)/2, over floor(2 cutoff) + 1 < d <= 2 10^6
    d = np.arange(math.floor(2 * cutoff) + 2, FAR + 1, dtype=np.float64)
    partial = math.fsum(d**a * (np.sqrt(d * d + 3.0) / 2.0) ** b)
    assert partial <= dual_tail_bound(SU2(True), cutoff, a, b, 0.0) < math.inf


@pytest.mark.parametrize("kind, u", [("bessel", 3.5), ("bessel", 4.0), ("bessel", 8.0),
                                     ("heat", 0.001), ("heat", 0.01), ("heat", 0.1), ("heat", 1.0)])
@pytest.mark.parametrize("cutoff", [0, 3, 20.5, 200])
def test_integer_spins_count_the_odd_d_only(kind, u, cutoff):
    # d = 2l + 1 over the integer spins l > cutoff, out to l = 10^6 (where the heat
    # terms are 0): a lower bound on the tail the bound must stay above
    d = 2.0 * np.arange(math.floor(cutoff) + 1, 10**6 + 1) + 1.0
    envelope = (2.0, -u, 0.0) if kind == "bessel" else (2.0, 0.0, u)
    terms = d * d * ((np.sqrt(d * d + 3.0) / 2.0) ** -u if kind == "bessel" else np.exp(-u * (d * d - 1.0) / 4.0))
    bound = dual_tail_bound(SU2(False), cutoff, *envelope)
    assert math.fsum(terms) <= bound < math.inf
    every_d = dual_tail_bound(SU2(True), cutoff, *envelope)
    assert bound < every_d or every_d == 0.0
    # about half the bound over every d, where the integral outweighs the first term
    if (kind == "bessel" and cutoff >= 200) or (kind == "heat" and u <= 0.01 and cutoff <= 20):
        assert bound == pytest.approx(every_d / 2, rel=0.02)


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("cutoff", [3, 20, 30])
def test_integer_spin_heat_tail_is_within_half_again_of_the_odd_d_tail(t, cutoff):
    # the head past the slice is bounded at the first odd d past it, not at the even
    # d = floor(2 cutoff) + 2 the integer spins do not have (up to 1.6e9 times the tail)
    d = np.arange(2 * cutoff + 3, 10**4, 2, dtype=np.float64)
    tail = math.fsum(d * d * np.exp(-t * (d * d - 1.0) / 4.0))
    if tail > 0:
        assert tail <= dual_tail_bound(SU2(False), cutoff, 2.0, 0.0, t) <= 1.5 * tail


@pytest.mark.parametrize("group, dim", [("torus", 1), ("torus", 2), ("su2", 1)])
@pytest.mark.parametrize("s", [-0.5, -1e-300, 0.0, 1e-3, 1.0])
@pytest.mark.parametrize("cutoff", [0, 0.5, 7])
def test_inf_exactly_when_the_exponent_clause_fails(group, dim, s, cutoff):
    # summable: s > 0, or s = 0 with b < -dim on the torus, a + b < -1 on SU(2)
    record = Torus(dim) if group == "torus" else SU2(True)
    dual = enumerate_dual(record, cutoff)
    for a in (-0.5, 0.0, 2.0, 3.0):
        for b in (-6.0, -3.0, -2.0 - 1e-9, -2.0, -1.5, -1.0, -0.5, 0.0, 1.5):
            summable = s > 0 or (s == 0 and (a + b < -1 if group == "su2" else b < -dim))
            bound = dual_tail_bound(record, cutoff, a, b, s)
            assert (bound < math.inf) is summable is is_summable(record, a, b, s), (a, b)
            assert bound >= 0.0
            if a == 2.0:  # tt1 case 3 at p = q = 2, r = 1 sums d^2 <xi>^m e^{-t lambda}: b = m, s = t
                multiplier = {"m": b} if s == 0 else {"t": s}
                verdict = check_tt1(dual, 1.0, 2.0, 2.0, 3, **multiplier)
                assert verdict["satisfied"] is is_summable(record, a, b, s), (a, b)


@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(-60.0, -1.0, exclude_max=True), n=st.sampled_from([1, 2]),
       radius=st.integers(1, 10**5))
def test_torus_power_law_is_the_shell_count_integral(exponent, n, radius):
    # the integral of (8 or 2) x^(exponent + n - 1) from the radius, bit for bit as
    # the t1/t2 witnesses have reported it
    if exponent >= -n:
        assert dual_tail_bound(Torus(n), radius, 0.0, exponent, 0.0) == math.inf
    elif n == 1:
        assert dual_tail_bound(Torus(n), radius, 0.0, exponent, 0.0) == \
            2.0 * radius ** (exponent + 1) / (-exponent - 1)
    else:
        assert dual_tail_bound(Torus(n), radius, 0.0, exponent, 0.0) == \
            8.0 * radius ** (exponent + 2) / (-exponent - 2)


def test_a_peak_term_beyond_float64_reads_inf():
    # summable (s > 0), but the peak of <xi>^10 e^{-s |xi|^2} at s = 1e-300, about
    # (2.2e150)^10, overflows math.exp: the bound reads inf
    assert is_summable(Torus(1), 0.0, 10.0, 1e-300)
    assert dual_tail_bound(Torus(1), 1, 0.0, 10.0, 1e-300) == math.inf
    assert dual_tail_bound(Torus(1), 1, 0.0, 10.0, 1e-3) < math.inf
