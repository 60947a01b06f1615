"""Nuclearity checkers: clause evaluation against hand-computed verdicts,
series certificates, and the canonical quasi-norm bound."""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustrace.criteria import (
    Clause,
    _power_witness,
    _product_witness,
    check_t1,
    check_t2,
    check_tt1,
    epsilon,
    nuclear_quasinorm_bound,
)
from torustrace.groups import SU2, Torus, enumerate_dual
from torustrace.harmonic import FrequencyLattice, min_grid_size
from torustrace.sums import fsum
from torustrace.symbols import BracketPower, bessel_symbol, modulated_symbol

import oracles
from oracles import apply_symbol, nuclear_decomposition, random_bandlimited, reconstruct


class TestEpsilon:
    def test_values(self):
        assert epsilon(1.5) == 0.5
        assert epsilon(2.0) == 0.5
        assert epsilon(4.0) == 0.25

    def test_continuous_at_two(self):
        h = 1e-9
        assert epsilon(2.0 - h) == 0.5
        assert epsilon(2.0 + h) == pytest.approx(0.5, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(1.0001, 50, allow_nan=False),
        t2=st.floats(1.0001, 50, allow_nan=False),
    )
    def test_non_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert epsilon(lo) >= epsilon(hi)


def _verdict(v):
    return "satisfied" if v["satisfied"] else "violated"


class TestCheckT1:
    def test_reference_satisfied(self):
        v = check_t1(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-4.0, w2=0.0,
                     p2=2.0, q2=2.0)
        assert v["satisfied"]
        assert v["derived_params"]["q1"] == pytest.approx(1.0)
        assert v["derived_params"]["w1"] == pytest.approx(0.5)
        assert v["witness"]["certified"]
        # governing series here is sum <xi>^{-4}; its last complete shell is 5, |k| <= 63
        assert v["witness"]["partial_sums"][-1] == pytest.approx(
            fsum((1.0 + k * k) ** -2.0 for k in range(-63, 64)), abs=1e-14
        )

    def test_order_clause_fails_at_equality(self):
        v = check_t1(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-1.0, w2=0.0)
        assert not v["satisfied"]
        assert len(v["violated_clauses"]) == 1
        clause = v["violated_clauses"][0]
        assert clause["lhs"] == clause["rhs"] == -1.0
        assert "fails at equality" in Clause(**clause).render()

    def test_strict_boundary_second_family(self):
        v = check_t1(n=1, r=0.5, alpha=0.5, p1=2.0, k=2, delta=1.0, m=-7.0, w2=1.0)
        assert not v["satisfied"]
        [clause] = v["violated_clauses"]
        assert clause["lhs"] == -7.0 and clause["rhs"] == -7.0

    def test_monotone_in_m(self):
        base = dict(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, w2=0.0)
        assert check_t1(m=-1.5, **base)["satisfied"]
        for m in (-2.0, -3.0, -10.0):
            assert check_t1(m=m, **base)["satisfied"]

    def test_range_violations_itemized(self):
        v = check_t1(n=1, r=1.0, alpha=0.7, p1=3.0, k=0, delta=0.0, m=-4.0, w2=-1.0)
        descriptions = {c["description"] for c in v["violated_clauses"]}
        assert "alpha <= 1/2" in descriptions
        assert "p1 <= 2" in descriptions
        assert "k > n/2" in descriptions
        assert "w2 >= 0" in descriptions


class TestCheckT2:
    def test_nuclear_set_satisfied(self):
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-1.0)
        assert v["satisfied"]
        assert v["derived_params"]["clause_set"] == "nuclear"

    def test_r_nuclear_set_satisfied(self):
        v = check_t2(n=1, r=0.5, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-3.0, w2=0.0)
        assert v["satisfied"]
        assert v["derived_params"]["clause_set"] == "r-nuclear"

    def test_violated_both_sets(self):
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-0.4)
        assert not v["satisfied"]
        descriptions = {c["description"] for c in v["violated_clauses"]}
        assert "nuclear set: w2 < -n/2" in descriptions

    def test_boundary_at_minus_half(self):
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-0.5)
        assert not v["satisfied"]
        boundary = [c for c in v["violated_clauses"] if c["description"] == "nuclear set: w2 < -n/2"]
        assert boundary and boundary[0]["lhs"] == boundary[0]["rhs"] == -0.5

    def test_convolution_witness_summable_case(self):
        # w2 < -n makes the governing series genuinely summable
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=2, delta=0.0, m=0.0, w2=-1.5)
        assert v["satisfied"]
        assert v["witness"]["certified"]
        assert v["witness"]["rule"] == "integral-test(power-law)"

    def test_convolution_witness_flags_borderline(self):
        # clauses hold but the series diverges: sum <xi>^-1 over Z does
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-1.0)
        assert v["satisfied"]
        assert not v["witness"]["certified"]
        assert v["witness"]["tail_estimate"] == math.inf
        assert "diverges" in v["witness"]["note"]


class TestPowerWitness:
    """The t1/t2 witness of sum <xi>^b over Z^n, summed over the torus dual's rows as
    tt1's, and the t2 nuclear set's product of two of them."""

    @pytest.mark.parametrize("n, b", [(1, -4.0), (1, -1.5), (1, 0.5), (2, -4.5), (2, -1.0)])
    def test_shell_sums_match_the_per_point_oracle(self, n, b):
        radius = 64 if n == 1 else 16
        points = oracles.enumerate_dual("torus", radius, dim=n)
        labels, sums = oracles.tt1_shells(points, lambda p: 1.0, 1.0, 0.0, b, float(radius) ** 2)
        w = _power_witness(n, b)
        assert w["labels"] == labels
        assert w["partial_sums"] == pytest.approx(list(accumulate(sums)), rel=1e-14, abs=0)

    def test_brackets_pi_coth_pi(self):
        # sum over Z of 1/(1 + k^2)
        w = _power_witness(1, -2.0)
        low = w["partial_sums"][-1]
        assert w["certified"]
        assert low <= math.pi / math.tanh(math.pi) <= low + w["tail_estimate"]

    def test_product_brackets_the_square(self):
        # f = g = <.>^-2 (w2 = -2, k = 1): sum_xi (f * g)(xi) = (sum f)(sum g) = (pi coth pi)^2
        w = _product_witness(1, -2.0, 1)
        f = _power_witness(1, -2.0)
        assert w["labels"] == f["labels"]
        assert w["partial_sums"] == [s * s for s in f["partial_sums"]]
        low = w["partial_sums"][-1]
        assert w["certified"]
        assert low <= (math.pi / math.tanh(math.pi)) ** 2 <= low + w["tail_estimate"]

    @pytest.mark.parametrize("k", [1, 1000])
    def test_a_divergent_factor_reads_inf(self, k):
        # README's w2 = -1: sum <xi>^-1 over Z diverges; at k = 1000 g's tail is 0, and inf * 0 is nan
        assert math.isfinite(_power_witness(1, -2.0 * k)["tail_estimate"])
        w = _product_witness(1, -1.0, k)
        assert (w["tail_estimate"], w["certified"]) == (math.inf, False)
        assert "diverges" in w["note"]


class TestCheckTT1:
    def test_torus_case3_satisfied(self):
        dual = enumerate_dual(Torus(1), 512)
        v = check_tt1(dual, 1.0, 2.0, 2.0, 3, m=-3.0)
        assert v["satisfied"]
        assert v["witness"]["certified"]

    def test_su2_case3_satisfied(self):
        dual = enumerate_dual(SU2(True), 200)
        v = check_tt1(dual, 1.0, 2.0, 2.0, 3, m=-4.0)
        assert v["satisfied"]

    def test_su2_case3_violated(self):
        dual = enumerate_dual(SU2(True), 200)
        v = check_tt1(dual, 1.0, 2.0, 2.0, 3, m=-2.0)
        assert not v["satisfied"]
        [clause] = v["violated_clauses"]
        # d^2 <xi>^-2 ~ 4 d^0: the exponent clause, both sides evaluated
        assert (clause["lhs"], clause["relation"], clause["rhs"]) == (0.0, "<", -1.0)
        assert v["witness"]["tail_estimate"] == math.inf

    def test_summable_beyond_float64_is_satisfied_but_not_certified(self):
        # sum d^2 e^{-1e-300 (d^2 - 1)/4} is about 1e451: summable, its bound not a float64
        v = check_tt1(enumerate_dual(SU2(True), 20), 1.0, 2.0, 2.0, 4, t=1e-300)
        assert v["satisfied"] and v["violated_clauses"] == []
        assert not v["witness"]["certified"] and "leaves float64" in v["witness"]["note"]

    def test_partial_sums_of_a_growing_multiplier_are_exactly_rounded(self):
        # d^2 (1 + lambda)^200 summed over the first two shells: the terms are one power of
        # (1 + lambda), not sqrt(1 + lambda) raised to m = 400, which multiplied its rounding
        # error by 400.  The references are 40-digit sums.
        v = check_tt1(enumerate_dual(SU2(True), 200), 1.0, 2.0, 2.0, 3, m=400.0)
        got = v["witness"]["partial_sums"][:2]
        for g, want in zip(got, (2.390525899882872924049e+96, 3.012080270309639154734e+224)):
            assert abs(g - want) <= 2e-16 * want


class TestNuclearDecomposition:
    def test_rank_one_factor_frequency_support(self):
        # H_xi for (2 + cos 2 pi x) g(xi) spans exactly {xi-1, xi, xi+1}
        from oracles import rank_one_factor
        from torustrace.harmonic import forward_transform

        lat = FrequencyLattice(1, 6)
        a = modulated_symbol(2.0, BracketPower(-2.0))
        h = rank_one_factor(a, (3,), min_grid_size(6))
        coeffs = forward_transform(h, lat).coeffs
        support = {
            int(lat.points[i, 0]) for i in range(len(lat)) if abs(coeffs[i]) > 1e-12
        }
        assert support == {2, 3, 4}
        g3 = (1.0 + 9.0) ** -1.0
        assert coeffs[lat.indices_of(3)[0]] == pytest.approx(2 * g3, abs=1e-13)
        assert coeffs[lat.indices_of(2)[0]] == pytest.approx(g3 / 2, abs=1e-13)
        assert coeffs[lat.indices_of(4)[0]] == pytest.approx(g3 / 2, abs=1e-13)

    def test_reconstruction_matches_apply(self, rng):
        lat = FrequencyLattice(1, 4)
        grid = min_grid_size(4)
        a = modulated_symbol(2.0, BracketPower(-2.0))
        dec = nuclear_decomposition(a, lat, grid)
        for _ in range(10):
            f = random_bandlimited(lat, grid, rng)
            direct = apply_symbol(a, f, lat)
            viadec = reconstruct(dec, f)
            scale = max(1.0, np.abs(direct.values).max())
            assert np.abs(direct.values - viadec.values).max() <= 1e-10 * scale


class TestQuasinormBound:
    def test_zero_symbol(self):
        from torustrace.symbols import SampledSymbol

        lat = FrequencyLattice(1, 8)
        z = SampledSymbol(1, min_grid_size(8), lat, np.zeros((min_grid_size(8), len(lat))))
        assert nuclear_quasinorm_bound(z, 0.0, lat) == 0.0

    def test_multiplier_closed_form_w0(self):
        lat = FrequencyLattice(1, 16)
        b = nuclear_quasinorm_bound(bessel_symbol(-4.0), 0.0, lat)
        oracle = fsum((1.0 + k * k) ** -2.0 for k in range(-16, 17))
        assert abs(b - oracle) <= 1e-10
        assert b == pytest.approx(1.6135264632816448, abs=1e-12)

    def test_multiplier_increment_small(self):
        b16 = nuclear_quasinorm_bound(bessel_symbol(-4.0), 0.0, FrequencyLattice(1, 16))
        b32 = nuclear_quasinorm_bound(bessel_symbol(-4.0), 0.0, FrequencyLattice(1, 32))
        assert 0 < b32 - b16 < 1e-3

    def test_multiplier_weighted_blocks(self):
        # with w = 1 each character picks up its dyadic factor 2^{m_xi}
        lat = FrequencyLattice(1, 16)
        b = nuclear_quasinorm_bound(bessel_symbol(-4.0), 1.0, lat)

        def block(k):
            if k == 0:
                return 0
            return (int(k * k).bit_length() - 1) // 2

        oracle = fsum(2.0 ** block(k) * (1.0 + k * k) ** -2.0 for k in range(-16, 17))
        assert abs(b - oracle) <= 1e-10
        assert b == pytest.approx(1.7598942887018334, abs=1e-12)

    def test_modulated_stability(self):
        a = modulated_symbol(2.0, BracketPower(-4.0))
        b16 = nuclear_quasinorm_bound(a, 0.0, FrequencyLattice(1, 16))
        b32 = nuclear_quasinorm_bound(a, 0.0, FrequencyLattice(1, 32))
        assert abs(b32 - b16) <= 0.01 * b16


HAND_TABLE = [
    # (label, callable producing verdict, expected satisfied)
    ("t1 order -4 satisfied",
     lambda: check_t1(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-4.0, w2=0.0), True),
    ("t1 equality boundary m=-1",
     lambda: check_t1(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-1.0, w2=0.0), False),
    ("t1 equality boundary m=-7",
     lambda: check_t1(n=1, r=0.5, alpha=0.5, p1=2.0, k=2, delta=1.0, m=-7.0, w2=1.0), False),
    ("t1 two-dimensional satisfied",
     lambda: check_t1(n=2, r=1.0, alpha=0.5, p1=2.0, k=2, delta=0.0, m=-5.0, w2=1.0), True),
    ("t1 fractional r satisfied",
     lambda: check_t1(n=1, r=2.0 / 3.0, alpha=0.25, p1=1.5, k=1, delta=0.0, m=-3.0, w2=0.0),
     True),
    ("t2 nuclear set",
     lambda: check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-1.0), True),
    ("t2 r-nuclear set",
     lambda: check_t2(n=1, r=0.5, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-3.0, w2=0.0), True),
    ("t2 w2 gap violated",
     lambda: check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-0.4), False),
    ("t2 w2 equality boundary",
     lambda: check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-0.5), False),
    ("tt1 case 3 torus satisfied",
     lambda: check_tt1(enumerate_dual(Torus(1), 512), 1.0, 2.0, 2.0, 3, m=-3.0), True),
    ("tt1 case 3 su2 satisfied",
     lambda: check_tt1(enumerate_dual(SU2(True), 200), 1.0, 2.0, 2.0, 3, m=-4.0), True),
    ("tt1 case 3 su2 violated",
     lambda: check_tt1(enumerate_dual(SU2(True), 200), 1.0, 2.0, 2.0, 3, m=-2.0), False),
    ("tt1 case 1 torus satisfied",
     lambda: check_tt1(enumerate_dual(Torus(1), 512), 1.0, 1.5, 3.0, 1, m=-4.0), True),
    ("tt1 case 1 su2 satisfied",
     lambda: check_tt1(enumerate_dual(SU2(True), 200), 1.0, 1.5, 3.0, 1, m=-6.0), True),
    ("tt1 case 2 torus satisfied",
     lambda: check_tt1(enumerate_dual(Torus(1), 512), 1.0, 2.0, 1.0, 2, m=-3.0), True),
    ("tt1 case 2 torus violated",
     lambda: check_tt1(enumerate_dual(Torus(1), 512), 1.0, 2.0, 1.0, 2, m=-1.0), False),
    ("tt1 case 4 su2 satisfied",
     lambda: check_tt1(enumerate_dual(SU2(True), 200), 1.0, 4.0, 2.0, 4, m=-5.0), True),
]


@pytest.mark.parametrize("label,make,expected", HAND_TABLE, ids=[r[0] for r in HAND_TABLE])
def test_hand_evaluated_table(label, make, expected):
    assert make()["satisfied"] is expected
