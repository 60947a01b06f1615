"""Nuclearity checkers: clause evaluation against hand-computed verdicts,
series certificates, and the canonical quasi-norm bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustrace.besov import BesovParams
from torustrace.criteria import (
    Clause,
    check_t1,
    check_t2,
    check_tt1,
    epsilon,
    lr_seminorm,
    nuclear_decomposition,
    nuclear_quasinorm_bound,
    reconstruct,
)
from torustrace.groups import enumerate_dual
from torustrace.harmonic import FrequencyLattice, min_grid_size, random_bandlimited
from torustrace.quantize import apply_symbol
from torustrace.sums import fsum
from torustrace.symbols import BracketPower, bessel_symbol, modulated_symbol


class TestEpsilon:
    def test_values(self):
        assert epsilon(1.5) == 0.5
        assert epsilon(2.0) == 0.5
        assert epsilon(4.0) == 0.25

    def test_continuous_at_two(self):
        h = 1e-9
        assert epsilon(2.0 - h) == 0.5
        assert epsilon(2.0 + h) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_t_at_most_one(self):
        for t in (1.0, 0.5, -3.0):
            with pytest.raises(ValueError):
                epsilon(t)

    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(1.0001, 50, allow_nan=False),
        t2=st.floats(1.0001, 50, allow_nan=False),
    )
    def test_non_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert epsilon(lo) >= epsilon(hi)


class TestLrSeminorm:
    def test_zero_matrix(self):
        assert lr_seminorm(np.zeros((3, 3)), 0.5) == 0.0

    @pytest.mark.parametrize("d,r", [(2, 1.0), (3, 0.5), (4, 0.25)])
    def test_identity(self, d, r):
        assert lr_seminorm(np.eye(d), r) == pytest.approx(d ** (1.0 / r), rel=1e-14)

    def test_all_ones_half(self):
        assert lr_seminorm(np.ones((2, 2)), 0.5) == pytest.approx(16.0, rel=1e-14)

    def test_r_validated(self):
        with pytest.raises(ValueError):
            lr_seminorm(np.ones((2, 2)), 1.5)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), r=st.floats(0.1, 0.95))
    def test_l1_dominated_inside_unit_disk(self, seed, r):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        a /= np.abs(a).max() + 1e-9
        assert lr_seminorm(a, 1.0) <= lr_seminorm(a, r) + 1e-12


def _verdict(v):
    return "satisfied" if v.satisfied else "violated"


class TestCheckT1:
    def test_reference_satisfied(self):
        v = check_t1(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-4.0, w2=0.0,
                     p2=2.0, q2=2.0)
        assert v.satisfied
        assert v.derived_params["q1"] == pytest.approx(1.0)
        assert v.derived_params["w1"] == pytest.approx(0.5)
        assert v.witness.certified
        # governing series here is sum <xi>^{-4}, known partial sums
        assert v.witness.partial_sums[-1] == pytest.approx(
            fsum((1.0 + k * k) ** -2.0 for k in range(-64, 65)), abs=1e-14
        )

    def test_order_clause_fails_at_equality(self):
        v = check_t1(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-1.0, w2=0.0)
        assert not v.satisfied
        assert len(v.violated_clauses) == 1
        clause = v.violated_clauses[0]
        assert clause.lhs == clause.rhs == -1.0
        assert "fails at equality" in clause.render()

    def test_strict_boundary_second_family(self):
        v = check_t1(n=1, r=0.5, alpha=0.5, p1=2.0, k=2, delta=1.0, m=-7.0, w2=1.0)
        assert not v.satisfied
        [clause] = v.violated_clauses
        assert clause.lhs == -7.0 and clause.rhs == -7.0

    def test_monotone_in_m(self):
        base = dict(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, w2=0.0)
        assert check_t1(m=-1.5, **base).satisfied
        for m in (-2.0, -3.0, -10.0):
            assert check_t1(m=m, **base).satisfied

    def test_range_violations_itemized(self):
        v = check_t1(n=1, r=1.0, alpha=0.7, p1=3.0, k=0, delta=0.0, m=-4.0, w2=-1.0)
        descriptions = {c.description for c in v.violated_clauses}
        assert "alpha <= 1/2" in descriptions
        assert "p1 <= 2" in descriptions
        assert "k > n/2" in descriptions
        assert "w2 >= 0" in descriptions

    def test_degenerate_parameters_raise(self):
        with pytest.raises(ValueError, match="degenerate"):
            check_t1(n=1, r=0.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-4.0, w2=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            check_t2(n=0, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-4.0, w2=0.0)


class TestCheckT2:
    def test_nuclear_set_satisfied(self):
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-1.0)
        assert v.satisfied
        assert v.derived_params["clause_set"] == "nuclear"

    def test_r_nuclear_set_satisfied(self):
        v = check_t2(n=1, r=0.5, alpha=0.5, p1=2.0, k=1, delta=0.0, m=-3.0, w2=0.0)
        assert v.satisfied
        assert v.derived_params["clause_set"] == "r-nuclear"

    def test_violated_both_sets(self):
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-0.4)
        assert not v.satisfied
        descriptions = {c.description for c in v.violated_clauses}
        assert "nuclear set: w2 < -n/2" in descriptions

    def test_boundary_at_minus_half(self):
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-0.5)
        assert not v.satisfied
        boundary = [c for c in v.violated_clauses if c.description == "nuclear set: w2 < -n/2"]
        assert boundary and boundary[0].lhs == boundary[0].rhs == -0.5

    def test_convolution_witness_summable_case(self):
        # w2 < -n makes the governing series genuinely summable
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=2, delta=0.0, m=0.0, w2=-1.5)
        assert v.satisfied
        assert v.witness.certified
        assert v.witness.rule == "geometric-shell-ratio"

    def test_convolution_witness_flags_borderline(self):
        # clauses hold but the series carries no numerical certificate
        v = check_t2(n=1, r=1.0, alpha=0.5, p1=2.0, k=1, delta=0.0, m=0.0, w2=-1.0)
        assert v.satisfied
        assert not v.witness.certified
        assert "not certified" in v.witness.note


class TestCheckTT1:
    def test_torus_case3_satisfied(self):
        dual = enumerate_dual("torus", 512, dim=1)
        v = check_tt1(dual, lambda dual: dual.bracket**-3.0, 1.0, 2.0, 2.0, 3)
        assert v.satisfied
        assert v.witness.certified

    def test_su2_case3_satisfied(self):
        dual = enumerate_dual("su2", 200)
        v = check_tt1(dual, lambda dual: dual.bracket**-4.0, 1.0, 2.0, 2.0, 3)
        assert v.satisfied

    def test_su2_case3_violated(self):
        dual = enumerate_dual("su2", 200)
        v = check_tt1(dual, lambda dual: dual.bracket**-2.0, 1.0, 2.0, 2.0, 3)
        assert not v.satisfied
        [clause] = v.violated_clauses
        assert clause.lhs > 0.9  # observed shell ratio, both sides evaluated
        assert clause.rhs == 0.9

    def test_case_ranges_raise(self):
        dual = enumerate_dual("torus", 16, dim=1)
        with pytest.raises(ValueError, match="case 3"):
            check_tt1(dual, lambda dual: np.ones(len(dual)), 1.0, 3.0, 3.0, 3)
        with pytest.raises(ValueError, match="case 4"):
            check_tt1(dual, lambda dual: np.ones(len(dual)), 1.0, 4.0, 3.0, 4)
        with pytest.raises(ValueError, match="case"):
            check_tt1(dual, lambda dual: np.ones(len(dual)), 1.0, 2.0, 2.0, 5)

    def test_matrix_symbol_accepted(self):
        dual = enumerate_dual("su2", 100)
        v = check_tt1(
            dual,
            lambda dual: [b**-4.0 * np.eye(d) for b, d in zip(dual.bracket, dual.d)],
            1.0,
            2.0,
            2.0,
            3,
        )
        assert v.satisfied


class TestNuclearDecomposition:
    def test_rank_one_factor_frequency_support(self):
        # H_xi for (2 + cos 2 pi x) g(xi) spans exactly {xi-1, xi, xi+1}
        from torustrace.criteria import rank_one_factor
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
        assert coeffs[lat.index_of(3)] == pytest.approx(2 * g3, abs=1e-13)
        assert coeffs[lat.index_of(2)] == pytest.approx(g3 / 2, abs=1e-13)
        assert coeffs[lat.index_of(4)] == pytest.approx(g3 / 2, abs=1e-13)

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
        assert nuclear_quasinorm_bound(z, 1.0, BesovParams(0, 2, 2), lat) == 0.0

    def test_multiplier_closed_form_w0(self):
        lat = FrequencyLattice(1, 16)
        b = nuclear_quasinorm_bound(bessel_symbol(-4.0), 1.0, BesovParams(0, 2, 2), lat)
        oracle = fsum((1.0 + k * k) ** -2.0 for k in range(-16, 17))
        assert abs(b - oracle) <= 1e-10
        assert b == pytest.approx(1.6135264632816448, abs=1e-12)

    def test_multiplier_increment_small(self):
        p = BesovParams(0, 2, 2)
        b16 = nuclear_quasinorm_bound(bessel_symbol(-4.0), 1.0, p, FrequencyLattice(1, 16))
        b32 = nuclear_quasinorm_bound(bessel_symbol(-4.0), 1.0, p, FrequencyLattice(1, 32))
        assert 0 < b32 - b16 < 1e-3

    def test_multiplier_weighted_blocks(self):
        # with w = 1 each character picks up its dyadic factor 2^{m_xi}
        lat = FrequencyLattice(1, 16)
        b = nuclear_quasinorm_bound(bessel_symbol(-4.0), 1.0, BesovParams(1, 2, 2), lat)

        def block(k):
            if k == 0:
                return 0
            return (int(k * k).bit_length() - 1) // 2

        oracle = fsum(2.0 ** block(k) * (1.0 + k * k) ** -2.0 for k in range(-16, 17))
        assert abs(b - oracle) <= 1e-10
        assert b == pytest.approx(1.7598942887018334, abs=1e-12)

    def test_modulated_stability(self):
        a = modulated_symbol(2.0, BracketPower(-4.0))
        p = BesovParams(0, 2, 2)
        b16 = nuclear_quasinorm_bound(a, 1.0, p, FrequencyLattice(1, 16))
        b32 = nuclear_quasinorm_bound(a, 1.0, p, FrequencyLattice(1, 32))
        assert abs(b32 - b16) <= 0.01 * b16

    def test_r_power_multiplier(self):
        lat = FrequencyLattice(1, 12)
        b = nuclear_quasinorm_bound(bessel_symbol(-4.0), 0.5, BesovParams(0, 2, 2), lat)
        oracle = fsum(((1.0 + k * k) ** -2.0) ** 0.5 for k in range(-12, 13))
        assert abs(b - oracle) <= 1e-10

    def test_r_validated(self):
        with pytest.raises(ValueError):
            nuclear_quasinorm_bound(
                bessel_symbol(-4.0), 1.5, BesovParams(0, 2, 2), FrequencyLattice(1, 4)
            )


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
     lambda: check_tt1(enumerate_dual("torus", 512, dim=1),
                       lambda dual: dual.bracket**-3.0, 1.0, 2.0, 2.0, 3), True),
    ("tt1 case 3 su2 satisfied",
     lambda: check_tt1(enumerate_dual("su2", 200),
                       lambda dual: dual.bracket**-4.0, 1.0, 2.0, 2.0, 3), True),
    ("tt1 case 3 su2 violated",
     lambda: check_tt1(enumerate_dual("su2", 200),
                       lambda dual: dual.bracket**-2.0, 1.0, 2.0, 2.0, 3), False),
    ("tt1 case 1 torus satisfied",
     lambda: check_tt1(enumerate_dual("torus", 512, dim=1),
                       lambda dual: dual.bracket**-4.0, 1.0, 1.5, 3.0, 1), True),
    ("tt1 case 1 su2 satisfied",
     lambda: check_tt1(enumerate_dual("su2", 200),
                       lambda dual: dual.bracket**-6.0, 1.0, 1.5, 3.0, 1), True),
    ("tt1 case 2 torus satisfied",
     lambda: check_tt1(enumerate_dual("torus", 512, dim=1),
                       lambda dual: dual.bracket**-3.0, 1.0, 2.0, 1.0, 2), True),
    ("tt1 case 2 torus violated",
     lambda: check_tt1(enumerate_dual("torus", 512, dim=1),
                       lambda dual: dual.bracket**-1.0, 1.0, 2.0, 1.0, 2), False),
    ("tt1 case 4 su2 satisfied",
     lambda: check_tt1(enumerate_dual("su2", 200),
                       lambda dual: dual.bracket**-5.0, 1.0, 4.0, 2.0, 4), True),
]


@pytest.mark.parametrize("label,make,expected", HAND_TABLE, ids=[r[0] for r in HAND_TABLE])
def test_hand_evaluated_table(label, make, expected):
    assert make().satisfied is expected
