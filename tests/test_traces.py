"""Nuclear/spectral traces, the identity across truncations, and tail bounds."""

import math

import numpy as np
import pytest

from torustrace.harmonic import FrequencyLattice, min_grid_size
from torustrace.quantize import CompressedOperator, eigenvalues
from torustrace.sums import fsum, fsum_complex
from torustrace.symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
    SeparableSymbol,
    TrigPolynomial,
    bessel_symbol,
    heat_symbol,
    modulated_symbol,
    sample_symbol,
)
from torustrace.traces import lidskii_compare, tail_estimate

MODULATED_TRACE_N4 = 3.2138408304498269  # oracle: direct summation of 2 sum <xi>^-4


def matrix_trace(a, lat):
    return CompressedOperator(a, lat).trace()


def compare(a, radii):
    """``lidskii_compare`` over the compressions of ``a`` at ``radii``, built as ``lidskii`` builds them."""
    return lidskii_compare(a, [CompressedOperator(a, FrequencyLattice(a.dim, r)) for r in radii])


def spectrum(a, lat):
    """The compression's eigenvalues and their sum, as ``spectrum`` and ``trace`` report them."""
    eigs = eigenvalues(CompressedOperator(a, lat))
    return fsum_complex(eigs), eigs


class TestNuclearTrace:
    def test_identity_compression_counts_lattice(self):
        lat = FrequencyLattice(1, 4)
        assert matrix_trace(bessel_symbol(0.0), lat) == pytest.approx(9.0, abs=1e-13)

    def test_gaussian_multiplier_theta_value(self):
        lat = FrequencyLattice(1, 6)
        got = matrix_trace(heat_symbol(1.0), lat)
        oracle = fsum(math.exp(-k * k) for k in range(-6, 7))
        assert got.real == pytest.approx(oracle, abs=1e-15)
        assert got.real == pytest.approx(1.7726372048, abs=1e-9)
        assert abs(got.imag) < 1e-15

    def test_modulated_matches_matrix_trace_example(self):
        lat = FrequencyLattice(1, 4)
        got = matrix_trace(modulated_symbol(2.0, BracketPower(-4.0)), lat)
        assert got.real == pytest.approx(MODULATED_TRACE_N4, abs=1e-12)

    def test_linearity_on_sampled_tables(self):
        lat = FrequencyLattice(1, 5)
        grid = min_grid_size(5)
        a = sample_symbol(modulated_symbol(2.0, BracketPower(-2.0)), grid, lat)
        b = sample_symbol(heat_symbol(0.5), grid, lat)
        lhs = matrix_trace(SampledSymbol(1, grid, lat, a.table + b.table), lat)
        rhs = matrix_trace(a, lat) + matrix_trace(b, lat)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSpectralTrace:
    def test_multiplier_eigen_multiset(self):
        lat = FrequencyLattice(1, 5)
        a = bessel_symbol(-4.0)
        total, eigs = spectrum(a, lat)
        expect = np.sort_complex(lat.brackets() ** -4.0 + 0j)
        assert np.abs(np.sort_complex(eigs) - expect).max() <= 1e-12
        assert total == pytest.approx(fsum_complex(lat.brackets() ** -4.0), abs=1e-12)

    def test_identity_symbol(self):
        lat = FrequencyLattice(1, 3)
        total, eigs = spectrum(bessel_symbol(0.0), lat)
        assert np.abs(eigs - 1.0).max() < 1e-12
        assert total == pytest.approx(7.0, abs=1e-12)

    def test_modulated_agrees_with_nuclear(self):
        lat = FrequencyLattice(1, 4)
        a = modulated_symbol(2.0, BracketPower(-4.0))
        total, _ = spectrum(a, lat)
        nuc = matrix_trace(a, lat)
        assert abs(total - nuc) <= 1e-9 * (1 + abs(nuc))
        assert total.real == pytest.approx(MODULATED_TRACE_N4, abs=1e-9)


class TestLidskiiCompare:
    def test_power_law_shrinking_increments(self):
        report = compare(bessel_symbol(-4.0), [4, 8, 16])
        for rec in report["history"]:
            assert rec["abs_diff"] <= 1e-10
        incs = [
            abs(b["nuclear"] - a["nuclear"])
            for a, b in zip(report["history"], report["history"][1:])
        ]
        assert incs[0] / incs[1] >= 6.0  # cubic tail shrinks ~8x per doubling
        assert report["history_converged"] is True
        # the integral of 2 x^-4 from 16 bounds the nuclear trace's tail past radius 16
        true_tail = 2 * fsum((1.0 + k * k) ** -2.0 for k in range(17, 100000))
        assert true_tail <= report["tail_estimate"] == 2.0 * 16**-3 / 3.0

    def test_gaussian_tail(self):
        report = compare(heat_symbol(1.0), [2, 4, 6])
        nuc = {rec["radius"]: rec["nuclear"].real for rec in report["history"]}
        assert abs(nuc[6] - nuc[4]) <= 1e-7
        assert report["history_converged"] is True

    def test_identity_flagged_nonconvergent(self):
        report = compare(bessel_symbol(0.0), [2, 4, 8])
        nuc = {rec["radius"]: rec["nuclear"].real for rec in report["history"]}
        assert nuc[2] == pytest.approx(5.0, abs=1e-12)
        assert nuc[4] == pytest.approx(9.0, abs=1e-12)
        assert nuc[8] == pytest.approx(17.0, abs=1e-12)
        assert report["history_converged"] is False

    def test_heat_tail_bound(self):
        # the Gaussian envelope past radius 2: at least 2 sum_{k > 2} e^{-0.1 k^2}, and
        # within 30% of it
        report = compare(heat_symbol(0.1), [1, 2])
        true_tail = 2 * fsum(math.exp(-0.1 * k * k) for k in range(3, 200))
        assert true_tail <= report["tail_estimate"] <= 1.3 * true_tail
        assert report["history_converged"] is True

    def test_a_slow_power_law_is_certified(self):
        # <xi>^-1.2 is summable in dim 1, however slowly its increments shrink
        report = compare(bessel_symbol(-1.2), [2, 4, 8, 16, 32])
        assert report["tail_estimate"] == pytest.approx(2.0 * 32**-0.2 / 0.2, rel=1e-15)
        assert report["history_converged"] is True

    def test_one_radius_gets_a_verdict(self):
        assert compare(bessel_symbol(-4.0), [4])["history_converged"] is True

    def test_zero_mean_symbol_has_tail_zero(self):
        # e^{i 2 pi x} g(xi) has hat u(0) = 0: trace and tail are 0 whatever g is
        a = SeparableSymbol(TrigPolynomial({1: 1.0 + 0j}), BracketPower(0.0))
        report = compare(a, [2, 4])
        assert report["nuclear_trace"] == 0 and report["tail_estimate"] == 0.0
        assert report["history_converged"] is True

    def test_sampled_symbol_not_certified(self):
        a = sample_symbol(bessel_symbol(-4.0), min_grid_size(8), FrequencyLattice(1, 8))
        report = compare(a, [4, 8])
        assert report["tail_estimate"] == math.inf and report["history_converged"] is False


class TestTailEstimate:
    def test_power_law_bracket(self):
        lat = FrequencyLattice(1, 16)
        bound = tail_estimate(bessel_symbol(-4.0), lat, -4.0)
        exact_integral = 2.0 / (3.0 * 16**3)
        assert 0.5 * 2.0 / (3.0 * 17**3) <= bound <= 2.0 * 2.0 / (3.0 * 15**3)
        assert bound == pytest.approx(exact_integral, rel=0.05)
        # the bound really dominates the discarded sum
        true_tail = fsum((1.0 + k * k) ** -2.0 for k in range(17, 100000))
        assert bound >= 2 * true_tail * 0.99

    def test_radius_zero(self):
        # the shell x = 1 on its own, then the integral from 1: 1 * (2 + 2/3)
        bound = tail_estimate(bessel_symbol(-4.0), FrequencyLattice(1, 0), -4.0)
        assert 2 * fsum((1.0 + k * k) ** -2.0 for k in range(1, 100000)) <= bound == 2.0 + 2.0 / 3.0

    def test_gaussian_with_power_hint(self):
        lat = FrequencyLattice(1, 6)
        bound = tail_estimate(heat_symbol(1.0), lat, -10.0)
        assert bound < 1e-6

    def test_zero_symbol(self):
        lat = FrequencyLattice(1, 4)
        z = SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), GaussianDecay(math.inf), claimed_order=None)
        # exp(-inf * |xi|^2) = 0 off the origin, 1 at it; boundary shell is zero
        assert tail_estimate(z, lat, -2.0) == 0.0

    def test_non_summable_hint_rejected(self):
        # the tail of a divergent envelope is inf: no finite bound to report
        lat = FrequencyLattice(1, 8)
        with pytest.raises(OverflowError, match="leaves float64"):
            tail_estimate(bessel_symbol(-4.0), lat, -0.5)

    def test_dim2_bound(self):
        lat = FrequencyLattice(2, 8)
        bound = tail_estimate(bessel_symbol(-5.0, dim=2), lat, -5.0)
        true_tail = 0.0
        for i in range(-60, 61):
            for j in range(-60, 61):
                if max(abs(i), abs(j)) > 8:
                    true_tail += (1.0 + i * i + j * j) ** -2.5
        assert bound >= true_tail


class TestWIndependence:
    def test_trace_identical_across_certificates(self):
        from torustrace.criteria import nuclear_quasinorm_bound

        lat = FrequencyLattice(1, 8)
        a = bessel_symbol(-4.0)
        traces = []
        for w in (0.0, 1.0, 2.0):
            nuclear_quasinorm_bound(a, w, lat)
            traces.append(matrix_trace(a, lat))
        assert repr(traces[0]) == repr(traces[1]) == repr(traces[2])
