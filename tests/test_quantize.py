"""Operator application, compressed matrices and the dense eigensolver."""

import numpy as np
import pytest

from torustrace.harmonic import FrequencyLattice, forward_transform, min_grid_size
from torustrace.quantize import CompressedOperator, canonical_eigen_order, eigenvalues
from torustrace.sums import fsum, fsum_complex
from torustrace.symbols import (
    BracketPower,
    bessel_symbol,
    character_symbol,
    modulated_symbol,
)

from conftest import bandlimited, character
from oracles import BandlimitWarning, apply_symbol, random_bandlimited, symbol_fourier


class TestApply:
    def test_identity_symbol(self, rng):
        lat = FrequencyLattice(1, 4)
        f = random_bandlimited(lat, min_grid_size(4), rng)
        g = apply_symbol(bessel_symbol(0.0), f, lat)
        assert np.abs(g.values - f.values).max() <= 1e-12 * max(1.0, np.abs(f.values).max())

    def test_characters_are_multiplier_eigenfunctions(self):
        a = bessel_symbol(-2.0)
        for k in (-3, 0, 2):
            f, lat = character(k, radius=4)
            g = apply_symbol(a, f, lat)
            expect = (1 + k * k) ** -1.0 * f.values
            assert np.abs(g.values - expect).max() < 1e-12

    def test_character_symbol_is_pointwise_product(self, rng):
        lat = FrequencyLattice(1, 3)
        f = random_bandlimited(lat, min_grid_size(3), rng)
        g = apply_symbol(character_symbol(), f, lat)
        x = np.arange(f.grid_size) / f.grid_size
        expect = np.exp(2j * np.pi * x) * f.values
        assert np.abs(g.values - expect).max() < 1e-11

    def test_excess_frequencies_reported(self):
        f, _ = character(5, radius=5)
        small = FrequencyLattice(1, 2)
        with pytest.warns(BandlimitWarning):
            apply_symbol(bessel_symbol(0.0), f, small)

    def test_grid_mismatch_rejected(self):
        from torustrace.symbols import sample_symbol

        lat = FrequencyLattice(1, 3)
        a = sample_symbol(bessel_symbol(-1.0), min_grid_size(3), lat)
        f, _ = character(1, radius=3, grid_size=min_grid_size(3) + 4)
        with pytest.raises(ValueError, match="mismatch"):
            apply_symbol(a, f, lat)


class TestOperatorMatrix:
    def test_multiplier_is_diagonal(self):
        lat = FrequencyLattice(1, 4)
        mat = CompressedOperator(bessel_symbol(-4.0), lat)
        off = mat.entries - np.diag(np.diag(mat.entries))
        assert np.abs(off).max() == 0.0
        expect = lat.brackets() ** -4.0
        assert np.abs(np.diag(mat.entries) - expect).max() < 1e-15

    def test_modulated_tridiagonal_structure(self):
        g = BracketPower(-4.0)
        lat = FrequencyLattice(1, 4)
        mat = CompressedOperator(modulated_symbol(2.0, g), lat)
        gv = g.values(lat.points)
        for j, xi in enumerate(lat.points[:, 0]):
            for i, eta in enumerate(lat.points[:, 0]):
                d = eta - xi
                if d == 0:
                    expect = 2.0 * gv[j]
                elif abs(d) == 1:
                    expect = 0.5 * gv[j]
                else:
                    expect = 0.0
                assert mat.entries[i, j] == pytest.approx(expect, abs=1e-14)

    def test_trace_equals_zero_mode_sum(self):
        lat = FrequencyLattice(1, 4)
        mat = CompressedOperator(modulated_symbol(2.0, BracketPower(-4.0)), lat)
        oracle = fsum(2.0 * (1.0 + k * k) ** -2.0 for k in range(-4, 5))
        assert mat.trace() == pytest.approx(oracle, abs=1e-14)
        assert mat.trace().real == pytest.approx(3.2138408304498269, abs=1e-12)

    def test_trace_beyond_float64_is_refused_when_built(self):
        # every entry is finite (1e308 on the diagonal), but the 7 diagonal entries sum past float64
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            CompressedOperator(modulated_symbol(1e308, BracketPower(0.0)), FrequencyLattice(1, 3))

    def test_consistency_with_apply(self, rng):
        lat = FrequencyLattice(1, 4)
        a = modulated_symbol(2.0, BracketPower(-2.0))
        mat = CompressedOperator(a, lat)
        for _ in range(20):
            f = random_bandlimited(lat, min_grid_size(4), rng)
            lhs = forward_transform(apply_symbol(a, f, lat), lat).coeffs
            rhs = mat.entries @ forward_transform(f, lat).coeffs
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_consistency_with_apply_2d(self, rng):
        lat = FrequencyLattice(2, 2)
        a = modulated_symbol(2.0, BracketPower(-2.0), dim=2)
        mat = CompressedOperator(a, lat)
        f = random_bandlimited(lat, min_grid_size(2), rng)
        lhs = forward_transform(apply_symbol(a, f, lat), lat).coeffs
        rhs = mat.entries @ forward_transform(f, lat).coeffs
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_entries_match_symbol_fourier_brute_force_2d(self):
        from torustrace.symbols import sample_symbol

        lat = FrequencyLattice(2, 2)
        a = modulated_symbol(2.0, BracketPower(-1.5), dim=2)
        mat = CompressedOperator(a, lat)
        for i, eta in enumerate(lat.points):
            for j, xi in enumerate(lat.points):
                expect = symbol_fourier(a, eta - xi, xi)
                assert mat.entries[i, j] == pytest.approx(expect, abs=1e-14)
        sampled = CompressedOperator(sample_symbol(a, min_grid_size(2), lat), lat)
        assert np.abs(sampled.entries - mat.entries).max() < 1e-13


class TestEigenvalues:
    def test_diagonal(self):
        eigs = eigenvalues(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert np.allclose(sorted(eigs.real), [1, 2, 3], atol=1e-14)
        assert np.abs(eigs.imag).max() < 1e-14

    def test_symmetric_permutation(self):
        eigs = eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(sorted(eigs.real), [-1.0, 1.0], atol=1e-14)

    def test_triangular_spectrum_is_diagonal(self, rng):
        a = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), k=1)
        a = a + np.diag([2.0, 5.0, -1.0])
        eigs = eigenvalues(a)
        assert np.allclose(sorted(eigs.real), [-1.0, 2.0, 5.0], atol=1e-10)

    def test_canonical_order(self):
        eigs = eigenvalues(np.diag([1.0, -2.0, 2.0, 0.5]).astype(complex))
        mags = np.abs(eigs)
        assert np.all(np.diff(mags) <= 1e-15)
        # |2| tie broken by argument: +2 (arg 0) before -2 (arg pi)
        assert eigs[0] == pytest.approx(2.0)
        assert eigs[1] == pytest.approx(-2.0)

    def test_residuals_within_tolerance(self):
        lat = FrequencyLattice(1, 8)
        mat = CompressedOperator(modulated_symbol(2.0, BracketPower(-4.0)), lat)
        res = eigenvalues(mat, with_residuals=True)[1]
        norm = np.linalg.norm(mat.entries, 2)
        assert res.max() <= 1e-9 * norm

    def test_eigen_sum_matches_trace(self):
        lat = FrequencyLattice(1, 6)
        mat = CompressedOperator(modulated_symbol(2.0, BracketPower(-4.0)), lat)
        eigs = eigenvalues(mat)
        assert abs(fsum_complex(eigs) - mat.trace()) <= 1e-9 * (1 + abs(mat.trace()))

    def test_multiplier_diagonalization_multiset(self):
        lat = FrequencyLattice(1, 6)
        a = bessel_symbol(-4.0)
        eigs = eigenvalues(CompressedOperator(a, lat))
        expect = np.sort_complex(lat.brackets() ** -4.0 + 0j)
        got = np.sort_complex(eigs)
        assert np.abs(got - expect).max() <= 1e-12

    def test_similarity_invariance(self, rng):
        lat = FrequencyLattice(1, 5)
        mat = CompressedOperator(modulated_symbol(2.0, BracketPower(-3.0)), lat)
        phases = np.exp(2j * np.pi * rng.random(len(mat.entries)))
        d = np.diag(phases)
        conj = d @ mat.entries @ np.conj(d).T
        e1 = eigenvalues(mat)
        e2 = eigenvalues(conj)
        assert np.abs(np.sort_complex(e1) - np.sort_complex(e2)).max() <= 1e-8

    def test_nilpotent_shift_matrix(self):
        # character symbol compresses to a shift; spectrum is {0}, trace 0
        lat = FrequencyLattice(1, 3)
        mat = CompressedOperator(character_symbol(), lat)
        assert mat.trace() == 0
        eigs = eigenvalues(mat)
        assert np.abs(eigs).max() < 1e-8
