"""Dyadic blocks, Besov norms, and the coefficient-map embedding (an oracle)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torustrace.besov import (BesovParams, block_index, block_norms, coefficient_norm,
                              partial_sum_convergence, weighted_norm)
from torustrace.harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    forward_transform,
    lp_norms,
    min_grid_size,
)
from conftest import bandlimited, character
from oracles import fourier_embedding_ratio, random_bandlimited, scaled


class TestBlockIndex:
    @pytest.mark.parametrize(
        "xi,expected",
        [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (7, 2), (8, 3), (15, 3), (16, 4)],
    )
    def test_abs_weight(self, xi, expected):
        assert block_index(xi * xi) == expected

    def test_bracket_weight_origin(self):
        # the bracket key <0>^2 = 1 lands in block 0 without any special-casing
        assert block_index(0 + 1) == 0


@pytest.mark.parametrize("dim,radius", [(1, 5000), (2, 300)])
def test_bracket_key_bins_every_lattice_as_abs(dim, radius):
    # |xi|^2 and <xi>^2 = |xi|^2 + 1 fall in different blocks only where
    # |xi|^2 = 4^m - 1 = 3 mod 4, which no sum of one or two squares is; the
    # lattices are nested, so the largest of each dim covers every smaller one
    sq = FrequencyLattice(dim, radius).squared_norms()
    assert np.array_equal(block_index(sq), block_index(sq + 1))
    # the SU(2) bracket key floor(lambda) + 1 does move: spin 3/2 has lambda 15/4
    assert block_index(3) == 0 and block_index(3 + 1) == 1


class TestDyadicBlocks:
    """Block norms from ``block_norms``; the partition itself from the per-block oracle."""

    def test_character_four_single_block(self):
        f, lat = character(4, radius=8)
        nonempty = [(m, v) for m, v in block_norms(forward_transform(f, lat), 2, f.grid_size) if v > 1e-12]
        assert [m for m, _ in nonempty] == [2]

    def test_constant_block_zero(self):
        f, lat = bandlimited({0: 1.0}, radius=4)
        nonempty = [m for m, v in block_norms(forward_transform(f, lat), 2, f.grid_size) if v > 1e-12]
        assert nonempty == [0]

    def test_two_characters_two_blocks(self):
        f, lat = bandlimited({1: 1.0, 5: 1.0}, radius=8)
        nonempty = sorted(m for m, v in block_norms(forward_transform(f, lat), 2, f.grid_size) if v > 1e-12)
        assert nonempty == [0, 2]

    def test_partition_sums_to_function(self, rng):
        lat = FrequencyLattice(1, 8)
        f = random_bandlimited(lat, min_grid_size(8), rng)
        blocks = oracles.dyadic_blocks(forward_transform(f, lat), f.grid_size)
        total = np.zeros_like(f.values)
        for _, _, piece in blocks:
            total = total + piece.values
        assert np.abs(total - f.values).max() <= 1e-12 * max(1.0, np.abs(f.values).max())

    def test_blocks_partition_lattice(self):
        lat = FrequencyLattice(2, 5)
        blocks = oracles.dyadic_blocks(
            FourierCoefficients(lat, np.ones(len(lat), dtype=complex)), min_grid_size(5)
        )
        seen = np.vstack([points for _, points, _ in blocks])
        assert seen.shape[0] == len(lat)
        max_block = max(m for m, _, _ in blocks)
        assert 2**max_block <= math.sqrt(2) * 5


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 0), (1, 1), (1, 5), (1, 16), (1, 40), (2, 0), (2, 1), (2, 3), (2, 7)]),
    extra=st.integers(0, 3),  # odd and even grids
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    zero=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_block_norms_match_per_block_synthesis(shape, extra, p, zero, seed):
    # one batched inverse FFT and one binned sum give the per-block FFT's norms,
    # each summed by math.fsum, bit for bit
    dim, radius = shape
    lat = FrequencyLattice(dim, radius)
    grid = min_grid_size(radius) + extra
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(len(lat)) if zero else rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    c = FourierCoefficients(lat, coeffs)
    want = [(m, oracles.lp_norm(piece.values, p)) for m, _, piece in oracles.dyadic_blocks(c, grid)]
    assert block_norms(c, p, grid) == want


def test_block_norms_refuse_an_aliasing_grid():
    lat = FrequencyLattice(1, 4)
    with pytest.raises(ValueError, match="anti-aliasing margin"):
        block_norms(FourierCoefficients(lat, np.ones(len(lat))), 2.0, min_grid_size(4) - 1)


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want) if want else abs(got) / math.ulp(0.0)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (1, 6), (1, 19), (2, 1), (2, 4), (2, 6)]),
    extra=st.integers(0, 3),
    w=st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    q=st.sampled_from([1.0, 2.0, math.inf]),
    seed=st.integers(0, 2**31),
)
def test_partial_sum_errors_match_resynthesis(shape, extra, w, p, q, seed):
    # masking coefficients skips a synthesis and a transform, each rounding in the
    # last bits; over 25000 random rows the two paths differed by at most 6 ulp
    dim, radius = shape
    lat = FrequencyLattice(dim, radius)
    f = random_bandlimited(lat, min_grid_size(radius) + extra, np.random.default_rng(seed))
    params, n_values = BesovParams(w, p, q), [0.5, 1, 2, 3.5, 5, 8, 100]
    got = partial_sum_convergence(forward_transform(f, lat), params, n_values, f.grid_size)
    want = oracles.partial_sum_errors(f, params, n_values, lat)
    assert [n for n, _ in got] == [n for n, _ in want]
    assert max(_ulps(g, e) for (_, g), (_, e) in zip(got, want)) <= 8


def test_readme_partial_sum_errors_within_two_ulp():
    # the README approx-demo: sum_{|k| <= 8} <k>^-2 e_k, w = 0, p = q = 2, whose
    # error at N is by Parseval sqrt(sum_{<k> > N} <k>^-4); the coefficients are
    # normed as given, with no synthesis and transform to round them first
    lat = FrequencyLattice(1, 8)
    params, n_values = BesovParams(0.0, 2.0, 2.0), [1, 2, 4, 8, 9]
    got = partial_sum_convergence(FourierCoefficients(lat, lat.brackets() ** -2.0), params, n_values,
                                  min_grid_size(8))
    for n_cut, err in got:
        closed = math.sqrt(math.fsum((1.0 + k * k) ** -2.0 for k in range(-8, 9) if 1 + k * k > n_cut**2))
        assert _ulps(err, closed) <= 4, (n_cut, err, closed)


def besov_of(f, params, lat):
    return coefficient_norm(forward_transform(f, lat), params, f.grid_size)


class TestBesovNorm:
    def test_character_closed_form(self):
        f, lat = character(4, radius=8)
        for p in (1.0, 2.0, math.inf):
            for q in (1.0, 2.0, math.inf):
                assert besov_of(f, BesovParams(1.0, p, q), lat) == pytest.approx(
                    4.0, abs=1e-10
                )

    def test_constant_is_one(self):
        f, lat = bandlimited({0: 1.0}, radius=4)
        assert besov_of(f, BesovParams(2.5, 3.0, 1.0), lat) == pytest.approx(1.0, abs=1e-10)

    def test_w0_p2_q2_is_l2(self, rng):
        lat = FrequencyLattice(1, 8)
        for _ in range(5):
            f = random_bandlimited(lat, min_grid_size(8), rng)
            b = besov_of(f, BesovParams(0.0, 2.0, 2.0), lat)
            assert abs(b - lp_norms(f.values[None, :], 2)[0]) <= 1e-10 * max(1.0, b)

    def test_weight_monotonicity(self, rng):
        lat = FrequencyLattice(1, 8)
        f = random_bandlimited(lat, min_grid_size(8), rng)
        ws = [-1.0, 0.0, 0.5, 1.0, 2.0]
        vals = [besov_of(f, BesovParams(w, 2.0, 2.0), lat) for w in ws]
        for small, big in zip(vals, vals[1:]):
            assert small <= big + 1e-12

    def test_q_nesting(self, rng):
        lat = FrequencyLattice(1, 8)
        f = random_bandlimited(lat, min_grid_size(8), rng)
        qs = [1.0, 1.5, 2.0, 4.0, math.inf]
        vals = [besov_of(f, BesovParams(0.7, 2.0, q), lat) for q in qs]
        for small_q, big_q in zip(vals, vals[1:]):
            assert big_q <= small_q + 1e-12

    def test_norm_axioms(self, rng):
        lat = FrequencyLattice(1, 6)
        params = BesovParams(0.5, 2.0, 2.0)
        for _ in range(5):
            f = random_bandlimited(lat, min_grid_size(6), rng)
            g = random_bandlimited(lat, min_grid_size(6), rng)
            c = complex(*rng.standard_normal(2))
            nf, ng = besov_of(f, params, lat), besov_of(g, params, lat)
            assert besov_of(scaled(f, c), params, lat) == pytest.approx(
                abs(c) * nf, abs=1e-10 * max(1.0, abs(c) * nf)
            )
            f_plus_g = PeriodicFunction(f.dim, f.grid_size, f.values + g.values)
            assert besov_of(f_plus_g, params, lat) <= nf + ng + 1e-10

    def test_banach_range_enforced(self):
        with pytest.raises(ValueError):
            BesovParams(0.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            BesovParams(0.0, 2.0, 0.9)

    def test_two_dimensional_character(self):
        # e^{i 2 pi <x, (1,1)>}: |xi| = sqrt(2) sits in block 0
        lat = FrequencyLattice(2, 2)
        coeffs = np.zeros(len(lat), dtype=complex)
        coeffs[lat.index_of((1, 1))] = 1.0
        f = oracles.synthesize(FourierCoefficients(lat, coeffs), min_grid_size(2))
        assert besov_of(f, BesovParams(1.0, 2.0, 2.0), lat) == pytest.approx(1.0, abs=1e-10)
        coeffs2 = np.zeros(len(lat), dtype=complex)
        coeffs2[lat.index_of((2, 0))] = 1.0
        g = oracles.synthesize(FourierCoefficients(lat, coeffs2), min_grid_size(2))
        assert besov_of(g, BesovParams(1.0, 2.0, 2.0), lat) == pytest.approx(2.0, abs=1e-10)

    def test_bracket_weight_reported_variant(self):
        # <4> = sqrt(17) in [4, 8) and <1> = sqrt(2) in [1, 2) keep the blocks of
        # |4| and |1|, so the norms the bracket grouping would give are these
        assert block_index(4 * 4 + 1) == block_index(4 * 4) == 2
        assert block_index(1 * 1 + 1) == block_index(1 * 1) == 0
        f, lat = character(4, radius=8)
        assert besov_of(f, BesovParams(1.0, 2.0, 2.0), lat) == pytest.approx(4.0, abs=1e-10)
        g, lat2 = character(1, radius=4)
        assert besov_of(g, BesovParams(1.0, 2.0, 2.0), lat2) == pytest.approx(1.0, abs=1e-10)


class TestFourierEmbeddingRatio:
    def test_single_character_closed_form(self):
        # ratio = 2^{-m_k * alpha * n}: block of 1 is 0, block of 4 is 2
        f1, lat1 = character(1, radius=4)
        assert fourier_embedding_ratio(f1, 2.0, 0.5, lat1) == pytest.approx(1.0, abs=1e-10)
        f4, lat4 = character(4, radius=8)
        assert fourier_embedding_ratio(f4, 2.0, 0.5, lat4) == pytest.approx(0.5, abs=1e-10)

    def test_constant(self):
        f, lat = bandlimited({0: 1.0}, radius=4)
        assert fourier_embedding_ratio(f, 2.0, 0.5, lat) == pytest.approx(1.0, abs=1e-10)

    def test_stock_family_ratio_stable(self):
        def stock(k_max):
            lat = FrequencyLattice(1, k_max)
            coeffs = lat.brackets() ** -2.0
            f = oracles.synthesize(
                FourierCoefficients(lat, coeffs.astype(complex)), min_grid_size(k_max)
            )
            return f, lat

        ratios = {}
        for k_max in (2, 4, 8, 16, 32):
            f, lat = stock(k_max)
            ratios[k_max] = fourier_embedding_ratio(f, 2.0, 0.5, lat)
        peak = max(ratios.values())
        assert math.isfinite(peak)
        assert abs(ratios[32] - ratios[16]) <= 0.10 * ratios[16]

    def test_rejects_quasinorm_range(self):
        f, lat = character(1, radius=2)
        with pytest.raises(ValueError, match="Banach"):
            fourier_embedding_ratio(f, 2.0, 0.8, lat)

    def test_zero_function_rejected(self):
        lat = FrequencyLattice(1, 2)
        zero = PeriodicFunction(1, min_grid_size(2), np.zeros(min_grid_size(2)))
        with pytest.raises(ValueError, match="nonzero"):
            fourier_embedding_ratio(zero, 2.0, 0.5, lat)


@pytest.mark.parametrize("shift", [0, 300, 511, 600, 1000])
def test_weighted_norm_keeps_terms_whose_squares_overflow(shift):
    # 2^{0 w} 3 s and 2^{1 w} 2 s at w = 1: the norm is 5 s, exactly
    table = [(0, math.ldexp(3.0, shift)), (1, math.ldexp(2.0, shift))]
    assert weighted_norm(table, BesovParams(1.0, 2.0, 2.0)) == math.ldexp(5.0, shift)


def test_weighted_norm_scaled_q_power_matches_logs():
    table = [(0, 1e250), (1, 3e249), (2, 1e-300)]
    params = BesovParams(0.5, 2.0, 3.0)
    log_terms = [math.log(n) + m * params.w * math.log(2.0) for m, n in table]
    top = max(log_terms)
    want = top + math.log(math.fsum(math.exp(3.0 * (t - top)) for t in log_terms)) / 3.0
    assert math.log(weighted_norm(table, params)) == pytest.approx(want, rel=1e-14)


def test_weighted_norm_beyond_float64_is_refused():
    with pytest.raises(OverflowError):
        weighted_norm([(0, 1.9 * 2.0**1023), (1, 2.0**1022)], BesovParams(1.0, 2.0, 2.0))
