"""Dyadic blocks, Besov norms, and the coefficient-map embedding (an oracle)."""

import json
import math
import struct
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torustrace import besov
from torustrace.besov import BesovParams, block_index, block_norms, partial_sum_convergence, weighted_norms
from torustrace.cli import main
from torustrace.harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    forward_transform,
    lp_norms,
    min_grid_size,
)
from conftest import bandlimited, character
from oracles import coefficient_norm, fourier_embedding_ratio, random_bandlimited, scaled


def _table(c, p, grid):
    """(m, ||block_m||_{L^p}) of ``c`` as the one row of a ``block_norms`` table."""
    blocks, (norms,) = block_norms(c.lattice, c.coeffs[None], p, grid)
    return list(zip(blocks, norms))


def weighted_norm(table, params):
    """``weighted_norms`` of one (m, n_m) table."""
    (norm,) = weighted_norms([m for m, _ in table], [[n for _, n in table]], params)
    return norm


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
        nonempty = [(m, v) for m, v in _table(forward_transform(f, lat), 2, f.grid_size) if v > 1e-12]
        assert [m for m, _ in nonempty] == [2]

    def test_constant_block_zero(self):
        f, lat = bandlimited({0: 1.0}, radius=4)
        nonempty = [m for m, v in _table(forward_transform(f, lat), 2, f.grid_size) if v > 1e-12]
        assert nonempty == [0]

    def test_two_characters_two_blocks(self):
        f, lat = bandlimited({1: 1.0, 5: 1.0}, radius=8)
        nonempty = sorted(m for m, v in _table(forward_transform(f, lat), 2, f.grid_size) if v > 1e-12)
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


SHAPES = [(1, 0), (1, 1), (1, 5), (1, 16), (1, 40), (2, 0), (2, 1), (2, 3), (2, 7)]


def _random_coefficients(lat, rng, scale=1.0, held=1.0):
    """Complex normal coefficients times ``scale``, each kept with probability ``held``
    (the rest zeros of either sign, so some blocks hold nothing)."""
    coeffs = rng.standard_normal(len(lat)) + 1j * rng.standard_normal(len(lat))
    return FourierCoefficients(lat, scale * coeffs * (rng.random(len(lat)) < held))


def _synthesis_norms(c, p, grid):
    return [(m, oracles.lp_norm(piece.values, p)) for m, _, piece in oracles.dyadic_blocks(c, grid)]


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    extra=st.integers(0, 3),  # odd and even grids
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    scale=st.sampled_from([1e-200, 2.0**-600, 1e-150, 1.0, 1e150, 2.0**600, 1e200]),
    held=st.sampled_from([0.0, 0.3, 1.0]),
    low=st.integers(0, 3),  # blocks below it zeroed, as in a partial-sum residual
    seed=st.integers(0, 2**31),
)
def test_block_norms_match_per_block_synthesis(shape, extra, p, scale, held, low, seed):
    # p != 2: one batched inverse FFT and one binned sum give the per-block FFT's
    # norms, each summed by math.fsum, bit for bit; p = 2: Parseval from the
    # coefficients, as the math.fsum oracle sums them, bit for bit.  Squares of parts
    # near 1e+-200 leave float64, so power_norms sums those p = 2 blocks relative to a
    # power of two; the oracle's unscaled cubes would too, so p = 3 keeps scale 1.
    dim, radius = shape
    lat = FrequencyLattice(dim, radius)
    grid = min_grid_size(radius) + extra
    c = _random_coefficients(lat, np.random.default_rng(seed), 1.0 if p == 3.0 else scale, held)
    c = FourierCoefficients(lat, np.where(block_index(lat.squared_norms()) < low, 0.0, c.coeffs))
    got = _table(c, p, grid)
    assert got == (oracles.parseval_block_norms(c) if p == 2.0 else _synthesis_norms(c, p, grid))
    assert all(math.copysign(1.0, norm) == 1.0 for _, norm in got)  # empty blocks are +0.0


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), extra=st.integers(0, 3), held=st.sampled_from([0.3, 1.0]),
       seed=st.integers(0, 2**31))
def test_p2_block_norms_agree_with_per_block_synthesis(shape, extra, held, seed):
    # Parseval skips a synthesis that rounds in the last bits; over 14000 random
    # blocks of these shapes the two differed by at most 3 ulp
    dim, radius = shape
    lat = FrequencyLattice(dim, radius)
    grid = min_grid_size(radius) + extra
    c = _random_coefficients(lat, np.random.default_rng(seed), held=held)
    got, want = _table(c, 2.0, grid), _synthesis_norms(c, 2.0, grid)
    assert [m for m, _ in got] == [m for m, _ in want]
    assert max(_ulps(g, e) for (_, g), (_, e) in zip(got, want)) <= 8


def test_stock_block_norms_within_one_ulp_of_40_digit_values():
    # --stock 8 holds <k>^-2 = 1/(1 + k^2) for |k| <= 8: block m's L^2 norm is
    # sqrt(sum (1 + k^2)^-2 over 2^m <= |k| < 2^{m+1}, k = 0 in block 0), here to
    # 40 digits from the exact rationals; the coefficients themselves are rounded
    exact = {0: "1.224744871391589049098642037352945695983",
             1: "0.3162277660168379331998893544432718533720",
             2: "0.1101812846467565847360246282978328560582",
             3: "0.02175713172881684690464136498784150890107"}
    lat = FrequencyLattice(1, 8)
    got = dict(_table(FourierCoefficients(lat, lat.brackets() ** -2.0), 2.0, min_grid_size(8)))
    assert sorted(got) == sorted(exact)
    for m, digits in exact.items():
        assert abs(Decimal(got[m]) - Decimal(digits)) <= Decimal(math.ulp(got[m])), (m, got[m], digits)
    assert got[2] == 0.11018128464675658  # correctly rounded; the synthesis read ...657


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


def _bits(rows):
    return [(n, struct.pack("<d", e)) for n, e in rows]


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from([(1, 0), (1, 1), (1, 6), (1, 19), (1, 128), (2, 0), (2, 1), (2, 4), (2, 7)]),
    extra=st.integers(0, 3),
    w=st.sampled_from([-0.5, 0.0, 0.3, 1.0 / 3.0, 1.0, 2.5]),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    q=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    scale=st.sampled_from([2.0**-600, 1.0, 1e200]),
    n_values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 9.0, 100.0, 1e300]),
                      min_size=1, max_size=6),
    rows_a_chunk=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**31),
)
def test_partial_sum_errors_match_the_per_cutoff_oracle_bit_for_bit(
        shape, extra, w, p, q, scale, n_values, rows_a_chunk, seed):
    # every residual normed in one evaluation a chunk of rows gives the bits of each
    # residual normed on its own, whichever rows share a chunk; p != 2 makes one
    # inverse FFT a chunk and p = 2 none
    dim, radius = shape
    lat = FrequencyLattice(dim, radius)
    grid = min_grid_size(radius) + extra
    c = _random_coefficients(lat, np.random.default_rng(seed), 1.0 if p == 3.0 else scale, 0.5)
    params = BesovParams(w, p, q)
    want = oracles.per_cutoff_partial_sums(c, params, n_values, grid)
    ffts = []
    with pytest.MonkeyPatch.context() as patch:
        if rows_a_chunk is not None:  # the budget of that many residuals
            row_points = (int(block_index(dim * radius**2)) + 1) * grid**dim
            patch.setattr(besov, "DUAL_SIZE_LIMIT", rows_a_chunk * row_points)
        inverse = np.fft.ifftn
        patch.setattr(np.fft, "ifftn", lambda *a, **k: ffts.append(1) or inverse(*a, **k))
        got = partial_sum_convergence(c, params, n_values, grid)
    assert _bits(got) == _bits(want)
    chunks = -(-len(n_values) // (rows_a_chunk or len(n_values)))
    assert len(ffts) == (0 if p == 2.0 else chunks)


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

    def test_two_dimensional_character(self):
        # e^{i 2 pi <x, (1,1)>}: |xi| = sqrt(2) sits in block 0
        lat = FrequencyLattice(2, 2)
        coeffs = np.zeros(len(lat), dtype=complex)
        coeffs[lat.indices_of((1, 1))[0]] = 1.0
        f = oracles.synthesize(FourierCoefficients(lat, coeffs), min_grid_size(2))
        assert besov_of(f, BesovParams(1.0, 2.0, 2.0), lat) == pytest.approx(1.0, abs=1e-10)
        coeffs2 = np.zeros(len(lat), dtype=complex)
        coeffs2[lat.indices_of((2, 0))[0]] = 1.0
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


def test_weighted_norms_term_beyond_float64_reads_inf_without_a_warning():
    # 2^{1 w} 2^1000 at w = 30 leaves float64: the term reads inf, as a Python float
    # product does, and numpy's product over the table warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = weighted_norms([0, 1], [[1.0, 2.0**1000], [1.0, 0.5]], BesovParams(30.0, 2.0, 2.0))
    assert norms == [math.inf, math.hypot(1.0, 2.0**29)]


@pytest.mark.parametrize("q", [2000.0, 1e10, 1e300])
def test_weighted_norm_large_finite_q_lies_at_the_sup(q):
    # normed relative to the largest term, so a q-th power of it beyond float64 is
    # not refused: sup <= norm <= n^{1/q} sup, as the stock family's blocks at
    # --w 0 --q 1e10 report the --q inf norm
    table = [(0, 1.2247448713915889), (1, 0.5), (2, 0.25), (3, 1e-3)]
    params = BesovParams(0.0, 2.0, q)
    assert weighted_norm(table, params) == pytest.approx(1.2247448713915889, rel=4.0 ** (1.0 / q) - 1.0)
    assert weighted_norm(table, params) >= weighted_norm(table, BesovParams(0.0, 2.0, math.inf))


@pytest.mark.parametrize("q", ["2", "1e10", "inf"])
def test_besov_norm_keeps_a_term_whose_q_th_power_underflows(capsys, q):
    # the one block norm 2^{2 (-1)} = 0.25: its 1e10-th power underflows, so the norm
    # is taken relative to it, and every q reports 0.25 exactly
    argv = ["besov-norm", "--character", "4", "--w", "-1", "--p", "2", "--q", q, "--radius", "8"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["body"]["norm"] == 0.25


@pytest.mark.parametrize("q", [2.0, 1e10])
def test_weighted_norm_scales_with_a_table_below_2_to_the_minus_500(q):
    # squares of 2^-600-sized terms leave the normal range, so the tiny table is
    # normed relative to its largest term: exactly 2^-600 times the norm
    table = [(0, 1.2247448713915889), (1, 0.5), (2, 0.25), (3, 1e-3)]
    params = BesovParams(1.0, 2.0, q)
    tiny = [(m, math.ldexp(v, -600)) for m, v in table]
    assert weighted_norm(tiny, params) == math.ldexp(weighted_norm(table, params), -600) > 0.0
