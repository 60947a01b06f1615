"""Transforms, brackets and L^p norms: oracle values and invariants."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustrace.harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    box_points,
    forward_transform,
    lp_norms,
    min_grid_size,
)
from torustrace.sums import fsum

from conftest import bandlimited, character
import oracles
from oracles import random_bandlimited, scaled, synthesize


def grid_norm(f: PeriodicFunction, p: float) -> float:
    return lp_norms(f.values[None, :], p)[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, 1, 3])
def test_box_points_are_the_lexicographic_box(dim, radius):
    points = box_points(dim, radius)
    want = np.array(list(product(range(-radius, radius + 1), repeat=dim)), dtype=np.int64)
    assert np.array_equal(points, want.reshape(-1, dim))
    assert points.dtype == np.int64 and points.flags.c_contiguous


class TestFrequencyLattice:
    @pytest.mark.parametrize("dim,radius", [(1, 0), (1, 4), (2, 3)])
    def test_cardinality_and_origin(self, dim, radius):
        lat = FrequencyLattice(dim, radius)
        assert len(lat) == (2 * radius + 1) ** dim
        assert lat.indices_of((0,) * dim)[0] == len(lat) // 2

    def test_ordering_reproducible(self):
        a = FrequencyLattice(2, 2)
        b = FrequencyLattice(2, 2)
        assert np.array_equal(a.points, b.points)
        # lexicographic: first point is (-N, -N), last is (N, N)
        assert tuple(a.points[0]) == (-2, -2)
        assert tuple(a.points[-1]) == (2, 2)

    def test_euclidean_filter(self):
        # the Euclidean ball |xi|_2 <= 2 inside the max-norm box, from the exact |xi|^2
        lat = FrequencyLattice(2, 2)
        sq = lat.squared_norms()
        assert sq.tolist() == [int(p[0]) ** 2 + int(p[1]) ** 2 for p in lat.points]
        mask = sq <= 4
        assert mask.sum() == 13
        assert not mask.all()  # corners (2,2) fall outside


class TestJapaneseBracket:
    # <xi> = (1 + |xi|^2)^(1/2) per lattice point, from FrequencyLattice.brackets
    def test_origin(self):
        lat = FrequencyLattice(1, 2)
        assert lat.brackets()[lat.indices_of((0,))[0]] == 1.0

    def test_three_four(self):
        lat = FrequencyLattice(2, 4)
        assert lat.brackets()[lat.indices_of((3, 4))[0]] == pytest.approx(math.sqrt(26), abs=1e-15)

    def test_one(self):
        lat = FrequencyLattice(1, 1)
        assert lat.brackets()[lat.indices_of((1,))[0]] == pytest.approx(math.sqrt(2), abs=1e-15)


class TestForwardTransform:
    def test_constant(self):
        lat = FrequencyLattice(1, 4)
        f = PeriodicFunction(1, min_grid_size(4), np.ones(min_grid_size(4)))
        c = forward_transform(f, lat)
        assert c.coeffs[lat.indices_of(0)[0]] == pytest.approx(1.0, abs=1e-14)
        off = np.abs(np.delete(c.coeffs, lat.indices_of(0)[0]))
        assert off.max() < 1e-14

    def test_single_character(self):
        f, lat = character(3, radius=4)
        c = forward_transform(f, lat)
        assert c.coeffs[lat.indices_of(3)[0]] == pytest.approx(1.0, abs=1e-13)
        others = np.delete(c.coeffs, lat.indices_of(3)[0])
        assert np.abs(others).max() < 1e-13

    def test_cosine_against_quadrature_oracle(self):
        # oracle: independent rectangle-rule quadrature of cos(2 pi x) e^{-i2pi x xi}
        m = 32
        x = np.arange(m) / m
        vals = np.cos(2 * np.pi * x)
        lat = FrequencyLattice(1, 2)
        oracle = {
            xi: complex(fsum(vals * np.cos(2 * np.pi * x * xi)) / m,
                        fsum(-vals * np.sin(2 * np.pi * x * xi)) / m)
            for xi in (-2, -1, 0, 1, 2)
        }
        c = forward_transform(PeriodicFunction(1, m, vals), lat)
        for xi, expect in oracle.items():
            assert c.coeffs[lat.indices_of(xi)[0]] == pytest.approx(expect, abs=1e-15)
        assert oracle[1] == pytest.approx(0.5, abs=1e-15)
        assert oracle[-1] == pytest.approx(0.5, abs=1e-15)


class TestInverseTransform:
    """The synthesis the tests build their inputs with, and ``forward_transform``
    undoing it."""

    def test_delta_at_zero_gives_constant(self):
        lat = FrequencyLattice(1, 3)
        coeffs = np.zeros(len(lat), dtype=complex)
        coeffs[lat.indices_of(0)[0]] = 1.0
        f = synthesize(FourierCoefficients(lat, coeffs), min_grid_size(3))
        assert np.abs(f.values - 1.0).max() < 1e-14

    def test_delta_gives_character(self):
        f, _ = character(2, radius=3)
        x = np.arange(f.grid_size) / f.grid_size
        assert np.abs(f.values - np.exp(2j * np.pi * 2 * x)).max() < 1e-13

    def test_round_trip_cos_plus_isin(self):
        f, lat = bandlimited({1: 0.5, -1: 0.5, 2: 0.5, -2: -0.5}, radius=4, grid_size=32)
        c = forward_transform(f, lat)
        g = synthesize(c, 32)
        assert np.abs(g.values - f.values).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(radius=st.integers(0, 5), extra=st.integers(0, 7), seed=st.integers(0, 2**31))
    def test_round_trip_property(self, radius, extra, seed):
        lat = FrequencyLattice(1, radius)
        grid = min_grid_size(radius) + extra
        f = random_bandlimited(lat, grid, np.random.default_rng(seed))
        c = forward_transform(f, lat)
        g = synthesize(c, grid)
        assert np.abs(g.values - f.values).max() <= 1e-12 * max(1.0, np.abs(f.values).max())
        exact = oracles.inverse_transform(c, grid).values  # the per-point sum of the phases
        assert np.abs(g.values - exact).max() <= 1e-13 * (1.0 + np.abs(exact).max())


class TestLpNorm:
    def test_constant_all_p(self):
        f = PeriodicFunction(1, 16, np.ones(16))
        for p in (1.0, 2.0, 3.5, math.inf):
            assert grid_norm(f, p) == pytest.approx(1.0, abs=1e-14)

    def test_character_unimodular(self):
        f, _ = character(5)
        for p in (1.0, 2.0, 4.0, math.inf):
            assert grid_norm(f, p) == pytest.approx(1.0, abs=1e-13)

    def test_cosine_l2(self):
        m = 64
        f = PeriodicFunction(1, m, np.cos(2 * np.pi * np.arange(m) / m))
        assert grid_norm(f, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    @pytest.mark.parametrize("value, p", [(2.0, 1e10), (0.5, 1e10), (1e-200, 2.0), (1e200, 2.0)])
    def test_sum_out_of_float64_range_normed_at_the_sup(self, value, p):
        # |f|^p overflows or underflows; relative to the sup every term is 1
        f = PeriodicFunction(1, 8, np.full(8, value))
        with np.errstate(all="raise"):
            assert grid_norm(f, p) == value

    def test_sum_out_of_float64_range_keeps_the_grid_norm(self):
        # 0.5^p underflows at p = 1200 for every point; the grid norm is
        # sup (mean (|f|/sup)^p)^{1/p} = 0.5 (1/4)^{1/p}
        f = PeriodicFunction(1, 8, np.array([0.5, 0.25, 0.0, 0.5, 0.1, 0.0, 0.3, 0.2]))
        assert grid_norm(f, 1200.0) == pytest.approx(0.5 * 0.25 ** (1 / 1200.0), rel=1e-15)
        assert grid_norm(PeriodicFunction(1, 8, np.zeros(8)), 1e10) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        scale_re=st.floats(-10, 10, allow_nan=False),
        scale_im=st.floats(-10, 10, allow_nan=False),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        seed=st.integers(0, 2**31),
    )
    def test_absolute_homogeneity(self, scale_re, scale_im, p, seed):
        lat = FrequencyLattice(1, 3)
        f = random_bandlimited(lat, min_grid_size(3), np.random.default_rng(seed))
        c = complex(scale_re, scale_im)
        lhs = grid_norm(scaled(f, c), p)
        rhs = abs(c) * grid_norm(f, p)
        assert lhs == pytest.approx(rhs, abs=1e-13 * max(1.0, rhs))

    def test_monotone_in_p(self, rng):
        lat = FrequencyLattice(1, 4)
        f = random_bandlimited(lat, min_grid_size(4), rng)
        ps = [1.0, 1.3, 2.0, 3.0, 7.0, math.inf]
        norms = [grid_norm(f, p) for p in ps]
        for small, big in zip(norms, norms[1:]):
            assert small <= big + 1e-12


class TestParseval:
    def test_band_limited(self, rng):
        lat = FrequencyLattice(1, 5)
        f = random_bandlimited(lat, min_grid_size(5), rng)
        c = forward_transform(f, lat)
        l2 = grid_norm(f, 2)
        coeff_l2 = math.sqrt(fsum(np.abs(c.coeffs) ** 2))
        assert abs(l2 - coeff_l2) <= 1e-12 * max(1.0, l2)

    def test_band_limited_2d(self, rng):
        lat = FrequencyLattice(2, 2)
        f = random_bandlimited(lat, min_grid_size(2), rng)
        c = forward_transform(f, lat)
        l2 = grid_norm(f, 2)
        coeff_l2 = math.sqrt(fsum(np.abs(c.coeffs) ** 2))
        assert abs(l2 - coeff_l2) <= 1e-12 * max(1.0, l2)
