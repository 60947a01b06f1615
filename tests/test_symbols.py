"""Symbol calculus: differences, derivatives, order fits, Fourier decay."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torustrace.harmonic import TWO_PI, FrequencyLattice, min_grid_size
from torustrace.sums import fsum_complex
from torustrace.symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
    SeparableSymbol,
    TrigPolynomial,
    bessel_symbol,
    character_symbol,
    difference_op,
    estimate_order,
    fourier_decay_constant,
    heat_symbol,
    modulated_symbol,
    sample_symbol,
    x_derivative,
    x_fourier_support,
    x_fourier_table,
)

from oracles import character, symbol_fourier


def tabulate(symbol, lattice, grid_size=None):
    grid_size = grid_size or min_grid_size(lattice.radius)
    x = np.array([[i / grid_size] for i in range(grid_size)])
    return symbol.values(x, lattice.points)


def multiplier(g):
    """The x-independent symbol g(xi), no order claimed."""
    return SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), g, claimed_order=None)


class LinearXi(BracketPower):
    """a(xi) = xi_1, handy for exact difference checks."""

    def __init__(self):
        super().__init__(0.0)

    def values(self, xi):
        return np.asarray(xi, dtype=np.float64)[:, 0].astype(np.complex128)


class QuadraticXi(BracketPower):
    def __init__(self):
        super().__init__(0.0)

    def values(self, xi):
        return (np.asarray(xi, dtype=np.float64)[:, 0] ** 2).astype(np.complex128)


class TestDifferenceOp:
    def test_linear_first_difference_is_one(self):
        a = multiplier(LinearXi())
        d = difference_op(a, 1)
        lat = FrequencyLattice(1, 5)
        vals = tabulate(d, lat)
        assert np.abs(vals - 1.0).max() < 1e-14

    def test_constant_vanishes(self):
        a = bessel_symbol(0.0)  # <xi>^0 = 1
        lat = FrequencyLattice(1, 5)
        for alpha in (1, 2):
            vals = tabulate(difference_op(a, alpha), lat)
            assert np.abs(vals).max() < 1e-14

    def test_second_difference_of_square_is_two(self):
        # (xi+2)^2 - 2(xi+1)^2 + xi^2 = 2 for every xi
        a = multiplier(QuadraticXi())
        lat = FrequencyLattice(1, 5)
        vals = tabulate(difference_op(a, 2), lat)
        assert np.abs(vals - 2.0).max() < 1e-12

    def test_sampled_margin_shrinks(self):
        lat = FrequencyLattice(1, 4)
        a = sample_symbol(bessel_symbol(-2.0), min_grid_size(4), lat)
        d = difference_op(a, 1)
        assert d.lattice.radius == 3
        with pytest.raises(ValueError, match="margin exhausted"):
            difference_op(a, 5)

    def test_sampled_matches_catalog(self):
        lat = FrequencyLattice(1, 6)
        cat = difference_op(bessel_symbol(-2.0), 2)
        samp = difference_op(sample_symbol(bessel_symbol(-2.0), min_grid_size(6), lat), 2)
        sub = samp.lattice
        cat_vals = tabulate(cat, sub, samp.grid_size)
        assert np.abs(samp.table - cat_vals).max() < 1e-13

    def test_commutes_across_coordinates_2d(self):
        lat = FrequencyLattice(2, 3)
        grid = min_grid_size(3)
        base = sample_symbol(modulated_symbol(2.0, BracketPower(-1.5), dim=2), grid, lat)
        d12 = difference_op(difference_op(base, (1, 0)), (0, 1))
        d21 = difference_op(difference_op(base, (0, 1)), (1, 0))
        assert np.array_equal(d12.table, d21.table)

    def test_linearity_on_sampled_tables(self, rng):
        lat = FrequencyLattice(1, 6)
        grid = min_grid_size(6)
        a = sample_symbol(modulated_symbol(2.0, BracketPower(-2.0)), grid, lat)
        b = sample_symbol(heat_symbol(0.7), grid, lat)
        c1, c2 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        combo = SampledSymbol(1, grid, lat, c1 * a.table + c2 * b.table)
        lhs = difference_op(combo, 1).table
        rhs = c1 * difference_op(a, 1).table + c2 * difference_op(b, 1).table
        assert np.abs(lhs - rhs).max() < 1e-12


class TestXDerivative:
    def test_x_independent_derivative_vanishes(self):
        a = bessel_symbol(-3.0)
        lat = FrequencyLattice(1, 4)
        vals = tabulate(x_derivative(a, 1), lat)
        assert np.abs(vals).max() == 0.0

    @pytest.mark.parametrize("order,factor", [(1, -2 * math.pi), (2, -4 * math.pi**2)])
    def test_modulated_derivatives(self, order, factor):
        # d/dx (2 + cos 2 pi x) = -2 pi sin(2 pi x); second: -4 pi^2 cos(2 pi x)
        g = BracketPower(-2.0)
        a = x_derivative(modulated_symbol(2.0, g), order)
        lat = FrequencyLattice(1, 4)
        grid = min_grid_size(4)
        x = np.arange(grid) / grid
        got = a.values(x.reshape(-1, 1), lat.points)
        trig = np.sin(2 * np.pi * x) if order == 1 else np.cos(2 * np.pi * x)
        expect = np.outer(factor * trig, g.values(lat.points))
        assert np.abs(got - expect).max() < 1e-12
        # spot value at x = 1/4
        i = grid // 4
        assert got[i, lat.index_of(0)] == pytest.approx(expect[i, lat.index_of(0)], abs=1e-12)

    def test_sampled_spectral_derivative_matches_catalog(self):
        lat = FrequencyLattice(1, 3)
        grid = 64
        a = sample_symbol(modulated_symbol(2.0, BracketPower(-1.0)), grid, lat)
        d = x_derivative(a, 1)
        cat = x_derivative(modulated_symbol(2.0, BracketPower(-1.0)), 1)
        expect = tabulate(cat, lat, grid)
        assert np.abs(d.table - expect).max() < 1e-10

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_order_is_the_symbol_itself(self, dim):
        # no FFT round trip for beta = 0: a sampled table keeps its bits
        a = sample_symbol(modulated_symbol(2.0, BracketPower(-3.0), dim), 12, FrequencyLattice(dim, 2))
        assert x_derivative(a, (0,) * dim) is a
        catalog = modulated_symbol(2.0, BracketPower(-3.0), dim)
        assert x_derivative(catalog, 0) is catalog


class TestTrigPolynomial:
    """A catalog x-factor is its Fourier coefficients: the sup norm sum |c_k| and
    the derivative supports, pinned bit for bit."""

    @given(c=st.floats(allow_nan=False, allow_infinity=False))
    def test_modulated_sup_is_the_cosine_offset_sup(self, c):
        got = modulated_symbol(c, BracketPower(-4.0)).xfactor.sup_abs()
        assert got == max(abs(c + 1.0), abs(c - 1.0))

    @pytest.mark.parametrize("b", range(1, 9))
    @pytest.mark.parametrize("a", [modulated_symbol(2.0, BracketPower(-4.0)),
                                   character_symbol(), character(1, -1)],
                             ids=["modulated", "character", "character-minus"])
    def test_derivative_sup_is_the_exact_power(self, a, b):
        assert x_derivative(a, b).xfactor.sup_abs() == TWO_PI**b

    @pytest.mark.parametrize("b", range(1, 5))
    def test_derivative_supports(self, b):
        for a in (bessel_symbol(-4.0), heat_symbol(0.1), character(1, 0)):
            assert x_fourier_support(x_derivative(a, b)).size == 0
        modulated = x_derivative(modulated_symbol(2.0, BracketPower(-4.0), dim=2), (b, 0))
        assert x_fourier_support(modulated).tolist() == [[-1, 0], [1, 0]]

    def test_modulated_zero_offset_keeps_its_zero_row(self):
        a = modulated_symbol(0.0, BracketPower(-4.0))
        support = x_fourier_support(a)
        assert support.tolist() == [[-1], [0], [1]]
        table = x_fourier_table(a, support, FrequencyLattice(1, 3))
        assert not table[1].any() and table[[0, 2]].all()


class TestEstimateOrder:
    def test_power_law_recovery(self):
        lat = FrequencyLattice(1, 256)
        m_hat, c_hat = estimate_order(bessel_symbol(-4.0), 0, 0, lat)
        assert -4.1 <= m_hat <= -3.9
        assert c_hat == pytest.approx(1.0, rel=0.2)

    def test_constant_symbol(self):
        lat = FrequencyLattice(1, 256)
        m_hat, _ = estimate_order(bessel_symbol(0.0), 0, 0, lat)
        assert -0.05 <= m_hat <= 0.05

    def test_difference_drops_one_order(self):
        lat = FrequencyLattice(1, 256)
        m_hat, _ = estimate_order(bessel_symbol(-4.0), 1, 0, lat)
        assert -5.2 <= m_hat <= -4.8

    def test_power_law_recovery_2d(self):
        lat = FrequencyLattice(2, 12)
        m_hat, _ = estimate_order(bessel_symbol(-3.0, dim=2), (0, 0), (0, 0), lat)
        assert m_hat == pytest.approx(-3.0, abs=0.1)

    def test_all_zero_sentinel(self):
        lat = FrequencyLattice(1, 16)
        m_hat, c_hat = estimate_order(multiplier(BracketPower(0.0)), 1, 0, lat)
        # first difference of the constant 1 is identically zero
        assert m_hat == -math.inf and c_hat == 0.0

    def test_small_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            estimate_order(bessel_symbol(-2.0), 0, 0, FrequencyLattice(1, 4))

    @pytest.mark.parametrize("t, claimed, slope", [(0.01, -math.inf, -1), (0.0, 0.0, 0), (-0.01, None, 1)])
    def test_modulated_gaussian_claims_its_order(self, t, claimed, slope):
        # exp(-t |xi|^2) decays faster than any power for t > 0, is 1 at t = 0 and
        # grows faster than any power for t < 0, where no order is claimed
        a = modulated_symbol(2.0, GaussianDecay(t))
        assert a.claimed_order == claimed
        m_hat, _ = estimate_order(a, 0, 0, FrequencyLattice(1, 8))
        assert np.sign(m_hat) == slope


class TestSymbolFourier:
    def test_x_independent_supported_at_zero(self):
        a = bessel_symbol(-4.0)
        assert symbol_fourier(a, 0, 3) == pytest.approx((1 + 9) ** -2, abs=1e-15)
        assert symbol_fourier(a, 1, 3) == 0.0

    def test_x_independent_quadrature_rounding(self):
        # sampled path goes through the rectangle rule; off-support residue <= 1e-13
        lat = FrequencyLattice(1, 3)
        a = sample_symbol(bessel_symbol(-4.0), min_grid_size(3), lat)
        for eta in range(-3, 4):
            got = symbol_fourier(a, eta, 2)
            expect = (1 + 4) ** -2 if eta == 0 else 0.0
            assert abs(got - expect) < 1e-13

    def test_modulated_coefficients(self):
        g = BracketPower(-4.0)
        a = modulated_symbol(2.0, g)
        for xi in (-2, 0, 5):
            gval = float(g.values(np.array([[xi]])).real[0])
            assert symbol_fourier(a, 0, xi) == pytest.approx(2 * gval, abs=1e-14)
            assert symbol_fourier(a, 1, xi) == pytest.approx(gval / 2, abs=1e-14)
            assert symbol_fourier(a, -1, xi) == pytest.approx(gval / 2, abs=1e-14)
            assert symbol_fourier(a, 2, xi) == 0.0

    def test_character_shift(self):
        a = character_symbol()
        assert symbol_fourier(a, 1, 4) == pytest.approx(1.0, abs=1e-15)
        assert symbol_fourier(a, 0, 4) == 0.0

    def test_catalog_matches_quadrature_oracle(self):
        # exact coefficients agree with the independent rectangle rule
        a = modulated_symbol(2.0, GaussianDecay(0.5))
        m = 40
        x = np.arange(m) / m
        for eta in (-1, 0, 1, 2):
            col = a.values(x.reshape(-1, 1), np.array([[3]]))[:, 0]
            oracle = fsum_complex(np.exp(-2j * np.pi * x * eta) * col) / m
            assert symbol_fourier(a, eta, 3) == pytest.approx(oracle, abs=1e-14)


class TestFourierDecayConstant:
    def test_modulated_bound(self):
        lat = FrequencyLattice(1, 16)
        c = fourier_decay_constant(modulated_symbol(2.0, BracketPower(-4.0)), 1, -4.0, 0.0, lat)
        assert c <= 4.0
        assert c == pytest.approx(2.0, abs=1e-12)  # eta = 0 row attains it

    def test_x_independent_is_one(self):
        lat = FrequencyLattice(1, 16)
        c = fourier_decay_constant(bessel_symbol(-4.0), 1, -4.0, 0.0, lat)
        assert c == pytest.approx(1.0, abs=1e-14)

    def test_character_gives_two(self):
        lat = FrequencyLattice(1, 8)
        c = fourier_decay_constant(character_symbol(), 1, 0.0, 0.0, lat)
        assert c == pytest.approx(2.0, abs=1e-14)  # <1>^2 = 2

    def test_radius_stability(self):
        a = modulated_symbol(2.0, BracketPower(-4.0))
        c16 = fourier_decay_constant(a, 1, -4.0, 0.0, FrequencyLattice(1, 16))
        c32 = fourier_decay_constant(a, 1, -4.0, 0.0, FrequencyLattice(1, 32))
        assert c32 >= c16 - 1e-12
        assert c32 <= 1.05 * c16

    def test_k_validated(self):
        with pytest.raises(ValueError):
            fourier_decay_constant(bessel_symbol(-2.0), 0, -2.0, 0.0, FrequencyLattice(1, 4))


class TestSampledRepresentation:
    def test_table_shape_validated(self):
        lat = FrequencyLattice(1, 2)
        with pytest.raises(ValueError, match="table shape"):
            SampledSymbol(1, 12, lat, np.zeros((12, 4)))

    def test_claimed_metadata_flows_through(self):
        lat = FrequencyLattice(1, 4)
        a = sample_symbol(bessel_symbol(-2.0), min_grid_size(4), lat)
        assert a.claimed_order == -2.0
        d = difference_op(a, 1)
        assert d.claimed_order == -3.0  # order m - rho |alpha| with rho = 1
