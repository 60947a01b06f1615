"""x-Fourier data on its support against the dense oracles in ``oracles.py``.

``symbols.x_fourier_support`` names the eta rows where hat{a}(eta, .) can be
nonzero; the compression, the decay constant and the certificate's widening
read those rows only, and the order fit bins its shells in one vectorised
pass.  Each reads the same entries in the same order as the dense path it
replaces, so every comparison here is exact: ``np.array_equal`` or ``==`` on
the float's bits.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torustrace.harmonic import FrequencyLattice
from torustrace.quantize import CompressedOperator
from torustrace.symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
    SeparableSymbol,
    TrigPolynomial,
    bessel_symbol,
    estimate_order,
    fourier_decay_constant,
    heat_symbol,
    modulated_symbol,
)

CATALOG = [
    lambda dim: bessel_symbol(-3.0, dim),
    lambda dim: heat_symbol(0.1, dim),
    lambda dim: modulated_symbol(2.0, BracketPower(-4.0), dim),
    lambda dim: modulated_symbol(0.0, GaussianDecay(0.2), dim),
    lambda dim: oracles.character(dim, 2),
    lambda dim: oracles.character(dim, -3),
    lambda dim: modulated_symbol(0.5, BracketPower(-2.0), dim).x_derivative(1),
    lambda dim: bessel_symbol(-2.0, dim).x_derivative(1),  # zero x-factor: empty support
    lambda dim: modulated_symbol(2.0, BracketPower(-3.0), dim).difference(1),
]


def _sampled(dim: int, radius: int, grid: int, seed: int) -> SampledSymbol:
    rng = np.random.default_rng(seed)
    lattice = FrequencyLattice(dim, radius)
    shape = (grid**dim, len(lattice))
    return SampledSymbol(dim, grid, lattice, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _bits(x: float) -> str:
    return float(x).hex()


@st.composite
def symbols(draw, max_table_radius=4):
    """A catalog symbol, or a random sampled table with an odd or even grid that
    may be finer or coarser than its lattice (so eta = +-M/2 and the window cut
    are both reached)."""
    dim = draw(st.sampled_from([1, 2]))
    if draw(st.booleans()):
        return draw(st.sampled_from(CATALOG))(dim), None
    radius = draw(st.integers(0, max_table_radius))
    grid = draw(st.integers(1, 12))
    return _sampled(dim, radius, grid, draw(st.integers(0, 2**31))), radius


def test_separable_support_is_the_on_axis_keys():
    a = modulated_symbol(2.0, BracketPower(-4.0), 2)
    assert np.array_equal(a.x_fourier_support(5), [[-1, 0], [0, 0], [1, 0]])
    assert np.array_equal(a.x_fourier_support(0), [[0, 0]])
    assert np.array_equal(oracles.character(1, -3).x_fourier_support(2), np.zeros((0, 1)))
    assert np.array_equal(oracles.character(1, -3).x_fourier_support(), [[-3]])
    assert bessel_symbol(-2.0, 2).x_derivative(1).x_fourier_support(4).shape == (0, 2)


@pytest.mark.parametrize("grid, radius, half", [(7, 10, 3), (8, 10, 4), (8, 2, 2), (12, None, 6)])
def test_sampled_support_is_the_window_box(grid, radius, half):
    a = _sampled(2, 3, grid, 1)
    assert np.array_equal(a.x_fourier_support(radius), FrequencyLattice(2, half).points)


@settings(max_examples=60, deadline=None)
@given(drawn=symbols(), radius=st.integers(0, 8))
def test_table_vanishes_off_the_support(drawn, radius):
    # over the whole box |eta|_inf <= radius the rows off the support are zero and
    # the support rows are the entries the dense table holds
    a, table_radius = drawn
    lattice = FrequencyLattice(a.dim, 2 if table_radius is None else table_radius)
    box = FrequencyLattice(a.dim, radius)
    dense = a.x_fourier_table(box.points, lattice)
    support = a.x_fourier_support(radius)
    rows = box.indices_of(support)
    assert np.array_equal(dense[rows], a.x_fourier_table(support, lattice))
    off = np.ones(len(box), dtype=bool)
    off[rows] = False
    assert not dense[off].any()


@settings(max_examples=120, deadline=None)
@given(drawn=symbols(), radius=st.integers(0, 4))
def test_compression_matches_dense_gather(drawn, radius):
    # a sampled table answers every lattice up to its own radius
    a, table_radius = drawn
    if table_radius is not None:
        radius = min(radius, table_radius)
    lattice = FrequencyLattice(a.dim, radius)
    got = CompressedOperator(a, lattice).entries
    assert got.shape == (len(lattice), len(lattice)) and got.flags.c_contiguous
    assert np.array_equal(got, oracles.dense_compression(a, lattice, lattice))


@pytest.mark.parametrize("dim, grid", [(1, 8), (1, 9), (2, 6), (2, 7)])
def test_certificate_shape_reaches_the_window_edge(dim, grid):
    # H_xi's coefficients at rows xi + d out to N + M//2, as the certificate reads
    # them from the support table: differences past the window, and eta = +-M/2
    # for even M, scattered into the dense columns with rows N + M//2
    a = _sampled(dim, 3, grid, 5)
    columns = FrequencyLattice(dim, 3)
    support = a.x_fourier_support()
    rows = FrequencyLattice(dim, 3 + int(np.abs(support).max()))
    table = a.x_fourier_table(support, columns)
    dense = np.zeros((len(rows), len(columns)), dtype=table.dtype)
    for d, coefficients in zip(support, table):
        dense[rows.indices_of(d + columns.points), np.arange(len(columns))] = coefficients
    assert np.array_equal(dense, oracles.dense_compression(a, rows, columns))


@settings(max_examples=80, deadline=None)
@given(
    drawn=symbols(max_table_radius=6),
    radius=st.integers(0, 6),
    k=st.integers(1, 3),
    m=st.sampled_from([-6.0, -4.0, -2.5, 0.0, 1.5]),
    delta=st.sampled_from([0.0, 0.5]),
)
def test_decay_constant_matches_dense_table(drawn, radius, k, m, delta):
    a, table_radius = drawn
    if table_radius is not None:
        radius = min(radius, table_radius)
    lattice = FrequencyLattice(a.dim, radius)
    got = fourier_decay_constant(a, k, m, delta, lattice)
    assert _bits(got) == _bits(oracles.dense_decay_constant(a, k, m, delta, lattice))


@pytest.mark.parametrize("k, m", [(1, -1000.0), (1024, -4.0)])
def test_overflowing_decay_constant_is_refused(k, m):
    # the dense table reads nan here (0 x inf on its zero rows)
    a = modulated_symbol(2.0, BracketPower(-4.0), 1)
    with pytest.raises(OverflowError, match="not a finite float64.*overflow$"):
        fourier_decay_constant(a, k, m, 0.0, FrequencyLattice(1, 16))


def test_support_rows_give_the_true_constant_where_the_dense_table_overflows():
    a = modulated_symbol(2.0, BracketPower(-4.0), 1)
    lattice = FrequencyLattice(1, 16)
    with np.errstate(all="ignore"):
        assert math.isnan(oracles.dense_decay_constant(a, 400, -4.0, 0.0, lattice))
    # sup at eta = +-1, xi = 0: 0.5 * <1>^800
    want = 0.5 * math.sqrt(2.0) ** 800
    assert math.isclose(fourier_decay_constant(a, 400, -4.0, 0.0, lattice), want, rel_tol=1e-12)


@dataclass
class TableXi:
    """xi-factor read from an integer-valued table over a box, 0 outside it, so
    shell suprema tie exactly between points of different bracket."""

    order = envelope = None  # no claimed order, no tail envelope

    table: np.ndarray
    radius: int

    def values(self, xi):
        xi = np.asarray(xi, dtype=np.int64)
        inside = np.abs(xi).max(axis=1) <= self.radius
        flat = np.zeros(xi.shape[0], dtype=np.int64)
        for k in range(xi.shape[1]):
            flat = flat * (2 * self.radius + 1) + xi[:, k] + self.radius
        out = np.zeros(xi.shape[0], dtype=np.complex128)
        out[inside] = self.table.reshape(-1)[flat[inside]]
        return out


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    radius=st.integers(8, 14),
    levels=st.sampled_from([(1.0,), (0.0, 1.0), (0.0, 1.0, 2.0), (1.0, 3.0, math.nan)]),
    alpha=st.integers(0, 2),
    seed=st.integers(0, 2**31),
)
def test_order_fit_matches_dict_oracle_with_ties(dim, radius, levels, alpha, seed):
    # few distinct values: most shells tie between points of different bracket,
    # and nan entries reach the first point of some shells
    rng = np.random.default_rng(seed)
    table_radius = radius + alpha
    table = rng.choice(np.asarray(levels), size=(2 * table_radius + 1,) * dim)
    a = SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), TableXi(table, table_radius), dim)
    lattice = FrequencyLattice(dim, radius)
    alpha_idx = (alpha,) + (0,) * (dim - 1)
    got = estimate_order(a, alpha_idx, 0, lattice)
    want = oracles.shell_order_fit(a, alpha_idx, (0,) * dim, lattice)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]


@settings(max_examples=40, deadline=None)
@given(drawn=symbols(max_table_radius=12), radius=st.integers(8, 12), alpha=st.integers(0, 2),
       beta=st.integers(0, 2))
def test_order_fit_matches_dict_oracle(drawn, radius, alpha, beta):
    a, table_radius = drawn
    if table_radius is not None and table_radius < 8 + alpha:
        a = _sampled(a.dim, 8 + alpha, a.grid_size, 3)
    lattice = FrequencyLattice(a.dim, min(radius, a.radius))  # a table is fitted up to its own radius
    alpha_idx = (alpha,) + (0,) * (a.dim - 1)
    beta_idx = (beta,) + (0,) * (a.dim - 1)
    got = estimate_order(a, alpha_idx, beta_idx, lattice)
    want = oracles.shell_order_fit(a, alpha_idx, beta_idx, lattice)
    assert [_bits(x) for x in got] == [_bits(x) for x in want]

