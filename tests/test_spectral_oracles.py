"""FFT transforms and gathered matrices against the quadrature oracles in ``oracles.py``.

FFTs sum in a different order than the exactly rounded quadrature, so
transforms and sampled x-Fourier tables are compared with a tolerance of
1e-13 relative to the data's size, a few hundred ulps at these grid sizes.
Catalog tables and the matrix gather do no arithmetic of their own and must
match bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torustrace.harmonic import (
    FrequencyLattice,
    PeriodicFunction,
    forward_transform,
    min_grid_size,
)
from torustrace.quantize import CompressedOperator
from torustrace.symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
    bessel_symbol,
    heat_symbol,
    modulated_symbol,
)

TOL = 1e-13

# (dim, radius) pairs kept small: the oracles loop in Python.
shapes = st.sampled_from([(1, 0), (1, 1), (1, 4), (1, 7), (2, 0), (2, 1), (2, 2)])


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, want):
    scale = 1.0 + float(np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= TOL * scale


@settings(max_examples=30, deadline=None)
@given(shape=shapes, extra=st.integers(0, 3), seed=st.integers(0, 2**31))
def test_forward_transform(shape, extra, seed):
    dim, radius = shape
    lat = FrequencyLattice(dim, radius)
    grid = min_grid_size(radius) + extra  # extra odd gives an odd grid
    f = PeriodicFunction(dim, grid, _complex(np.random.default_rng(seed), grid**dim))
    _close(forward_transform(f, lat).coeffs, oracles.forward_transform(f, lat).coeffs)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), radius=st.integers(0, 2), grid=st.integers(2, 9),
       seed=st.integers(0, 2**31))
def test_sampled_x_fourier_table(dim, radius, grid, seed):
    lat = FrequencyLattice(dim, radius)
    a = SampledSymbol(dim, grid, lat, _complex(np.random.default_rng(seed), (grid**dim, len(lat))))
    # one ring past the alias window |eta|_inf <= M//2, so eta = +-M/2 (even M)
    # and the zeroed rows beyond it are both covered
    etas = FrequencyLattice(dim, grid // 2 + 1).points
    got = a.x_fourier_table(etas, lat)
    want = oracles.sampled_x_fourier_table(a, etas)
    _close(got, want)
    assert not got[np.abs(etas).max(axis=1) > grid // 2].any()


CATALOG = [
    lambda dim: bessel_symbol(-4.0, dim),
    lambda dim: heat_symbol(0.3, dim),
    lambda dim: modulated_symbol(2.0, BracketPower(-4.0), dim),
    lambda dim: modulated_symbol(0.0, GaussianDecay(0.2), dim),
    lambda dim: oracles.character(dim, 2),
    lambda dim: modulated_symbol(2.0, BracketPower(-3.0), dim).difference(1),
    lambda dim: modulated_symbol(0.5, BracketPower(-2.0), dim).x_derivative(3),
    lambda dim: bessel_symbol(-2.0, dim).x_derivative(1),
]


@pytest.mark.parametrize("dim,radius", [(1, 3), (1, 9), (2, 2), (2, 4)])
@pytest.mark.parametrize("k", range(len(CATALOG)))
def test_catalog_matrix_bit_identical(dim, radius, k):
    a = CATALOG[k](dim)
    lat = FrequencyLattice(dim, radius)
    diffs = FrequencyLattice(dim, 2 * radius).points
    table = oracles.catalog_x_fourier_table(a, diffs, lat)
    assert np.array_equal(a.x_fourier_table(diffs, lat), table)
    assert np.array_equal(CompressedOperator(a, lat).entries, oracles.operator_matrix(table, lat))


@pytest.mark.parametrize("dim,radius,grid", [(1, 3, 14), (1, 3, 9), (2, 2, 10), (2, 2, 7)])
def test_sampled_matrix(dim, radius, grid):
    lat = FrequencyLattice(dim, radius)
    table = _complex(np.random.default_rng(radius + grid), (grid**dim, len(lat)))
    a = SampledSymbol(dim, grid, lat, table)
    diffs = FrequencyLattice(dim, 2 * radius).points
    want = oracles.operator_matrix(oracles.sampled_x_fourier_table(a, diffs), lat)
    _close(CompressedOperator(a, lat).entries, want)


@pytest.mark.parametrize("dim,radius", [(1, 0), (1, 5), (2, 3)])
def test_lattice_index_arithmetic(dim, radius):
    lat = FrequencyLattice(dim, radius)
    assert np.array_equal(lat.indices_of(lat.points), np.arange(len(lat)))
    assert all(lat.indices_of(p)[0] == i for i, p in enumerate(lat.points))
    outside = (radius + 1,) + (0,) * (dim - 1)
    with pytest.raises(KeyError, match="outside"):
        lat.indices_of(outside)
    with pytest.raises(KeyError, match="outside"):
        lat.indices_of(np.vstack([lat.points, [outside]]))
