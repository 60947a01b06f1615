"""Slow reference implementations of the spectral-domain core.

Each function is direct rectangle-rule quadrature or synthesis with explicit
phases, reduced term by term through ``math.fsum``, or a per-column loop.
The package computes the same quantities by FFT and index gathers; the tests
in ``test_spectral_oracles.py`` compare the two.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from torustrace.harmonic import (
    TWO_PI,
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
)


def _grid(dim: int, grid_size: int) -> np.ndarray:
    idx = np.array(list(product(range(grid_size), repeat=dim)), dtype=np.float64)
    return idx / grid_size


def _exact_column_sums(terms: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of a complex term matrix."""
    return np.array(
        [complex(math.fsum(col.real), math.fsum(col.imag)) for col in terms.T],
        dtype=np.complex128,
    )


def forward_transform(f: PeriodicFunction, lattice: FrequencyLattice) -> FourierCoefficients:
    x = _grid(f.dim, f.grid_size)
    phases = np.exp(-1j * TWO_PI * (x @ lattice.points.T.astype(np.float64)))
    terms = f.values[:, None] * phases
    return FourierCoefficients(lattice, _exact_column_sums(terms) / (f.grid_size**f.dim))


def partial_inverse(
    c: FourierCoefficients, indices: np.ndarray, grid_size: int
) -> PeriodicFunction:
    dim = c.lattice.dim
    f = PeriodicFunction(dim, grid_size, np.zeros(grid_size**dim))
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return f
    x = _grid(dim, grid_size)
    pts = c.lattice.points[idx].astype(np.float64)
    phases = np.exp(1j * TWO_PI * (x @ pts.T))
    f.values = _exact_column_sums((phases * c.coeffs[idx][None, :]).T)
    return f


def inverse_transform(c: FourierCoefficients, grid_size: int) -> PeriodicFunction:
    return partial_inverse(c, np.arange(len(c.lattice)), grid_size)


def sampled_x_fourier_table(a, etas: np.ndarray) -> np.ndarray:
    """hat{a}(eta_r, xi_l) of a SampledSymbol by quadrature; 0 outside |eta|_inf <= M//2."""
    etas = np.atleast_2d(np.asarray(etas, dtype=np.int64))
    x = _grid(a.dim, a.grid_size)
    out = np.zeros((etas.shape[0], len(a.lattice)), dtype=np.complex128)
    for r, eta in enumerate(etas):
        if np.max(np.abs(eta)) > a.grid_size // 2:
            continue
        phases = np.exp(-1j * TWO_PI * (x @ eta.astype(np.float64)))
        out[r] = _exact_column_sums(phases[:, None] * a.table) / (a.grid_size**a.dim)
    return out


def catalog_x_fourier_table(a, etas: np.ndarray, lattice: FrequencyLattice) -> np.ndarray:
    """hat{a}(eta_r, xi_l) of a SeparableSymbol, one x_fourier call per row."""
    etas = np.atleast_2d(np.asarray(etas, dtype=np.int64))
    out = np.zeros((etas.shape[0], len(lattice)), dtype=np.complex128)
    for r, eta in enumerate(etas):
        out[r] = a.x_fourier(eta, lattice.points)
    return out


def operator_matrix(table: np.ndarray, lattice: FrequencyLattice) -> np.ndarray:
    """A[eta, xi] = table[row(eta - xi), xi] by a per-column loop, where the rows
    of ``table`` follow the difference lattice of radius 2N."""
    pts = lattice.points
    span = 2 * lattice.radius

    def diff_row(d: np.ndarray) -> int:
        idx = 0
        for c in d:
            idx = idx * (2 * span + 1) + int(c) + span
        return idx

    side = len(lattice)
    entries = np.empty((side, side), dtype=np.complex128)
    for j in range(side):
        rows = [diff_row(dr) for dr in pts - pts[j]]
        entries[:, j] = table[rows, j]
    return entries
