"""Sampled analysis on the period-1 torus T^n, n = 1 or 2.

Conventions fixed here and used by the whole package:

* characters are ``e_xi(x) = exp(i 2 pi <x, xi>)`` with ``xi`` an integer
  vector (period-1 torus),
* grids are uniform with spacing ``1/M`` and lexicographic index order,
* frequency truncation is the max-norm box ``|xi|_inf <= N`` in lexicographic
  order, which keeps transforms separable and orderings reproducible,
* integrals are rectangle-rule averages, exact on band-limited integrands
  under the anti-aliasing margin ``M >= 2(2N+1)``.

The forward transform is one FFT on the ``M^dim`` grid cube, lattice point
``xi`` read at cube index ``xi mod M``; the margin keeps wrapped indices
distinct.  FFT output is byte-identical across runs of one build but, unlike
the exactly rounded scalar reductions (``sums``), depends on summation order
in the last bits.  The one synthesis is ``besov.block_norms`` at p != 2: every
dyadic block of a stack of coefficient rows through one batched inverse FFT; at
p = 2 it norms each block by Parseval instead.
``box_points`` is the one enumeration of an integer max-norm box: the lattice
and the sampled x-Fourier support (``symbols``) both build their points with it.  The
Japanese bracket <xi> = (1 + |xi|^2)^{1/2} of every lattice point is
``FrequencyLattice.brackets``.
"""

from __future__ import annotations

import math

import numpy as np

from .sums import power_norms

TWO_PI = 2.0 * math.pi


def min_grid_size(radius: int) -> int:
    """Smallest grid satisfying the anti-aliasing margin M >= 2(2N+1)."""
    return 2 * (2 * radius + 1)


def max_alias_free_radius(grid_size: int) -> int:
    """Largest lattice radius a grid of size M supports, inverse of min_grid_size."""
    return max((grid_size - 2) // 4, 0)


def box_points(dim: int, radius: int) -> np.ndarray:
    """Integer points |p|_inf <= radius of Z^dim in lexicographic order, coordinate
    values running from -radius to +radius, as a C-ordered (n, dim) int64 array."""
    box = np.indices((2 * radius + 1,) * dim, dtype=np.int64) - radius
    return box.reshape(dim, -1).T.copy()


class FrequencyLattice:
    """Truncated integer lattice {xi in Z^dim : |xi|_inf <= radius}.

    Points are ordered lexicographically, coordinate values running from
    -radius to +radius, so the same (dim, radius) always yields the identical
    point sequence.  The origin is always present.
    """

    def __init__(self, dim: int, radius: int):
        self.dim = int(dim)
        self.radius = int(radius)
        self.points = box_points(self.dim, self.radius)
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FrequencyLattice)
            and self.dim == other.dim
            and self.radius == other.radius
        )

    def __repr__(self) -> str:
        return f"FrequencyLattice(dim={self.dim}, radius={self.radius})"

    def indices_of(self, points) -> np.ndarray:
        """Positions of integer points in the lexicographic order,
        sum_k (p_k + N) (2N+1)^(dim-1-k); KeyError for a point outside the box."""
        pts = np.asarray(points, dtype=np.int64).reshape(-1, self.dim)
        outside = np.abs(pts).max(axis=1, initial=0) > self.radius
        if outside.any():
            key = tuple(int(c) for c in pts[np.argmax(outside)])
            raise KeyError(f"{key} is outside the lattice of radius {self.radius}")
        idx = np.zeros(pts.shape[0], dtype=np.int64)
        for k in range(self.dim):
            idx = idx * (2 * self.radius + 1) + pts[:, k] + self.radius
        return idx

    def squared_norms(self) -> np.ndarray:
        """|xi|^2 per point, exact integers."""
        return np.sum(self.points.astype(np.int64) ** 2, axis=1)

    def brackets(self) -> np.ndarray:
        """Japanese bracket <xi> = sqrt(1 + |xi|^2) per point."""
        return np.sqrt(1.0 + self.squared_norms().astype(np.float64))


def grid_points(dim: int, grid_size: int) -> np.ndarray:
    """Uniform grid x_i = i/M in lexicographic order, as an (M^dim, dim) float array."""
    idx = np.indices((grid_size,) * dim).reshape(dim, -1).T
    return idx.astype(np.float64) / grid_size


class PeriodicFunction:
    """Complex samples of f on the uniform grid x_i = i/M, lexicographic order."""

    def __init__(self, dim: int, grid_size: int, values: np.ndarray):
        self.dim = dim
        self.grid_size = grid_size
        self.values = np.asarray(values, dtype=np.complex128).reshape(-1)


class FourierCoefficients:
    """Coefficients aligned to the canonical ordering of a FrequencyLattice."""

    def __init__(self, lattice: FrequencyLattice, coeffs: np.ndarray):
        self.lattice = lattice
        self.coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)


def forward_transform(f: PeriodicFunction, lattice: FrequencyLattice) -> FourierCoefficients:
    """Toroidal Fourier coefficients (1/M^dim) sum_i f(x_i) e^{-i2pi<x_i, xi>}.

    Exact (to rounding) for trigonometric polynomials of degree <= radius, on a
    grid of f's dimension inside the margin M >= 2(2N+1) (``min_grid_size``).
    """
    cube = np.fft.fftn(f.values.reshape((f.grid_size,) * f.dim), norm="forward")
    return FourierCoefficients(lattice, cube[tuple((lattice.points % f.grid_size).T)])


def lp_norms(rows: np.ndarray, p: float) -> list[float]:
    """Rectangle-rule L^p norm on the probability-measure torus of each row of grid
    values (p = inf: the grid sup): ``sums.power_norms`` over the grid size."""
    return power_norms(np.abs(rows), p, rows.shape[1])
