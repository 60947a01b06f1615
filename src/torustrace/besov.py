"""Dyadic-block decomposition and Besov norms on the torus.

Frequencies are grouped into blocks 2^m <= |xi| < 2^{m+1}; the origin joins
block 0 so constants have nonzero norm.  Block membership is decided in exact
integer arithmetic (4^m <= |xi|^2 < 4^{m+1}), so boundary frequencies never
migrate with rounding.  ``block_index`` is the one dyadic binning of the
package.  Lattice callers pass |xi|^2; the bracket shells of a dual series
(``groups``) and of the series certificates (``criteria``) pass
floor(lambda) + 1, the bracket <xi>^2 rounded down.  On a torus lattice of
dim 1 or 2 the two keys bin alike: they differ in block only where
|xi|^2 = 4^m - 1 = 3 mod 4, which no sum of two squares is.  So the CLI's
``--block-weight`` choice is echoed in the report header and changes no number.

Every dyadic norm goes through ``block_norms``: a function's block L^p norms
from its coefficients, all blocks synthesized by one inverse FFT.
``coefficient_norm`` weights that table; ``besov_norm``, the ``besov-norm``
table, the partial-sum errors and the quasi-norm certificate all start from
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    _require_margin,
    forward_transform,
    lp_norms,
)
from .sums import fsum, fsum_by


@dataclass(frozen=True)
class BesovParams:
    """Weight w and Lebesgue exponents of a dyadic-block norm (Banach range)."""

    w: float
    p: float
    q: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must lie in [1, inf], got {self.p}")
        if not (self.q >= 1.0):
            raise ValueError(f"q must lie in [1, inf], got {self.q}")


def block_index(key):
    """Dyadic block m of each exact integer key >= 0: 4^m <= key < 4^{m+1}, key 0
    in block 0.  ``np.frexp`` gives the bit length of keys below 2^53 exactly;
    m = (bit length - 1) // 2."""
    return np.maximum(np.frexp(np.asarray(key, dtype=np.int64))[1] - 1, 0) // 2


def block_sums(blocks: np.ndarray, terms: np.ndarray, weights=None) -> tuple[list[int], list[float]]:
    """(block indices present, exactly rounded sum of ``terms`` over each), ascending;
    ``weights`` counts each term that many times (``sums.fsum_by``)."""
    blocks = np.asarray(blocks, dtype=np.intp)
    present = np.flatnonzero(np.bincount(blocks)).tolist()
    sums = fsum_by(blocks, np.asarray(terms, dtype=np.float64), weights)
    return present, [sums[m] for m in present]


def block_norms(c: FourierCoefficients, p: float, grid_size: int) -> list[tuple[int, float]]:
    """(m, ||block_m||_{L^p}) for each dyadic block m of ``c``'s lattice, ascending.

    Every block is scattered into one (blocks, M, ..) array at ``points % M``,
    one inverse FFT runs over the grid axes, and ``lp_norms`` reduces the rows
    together.  Memory: blocks x M^dim x 16 bytes, twice over for the FFT's
    output.
    """
    lattice = c.lattice
    _require_margin(grid_size, lattice.radius, "block_norms")
    blocks = block_index(lattice.squared_norms())
    present = np.flatnonzero(np.bincount(blocks))  # not np.unique: ~15 ms first call
    cube = np.zeros((len(present),) + (grid_size,) * lattice.dim, dtype=np.complex128)
    cube[(np.searchsorted(present, blocks), *(lattice.points % grid_size).T)] = c.coeffs
    pieces = np.fft.ifftn(cube, axes=tuple(range(1, lattice.dim + 1)), norm="forward")
    return list(zip(present.tolist(), lp_norms(pieces.reshape(len(present), -1), p)))


def weighted_norm(table: list[tuple[int, float]], params: BesovParams) -> float:
    """(sum_m 2^{mwq} n_m^q)^{1/q} of a ``block_norms`` table; q = inf takes the sup over m."""
    weighted = [(2.0 ** (m * params.w)) * norm for m, norm in table]
    if params.q == math.inf:
        return max(weighted, default=0.0)
    total = fsum(t**params.q for t in weighted)
    return float(total ** (1.0 / params.q))


def coefficient_norm(c: FourierCoefficients, params: BesovParams, grid_size: int) -> float:
    """The dyadic-block norm of the function with coefficients ``c``, each block
    synthesized on a ``grid_size`` grid for its L^p norm."""
    return weighted_norm(block_norms(c, params.p, grid_size), params)


def besov_norm(f: PeriodicFunction, params: BesovParams, lattice: FrequencyLattice) -> float:
    """(sum_m 2^{mwq} ||block_m f||_{L^p}^q)^{1/q}; q = inf takes the sup over m."""
    return coefficient_norm(forward_transform(f, lattice), params, f.grid_size)
