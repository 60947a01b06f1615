"""Dyadic-block decomposition and Besov / Hoelder norms on the torus.

Frequencies are grouped into blocks 2^m <= |xi| < 2^{m+1}; the origin joins
block 0 so constants have nonzero norm.  Block membership is decided in exact
integer arithmetic (4^m <= |xi|^2 < 4^{m+1}), so boundary frequencies never
migrate with rounding.  ``block_index`` is the one dyadic binning of the
package: the dual series shells (``groups``) and the series certificates
(``criteria``) use it too.  The ``block_weight`` switch picks |xi| (``"abs"``,
default) or <xi> (``"bracket"``) as the grouping size; the two give equivalent
norms but different numbers, and reports state which was used.

Every dyadic norm goes through ``block_norms``: a function's block L^p norms
from its coefficients, all blocks synthesized by one inverse FFT.
``coefficient_norm`` weights that table; ``besov_norm``, the ``besov-norm``
table, the embedding ratio, the partial-sum errors and the quasi-norm
certificate all start from coefficients.
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
    max_alias_free_radius,
)
from .sums import fsum, fsum_by

BLOCK_WEIGHTS = ("abs", "bracket")


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


def block_index(squared_norm, block_weight: str = "abs"):
    """Dyadic block m of each exact integer |xi|^2: 4^m <= key < 4^{m+1} with key
    |xi|^2 (``"abs"``) or |xi|^2 + 1 (``"bracket"``), key 0 in block 0.  ``np.frexp``
    gives the bit length of keys below 2^53 exactly; m = (bit length - 1) // 2."""
    if block_weight not in BLOCK_WEIGHTS:
        raise ValueError(f"block_weight must be one of {BLOCK_WEIGHTS}, got {block_weight!r}")
    key = np.asarray(squared_norm, dtype=np.int64) + (block_weight == "bracket")
    return np.maximum(np.frexp(key)[1] - 1, 0) // 2


def block_sums(blocks: np.ndarray, terms: np.ndarray) -> tuple[list[int], list[float]]:
    """(block indices present, exactly rounded sum of ``terms`` over each), ascending."""
    blocks = np.asarray(blocks, dtype=np.intp)
    present = np.flatnonzero(np.bincount(blocks)).tolist()
    sums = fsum_by(blocks, np.asarray(terms, dtype=np.float64))
    return present, [sums[m] for m in present]


def block_norms(
    c: FourierCoefficients,
    p: float,
    grid_size: int,
    block_weight: str = "abs",
) -> list[tuple[int, float]]:
    """(m, ||block_m||_{L^p}) for each dyadic block m of ``c``'s lattice, ascending.

    Every block is scattered into one (blocks, M, ..) array at ``points % M``,
    one inverse FFT runs over the grid axes, and ``lp_norms`` reduces the rows
    together.  Memory: blocks x M^dim x 16 bytes, twice over for the FFT's
    output.
    """
    lattice = c.lattice
    _require_margin(grid_size, lattice.radius, "block_norms")
    blocks = block_index(lattice.squared_norms(), block_weight)
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


def coefficient_norm(
    c: FourierCoefficients,
    params: BesovParams,
    grid_size: int,
    block_weight: str = "abs",
) -> float:
    """The dyadic-block norm of the function with coefficients ``c``, each block
    synthesized on a ``grid_size`` grid for its L^p norm."""
    return weighted_norm(block_norms(c, params.p, grid_size, block_weight), params)


def besov_norm(
    f: PeriodicFunction,
    params: BesovParams,
    lattice: FrequencyLattice,
    block_weight: str = "abs",
) -> float:
    """(sum_m 2^{mwq} ||block_m f||_{L^p}^q)^{1/q}; q = inf takes the sup over m."""
    return coefficient_norm(forward_transform(f, lattice), params, f.grid_size, block_weight)


def holder_norm(f: PeriodicFunction, w: float) -> float:
    """Discrete Hoelder norm sup |f(x+h)-f(x)| |h|^{-w} + sup |f| on T^1.

    All grid pairs are inspected with h measured as torus distance; being a
    grid sup, the value is a lower bound of the continuum norm.
    """
    if f.dim != 1:
        raise ValueError("holder_norm is defined for dim = 1 only")
    if not (0.0 < w < 1.0):
        raise ValueError(f"w must lie in (0, 1), got {w}")
    m = f.grid_size
    if m < 64:
        raise ValueError(f"holder_norm needs grid_size >= 64, got {m}")
    vals = f.values
    best = 0.0
    for j in range(1, m):
        h = min(j, m - j) / m
        diff = float(np.abs(np.roll(vals, -j) - vals).max())
        best = max(best, diff / h**w)
    return best + float(np.abs(vals).max())


def fourier_embedding_ratio(
    f: PeriodicFunction,
    p1: float,
    alpha: float,
    lattice: FrequencyLattice | None = None,
) -> float:
    """||fhat||_{l^beta} / ||f||_{B^{alpha n}_{p1, beta}} with beta = (alpha + 1/p1')^{-1}.

    Boundedness of this ratio over a family of functions witnesses the
    coefficient-map embedding of the dyadic-norm space into l^beta.
    """
    if not (1.0 < p1 <= 2.0):
        raise ValueError(f"p1 must lie in (1, 2], got {p1}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    inv_conj = 1.0 - 1.0 / p1  # 1/p1'
    beta = 1.0 / (alpha + inv_conj)
    if beta < 1.0:
        raise ValueError(
            f"beta = {beta:.6g} < 1 leaves the Banach range; need alpha <= 1/p1"
        )
    if lattice is None:
        lattice = FrequencyLattice(f.dim, max_alias_free_radius(f.grid_size))
    c = forward_transform(f, lattice)
    numerator = float(fsum(np.abs(c.coeffs) ** beta) ** (1.0 / beta))
    denominator = coefficient_norm(c, BesovParams(alpha * f.dim, p1, beta), f.grid_size)
    if denominator == 0.0:
        raise ValueError("zero Besov norm: the ratio needs a nonzero function")
    return numerator / denominator
