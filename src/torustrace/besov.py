"""Dyadic-block decomposition and Besov / Hoelder norms on the torus.

Frequencies are grouped into blocks 2^m <= |xi| < 2^{m+1}; the origin joins
block 0 so constants have nonzero norm.  Block membership is decided in exact
integer arithmetic (4^m <= |xi|^2 < 4^{m+1}), so boundary frequencies never
migrate with rounding.  ``block_index`` is the one dyadic binning of the
package: the dual series shells (``groups``) and the series certificates
(``criteria``) use it too.  The ``block_weight`` switch picks |xi| (``"abs"``,
default) or <xi> (``"bracket"``) as the grouping size; the two give equivalent
norms but different numbers, and reports state which was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    forward_transform,
    lp_norm,
    min_grid_size,
    partial_inverse,
)
from .sums import fsum

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


@dataclass
class DyadicBlock:
    index: int
    frequencies: np.ndarray  # points of the block, lattice order


def block_index(squared_norm, block_weight: str = "abs"):
    """Dyadic block m of each exact integer |xi|^2: 4^m <= key < 4^{m+1} with key
    |xi|^2 (``"abs"``) or |xi|^2 + 1 (``"bracket"``), key 0 in block 0.  ``np.frexp``
    gives the bit length of keys below 2^53 exactly; m = (bit length - 1) // 2."""
    if block_weight not in BLOCK_WEIGHTS:
        raise ValueError(f"block_weight must be one of {BLOCK_WEIGHTS}, got {block_weight!r}")
    key = np.asarray(squared_norm, dtype=np.int64) + (block_weight == "bracket")
    return np.maximum(np.frexp(key)[1] - 1, 0) // 2


def block_sums(blocks: np.ndarray, terms: np.ndarray) -> tuple[list[int], list[float]]:
    """(block indices present, exactly rounded sum of ``terms`` over each), ascending;
    after a stable sort each block is one contiguous slice."""
    order = np.argsort(blocks, kind="stable")
    blocks, terms = np.asarray(blocks)[order], np.asarray(terms, dtype=np.float64)[order]
    starts = [0, *(np.flatnonzero(np.diff(blocks)) + 1).tolist()] if len(blocks) else []
    ends = [*starts[1:], len(blocks)]
    return [int(blocks[a]) for a in starts], [fsum(terms[a:b]) for a, b in zip(starts, ends)]


def dyadic_blocks(
    c: FourierCoefficients,
    grid_size: int | None = None,
    block_weight: str = "abs",
) -> list[tuple[DyadicBlock, PeriodicFunction]]:
    """Partition coefficients into dyadic blocks and synthesize each piece.

    The per-block functions sum to the full synthesis of ``c``.
    """
    lattice = c.lattice
    if grid_size is None:
        grid_size = min_grid_size(lattice.radius)
    blocks = block_index(lattice.squared_norms(), block_weight)
    out = []
    for m in np.flatnonzero(np.bincount(blocks)):  # not np.unique: ~15 ms first call
        idx = np.flatnonzero(blocks == m)
        piece = partial_inverse(c, idx, grid_size)
        out.append((DyadicBlock(int(m), lattice.points[idx]), piece))
    return out


def besov_norm(
    f: PeriodicFunction,
    params: BesovParams,
    lattice: FrequencyLattice,
    block_weight: str = "abs",
) -> float:
    """(sum_m 2^{mwq} ||block_m f||_{L^p}^q)^{1/q}; q = inf takes the sup over m."""
    c = forward_transform(f, lattice)
    pieces = dyadic_blocks(c, grid_size=f.grid_size, block_weight=block_weight)
    weighted = [
        (2.0 ** (block.index * params.w)) * lp_norm(piece, params.p)
        for block, piece in pieces
    ]
    if params.q == math.inf:
        return max(weighted, default=0.0)
    total = fsum(t**params.q for t in weighted)
    return float(total ** (1.0 / params.q))


def block_norm_table(
    f: PeriodicFunction,
    p: float,
    lattice: FrequencyLattice,
    block_weight: str = "abs",
) -> list[tuple[int, float]]:
    """(m, ||block_m f||_{L^p}) rows for export."""
    c = forward_transform(f, lattice)
    pieces = dyadic_blocks(c, grid_size=f.grid_size, block_weight=block_weight)
    return [(block.index, lp_norm(piece, p)) for block, piece in pieces]


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
        from .harmonic import max_alias_free_radius

        lattice = FrequencyLattice(f.dim, max_alias_free_radius(f.grid_size))
    c = forward_transform(f, lattice)
    numerator = float(fsum(np.abs(c.coeffs) ** beta) ** (1.0 / beta))
    params = BesovParams(alpha * f.dim, p1, beta)
    denominator = besov_norm(f, params, lattice)
    if denominator == 0.0:
        raise ValueError("zero Besov norm: the ratio needs a nonzero function")
    return numerator / denominator
