"""Dyadic-block decomposition and Besov norms on the torus.

Frequencies are grouped into blocks 2^m <= |xi| < 2^{m+1}; the origin joins
block 0 so constants have nonzero norm.  Block membership is decided in exact
integer arithmetic (4^m <= |xi|^2 < 4^{m+1}), so boundary frequencies never
migrate with rounding.  ``block_index`` is the one dyadic binning of the
package.  Lattice callers pass |xi|^2; the series certificates (``criteria``)
pass floor(lambda) + 1, the bracket <xi>^2 rounded down, and the bracket
shells of a dual series (``GroupDual.cuts``) are the same blocks of that
key, cut from the dual's ascending lambda at 4^m - 1.  On a torus lattice of
dim 1 or 2 the two keys bin alike: they differ in block only where
|xi|^2 = 4^m - 1 = 3 mod 4, which no sum of two squares is, so grouping a
lattice by |xi| or by <xi> gives the same blocks and the same numbers.

Every dyadic norm is one evaluation of a stack of coefficient rows on one
lattice: ``block_norms`` gives each row's block L^p norms, at p = 2 by Parseval
with no synthesis (one ``power_norms`` call), at other p every block of every
row synthesized by one inverse FFT; ``weighted_norms`` weights all rows of that
table in one ``power_norms`` call.  ``besov-norm`` norms one row;
``partial_sum_convergence`` norms every residual of the truncations S_N f (the
approximation demonstration), in chunks of rows whose synthesis holds at most
``DUAL_SIZE_LIMIT`` points.  The ``besov-norm`` table, the partial-sum errors
and the quasi-norm certificate all start from coefficients; only a sampled
input file is transformed to get them.
"""

from __future__ import annotations

import numpy as np

from .harmonic import FourierCoefficients, FrequencyLattice, lp_norms
from .sums import fsum_by, power_norms

# Largest point count the CLI builds: a dual slice (``groups.dual_size``), a lattice,
# or a dyadic-norm evaluation's block synthesis.
DUAL_SIZE_LIMIT = 10**7


class BesovParams:
    """Weight w and Lebesgue exponents of a dyadic-block norm (Banach range)."""

    def __init__(self, w: float, p: float, q: float):
        self.w = w
        self.p = p
        self.q = q


def block_index(key):
    """Dyadic block m of each exact integer key >= 0: 4^m <= key < 4^{m+1}, key 0
    in block 0.  ``np.frexp`` gives the bit length of keys below 2^53 exactly;
    m = (bit length - 1) // 2."""
    return np.maximum(np.frexp(np.asarray(key, dtype=np.int64))[1] - 1, 0) // 2


def block_sums(cuts: np.ndarray, terms: np.ndarray, weights=None) -> tuple[list[int], list[float], float]:
    """(blocks present, exactly rounded sum of ``terms`` over each, ascending; exactly
    rounded sum of all the terms) from one ``sums.fsum_by`` pass, block m being rows
    cuts[m]:cuts[m + 1], of which ``terms`` holds the first (the rest are exact zeros);
    ``weights``, one a row, counts each term that many times."""
    present = np.flatnonzero(np.diff(cuts)).tolist()
    inside = int(np.searchsorted(cuts, len(terms)))  # the blocks that start among the terms
    weights = None if weights is None else weights[:len(terms)]
    sums, total = fsum_by(terms, weights, total=True, cuts=np.minimum(cuts[:inside + 1], len(terms)))
    return present, [sums[m] if m < inside else 0.0 for m in present], total


def block_norms(lattice: FrequencyLattice, rows: np.ndarray, p: float,
                grid_size: int) -> tuple[list[int], list[list[float]]]:
    """(the dyadic blocks m of ``lattice``, ascending; each row's ||block_m||_{L^p}
    for every m) of ``rows``, a (rows, lattice points) array of coefficients.

    p = 2 is Parseval: one ``power_norms`` call over the coefficients' real and
    imaginary parts, each row ordered by block and cut at every (row, block) end
    (memory: about 41 bytes a coefficient at the peak).  Otherwise every block of
    every row is scattered into one (rows, blocks, M, ..) array at ``points % M``,
    one inverse FFT runs over the grid axes, and one ``lp_norms`` call reduces all
    the (row, block) pieces; ``grid_size`` must meet the lattice's anti-aliasing
    margin (``harmonic.min_grid_size``).  Memory: rows x blocks x M^dim x 16 bytes,
    twice over for the FFT's output.
    """
    blocks = block_index(lattice.squared_norms())
    counts = np.bincount(blocks)
    present = np.flatnonzero(counts)  # not np.unique: ~15 ms first call
    size = len(rows) * len(present)
    if p == 2.0:
        parts = rows.take(np.argsort(blocks, kind="stable"), axis=1).view(np.float64)  # re, im, block by block
        ends = 2 * np.cumsum(counts[present])
        cuts = np.concatenate(([0], (np.arange(len(rows))[:, None] * parts.shape[1] + ends).reshape(-1)))
        norms = power_norms(np.abs(parts, out=parts).reshape(-1), 2.0, cuts=cuts)
    else:
        cube = np.zeros((len(rows), len(present)) + (grid_size,) * lattice.dim, dtype=np.complex128)
        cube[(slice(None), np.searchsorted(present, blocks), *(lattice.points % grid_size).T)] = rows
        pieces = np.fft.ifftn(cube, axes=tuple(range(2, lattice.dim + 2)), norm="forward")
        norms = lp_norms(pieces.reshape(size, -1), p)
    return present.tolist(), [norms[start:start + len(present)] for start in range(0, size, len(present))]


def weighted_norms(blocks: list[int], norms, params: BesovParams) -> list[float]:
    """(sum_m 2^{mwq} n_m^q)^{1/q} of each row of a ``block_norms`` table, one
    ``sums.power_norms`` call over the rows of weighted terms; q = inf takes the sup
    over m.  A weight or a norm beyond float64 raises OverflowError; a term beyond
    it reads inf, with no numpy warning."""
    weights = [2.0 ** (m * params.w) for m in blocks]
    with np.errstate(over="ignore"):
        terms = np.multiply(norms, weights)
    return power_norms(terms, params.q)


def partial_sum_convergence(
    c: FourierCoefficients, besov: BesovParams, n_values, grid_size: int
) -> list[tuple[float, float]]:
    """Dyadic-norm error of the bracket-cutoff partial sums S_N f of the function
    with coefficients ``c``: every residual's block norms from ``block_norms`` and
    every weighted norm from one ``weighted_norms`` call.

    S_N keeps the frequencies with <xi> <= N, the finite-rank truncations whose
    strong convergence underlies the approximation property.  For a
    trigonometric polynomial of degree D the error vanishes once N >= <D>.
    The residual f - S_N f is ``c`` with the kept coefficients zeroed.  The
    residuals go to ``block_norms`` in chunks of rows that hold at most
    ``DUAL_SIZE_LIMIT`` synthesized points together, each row counted as the
    CLI's dyadic budget counts it (blocks x M^dim), so a chunk's synthesis is no
    larger than one residual's may be.
    """
    lattice = c.lattice
    bracket_sq = 1.0 + lattice.squared_norms().astype(np.float64)
    cutoffs = [float(n_cut) for n_cut in n_values]
    row_points = (int(block_index(lattice.dim * lattice.radius**2)) + 1) * grid_size**lattice.dim
    chunk = max(DUAL_SIZE_LIMIT // max(row_points, 1), 1)
    norms: list[list[float]] = []
    for start in range(0, len(cutoffs), chunk):
        part = cutoffs[start:start + chunk]
        # drop <xi> > N; comparing squares alone would keep xi = 0 at N = -1.  N^2 is
        # squared in Python: N = 1e300 squares to inf with no numpy warning
        dropped = (np.array(part)[:, None] < 0) | (bracket_sq > np.array([[n * n] for n in part]))
        blocks, table = block_norms(lattice, np.where(dropped, c.coeffs, 0.0), besov.p, grid_size)
        norms += table
    return list(zip(cutoffs, weighted_norms(blocks, norms, besov)))
