"""Dyadic-block decomposition and Besov norms on the torus.

Frequencies are grouped into blocks 2^m <= |xi| < 2^{m+1}; the origin joins
block 0 so constants have nonzero norm.  Block membership is decided in exact
integer arithmetic (4^m <= |xi|^2 < 4^{m+1}), so boundary frequencies never
migrate with rounding.  ``block_index`` is the one dyadic binning of the
package.  Lattice callers pass |xi|^2; the bracket shells of a dual series
(``groups``) and of the series certificates (``criteria``) pass
floor(lambda) + 1, the bracket <xi>^2 rounded down.  On a torus lattice of
dim 1 or 2 the two keys bin alike: they differ in block only where
|xi|^2 = 4^m - 1 = 3 mod 4, which no sum of two squares is, so grouping a
lattice by |xi| or by <xi> gives the same blocks and the same numbers.

Every dyadic norm goes through ``block_norms``: a function's block L^p norms
from its coefficients, all blocks synthesized by one inverse FFT.
``coefficient_norm`` weights that table, and ``partial_sum_convergence``
norms the residuals of the truncations S_N f with it (the approximation
demonstration).  The ``besov-norm`` table, the partial-sum errors and the
quasi-norm certificate all start from coefficients; only a sampled input
file is transformed to get them.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonic import FourierCoefficients, _require_margin, lp_norms
from .sums import fsum, fsum_by


class BesovParams:
    """Weight w and Lebesgue exponents of a dyadic-block norm (Banach range)."""

    def __init__(self, w: float, p: float, q: float):
        if not (p >= 1.0):
            raise ValueError(f"p must lie in [1, inf], got {p}")
        if not (q >= 1.0):
            raise ValueError(f"q must lie in [1, inf], got {q}")
        self.w = w
        self.p = p
        self.q = q


def block_index(key):
    """Dyadic block m of each exact integer key >= 0: 4^m <= key < 4^{m+1}, key 0
    in block 0.  ``np.frexp`` gives the bit length of keys below 2^53 exactly;
    m = (bit length - 1) // 2."""
    return np.maximum(np.frexp(np.asarray(key, dtype=np.int64))[1] - 1, 0) // 2


def block_sums(blocks: np.ndarray, terms: np.ndarray, weights=None) -> tuple[list[int], list[float], float]:
    """(block indices present, exactly rounded sum of ``terms`` over each, ascending;
    exactly rounded sum of all the terms), from one ``sums.fsum_by`` pass;
    ``weights`` counts each term that many times."""
    blocks = np.asarray(blocks, dtype=np.intp)
    present = np.flatnonzero(np.bincount(blocks)).tolist()
    sums, total = fsum_by(blocks, np.asarray(terms, dtype=np.float64), weights, total=True)
    return present, [sums[m] for m in present], total


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
    """(sum_m 2^{mwq} n_m^q)^{1/q} of a ``block_norms`` table; q = inf takes the sup over m.
    Where a q-th power could overflow, the terms are scaled by a power of two (exact at q = 2)."""
    weighted = [(2.0 ** (m * params.w)) * norm for m, norm in table]
    if params.q == math.inf:
        return max(weighted, default=0.0)
    exponent = math.frexp(max(weighted, default=0.0))[1]
    shift = exponent - 1 if exponent * params.q > 1000 else 0
    total = fsum(math.ldexp(t, -shift) ** params.q for t in weighted)
    return math.ldexp(total ** (1.0 / params.q), shift)


def coefficient_norm(c: FourierCoefficients, params: BesovParams, grid_size: int) -> float:
    """The dyadic-block norm of the function with coefficients ``c``, each block
    synthesized on a ``grid_size`` grid for its L^p norm."""
    return weighted_norm(block_norms(c, params.p, grid_size), params)


def partial_sum_convergence(
    c: FourierCoefficients, besov: BesovParams, n_values, grid_size: int
) -> list[tuple[float, float]]:
    """Dyadic-norm error of the bracket-cutoff partial sums S_N f of the function
    with coefficients ``c``, each residual's blocks synthesized on a ``grid_size`` grid.

    S_N keeps the frequencies with <xi> <= N, the finite-rank truncations whose
    strong convergence underlies the approximation property.  For a
    trigonometric polynomial of degree D the error vanishes once N >= <D>.
    The residual f - S_N f is ``c`` with the kept coefficients zeroed.
    """
    sq = c.lattice.squared_norms().astype(np.float64)
    rows: list[tuple[float, float]] = []
    for n_cut in n_values:
        n_cut = float(n_cut)
        # drop <xi> > N; comparing squares alone would keep xi = 0 at N = -1
        dropped = (n_cut < 0) | (1.0 + sq > n_cut * n_cut)
        residual = FourierCoefficients(c.lattice, np.where(dropped, c.coeffs, 0.0))
        rows.append((n_cut, coefficient_norm(residual, besov, grid_size)))
    return rows
