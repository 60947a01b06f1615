"""Slow reference implementations of the spectral-domain core and the dual series.

Spectral core: each function is direct rectangle-rule quadrature or synthesis
with explicit phases, reduced term by term through ``math.fsum``, or a
per-column loop.  The package computes the same quantities by FFT and index
gathers; the tests in ``test_spectral_oracles.py`` compare the two.

Dyadic blocks: one inverse FFT per block, each block's L^p norm reduced on
its own, and the partial-sum errors by synthesizing each residual and
transforming it again; at p = 2 also Parseval, each block's squared
coefficient parts summed by ``math.fsum``.  The package norms p = 2 blocks by
Parseval, at other p scatters all blocks into one batched inverse FFT, and
norms residuals from masked coefficients; ``test_besov.py`` compares the two.

Dual series: one ``DualPoint`` object per point of the unitary dual, walked
point by point with ``math`` functions and per-point dyadic binning.  The
package holds the dual as numpy arrays; ``test_dual_oracles.py`` compares the
two.  Its bracket shells likewise, floor(lambda) + 1 binned row by row against
the package's cuts of the ascending lambda.  The t1/t2 power witness likewise,
its shells point by point (``tt1_shells``) against the package's dual rows;
``test_criteria.py`` compares the two.

Spectra: breadth-first search for the connected components of a matrix's
nonzero pattern, and the full-matrix LAPACK solve.  The package solves one
component block at a time; ``test_block_eigen.py`` compares the two.

x-Fourier data over every eta: the compression gathered from a table over
the whole difference lattice through an index as large as the result, the
decay constant maximised over the dense eta x xi table, and the order fit's
shell suprema kept in a dict, point by point.  The package evaluates the
support rows only and bins shells in one vectorised pass;
``test_support_oracles.py`` compares the two, bit for bit.

L^p norms on a grid: each total by ``math.fsum``, independent of the binned
``sums.fsum_by`` row sums (``sums.power_norms``) the package reduces with.

Canonical decomposition: the rank-one factors H_xi sampled on a grid, their
sum applied to a function, and the quasi-norm bound computed by forward
transforming every sampled H_xi.  The package reads H_xi's coefficients from
the compressed matrix instead; ``test_compression_oracles.py`` compares the
two.  The bound from the dense compression, each column synthesized on the
margin grid, is the grid path the package keeps for p != 2; at p = 2 the
package sums |coefficient|^2 per block (Parseval) and
``test_certificate_parseval.py`` compares the two.

Operator application and single coefficients: T_a f evaluated on the sample
grid with the full phase table, hat{a}(eta, xi) one coefficient at a time,
and the coefficient-map embedding ratio ||fhat||_{l^beta} / ||f||_B.  The
tests of ``test_quantize.py``, ``test_symbols.py`` and ``test_criteria.py``
hold the compressed matrix to the first two, and ``test_besov.py`` the dyadic
norm to the third.

Test inputs and exact references the package does not use: the synthesis
of a coefficient vector on a grid by one inverse FFT, a random band-limited
function, a scalar multiple of a function, and a separable
symbol's exact coefficients hat{a}(eta, xi) from its factors' closed forms.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from torustrace import harmonic
from torustrace.besov import BesovParams, block_index, block_norms
from torustrace.harmonic import (
    TWO_PI,
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    max_alias_free_radius,
    min_grid_size,
)
from torustrace.sums import power_norms
from torustrace.symbols import (
    BracketPower,
    SampledSymbol,
    SeparableSymbol,
    TrigPolynomial,
)


def _grid(dim: int, grid_size: int) -> np.ndarray:
    idx = np.array(list(product(range(grid_size), repeat=dim)), dtype=np.float64)
    return idx / grid_size


def synthesize(c: FourierCoefficients, grid_size: int) -> PeriodicFunction:
    """f(x_i) = sum_xi e^{i2pi<x_i, xi>} c[xi] on an M-point grid, by one inverse
    FFT of the cube holding c[xi] at ``xi mod M`` (the margin keeps them apart)."""
    assert grid_size >= harmonic.min_grid_size(c.lattice.radius), "the grid aliases the lattice"
    dim = c.lattice.dim
    cube = np.zeros((grid_size,) * dim, dtype=np.complex128)
    cube[tuple((c.lattice.points % grid_size).T)] = c.coeffs
    return PeriodicFunction(dim, grid_size, np.fft.ifftn(cube, norm="forward").reshape(-1))


def random_bandlimited(
    lattice: FrequencyLattice, grid_size: int, rng: np.random.Generator
) -> PeriodicFunction:
    """Random trigonometric polynomial supported on the lattice."""
    coeffs = rng.standard_normal(len(lattice)) + 1j * rng.standard_normal(len(lattice))
    return synthesize(FourierCoefficients(lattice, coeffs), grid_size)


def scaled(f: PeriodicFunction, c: complex) -> PeriodicFunction:
    return PeriodicFunction(f.dim, f.grid_size, c * f.values)


def character(dim: int, k: int) -> SeparableSymbol:
    """exp(i 2 pi k x_1), frequency-independent: ``symbols.character_symbol`` (k = 1)
    at any k."""
    return SeparableSymbol(TrigPolynomial({k: 1.0 + 0j}), BracketPower(0.0), dim, claimed_order=0.0)


def x_fourier(a: SeparableSymbol, eta, xi: np.ndarray) -> np.ndarray:
    """Exact hat{a}(eta, xi) for all xi; eta is a single integer vector."""
    eta = np.atleast_1d(np.asarray(eta, dtype=np.int64))
    coeffs = a.xfactor.coeffs
    if all(c == 0 for c in eta[1:]) and int(eta[0]) in coeffs:
        return coeffs[int(eta[0])] * a.xifactor.values(xi)
    return np.zeros(np.asarray(xi).shape[0], dtype=np.complex128)


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


def inverse_transform(c: FourierCoefficients, grid_size: int) -> PeriodicFunction:
    x = _grid(c.lattice.dim, grid_size)
    phases = np.exp(1j * TWO_PI * (x @ c.lattice.points.T.astype(np.float64)))
    return PeriodicFunction(c.lattice.dim, grid_size, _exact_column_sums((phases * c.coeffs[None, :]).T))


# ---------------------------------------------------------------------------
# Dyadic blocks, one synthesis per block
# ---------------------------------------------------------------------------


def dyadic_blocks(c: FourierCoefficients, grid_size: int) -> list[tuple[int, np.ndarray, PeriodicFunction]]:
    """(m, the block's points, the block's synthesis) per dyadic block m, ascending;
    each block synthesized by its own inverse transform, the coefficients outside
    it zeroed.  The pieces sum to the synthesis of ``c``."""
    lattice = c.lattice
    blocks = block_index(lattice.squared_norms())
    out = []
    for m in sorted(set(blocks.tolist())):
        inside = FourierCoefficients(lattice, np.where(blocks == m, c.coeffs, 0))
        out.append((m, lattice.points[blocks == m], synthesize(inside, grid_size)))
    return out


def parseval_block_norms(c: FourierCoefficients) -> list[tuple[int, float]]:
    """(m, ||block_m||_{L^2}) per dyadic block m by Parseval, ascending: the root of
    the ``math.fsum`` of the squares of the block's real and imaginary parts.  A
    block whose largest part x = f 2^e, 1/2 <= f < 1, has a square that may leave
    [2^-1000, 2^1000] is summed relative to 2^(e - 1), as ``sums.power_norms``
    sums it (exact: a power of two), and the root is ``** 0.5`` as there."""
    blocks = block_index(c.lattice.squared_norms())
    out = []
    for m in sorted(set(blocks.tolist())):
        parts = [abs(x) for z in c.coeffs[blocks == m].tolist() for x in (z.real, z.imag)]
        e = math.frexp(max(parts))[1]
        shift = e - 1 if max(parts) > 0 and ((e - 1) * 2 < -1000 or e * 2 > 1000) else 0
        total = math.fsum(math.ldexp(x, -shift) * math.ldexp(x, -shift) for x in parts)
        out.append((m, math.ldexp(total ** 0.5, shift)))
    return out


def coefficient_norm(c: FourierCoefficients, besov, grid_size: int) -> float:
    """The dyadic-block norm of the function with coefficients ``c``: ``c`` as the one
    row of a ``block_norms`` table, each block norm weighted by a Python float
    product 2^{m w} n_m and the row normed by one ``power_norms`` call."""
    blocks, (norms,) = block_norms(c.lattice, c.coeffs[None], besov.p, grid_size)
    return power_norms([[(2.0 ** (m * besov.w)) * norm for m, norm in zip(blocks, norms)]], besov.q)[0]


def per_cutoff_partial_sums(c: FourierCoefficients, besov, n_values, grid_size: int) -> list[tuple[float, float]]:
    """(N, ||f - S_N f||_B) one cutoff at a time: each residual (``c`` with the
    coefficients of <xi> <= N zeroed) normed on its own by ``coefficient_norm``, the
    slow form of ``besov.partial_sum_convergence``."""
    sq = c.lattice.squared_norms().astype(np.float64)
    rows = []
    for n_cut in map(float, n_values):
        dropped = (n_cut < 0) | (1.0 + sq > n_cut * n_cut)
        residual = FourierCoefficients(c.lattice, np.where(dropped, c.coeffs, 0.0))
        rows.append((n_cut, coefficient_norm(residual, besov, grid_size)))
    return rows


def partial_sum_errors(f: PeriodicFunction, besov, n_values, lattice: FrequencyLattice) -> list[tuple[float, float]]:
    """(N, ||f - S_N f||_B): each residual synthesized on f's grid, then normed by
    ``coefficient_norm`` through its own forward transform."""
    c = harmonic.forward_transform(f, lattice)
    sq = lattice.squared_norms().astype(np.float64)
    rows = []
    for n_cut in map(float, n_values):
        residual = FourierCoefficients(lattice, np.where(1.0 + sq > n_cut * n_cut, c.coeffs, 0))
        g = synthesize(residual, f.grid_size)
        norm = coefficient_norm(harmonic.forward_transform(g, lattice), besov, f.grid_size)
        rows.append((n_cut, norm))
    return rows


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
        out[r] = x_fourier(a, eta, lattice.points)
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


def lp_norm(values: np.ndarray, p: float) -> float:
    """Rectangle-rule L^p norm of grid values, the total summed by ``math.fsum``."""
    mags = np.abs(values)
    if p == math.inf:
        return float(mags.max())
    total = math.fsum((mags.astype(np.float64) ** p).tolist())
    return float((total / values.size) ** (1.0 / p))


# ---------------------------------------------------------------------------
# x-Fourier data over every eta
# ---------------------------------------------------------------------------


def dense_compression(a, rows: FrequencyLattice, columns: FrequencyLattice) -> np.ndarray:
    """hat{a}(eta - xi, xi) gathered from the table over the whole difference
    lattice of radius rows + columns, through one (rows x columns) int64 index."""
    diffs = FrequencyLattice(a.dim, rows.radius + columns.radius)
    table = a.x_fourier_table(diffs.points, columns)
    index = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for eta, xi in zip(rows.points.T, columns.points.T):
        index = index * (2 * diffs.radius + 1) + (eta[:, None] - xi[None, :] + diffs.radius)
    return table[index, np.arange(len(columns))]


def dense_decay_constant(a, k: int, m: float, delta: float, lattice: FrequencyLattice) -> float:
    """max over the dense lattice x lattice table of |hat{a}(eta, xi)| <eta>^{2k} <xi>^{-(m + 2k delta)}."""
    table = np.abs(a.x_fourier_table(lattice.points, lattice))
    eta_w = lattice.brackets() ** (2 * k)
    xi_w = lattice.brackets() ** (-(m + 2 * k * delta))
    return float((eta_w[:, None] * table * xi_w[None, :]).max())


def shell_order_fit(a, alpha, beta, lattice: FrequencyLattice) -> tuple[float, float]:
    """(m_hat, C_hat): shell suprema kept in a dict point by point (the first point
    of a strictly larger value wins), then the log-log least-squares fit, over the
    lattice, or for a table over the part of it its difference is known on."""
    b = a.x_derivative(beta).difference(alpha)
    sampled = isinstance(b, SampledSymbol)
    pts = FrequencyLattice(a.dim, min(lattice.radius, b.lattice.radius)).points if sampled else lattice.points
    sups = np.asarray(b.x_sup_abs(pts), dtype=np.float64)
    sq = np.sum(pts.astype(np.int64) ** 2, axis=1)
    shells: dict[int, tuple[float, float]] = {}
    for i in range(pts.shape[0]):
        s = math.isqrt(int(sq[i]))
        v = float(sups[i])
        if s not in shells or v > shells[s][1]:
            shells[s] = (math.sqrt(1.0 + float(sq[i])), v)
    xs, ys = [], []
    for s in sorted(shells):
        bracket, v = shells[s]
        if bracket < 2.0 or v <= 0.0:
            continue
        xs.append(math.log(bracket))
        ys.append(math.log(v))
    if not xs:
        return -math.inf, 0.0
    if len(xs) == 1:
        return 0.0, math.exp(ys[0])
    n = len(xs)
    sx, sy = math.fsum(xs), math.fsum(ys)
    sxx = math.fsum(x * x for x in xs)
    sxy = math.fsum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return float(slope), float(math.exp((sy - slope * sx) / n))


# ---------------------------------------------------------------------------
# Dual series, point by point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualPoint:
    label: tuple
    d: int
    lam: float

    @property
    def bracket(self) -> float:
        return math.sqrt(1.0 + self.lam)


def enumerate_dual(group: str, cutoff, dim: int = 1, half_integers: bool = True) -> list[DualPoint]:
    """torus: |xi|_inf <= cutoff, d = 1, lambda = |xi|^2; su2: l = 0, 1/2, ..., cutoff
    (integers only when half_integers=False), d = 2l + 1, lambda = l(l + 1);
    sorted by (lambda, label)."""
    points: list[DualPoint] = []
    if group == "torus":
        rng = range(-int(cutoff), int(cutoff) + 1)
        for xi in product(rng, repeat=dim):
            points.append(DualPoint(tuple(xi), 1, float(sum(c * c for c in xi))))
    else:
        step = 0.5 if half_integers else 1
        num = int(math.floor(2 * cutoff)) + 1 if half_integers else int(cutoff) + 1
        for j in range(num):
            l = j * step
            points.append(DualPoint((l,), int(round(2 * l + 1)), l * (l + 1.0)))
    points.sort(key=lambda p: (p.lam, p.label))
    return points


def heat_terms(points: list[DualPoint], t: float) -> list[float]:
    return [p.d * p.d * math.exp(-t * p.lam) for p in points]


def bessel_terms(points: list[DualPoint], alpha: float) -> list[float]:
    return [p.d * p.d * (1.0 + p.lam) ** (-alpha / 2.0) for p in points]


def _shell(p: DualPoint) -> int:
    key = int(math.floor(1.0 + p.lam))
    return 0 if key <= 0 else (key.bit_length() - 1) // 2


def bracket_shells(lam: np.ndarray) -> np.ndarray:
    """Dyadic bracket shell of each row, binned row by row: ``block_index`` of
    floor(lambda) + 1 in exact integers.  ``GroupDual.cuts`` cuts the ascending
    lambda at the shell edges instead."""
    return block_index(np.floor(lam).astype(np.int64) + 1)


def dual_shell_sums(points: list[DualPoint], terms) -> list[float]:
    """Exactly rounded sum of the terms over each dyadic bracket shell."""
    shells: dict[int, list[float]] = {}
    for point, term in zip(points, terms):
        shells.setdefault(_shell(point), []).append(float(term))
    return [math.fsum(shells[j]) for j in sorted(shells)]


def tt1_shells(points, a, r, d_exp, xi_exp, lambda_cap) -> tuple[list[float], list[float]]:
    """(shell labels, shell sums) of the tt1 series <xi>^xi_exp ||a(xi)||_r^r d^d_exp
    over the dyadic bracket shells lying wholly below 1 + lambda_cap; ``a`` maps a
    DualPoint to its scalar value (scalar * identity)."""
    max_complete = -1
    while 4.0 ** (max_complete + 2) <= 1.0 + lambda_cap:
        max_complete += 1
    shells: dict[int, list[float]] = {}
    for point in points:
        term = point.bracket**xi_exp * (point.d * abs(a(point)) ** r) * float(point.d) ** d_exp
        j = _shell(point)
        if j <= max_complete:
            shells.setdefault(j, []).append(term)
    return [float(j) for j in sorted(shells)], [math.fsum(shells[j]) for j in sorted(shells)]


# ---------------------------------------------------------------------------
# Spectra of whole matrices
# ---------------------------------------------------------------------------


def connected_components(matrix) -> np.ndarray:
    """Label of each index: the smallest index reachable from it through
    nonzero entries A[i, j] or A[j, i], by breadth-first search."""
    A = np.asarray(matrix)
    n = A.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = seed
        queue = deque([seed])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if labels[j] < 0 and (A[i, j] != 0 or A[j, i] != 0):
                    labels[j] = seed
                    queue.append(j)
    return labels


def dense_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of the whole matrix by one LAPACK call, in canonical order."""
    eigs = np.linalg.eigvals(np.asarray(matrix, dtype=np.complex128))
    return eigs[np.lexsort((np.angle(eigs), -np.abs(eigs)))]


# ---------------------------------------------------------------------------
# Canonical decomposition T_a f = sum_xi fhat(xi) H_xi, sampled
# ---------------------------------------------------------------------------


@dataclass
class NuclearDecomposition:
    """Rank-one terms (H_xi, bound on the paired functional's dual norm)."""

    lattice: FrequencyLattice
    terms: list[tuple[PeriodicFunction, float]]


def rank_one_factor(a, xi, grid_size: int) -> PeriodicFunction:
    """H_xi(x) = e^{i2pi<x,xi>} a(x, xi) sampled on an M-point grid."""
    xi = np.atleast_1d(np.asarray(xi, dtype=np.int64))
    x = _grid(a.dim, grid_size)
    table = a.values(x, xi.reshape(1, -1))[:, 0]
    phase = np.exp(1j * TWO_PI * (x @ xi.astype(np.float64)))
    return PeriodicFunction(a.dim, grid_size, phase * table)


def nuclear_decomposition(a, lattice: FrequencyLattice, grid_size: int) -> NuclearDecomposition:
    """Canonical decomposition; the functional bound 1.0 folds the coefficient-map
    embedding constant."""
    terms = [(rank_one_factor(a, xi, grid_size), 1.0) for xi in lattice.points]
    return NuclearDecomposition(lattice, terms)


def reconstruct(dec: NuclearDecomposition, f: PeriodicFunction) -> PeriodicFunction:
    """sum_xi fhat(xi) H_xi, which must reproduce T_a f on band-limited inputs."""
    c = harmonic.forward_transform(f, dec.lattice)
    stacked = np.stack([h.values for h, _ in dec.terms], axis=1)
    return PeriodicFunction(f.dim, f.grid_size, stacked @ c.coeffs)


def quasinorm_bound(a, r: float, besov, lattice: FrequencyLattice) -> float:
    """sum_xi ||H_xi||_B^r for a catalog symbol, each H_xi sampled on the margin grid
    of radius N + b (b the x-factor's largest |k|) and normed through its forward
    transform."""
    bandwidth = max((abs(k) for k in a.xfactor.coeffs), default=0)
    norm_lattice = FrequencyLattice(lattice.dim, lattice.radius + bandwidth)
    grid = min_grid_size(norm_lattice.radius)
    factors = (rank_one_factor(a, xi, grid) for xi in lattice.points)
    return math.fsum(
        coefficient_norm(harmonic.forward_transform(h, norm_lattice), besov, grid) ** r
        for h in factors
    )


def dense_quasinorm_bound(a, r: float, besov, lattice: FrequencyLattice) -> float:
    """sum_xi ||H_xi||_B^r with H_xi column xi of the dense compression whose rows
    reach N + b (b the x-Fourier support's largest |eta|_inf), each column normed
    by synthesizing its dyadic blocks on the min_grid_size(N + b) grid."""
    bandwidth = int(np.abs(a.x_fourier_support()).max(initial=0))
    rows = FrequencyLattice(lattice.dim, lattice.radius + bandwidth)
    grid = min_grid_size(rows.radius)
    columns = dense_compression(a, rows, lattice)
    return math.fsum(
        coefficient_norm(FourierCoefficients(rows, h), besov, grid) ** r
        for h in columns.T
    )


# ---------------------------------------------------------------------------
# Operator application, single coefficients and the embedding ratio
# ---------------------------------------------------------------------------


class BandlimitWarning(UserWarning):
    """Input carried frequencies beyond the lattice; they were truncated."""


def apply_symbol(a, f: PeriodicFunction, lattice: FrequencyLattice) -> PeriodicFunction:
    """(T_a f)(x) = sum_xi e^{i2pi<x,xi>} a(x,xi) fhat(xi) on f's grid; f is
    truncated to the lattice band (with a warning)."""
    if a.dim != f.dim or f.dim != lattice.dim:
        raise ValueError(
            f"grid/lattice mismatch: symbol dim {a.dim}, function dim {f.dim}, "
            f"lattice dim {lattice.dim}"
        )
    if isinstance(a, SampledSymbol) and (a.grid_size != f.grid_size or a.lattice != lattice):
        raise ValueError("grid/lattice mismatch between sampled symbol and arguments")
    c = harmonic.forward_transform(f, lattice)
    recon = synthesize(c, f.grid_size)
    excess = float(np.abs(f.values - recon.values).max())
    if excess > 1e-10 * (1.0 + float(np.abs(f.values).max())):
        warnings.warn(
            f"input is not band-limited to radius {lattice.radius}; excess content "
            f"of sup-size {excess:.3e} was truncated",
            BandlimitWarning,
            stacklevel=2,
        )
    x = _grid(f.dim, f.grid_size)
    table = a.values(x, lattice.points)
    phases = np.exp(1j * TWO_PI * (x @ lattice.points.T.astype(np.float64)))
    return PeriodicFunction(f.dim, f.grid_size, (phases * table) @ c.coeffs)


def symbol_fourier(a, eta, xi) -> complex:
    """hat{a}(eta, xi) = integral over x of e^{-i2pi<x,eta>} a(x, xi): a catalog
    symbol's exact coefficient, a sampled table's rectangle rule."""
    eta = np.atleast_1d(np.asarray(eta, dtype=np.int64))
    xi = np.atleast_1d(np.asarray(xi, dtype=np.int64))
    if isinstance(a, SeparableSymbol):
        return complex(x_fourier(a, eta, xi.reshape(1, -1))[0])
    phases = np.exp(-1j * TWO_PI * (_grid(a.dim, a.grid_size) @ eta.astype(np.float64)))
    terms = phases * a.table[:, a.lattice.indices_of(xi)[0]]
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) / (a.grid_size**a.dim)


def fourier_embedding_ratio(
    f: PeriodicFunction, p1: float, alpha: float, lattice: FrequencyLattice | None = None
) -> float:
    """||fhat||_{l^beta} / ||f||_{B^{alpha n}_{p1, beta}} with beta = (alpha + 1/p1')^{-1}.

    Boundedness of this ratio over a family of functions witnesses the
    coefficient-map embedding of the dyadic-norm space into l^beta.
    """
    if not (1.0 < p1 <= 2.0):
        raise ValueError(f"p1 must lie in (1, 2], got {p1}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    beta = 1.0 / (alpha + 1.0 - 1.0 / p1)
    if beta < 1.0:
        raise ValueError(f"beta = {beta:.6g} < 1 leaves the Banach range; need alpha <= 1/p1")
    if lattice is None:
        lattice = FrequencyLattice(f.dim, max_alias_free_radius(f.grid_size))
    c = harmonic.forward_transform(f, lattice)
    numerator = math.fsum((np.abs(c.coeffs) ** beta).tolist()) ** (1.0 / beta)
    denominator = coefficient_norm(c, BesovParams(alpha * f.dim, p1, beta), f.grid_size)
    if denominator == 0.0:
        raise ValueError("zero Besov norm: the ratio needs a nonzero function")
    return numerator / denominator
