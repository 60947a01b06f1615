"""Quantization of symbols on the torus.

T_a f(x) = sum_xi e^{i2pi<x,xi>} a(x,xi) fhat(xi) sends the character e_xi to
sum_eta hat{a}(eta - xi, xi) e_eta.  ``compression`` scatters those entries
for eta in a row lattice and xi in a column lattice from the symbol's
x-Fourier support (defined in ``symbols.x_fourier_support``); column xi holds
the coefficients of the rank-one factor H_xi = e_xi a(., xi).  Its square
case ``operator_matrix`` is T_a compressed to the truncated character basis,
so its trace and spectrum are exactly those of P_N T_a P_N, and at a smaller
radius it is a sub-block.

``eigenvalues`` solves A one connected component of its nonzero pattern at a
time.  hat{a}(eta - xi, xi) vanishes off the symbol's x-Fourier support, so a
multiplier gives 1 x 1 blocks and (c + cos 2 pi x1) g(xi) one block per line
along x1; a sampled symbol is usually a single block, solved unpermuted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonic import FrequencyLattice
from .sums import fsum_complex
from .symbols import Symbol, x_fourier_support, x_fourier_table

EIGEN_SIDE_LIMIT = 4096
TRACE_IDENTITY_TOL = 1e-9
EIGEN_RESIDUAL_TOL = 1e-9


class EigensolverError(RuntimeError):
    pass


@dataclass
class OperatorMatrix:
    """Dense compression of T_a to the character basis of a lattice."""

    lattice: FrequencyLattice
    entries: np.ndarray

    def __post_init__(self):
        side = len(self.lattice)
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (side, side):
            raise ValueError(
                f"entries shape {self.entries.shape}, expected ({side}, {side})"
            )

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> complex:
        return fsum_complex(np.diag(self.entries))


def compression(a: Symbol, rows: FrequencyLattice, columns: FrequencyLattice) -> np.ndarray:
    """hat{a}(eta - xi, xi) for eta in ``rows`` and xi in ``columns``, one scatter.

    Column xi holds the x-Fourier coefficients of H_xi = e_xi a(., xi) on the
    row lattice.  Only the differences d = eta - xi on the symbol's x-Fourier
    support (``symbols.x_fourier_support``) are evaluated; their table is
    scattered into a zero result, entry (d, xi) to row xi + d when that lies
    in the row box.  The in-box test and the row offsets are built one axis
    at a time, so no index as large as the result is held.
    """
    if not a.dim == rows.dim == columns.dim:
        raise ValueError(
            f"dimension mismatch: symbol dim {a.dim}, lattice dims {rows.dim}, {columns.dim}"
        )
    support = x_fourier_support(a, rows.radius + columns.radius)
    table = x_fourier_table(a, support, columns)  # (len(support), len(columns))
    side, size = 2 * rows.radius + 1, len(rows) * len(columns)
    shift = np.zeros((len(support), 1), dtype=np.int64)  # row offset of d
    base = np.zeros(len(columns), dtype=np.int64)  # row of xi
    outside = np.zeros(table.shape, dtype=bool)
    for d, xi in zip(support.T, columns.points.T):
        outside |= np.abs(d[:, None] + xi) > rows.radius
        shift = shift * side + d[:, None]
        base = base * side + xi + rows.radius
    # flat position of (xi + d, xi) in the result; pairs off the row box go to one
    # spare slot past its end
    flat = shift * len(columns) + (base * len(columns) + np.arange(len(columns)))
    flat[outside] = size
    result = np.zeros(size + 1, dtype=np.complex128)
    result[flat] = table
    return result[:size].reshape(len(rows), len(columns))


def operator_matrix(a: Symbol, lattice: FrequencyLattice) -> OperatorMatrix:
    """A[eta, xi] = hat{a}(eta - xi, xi) over the lattice ordering: the square
    ``compression``."""
    return OperatorMatrix(lattice, compression(a, lattice, lattice))


def canonical_eigen_order(eigs: np.ndarray) -> np.ndarray:
    """Permutation sorting eigenvalues by descending |lambda|, ties by argument."""
    return np.lexsort((np.angle(eigs), -np.abs(eigs)))


def connected_components(matrix) -> np.ndarray:
    """Component label of each index of a square matrix: the smallest index
    joined to it through nonzero entries A[i, j] or A[j, i].

    Min-label hooking with pointer jumping on the dense symmetrised pattern:
    each sweep gives every index the smallest label among its neighbours (one
    argmax over the pattern with columns in label order), hooks the old labels'
    roots to it, and jumps pointers to the roots; a few sweeps suffice.
    """
    A = np.asarray(matrix)
    n = A.shape[0]
    if n == 0:
        return np.arange(0)
    pattern = A != 0
    pattern |= pattern.T
    np.fill_diagonal(pattern, True)
    labels = np.arange(n)
    while True:
        order = np.argsort(labels, kind="stable")
        smallest = labels[order[np.argmax(pattern[:, order], axis=1)]]
        hooked = smallest.copy()
        np.minimum.at(hooked, labels, smallest)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def eigenvalues(matrix, with_residuals: bool = False):
    """All eigenvalues of a dense complex matrix in canonical order.

    The matrix is split into the connected components of its symmetrised
    nonzero pattern, which is exact: a symmetric permutation makes it block
    diagonal, so its spectrum is the union of the blocks' spectra.  Components
    of equal size are stacked and solved by one batched LAPACK call (zgeev:
    balancing, Hessenberg, shifted QR); a one-component matrix is solved
    unpermuted.  The eigenvalue sum must match the matrix trace to within
    ``TRACE_IDENTITY_TOL * (1 + |trace|)``.  With ``with_residuals`` the
    eigenvectors are computed too, every pair is checked against
    ``||A v - lambda v|| <= EIGEN_RESIDUAL_TOL * ||A||_2`` (``||A||_2`` is the
    largest block norm), and the residual norms are returned alongside the
    eigenvalues, in the same order.  Either check failing raises
    EigensolverError.
    """
    A = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if A.shape[0] > EIGEN_SIDE_LIMIT:
        raise ValueError(
            f"matrix side {A.shape[0]} exceeds the desk-scale guard {EIGEN_SIDE_LIMIT}"
        )
    A = A.astype(np.complex128, copy=False)
    labels = connected_components(A)
    sizes = np.bincount(labels, minlength=A.shape[0])[labels]
    # indices grouped by component size, then component, ascending within one
    perm = np.lexsort((labels, sizes))
    eigs = np.empty(A.shape[0], dtype=np.complex128)
    residuals = np.empty(A.shape[0]) if with_residuals else None
    norm_a = 0.0
    start = 0
    try:
        for size, count in enumerate(np.bincount(sizes)):
            if not count:
                continue
            stop = start + int(count)
            idx = perm[start:stop].reshape(-1, size)
            blocks = A[idx[:, :, None], idx[:, None, :]]
            if with_residuals:
                vals, vecs = np.linalg.eig(blocks)
                res = np.linalg.norm(blocks @ vecs - vecs * vals[:, None, :], axis=1)
                residuals[start:stop] = res.ravel()
                norm_a = max(norm_a, float(np.linalg.norm(blocks, 2, axis=(1, 2)).max()))
            else:
                vals = np.linalg.eigvals(blocks)
            eigs[start:stop] = vals.ravel()
            start = stop
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration did not converge: {exc}") from exc
    order = canonical_eigen_order(eigs)
    eigs = eigs[order]
    if with_residuals:
        residuals = residuals[order]
        bad = np.flatnonzero(residuals > EIGEN_RESIDUAL_TOL * max(norm_a, 1e-300))
        if bad.size:
            i = int(bad[0])
            raise EigensolverError(
                f"eigenpair {i} residual {residuals[i]:.3e} exceeds "
                f"{EIGEN_RESIDUAL_TOL:.1e} * ||A|| = {EIGEN_RESIDUAL_TOL * norm_a:.3e}"
            )
    trace = fsum_complex(np.diag(A))
    esum = fsum_complex(eigs)
    if abs(esum - trace) > TRACE_IDENTITY_TOL * (1.0 + abs(trace)):
        raise EigensolverError(
            f"eigenvalue sum {esum} disagrees with matrix trace {trace}"
        )
    if with_residuals:
        return eigs, residuals
    return eigs
