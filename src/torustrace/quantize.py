"""Quantization of symbols on the torus.

T_a f(x) = sum_xi e^{i2pi<x,xi>} a(x,xi) fhat(xi) sends the character e_xi to
sum_eta hat{a}(eta - xi, xi) e_eta.  ``CompressedOperator`` holds P_N T_a P_N,
T_a compressed to the lattice |xi|_inf <= N, as the S x L table of the symbol's
x-Fourier support (``a.x_fourier_support``) in the difference box
|eta - xi|_inf <= 2N.

``eigenvalues`` solves it one connected component of its nonzero pattern at a
time, each block gathered from the table: a multiplier gives 1 x 1 blocks,
(c + cos 2 pi x1) g(xi) one block per line along x1, and a sampled symbol
usually a single block, solved unpermuted.  Real blocks (the modulated, Bessel
and heat catalog symbols) go to the real solver, and ||A||_2 is computed only
when its lower bound max |a_ij| cannot clear the residuals.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .harmonic import FrequencyLattice
from .sums import fsum_complex
from .symbols import Symbol

EIGEN_SIDE_LIMIT = 4096
TRACE_IDENTITY_TOL = 1e-9
EIGEN_RESIDUAL_TOL = 1e-9


class EigensolverError(RuntimeError):
    pass


class CompressedOperator:
    """T_a compressed to the character basis of ``lattice`` as its x-Fourier
    support table; only ``entries`` is L x L.

    Entry (eta, xi) is hat{a}(eta - xi, xi): row k of ``table`` when eta - xi is
    support point k, else the appended zero row.  ``slot`` maps each radix key
    of the difference box, key(eta - xi) = key(eta) - key(xi) + key(0), to it.
    A table with an inf or nan entry (a symbol that overflows float64), or a
    trace whose exactly rounded sum leaves float64, is refused with
    OverflowError when the compression is built; no eigensolver could use it.
    """

    def __init__(self, a: Symbol, lattice: FrequencyLattice):
        self.lattice, self.shape = lattice, (len(lattice), len(lattice))
        span = 2 * lattice.radius
        self.support = a.x_fourier_support(span)
        table = a.x_fourier_table(self.support, lattice)  # (S, L)
        if not np.isfinite(table).all():
            raise OverflowError(
                f"the symbol's x-Fourier table hat{{a}}(eta, xi) for |xi|_inf <= {lattice.radius} "
                "is not finite in float64")
        self.table = np.concatenate([table, np.zeros((1, len(lattice)), dtype=table.dtype)])
        radix = (2 * span + 1) ** np.arange(a.dim - 1, -1, -1)
        self._zero_key = span * int(radix.sum())
        self.slot = np.full((2 * span + 1) ** a.dim, len(self.support))
        self.slot[self.support @ radix + self._zero_key] = np.arange(len(self.support))
        self._keys = lattice.points @ radix
        self._trace = fsum_complex(self.diagonal())

    def __getitem__(self, index) -> np.ndarray:
        """Entries (eta_i, xi_j) for a pair (i, j) of broadcastable index arrays."""
        i, j = index
        return self.table[self.slot[self._keys[i] - self._keys[j] + self._zero_key], j]

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense (L x L) matrix, one gather."""
        return self[np.arange(len(self.lattice))[:, None], np.arange(len(self.lattice))]

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.nonzero`` of ``entries`` up to order: (xi + d, xi) for each nonzero
        table entry (d, xi) with xi + d in the box, one axis at a time."""
        inside, row, radius = self.table[:-1] != 0, 0, self.lattice.radius
        for d, xi in zip(self.support.T, self.lattice.points.T):
            eta = d[:, None] + xi
            inside &= np.abs(eta) <= radius
            row = row * (2 * radius + 1) + eta + radius
        k, j = np.nonzero(inside)
        return row[k, j], j

    def diagonal(self) -> np.ndarray:
        """hat{a}(0, xi) over the lattice: the table row of d = 0."""
        return self.table[self.slot[self._zero_key]]

    def trace(self) -> complex:
        return self._trace


def canonical_eigen_order(eigs: np.ndarray) -> np.ndarray:
    """Permutation sorting eigenvalues by descending |lambda|, ties by argument."""
    return np.lexsort((np.angle(eigs), -np.abs(eigs)))


def component_labels(side: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label of each of ``side`` indices: the smallest index joined to it by the
    undirected edges (u[e], v[e]).  Min-label hooking with pointer jumping: each
    sweep drops the edges inside one tree, hooks the larger root of every other
    edge to the smallest root it meets and jumps every pointer to its root;
    pointers only go down, so a root is its tree's smallest index."""
    labels = np.arange(side)
    while True:
        lu, lv = labels[u], labels[v]
        across = lu != lv
        if not across.any():
            return labels
        u, v, lu, lv = u[across], v[across], lu[across], lv[across]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def eigenvalues(matrix, with_residuals: bool = False):
    """All eigenvalues of a ``CompressedOperator`` or square dense complex matrix,
    in canonical order.

    The matrix is split into the connected components of its symmetrised
    nonzero pattern (``component_labels`` over its ``nonzero()`` pairs), which
    is exact: a symmetric permutation makes it block diagonal.  Each block is
    gathered by itself; components of equal size are stacked and solved by one
    batched LAPACK call (balancing, Hessenberg, shifted QR): dgeev on the real
    parts when none of them has a nonzero (or nan) imaginary part, so conjugate
    pairs are exact and real eigenvalues have imaginary part 0, else zgeev.  The
    eigenvalue sum must match the matrix trace (``A.trace()``, a compression's exact
    one) to within ``TRACE_IDENTITY_TOL * (1 + sum |lambda_i|)``, the scale of the
    sum's own rounding, so a zero-trace spectrum with large eigenvalues passes.
    With ``with_residuals`` the eigenvectors are computed too, every pair is
    checked against ``||A v - lambda v|| <= EIGEN_RESIDUAL_TOL * ||A||_2`` (the
    largest block norm), and the residual norms are returned alongside the
    eigenvalues, in the same order.  The block 2-norms (an SVD each) are computed
    only when the largest entry magnitude, a lower bound on ||A||_2, cannot clear
    every residual.  Either check failing raises EigensolverError.
    """
    A = matrix if isinstance(matrix, CompressedOperator) else np.asarray(matrix)
    side = A.shape[0]
    if not isinstance(A, CompressedOperator):
        A = A.astype(np.complex128, copy=False)
    labels = component_labels(side, *A.nonzero())
    sizes = np.bincount(labels, minlength=side)[labels]
    # indices grouped by component size, then component, ascending within one
    perm = np.lexsort((labels, sizes))
    splits = np.split(perm, np.cumsum(np.bincount(sizes))[:-1])
    groups = [idx.reshape(-1, size) for size, idx in enumerate(splits) if idx.size]

    def gather(idx):
        blocks = A[idx[:, :, None], idx[:, None, :]]
        return blocks if blocks.imag.any() else blocks.real

    eigs = np.empty(side, dtype=np.complex128)
    residuals = np.empty(side) if with_residuals else None
    norm_a = 0.0  # the largest |a_ij|, a lower bound on ||A||_2
    start = 0
    try:
        for idx in groups:
            stop = start + idx.size
            blocks = gather(idx)
            if with_residuals:
                vals, vecs = np.linalg.eig(blocks)
                r = blocks @ vecs - vecs * vals[:, None, :]
                # each column scaled by a power of two (exact), so its squares cannot overflow;
                # each part on its own, since a complex r / k multiplies by 1/k, inf for a subnormal k
                k = np.exp2(np.frexp(np.abs(r).max(axis=1, keepdims=True))[1])
                squares = (r.real / k) ** 2 + (r.imag / k) ** 2
                residuals[start:stop] = (k * np.sqrt(squares.sum(axis=1, keepdims=True))).ravel()
                norm_a = max(norm_a, float(np.abs(blocks).max()))
            else:
                vals = np.linalg.eigvals(blocks)
            eigs[start:stop] = vals.ravel()
            start = stop
        if with_residuals and np.any(residuals > EIGEN_RESIDUAL_TOL * max(norm_a, 1e-300)):
            # the bound cannot certify them all: judge every pair against ||A||_2
            norm_a = max(float(np.linalg.norm(gather(idx), 2, axis=(1, 2)).max()) for idx in groups)
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
    trace, esum = A.trace(), fsum_complex(eigs)
    # sum |lambda_i| >= |trace|; each term is scaled before the sum, which then cannot overflow
    if abs(esum - trace) > TRACE_IDENTITY_TOL + np.abs(TRACE_IDENTITY_TOL * eigs).sum():
        raise EigensolverError(f"eigenvalue sum {esum} disagrees with matrix trace {trace}")
    if with_residuals:
        return eigs, residuals
    return eigs
