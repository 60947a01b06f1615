"""Slow reference implementations of the spectral-domain core and the dual series.

Spectral core: each function is direct rectangle-rule quadrature or synthesis
with explicit phases, reduced term by term through ``math.fsum``, or a
per-column loop.  The package computes the same quantities by FFT and index
gathers; the tests in ``test_spectral_oracles.py`` compare the two.

Dual series: one ``DualPoint`` object per point of the unitary dual, walked
point by point with ``math`` functions and per-point dyadic binning.  The
package holds the dual as numpy arrays; ``test_dual_oracles.py`` compares the
two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def dual_shell_sums(points: list[DualPoint], terms) -> list[float]:
    """Exactly rounded sum of the terms over each dyadic bracket shell."""
    shells: dict[int, list[float]] = {}
    for point, term in zip(points, terms):
        shells.setdefault(_shell(point), []).append(float(term))
    return [math.fsum(shells[j]) for j in sorted(shells)]


def tt1_shells(points, a, r, d_exp, xi_exp, lambda_cap) -> tuple[list[float], list[float]]:
    """(shell labels, shell sums) of the tt1 series <xi>^xi_exp ||a(xi)||_r^r d^d_exp
    over the dyadic bracket shells lying wholly below 1 + lambda_cap; ``a`` maps a
    DualPoint to a scalar (scalar * identity) or a d x d matrix."""
    max_complete = -1
    while 4.0 ** (max_complete + 2) <= 1.0 + lambda_cap:
        max_complete += 1
    shells: dict[int, list[float]] = {}
    for point in points:
        value = a(point)
        if np.ndim(value) == 0:
            lr = point.d * abs(complex(value)) ** r
        else:
            lr = math.fsum(np.abs(np.asarray(value)).ravel().astype(np.float64) ** r)
        term = point.bracket**xi_exp * lr * float(point.d) ** d_exp
        j = _shell(point)
        if j <= max_complete:
            shells.setdefault(j, []).append(term)
    return [float(j) for j in sorted(shells)], [math.fsum(shells[j]) for j in sorted(shells)]
