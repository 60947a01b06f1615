"""Unitary-dual data for the torus and SU(2), closed-form trace series, and
the truncated-synthesis approximation demonstration.

Normalization (stated in every report header): the torus dual point xi in Z^n
carries dimension 1 and Laplacian eigenvalue |xi|^2, so the group bracket
(1 + lambda)^{1/2} coincides with the toroidal <xi>.  The SU(2) dual is indexed
by l in {0, 1/2, 1, 3/2, ...} with dimension 2l + 1 and eigenvalue l(l + 1);
``half_integers=False`` restricts to the integer-spin subset.

A ``GroupDual`` holds arrays ``labels`` (N x k), ``d``, ``lam`` and ``mult``,
sorted by (lambda, label); series are whole-array expressions over them, each
row's term counted ``mult`` times.  ``enumerate_dual`` gives one row per dual
point (``mult`` all ones).  With ``radial=True`` the torus slice has one row per
distinct lambda = n, weighted by the number r(n) of box points with |xi|^2 = n,
and no labels: a series whose terms depend on lambda alone has the same exactly
rounded sums over it.  A symbol callable receives the whole dual and returns an
(N,) array of scalar-times-identity values (or, for ``criteria.check_tt1``,
also N d x d matrices).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .besov import BesovParams, block_index, block_sums, coefficient_norm
from .criteria import SHELL_RATIO_COUNT, SHELL_RATIO_LIMIT, shell_ratios
from .harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    box_points,
    forward_transform,
    max_alias_free_radius,
)
from .sums import fsum, fsum_by, fsum_complex

GROUPS = ("torus", "su2")
# Largest dual enumerate_dual builds; about 0.3 GB of labels, d and lam on dim 2.
DUAL_SIZE_LIMIT = 10**7


class DivergenceWarning(UserWarning):
    """The requested series diverges; the partial sum is still reported."""


@dataclass
class GroupDual:
    group: str
    cutoff: float
    dim: int  # torus lattice dimension (1 on su2)
    labels: np.ndarray | None  # (N, k): torus xi (int64, k = dim), su2 (l,) (float64, k = 1); radial: None
    d: np.ndarray  # (N,) int64 representation dimension
    lam: np.ndarray  # (N,) float64 Laplacian eigenvalue
    mult: np.ndarray  # (N,) int64 number of dual points the row stands for

    def __len__(self) -> int:
        return self.lam.shape[0]

    @property
    def bracket(self) -> np.ndarray:
        return np.sqrt(1.0 + self.lam)

    @property
    def shells(self) -> np.ndarray:
        """Dyadic bracket shell j of each point, 4^j <= floor(lambda) + 1 < 4^{j+1}.

        On the SU(2) dual the spins l = 2^k - 1/2 have floor(lambda) = 4^k - 1,
        so the ``+ 1`` moves them up a shell."""
        return block_index(np.floor(self.lam).astype(np.int64) + 1)

    @property
    def group_dimension(self) -> int:
        if self.group == "su2":
            return 3
        return self.dim

    @property
    def lambda_cap(self) -> float:
        """Largest eigenvalue below which the enumeration is complete.

        Dyadic bracket shells entirely below this cap contain every dual point
        they should; the trailing shell may be truncated and is excluded from
        convergence certification.
        """
        if self.group == "su2":
            return self.cutoff * (self.cutoff + 1.0)
        return float(int(self.cutoff)) ** 2  # Euclidean ball inside the max-norm box


def dual_size(group: str, cutoff: float, dim: int = 1, half_integers: bool = True):
    """Number of points ``enumerate_dual`` builds, from its arguments alone."""
    if not math.isfinite(cutoff):
        return math.inf
    if group == "torus":
        return (2 * math.floor(cutoff) + 1) ** dim
    return math.floor(2 * cutoff if half_integers else cutoff) + 1


def enumerate_dual(
    group: str, cutoff, dim: int = 1, half_integers: bool = True, radial: bool = False
) -> GroupDual:
    """Finite slice of the unitary dual, sorted by Laplacian eigenvalue, ties by label.

    torus: lattice points |xi|_inf <= cutoff, d = 1, lambda = |xi|^2; with
           ``radial`` one unlabelled row per distinct lambda, ``mult`` = r(lambda).
    su2:   l = 0, 1/2, ..., cutoff (integers only when half_integers=False),
           d = 2l + 1, lambda = l(l + 1); already one row per lambda.
    A slice above DUAL_SIZE_LIMIT points is refused before anything is allocated.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    if not cutoff >= 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    size = dual_size(group, cutoff, dim, half_integers)
    if size > DUAL_SIZE_LIMIT:
        raise ValueError(
            f"the {group} dual at cutoff {cutoff} has more than {DUAL_SIZE_LIMIT} points; "
            "lower the cutoff"
        )
    if group == "torus" and radial:
        lam, mult = _radial_torus(dim, math.floor(cutoff))
        return GroupDual(group, cutoff, dim, None, np.ones(lam.shape[0], dtype=np.int64), lam, mult)
    if group == "torus":
        labels = box_points(dim, math.floor(cutoff))
        lam = np.sum(labels * labels, axis=1).astype(np.float64)
        # the box is in label order already, so a stable sort on lambda breaks ties by label
        order = np.argsort(lam, kind="stable")
        labels, lam = labels[order], lam[order]
        d = np.ones(lam.shape[0], dtype=np.int64)
    else:
        # lambda grows with l, so counting order is already sorted
        dim = 1
        l = np.arange(size) * (0.5 if half_integers else 1.0)
        labels, d, lam = l[:, None], (2.0 * l + 1.0).astype(np.int64), l * (l + 1.0)
    return GroupDual(group, cutoff, dim, labels, d, lam, np.ones(lam.shape[0], dtype=np.int64))


def _radial_torus(dim: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct n = |xi|^2 over the box |xi|_inf <= radius, ascending, with the
    number r(n) of box points on each.  Each quarter-box point (a_1, .., a_dim),
    a_i >= 0, stands for the 2^(number of a_i > 0) sign choices; one bincount
    of the sums of squares adds those up.  In dim 1 the squares are distinct
    already (and a bincount would need radius^2 bins)."""
    square = np.arange(radius + 1, dtype=np.int64) ** 2
    signs = np.where(square > 0, 2, 1)
    if dim == 1:
        return square.astype(np.float64), signs
    keys, weights = square, signs
    for _ in range(dim - 1):
        keys = np.add.outer(keys, square).ravel()
        weights = np.outer(weights, signs).ravel()
    r = np.bincount(keys, weights)  # integers below DUAL_SIZE_LIMIT, exact in float64
    n = np.flatnonzero(r)
    return n.astype(np.float64), r[n].astype(np.int64)


def series_diagnostics(dual: GroupDual, terms: np.ndarray, divergent: bool = False) -> dict:
    """Geometric shell-ratio monitor over dyadic bracket shells; a series known
    to be ``divergent`` is never reported as converged, whatever its shells show."""
    _, shell_sums = block_sums(dual.shells, np.abs(np.asarray(terms)), dual.mult)
    return _shell_monitor(shell_sums, divergent)


def summed_series(dual: GroupDual, terms: np.ndarray, divergent: bool = False) -> tuple[float, dict]:
    """(``fsum(terms, dual.mult)``, ``series_diagnostics(dual, terms, divergent)``),
    bit for bit.  With no negative term |term| = term, so one binned pass over the
    shells gives both: the value is the exact total of the shell bins."""
    terms = np.asarray(terms, dtype=np.float64)
    if (terms < 0).any():
        return fsum(terms, dual.mult), series_diagnostics(dual, terms, divergent)
    shells = dual.shells
    sums, value = fsum_by(shells, terms, dual.mult, total=True)
    return value, _shell_monitor([sums[j] for j in np.flatnonzero(np.bincount(shells))], divergent)


def _shell_monitor(shell_sums: list[float], divergent: bool) -> dict:
    ratios = shell_ratios(shell_sums)
    if fsum(shell_sums) == 0.0 and not divergent:
        return {"shell_sums": shell_sums, "tail_estimate": 0.0, "converged": True}
    if divergent or not ratios:
        return {"shell_sums": shell_sums, "tail_estimate": math.inf, "converged": False}
    rho = max(ratios[-SHELL_RATIO_COUNT:])  # over all ratios when there are fewer
    converged = rho <= SHELL_RATIO_LIMIT and len(ratios) >= 2
    tail = shell_sums[-1] * rho / (1.0 - rho) if rho < 1.0 else math.inf
    return {"shell_sums": shell_sums, "tail_estimate": tail, "converged": converged}


def heat_terms(dual: GroupDual, t: float) -> np.ndarray:
    """Terms d^2 exp(-t lambda) of the heat series, one per dual point."""
    if not t > 0:
        raise ValueError(f"heat trace needs t > 0, got {t}")
    with np.errstate(over="ignore"):  # t lambda beyond the float range is -inf, whose exp is 0
        return dual.d * dual.d * np.exp(-t * dual.lam)


def heat_trace(dual: GroupDual, t: float) -> float:
    """sum over the dual of d^2 exp(-t lambda)."""
    return fsum(heat_terms(dual, t), dual.mult)


def bessel_terms(dual: GroupDual, alpha: float) -> np.ndarray:
    """Terms d^2 <xi>^{-alpha} of the Bessel series, one per dual point."""
    with np.errstate(over="ignore"):  # a term beyond the float range is reported as inf
        return dual.d * dual.d * (1.0 + dual.lam) ** (-alpha / 2.0)


def bessel_tail(dual: GroupDual, alpha: float) -> float:
    """Midpoint integral of the Bessel terms a torus dim-1 slice of radius R
    omits: 2 int_{R + 1/2}^{inf} (1 + t^2)^{-alpha/2} dt, alpha > 1.

    Substituting t = 1/u then u = v^4 removes both the infinite limit and the
    endpoint singularity, after which fixed-order Gauss-Legendre is exact to
    rounding for the smooth integrand.
    """
    if dual.group != "torus" or dual.group_dimension != 1:
        raise ValueError("tail correction is implemented for the torus with dim = 1")
    if alpha <= 1:
        raise ValueError("tail correction needs a convergent series (alpha > 1)")
    upper = (1.0 / (float(int(dual.cutoff)) + 0.5)) ** 0.25
    nodes, weights = _gauss_legendre_64()
    v = 0.5 * upper * (nodes + 1.0)
    scale = 0.5 * upper
    u = v**4
    integrand = 4.0 * v ** (4.0 * alpha - 5.0) * (1.0 + u * u) ** (-alpha / 2.0)
    return 2.0 * float(scale * fsum(weights * integrand))


@functools.cache
def _gauss_legendre_64() -> tuple[np.ndarray, np.ndarray]:
    """The 64-point Gauss-Legendre rule on [-1, 1], built on first use (an eigensolve)."""
    return np.polynomial.legendre.leggauss(64)


def bessel_trace(dual: GroupDual, alpha: float, tail_correction: bool = False) -> float:
    """sum over the dual of d^2 <xi>^{-alpha}.

    Convergent only for alpha above the group dimension; below that a
    DivergenceWarning is raised and the raw partial sum is still returned.
    ``tail_correction`` (torus, dim 1) adds ``bessel_tail`` so modest cutoffs
    reach closed-form accuracy.
    """
    n = dual.group_dimension
    if alpha <= n:
        warnings.warn(
            f"bessel series with alpha = {alpha} diverges on a dual of dimension {n}; "
            "reporting the raw partial sum",
            DivergenceWarning,
            stacklevel=2,
        )
    value = fsum(bessel_terms(dual, alpha), dual.mult)
    if tail_correction:
        value += bessel_tail(dual, alpha)
    return value


def multiplier_trace(dual: GroupDual, a) -> complex:
    """sum d_xi Tr[a(xi)] for scalar-times-identity symbols: sum d^2 a(xi)."""
    return fsum_complex(dual.d * dual.d * np.asarray(a(dual), dtype=np.complex128), dual.mult)


def partial_sum_convergence(
    f: PeriodicFunction,
    besov: BesovParams,
    n_values,
    lattice: FrequencyLattice | None = None,
) -> list[tuple[float, float]]:
    """Dyadic-norm error of the bracket-cutoff partial sums S_N f.

    S_N keeps the frequencies with <xi> <= N, the finite-rank truncations whose
    strong convergence underlies the approximation property.  For a
    trigonometric polynomial of degree D the error vanishes once N >= <D>.
    The residual f - S_N f is normed from f's coefficients with the kept ones
    zeroed: one transform for all N.
    """
    if lattice is None:
        lattice = FrequencyLattice(f.dim, max_alias_free_radius(f.grid_size))
    c = forward_transform(f, lattice)
    sq = lattice.squared_norms().astype(np.float64)
    rows: list[tuple[float, float]] = []
    for n_cut in n_values:
        n_cut = float(n_cut)
        residual = FourierCoefficients(lattice, np.where(1.0 + sq > n_cut * n_cut, c.coeffs, 0.0))
        rows.append((n_cut, coefficient_norm(residual, besov, f.grid_size)))
    return rows
