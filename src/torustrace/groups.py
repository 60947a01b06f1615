"""Unitary-dual data for the torus and SU(2) and closed-form trace series.

Normalization (stated in every report header): the torus dual point xi in Z^n
carries dimension 1 and Laplacian eigenvalue |xi|^2, so the group bracket
(1 + lambda)^{1/2} coincides with the toroidal <xi>.  The SU(2) dual is indexed
by l in {0, 1/2, 1, 3/2, ...} with dimension 2l + 1 and eigenvalue l(l + 1);
``half_integers=False`` restricts to the integer-spin subset, and the dual's
``spin_step`` (1/2 or 1) lets a tail count its odd d only.

A ``GroupDual`` holds arrays ``d``, ``lam`` and ``mult``, one row per distinct
eigenvalue, sorted by lambda, each row's term counted ``mult`` times.  The torus
slice has one row per distinct lambda = n, weighted by the number r(n) of box
points with |xi|^2 = n; the SU(2) slice has one row per spin (``mult`` all ones).
A series is its envelope (a, b, s): ``GroupDual.terms`` gives its terms d^a <xi>^b
e^{-s lambda}, which depend on lambda and d alone, so their exactly rounded sums
are those of the per-point slice; ``summed_series`` sums them and bounds the tail
by ``criteria.dual_tail_bound`` of the same envelope.  ``bessel_tail`` gives the
dim-1 torus Bessel series the midpoint integral of its tail in closed form, with a bound on its error.
"""

from __future__ import annotations

import math

import numpy as np

from .besov import block_sums
from .criteria import UNBOUNDED_TAIL_NOTE, dual_tail_bound, is_summable

GROUPS = ("torus", "su2")
# Largest dual enumerate_dual admits, counted in dual points (``dual_size``).
DUAL_SIZE_LIMIT = 10**7
# shell j of the ascending lambda lies between edges j and j + 1: 4^j - 1, -inf and inf at the ends
_SHELL_EDGES = np.concatenate(([-math.inf], 4.0 ** np.arange(1, 27) - 1.0, [math.inf]))


class GroupDual:
    def __init__(self, group: str, cutoff: float, dim: int, d: np.ndarray, lam: np.ndarray, mult: np.ndarray,
                 spin_step: float):
        self.group = group
        self.cutoff = cutoff
        self.dim = dim  # torus lattice dimension (1 on su2)
        self.d = d  # (N,) int64 representation dimension
        self.lam = lam  # (N,) float64 Laplacian eigenvalue
        self.mult = mult  # (N,) int64 number of dual points the row stands for
        self.spin_step = spin_step  # su2: 1/2, or 1 over the integer spins; torus: 1

    def __len__(self) -> int:
        return self.lam.shape[0]

    def terms(self, a: float, b: float, s: float) -> np.ndarray:
        """Terms d^a <xi>^b e^{-s lambda} of a dual series, one per row, with <xi>^b
        one power (1 + lambda)^{b/2}; a factor that is 1 (d on the torus, b = 0,
        s = 0) is not computed.  Past the float range a term is inf, e^{-s lambda} 0."""
        terms = None
        with np.errstate(over="ignore"):
            if a != 0 and self.group == "su2":
                terms = self.d.astype(np.float64) ** a
            if b != 0:
                bracket = (1.0 + self.lam) ** (b / 2.0)
                terms = bracket if terms is None else np.multiply(terms, bracket, out=terms)
            if s != 0:
                decay = np.exp(-s * self.lam)
                terms = decay if terms is None else np.multiply(terms, decay, out=terms)
        return np.ones(len(self)) if terms is None else terms

    @property
    def shells(self) -> np.ndarray:
        """Dyadic bracket shell j of each row (not each dual point: a row stands for
        ``mult`` points), 4^j <= floor(lambda) + 1 < 4^{j+1}.  As 4^j - 1 is an
        integer, floor(lambda) + 1 >= 4^j exactly when lambda >= 4^j - 1, so the
        shells are ``np.searchsorted`` cuts of the ascending lambda at the edges
        4^j - 1, exact doubles for j <= 26 (``DUAL_SIZE_LIMIT`` keeps lambda below
        4^23), not a binning of each row.

        On the SU(2) dual the spins l = 2^k - 1/2 have floor(lambda) = 4^k - 1,
        so the ``+ 1`` moves them up a shell."""
        return np.repeat(np.arange(_SHELL_EDGES.size - 1), np.diff(np.searchsorted(self.lam, _SHELL_EDGES)))

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
    """Number of points ``enumerate_dual`` builds, from its arguments alone; inf
    when the cutoff, or the doubled cutoff the count floors, is not finite."""
    if not math.isfinite(2 * cutoff):
        return math.inf
    if group == "torus":
        return (2 * math.floor(cutoff) + 1) ** dim
    return math.floor(2 * cutoff if half_integers else cutoff) + 1


def enumerate_dual(group: str, cutoff, dim: int = 1, half_integers: bool = True) -> GroupDual:
    """Finite slice of the unitary dual, one row per distinct Laplacian eigenvalue,
    ascending.

    torus: lattice points |xi|_inf <= cutoff, d = 1, lambda = |xi|^2, ``mult`` =
           r(lambda), the number of them on each lambda.
    su2:   l = 0, 1/2, ..., cutoff (integers only when half_integers=False),
           d = 2l + 1, lambda = l(l + 1), ``mult`` = 1.
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
    if group == "torus":
        lam, mult = _radial_torus(dim, math.floor(cutoff))
        return GroupDual(group, cutoff, dim, np.ones(lam.shape[0], dtype=np.int64), lam, mult, 1.0)
    # lambda grows with l, so counting order is already sorted
    step = 0.5 if half_integers else 1.0
    l = np.arange(size) * step
    return GroupDual(group, cutoff, 1, (2.0 * l + 1.0).astype(np.int64), l * (l + 1.0),
                     np.ones(size, dtype=np.int64), step)


def _radial_torus(dim: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct n = |xi|^2 over the box |xi|_inf <= radius, ascending, with the
    number r(n) of box points on each.  Each quarter-box point (a_1, .., a_dim),
    a_i >= 0, stands for the 2^(number of a_i > 0) sign choices; one bincount
    of the sums of squares adds those up.  In dim 1 the squares are distinct
    already (and a bincount would need radius^2 bins)."""
    signs = np.full(radius + 1, 2, dtype=np.int64)
    signs[0] = 1
    if dim == 1:  # squares below 2^53 are exact in float64
        return np.arange(radius + 1, dtype=np.float64) ** 2, signs
    square = np.arange(radius + 1, dtype=np.int64) ** 2
    keys, weights = square, signs
    for _ in range(dim - 1):
        keys = np.add.outer(keys, square).ravel()
        weights = np.outer(weights, signs).ravel()
    r = np.bincount(keys, weights)  # integers below DUAL_SIZE_LIMIT, exact in float64
    n = np.flatnonzero(r)
    return n.astype(np.float64), r[n].astype(np.int64)


def summed_series(dual: GroupDual, envelope: tuple) -> tuple[float, dict]:
    """(exactly rounded sum of the terms ``dual.terms(*envelope)``, d^a <xi>^b
    e^{-s lambda} for ``envelope`` = (a, b, s), each counted ``dual.mult`` times;
    diagnostics).  The diagnostics are the dyadic bracket shell sums, the clipped
    trailing shell included, from the binned pass that gives the value; the tail
    past the slice, ``criteria.dual_tail_bound``; ``converged``, true exactly
    when that tail is finite; and, only where the series is summable but the
    bound leaves float64, a ``tail_note`` that says so."""
    _, shell_sums, value = block_sums(dual.shells, dual.terms(*envelope), dual.mult)
    tail = dual_tail_bound(dual.group, dual.dim, dual.cutoff, *envelope, dual.spin_step)
    diagnostics = {"shell_sums": shell_sums, "tail_estimate": tail, "converged": math.isfinite(tail)}
    if tail == math.inf and is_summable(dual.group, dual.dim, *envelope):
        diagnostics["tail_note"] = UNBOUNDED_TAIL_NOTE
    return value, diagnostics


def bessel_tail(cutoff: float, alpha: float) -> tuple[float, float]:
    """(correction, bound) for the Bessel terms 2 sum_{k > R} f(k), f(t) = (1 + t^2)^{-alpha/2},
    alpha > 1, that a torus dim-1 slice of radius R = floor(cutoff) omits: the midpoint
    integral 2 int_{R + 1/2}^inf f, and a bound on its distance from them.

    f is convex for t >= 1/sqrt(alpha + 1), so by Hermite-Hadamard the omitted sum lies in
    [2 int_{R + 1}^inf f + f(R + 1), 2 int_{R + 1/2}^inf f]; at R = 0 with alpha < 3, where
    f is concave near 1/2, the upper end is the larger of the correction and
    ``criteria.dual_tail_bound``.  The bound is the bracket's width, widened by the
    integrals' rounding and rounded up.
    """
    if alpha <= 1:
        raise ValueError("tail correction needs a convergent series (alpha > 1)")
    radius = math.floor(cutoff)
    correction = 2.0 * _bessel_integral(radius + 0.5, alpha)
    lower = 2.0 * _bessel_integral(radius + 1.0, alpha) + math.hypot(1.0, radius + 1.0) ** -alpha
    upper = correction
    if radius == 0 and alpha < 3:
        upper = max(correction, dual_tail_bound("torus", 1, cutoff, 2.0, -alpha, 0.0))
    rounding = (alpha + 64.0) * 2.0**-52 * (upper + lower)  # measured: (alpha + 2)/3 ulps
    return correction, math.nextafter(math.fsum([upper, -lower, rounding]), math.inf)


def _bessel_integral(x: float, alpha: float) -> float:
    """int_x^inf (1 + t^2)^{-alpha/2} dt, x >= 1/2, alpha > 1: with u = 1/(1 + x^2) and
    p = (alpha - 1)/2, (1/2) B(u; p, 1/2) = (u^p / 2) sum_n (1/2)_n / n! u^n / (p + n)
    (DLMF 8.17.7), every term positive.  (1/2)_n / n! never grows and 1/(p + n) falls,
    so the terms after one sum to at most it times u / (1 - u): the series stops once
    that is below 2^-54 of its sum (u <= 0.8: at most about 170 terms).  u^p is
    hypot(1, x)^(1 - alpha), finite at every finite x.  Over alpha in [1.0001, 100] and
    x from 1/2 to 1e7 the result is within (alpha + 2)/3 ulps of a 40-digit incomplete
    beta, where it does not underflow."""
    u = 1.0 / (1.0 + x * x)
    p = (alpha - 1.0) / 2.0
    term = total = 1.0 / p
    terms, scale, n = [term], 1.0, 0
    while term * u > (1.0 - u) * 2.0**-54 * total:
        n += 1
        scale *= u * (n - 0.5) / n
        term = scale / (p + n)
        terms.append(term)
        total += term
    return math.hypot(1.0, x) ** (1.0 - alpha) * math.fsum(terms) / 2.0
