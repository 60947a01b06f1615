"""Unitary duals of the torus and SU(2) as group records, and closed-form trace series.

A group is one record, ``Torus(dim)`` or ``SU2(half_integers)``, that holds what the
series code reads of it: its enumeration at a cutoff (``size``, ``rows`` (d, lam, mult)
and ``lambda_cap``, the eigenvalue below which the slice is complete), its
``dimension``, the exponents ``d_power`` and ``count_power`` of its summability rule
(``is_summable``) and the other constants of its tail bound (``tail_constants``).

Normalization (stated in every report header): the torus dual point xi in Z^n
carries dimension 1 and Laplacian eigenvalue |xi|^2, so the group bracket
(1 + lambda)^{1/2} coincides with the toroidal <xi>.  The SU(2) dual is indexed
by l in {0, 1/2, 1, 3/2, ...} with dimension 2l + 1 and eigenvalue l(l + 1);
``half_integers=False`` restricts to the integer spins, whose d are ``step`` 2 apart.

A ``GroupDual`` holds its record, its cutoff and arrays ``d``, ``lam`` and ``mult``, one
row per distinct eigenvalue, ascending, each row's term counted ``mult`` times: the
r(n) box points with |xi|^2 = n on the torus, one spin on SU(2) (an all-ones ``d`` or
``mult`` is a zero-stride view of one 1, not an array).  A series is its envelope (a, b, s), terms
d^a <xi>^b e^{-s lambda} of lambda and d alone, so their exactly rounded sums are those
of the per-point slice.  ``GroupDual.terms`` builds them in one buffer, over the rows
where e^{-s lambda} is not 0 only; ``summed_series`` sums them over the shell ``cuts``
and bounds the tail by ``dual_tail_bound``.  ``bessel_tail`` gives the dim-1 torus
Bessel series the midpoint integral of its tail in closed form, with a bound on its error.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .besov import block_sums

# Largest dual slice the CLI builds, counted in dual points (``dual_size``).
DUAL_SIZE_LIMIT = 10**7
UNBOUNDED_TAIL_NOTE = "the series is summable, but its tail bound leaves float64"
# shell j of the ascending lambda lies between edges j and j + 1: 4^j - 1, -inf and inf at the ends
_ONE = np.frombuffer(np.int64(1).tobytes(), dtype=np.int64)  # one 1, read-only: the all-ones views share it
_SHELL_EDGES = np.concatenate(([-math.inf], 4.0 ** np.arange(1, 27) - 1.0, [math.inf]))


class Torus:
    """The torus T^dim: xi in Z^dim with d = 1 and lambda = |xi|^2, sliced to the box
    |xi|_inf <= floor(cutoff), one row per distinct lambda."""

    name, d_power = "torus", 0

    def __init__(self, dim: int):
        self.dimension, self.count_power = dim, dim - 1

    def size(self, cutoff: float) -> int:
        return (2 * math.floor(cutoff) + 1) ** self.dimension

    def rows(self, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lam, mult = _radial_torus(self.dimension, math.floor(cutoff))
        return np.ndarray(lam.shape, np.int64, _ONE, 0, (0,)), lam, mult

    def lambda_cap(self, cutoff: float) -> float:
        return float(int(cutoff)) ** 2  # Euclidean ball inside the max-norm box

    def tail_constants(self, cutoff: float, b: float, s: float) -> tuple:
        return (math.floor(cutoff), int(s != 0), s, 0.0, 2.0 ** (2 * self.dimension - 1),
                1.0 if b <= 0 else (self.dimension + 1.0) ** -0.5, 1)


class SU2:
    """SU(2): spins l = 0, 1/2, 1, ... <= cutoff (the integers only unless ``half_integers``),
    d = 2l + 1 and lambda = l(l + 1), one row per spin."""

    name, dimension, d_power, count_power = "su2", 3, 1, 0

    def __init__(self, half_integers: bool):
        self.step = 1 if half_integers else 2  # between consecutive d

    def size(self, cutoff: float) -> int:
        return math.floor(2 * cutoff / self.step) + 1

    def rows(self, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        size = self.size(cutoff)
        l = np.arange(size, dtype=np.float64)  # lambda grows with l: counting order is sorted
        l *= self.step / 2
        d = np.arange(1, self.step * size + 1, self.step, dtype=np.int64)  # 2l + 1
        # l(l + 1) in place as (l + 1/2)^2 - 1/4: each step is exact below 2^53, so bit for bit
        lam = np.subtract(np.square(np.add(l, 0.5, out=l), out=l), 0.25, out=l)
        return d, lam, np.ndarray((size,), np.int64, _ONE, 0, (0,))

    def lambda_cap(self, cutoff: float) -> float:
        return cutoff * (cutoff + 1.0)

    def tail_constants(self, cutoff: float, b: float, s: float) -> tuple:
        return (math.floor(2 * cutoff) + 1, 1, s / 4.0, 1.0, 1.0, 2.0 if b < 0 else 1.0, self.step)


class GroupDual:
    def __init__(self, group: Torus | SU2, cutoff: float, d: np.ndarray, lam: np.ndarray, mult: np.ndarray):
        self.group, self.cutoff = group, cutoff
        self.d = d  # (N,) int64 representation dimension
        self.lam = lam  # (N,) float64 Laplacian eigenvalue
        self.mult = mult  # (N,) int64 number of dual points the row stands for

    def __len__(self) -> int:
        return self.lam.shape[0]

    def terms(self, a: float, b: float, s: float) -> np.ndarray:
        """Terms d^a <xi>^b e^{-s lambda}, <xi>^b = (1 + lambda)^{b/2}, inf past the float range: of every
        row, or for s > 0 of the rows with lambda <= 746/s, past which e^{-s lambda} and each term are
        exactly 0 so long as d^a <xi>^b (monotone along the rows, or at most 1) is finite at the last row."""
        head = len(self) if not s > 0 else int(np.searchsorted(self.lam, 746.0 / s, side="right"))
        if head < len(self) and not np.isfinite(self._fill(np.empty(1), slice(-1, None), a, b, 0.0)[0]):
            head = len(self)
        return self._fill(np.empty(head), slice(head), a, b, s)

    def _fill(self, out: np.ndarray, rows: slice, a: float, b: float, s: float) -> np.ndarray:
        """``out`` = d^a (1 + lambda)^{b/2} e^{-s lambda} over ``rows``, each factor not 1
        (d^a without ``d_power``, b = 0, s = 0) by its expression's ufuncs, in order: the first
        in ``out``, each later one in a second buffer that then multiplies it, bit for bit."""
        d, lam = self.d[rows], self.lam[rows]  # d + 0.0: the float d, as d.astype(np.float64)
        factors = [factor for used, factor in (
            (a != 0 and self.group.d_power, lambda part: operator.ipow(np.add(d, 0.0, out=part), a)),
            (b != 0, lambda part: operator.ipow(np.add(lam, 1.0, out=part), b / 2.0)),
            (s != 0, lambda part: np.exp(np.multiply(lam, -s, out=part), out=part))) if used]
        spare = np.empty_like(out) if len(factors) > 1 else None
        with np.errstate(over="ignore"):
            factors[0](out) if factors else out.fill(1.0)  # 1: the empty product
            for factor in factors[1:]:
                out *= factor(spare)
        return out

    @property
    def cuts(self) -> np.ndarray:
        """Dyadic bracket shell j, 4^j <= floor(lambda) + 1 < 4^{j+1}, is rows cuts[j]:cuts[j + 1]
        (a row stands for ``mult`` points).  As 4^j - 1 is an integer, these are
        ``np.searchsorted`` cuts of the ascending lambda at the edges 4^j - 1, exact doubles
        for j <= 26 (``DUAL_SIZE_LIMIT`` keeps lambda below 4^23).  The SU(2) spins
        l = 2^k - 1/2 have floor(lambda) = 4^k - 1, so the ``+ 1`` moves them up a shell."""
        return np.searchsorted(self.lam, _SHELL_EDGES)


def dual_size(group: Torus | SU2, cutoff: float):
    """Number of points ``enumerate_dual`` builds, from its arguments alone; inf
    when the cutoff, or the doubled cutoff the count floors, is not finite."""
    return group.size(cutoff) if math.isfinite(2 * cutoff) else math.inf


def enumerate_dual(group: Torus | SU2, cutoff) -> GroupDual:
    """Finite slice of ``group``'s unitary dual at a cutoff >= 0, ``group.rows(cutoff)``:
    one row per distinct Laplacian eigenvalue, ascending, ``dual_size`` points."""
    return GroupDual(group, cutoff, *group.rows(cutoff))


def _radial_torus(dim: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct n = |xi|^2 over the box |xi|_inf <= radius, ascending, with the number r(n) of box
    points on each.  A quarter-box point (a_i >= 0) stands for prod_i (2 - [a_i = 0]) sign choices, so
    r = sum_k C(dim, k) (-1)^(dim - k) 2^k c_k, c_k(n) the points of the k-dimensional quarter box on n
    (unweighted bincounts, exact integers).  In dim 1 the squares are distinct already."""
    if dim == 1:  # squares below 2^53 are exact in float64; 2 signs but at 0
        lam, mult = np.arange(radius + 1, dtype=np.float64), np.full(radius + 1, 2, dtype=np.int64)
        mult[0] = 1
        return np.square(lam, out=lam), mult
    square = np.arange(radius + 1, dtype=np.int64) ** 2
    lower = [np.zeros(1, dtype=np.int64)]  # the sums over the quarter boxes of dimension k < dim
    for _ in range(dim - 1):
        lower.append(np.add.outer(lower[-1], square).ravel())
    count = np.bincount(np.add.outer(lower[-1], square).ravel())
    n = np.flatnonzero(count > 0)  # on bools: on int64 numpy's nonzero takes 3 times as long
    r = count[n] * 2**dim
    for k, keys in enumerate(lower):
        np.add.at(r, np.searchsorted(n, keys), math.comb(dim, k) * (-1) ** (dim - k) * 2**k)
    return n.astype(np.float64), r


def is_summable(group: Torus | SU2, a: float, b: float, s: float) -> bool:
    """Whether sum d^a <xi>^b e^{-s lambda} over the whole dual is finite: s > 0, or s = 0 and
    q + b < -1, q = a d_power + count_power, as a group x of points (``dual_tail_bound``) has
    d^a = x^(a d_power) and at most x^count_power of them: b < -dim on Z^dim, a + b < -1 on SU(2)."""
    return s > 0 or s == 0 and a * group.d_power + group.count_power + b < -1


def dual_tail_bound(group: Torus | SU2, cutoff: float, a: float, b: float, s: float) -> float:
    """Upper bound on sum d^a <xi>^b e^{-s lambda} over the dual points of ``group``
    past the slice at ``cutoff``: |xi|_inf > floor(cutoff) on the torus Z^dim (d = 1,
    lambda = |xi|^2), l > cutoff on SU(2) (d = 2l + 1, lambda = (d^2 - 1)/4, l an
    integer when ``step`` = 2).  inf exactly when the series is not summable, or
    when the bound leaves float64.

    The points past the slice fall into groups x > X = edge: a torus max-norm
    shell (at most 2^{2 dim - 1} x^{dim - 1} points, lambda >= x^2, <xi>^2 <=
    (dim + 1) x^2), or d = x on SU(2) (x/2 < <xi> <= x; odd x over the integer
    spins, a step k = 2).  A group sums to at most h(x) = w x^q (x/rho)^b
    e^{-sigma (x^2 - tau)}, q = a d_power + count_power, with X, w, rho, sigma,
    tau and k from ``group.tail_constants``; h decreases past peak =
    sqrt(p/(2 sigma)), p = q + b.  The groups X < x <= start = max(X + 1,
    ceil(peak)) (odd when k = 2) are bounded by the largest, h at the larger of
    peak and x_1, the first of them (X + 2 for odd X when k = 2), the rest by 1/k
    times the integral of h from start: w rho^{-b} start^{p+1}/(-p - 1) when
    s = 0, else, by the concavity of log x and Abramowitz & Stegun 7.1.13,
    h(start)/(sqrt(sigma) (z + sqrt(z^2 + 4/pi))), z = sqrt(sigma) start -
    max(p, 0)/(2 sqrt(sigma) start).  A torus power law, whose envelope x^b
    meets its terms at the edge, takes start = max(X, 1): the integral from the
    edge itself.
    """
    edge, first, sigma, tau, weight, rho, step = group.tail_constants(cutoff, b, s)
    if not is_summable(group, a, b, s):
        return math.inf
    q = a * group.d_power + group.count_power
    p = q + b
    try:  # a bound beyond float64, or a point beyond it, reads inf
        peak = math.sqrt(p / (2.0 * sigma)) if s > 0 and p > 0 else 0.0
        start = max(edge + first, math.ceil(peak), 1)
        start += (1 - start) % step  # k = 2: the odd d past the slice

        def h(x):
            return weight * math.exp(q * math.log(x) + b * math.log(x / rho) - sigma * (x * x - tau))

        count = (start + step - 1) // step - (edge + step - 1) // step  # X < x <= start, x = 1 mod k
        head = count * h(max(peak, edge + 1 + (-edge) % step)) if count else 0.0
        if s == 0:
            power = start ** (p + 1) if rho == 1 else (start / rho) ** b * start ** (q + 1)
            return head + weight * power / (-p - 1) / step
        root = math.sqrt(sigma)
        z = root * start - max(p, 0.0) / (2.0 * root * start)
        return head + h(start) / (root * (z + math.sqrt(z * z + 4.0 / math.pi))) / step
    except OverflowError:
        return math.inf


def summed_series(dual: GroupDual, envelope: tuple) -> tuple[float, dict]:
    """(exactly rounded sum of the terms ``dual.terms(*envelope)``, d^a <xi>^b
    e^{-s lambda} for ``envelope`` = (a, b, s), each counted ``dual.mult`` times;
    diagnostics).  The diagnostics are the dyadic bracket shell sums, the clipped
    trailing shell included, from the binned pass that gives the value; the tail
    past the slice, ``dual_tail_bound``; ``converged``, true exactly
    when that tail is finite; and, only where the series is summable but the
    bound leaves float64, a ``tail_note`` that says so."""
    _, shell_sums, value = block_sums(dual.cuts, dual.terms(*envelope), dual.mult)
    tail = dual_tail_bound(dual.group, dual.cutoff, *envelope)
    diagnostics = {"shell_sums": shell_sums, "tail_estimate": tail, "converged": math.isfinite(tail)}
    if tail == math.inf and is_summable(dual.group, *envelope):
        diagnostics["tail_note"] = UNBOUNDED_TAIL_NOTE
    return value, diagnostics


def bessel_tail(cutoff: float, alpha: float) -> tuple[float, float]:
    """(correction, bound) for the Bessel terms 2 sum_{k > R} f(k), f(t) = (1 + t^2)^{-alpha/2},
    alpha > 1, that a torus dim-1 slice of radius R = floor(cutoff) omits: the midpoint
    integral 2 int_{R + 1/2}^inf f, and a bound on its distance from them.

    f is convex for t >= 1/sqrt(alpha + 1), so by Hermite-Hadamard the omitted sum lies in
    [2 int_{R + 1}^inf f + f(R + 1), 2 int_{R + 1/2}^inf f]; at R = 0 with alpha < 3, where
    f is concave near 1/2, the upper end is the larger of the correction and
    ``dual_tail_bound``.  The bound is the bracket's width, widened by the
    integrals' rounding and rounded up.
    """
    radius = math.floor(cutoff)
    correction = 2.0 * _bessel_integral(radius + 0.5, alpha)
    lower = 2.0 * _bessel_integral(radius + 1.0, alpha) + math.hypot(1.0, radius + 1.0) ** -alpha
    upper = correction
    if radius == 0 and alpha < 3:
        upper = max(correction, dual_tail_bound(Torus(1), cutoff, 2.0, -alpha, 0.0))
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
