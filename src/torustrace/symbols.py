"""Symbols a(x, xi) on T^n x Z^n and their finite calculus.

Two representations coexist:

* catalog symbols — separable closed forms ``u(x) * g(xi)`` whose difference
  quotients, x-derivatives and x-Fourier coefficients are all exact,
* sampled symbols — a complex table over grid x lattice; differences shrink
  the lattice, x-derivatives are spectral, x-Fourier coefficients come from
  the rectangle rule, evaluated by FFT over the x axes.

``x_fourier_support`` is where the x-Fourier support is defined: the eta at
which hat{a}(eta, .) can be nonzero.  Every consumer of x-Fourier data (the
decay constant here, ``quantize.compression`` and through it the matrix and
the quasi-norm certificate) evaluates ``x_fourier_table`` on those rows only.

Forward differences are used throughout:
``(D_j a)(x, xi) = a(x, xi + e_j) - a(x, xi)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .harmonic import FrequencyLattice, TWO_PI, box_points, grid_points
from .sums import fsum

NEG_INFINITY_ORDER = -math.inf


def _as_multi_index(alpha, dim: int) -> tuple[int, ...]:
    if isinstance(alpha, (int, np.integer)):
        alpha = (int(alpha),) + (0,) * (dim - 1)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"multi-index {alpha} does not match dimension {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index entries must be nonnegative, got {alpha}")
    return alpha


# ---------------------------------------------------------------------------
# x-factors: the x_1-dependent part of a separable symbol.  Each knows its
# exact derivatives, Fourier coefficients, sup norm and bandwidth.
# ---------------------------------------------------------------------------


class XFactor:
    def values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def derivative(self, order: int) -> "XFactor":
        raise NotImplementedError

    def fourier(self) -> dict[int, complex]:
        """Exact x-Fourier coefficients {eta_1: coefficient}."""
        raise NotImplementedError

    def sup_abs(self) -> float:
        raise NotImplementedError

    def bandwidth(self) -> int:
        return max((abs(k) for k in self.fourier()), default=0)


class UnitX(XFactor):
    def values(self, x):
        return np.ones(x.shape[0], dtype=np.complex128)

    def derivative(self, order):
        return self if order == 0 else ZeroX()

    def fourier(self):
        return {0: 1.0 + 0j}

    def sup_abs(self):
        return 1.0


class ZeroX(XFactor):
    def values(self, x):
        return np.zeros(x.shape[0], dtype=np.complex128)

    def derivative(self, order):
        return self

    def fourier(self):
        return {}

    def sup_abs(self):
        return 0.0


@dataclass
class CosineOffset(XFactor):
    """c + cos(2 pi x_1)."""

    c: float

    def values(self, x):
        return (self.c + np.cos(TWO_PI * x[:, 0])).astype(np.complex128)

    def derivative(self, order):
        if order == 0:
            return self
        return TrigShift((TWO_PI) ** order, order * math.pi / 2.0)

    def fourier(self):
        return {0: complex(self.c), 1: 0.5 + 0j, -1: 0.5 + 0j}

    def sup_abs(self):
        return max(abs(self.c + 1.0), abs(self.c - 1.0))


@dataclass
class TrigShift(XFactor):
    """amp * cos(2 pi x_1 + phase); closed under differentiation."""

    amp: float
    phase: float

    def values(self, x):
        return (self.amp * np.cos(TWO_PI * x[:, 0] + self.phase)).astype(np.complex128)

    def derivative(self, order):
        if order == 0:
            return self
        return TrigShift(self.amp * (TWO_PI) ** order, self.phase + order * math.pi / 2.0)

    def fourier(self):
        half = 0.5 * self.amp
        return {1: half * cmath.exp(1j * self.phase), -1: half * cmath.exp(-1j * self.phase)}

    def sup_abs(self):
        return abs(self.amp)


@dataclass
class CharacterX(XFactor):
    """scale * exp(i 2 pi k x_1)."""

    k: int = 1
    scale: complex = 1.0 + 0j

    def values(self, x):
        return self.scale * np.exp(1j * TWO_PI * self.k * x[:, 0])

    def derivative(self, order):
        if order == 0:
            return self
        return CharacterX(self.k, self.scale * (1j * TWO_PI * self.k) ** order)

    def fourier(self):
        return {self.k: complex(self.scale)}

    def sup_abs(self):
        return abs(self.scale)


# ---------------------------------------------------------------------------
# xi-factors: frequency dependence, evaluable at any integer point so that
# forward differences never run out of data on catalog symbols.
# ---------------------------------------------------------------------------


class XiFactor:
    def values(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class UnitXi(XiFactor):
    def values(self, xi):
        return np.ones(xi.shape[0], dtype=np.complex128)


@dataclass
class BracketPower(XiFactor):
    """<xi>^m."""

    m: float

    def values(self, xi):
        sq = np.sum(np.asarray(xi, dtype=np.float64) ** 2, axis=1)
        return ((1.0 + sq) ** (self.m / 2.0)).astype(np.complex128)


@dataclass
class GaussianDecay(XiFactor):
    """exp(-t |xi|^2)."""

    t: float

    def values(self, xi):
        sq = np.sum(np.asarray(xi, dtype=np.float64) ** 2, axis=1)
        return np.exp(-self.t * sq).astype(np.complex128)


@dataclass
class DifferencedXi(XiFactor):
    """Iterated forward difference of a base factor, by binomial expansion."""

    base: XiFactor
    alpha: tuple[int, ...]

    def values(self, xi):
        xi = np.asarray(xi, dtype=np.int64)
        total = np.zeros(xi.shape[0], dtype=np.complex128)
        for gamma, coef in _binomial_shifts(self.alpha):
            total = total + coef * self.base.values(xi + gamma)
        return total


def _binomial_shifts(alpha: tuple[int, ...]):
    """(gamma, coefficient) pairs of D^alpha a(xi) = sum_gamma coefficient a(xi + gamma),
    0 <= gamma <= alpha: signed products of binomial coefficients."""
    for gamma in product(*(range(a + 1) for a in alpha)):
        sign = (-1) ** (sum(alpha) - sum(gamma))
        yield np.asarray(gamma, dtype=np.int64), sign * math.prod(map(math.comb, alpha, gamma))


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class Symbol:
    """Common interface: pointwise values, x-sup per frequency, x-Fourier data."""

    dim: int
    claimed_order: float | None
    claimed_rho: float
    claimed_delta: float

    def values(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Table a(x_k, xi_l) of shape (K, L)."""
        raise NotImplementedError

    def x_sup_abs(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def x_bandwidth(self) -> int | None:
        """Largest |eta_1| carrying x-frequency content; None when unknown."""
        raise NotImplementedError


class SeparableSymbol(Symbol):
    """a(x, xi) = u(x) g(xi) with exact closed-form factors."""

    def __init__(
        self,
        xfactor: XFactor,
        xifactor: XiFactor,
        dim: int = 1,
        claimed_order: float | None = 0.0,
        claimed_rho: float = 1.0,
        claimed_delta: float = 0.0,
    ):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        self.xfactor = xfactor
        self.xifactor = xifactor
        self.dim = dim
        self.claimed_order = claimed_order
        self.claimed_rho = claimed_rho
        self.claimed_delta = claimed_delta

    def values(self, x, xi):
        return np.outer(self.xfactor.values(np.asarray(x)), self.xifactor.values(xi))

    def x_sup_abs(self, xi):
        return self.xfactor.sup_abs() * np.abs(self.xifactor.values(xi))

    def x_bandwidth(self):
        return self.xfactor.bandwidth()

    def x_fourier(self, eta, xi: np.ndarray) -> np.ndarray:
        """Exact hat{a}(eta, xi) for all xi; eta is a single integer vector."""
        eta = np.atleast_1d(np.asarray(eta, dtype=np.int64))
        coeffs = self.xfactor.fourier()
        if all(c == 0 for c in eta[1:]) and int(eta[0]) in coeffs:
            return coeffs[int(eta[0])] * self.xifactor.values(xi)
        return np.zeros(np.asarray(xi).shape[0], dtype=np.complex128)


class SampledSymbol(Symbol):
    """Symbol given as a complex table over grid x lattice (x-major order)."""

    def __init__(
        self,
        dim: int,
        grid_size: int,
        lattice: FrequencyLattice,
        table: np.ndarray,
        claimed_order: float | None = None,
        claimed_rho: float = 1.0,
        claimed_delta: float = 0.0,
    ):
        if dim != lattice.dim:
            raise ValueError("sampled symbol dim does not match its lattice")
        table = np.asarray(table, dtype=np.complex128)
        expected = (grid_size**dim, len(lattice))
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape}, expected {expected}")
        self.dim = dim
        self.grid_size = grid_size
        self.lattice = lattice
        self.table = table
        self.claimed_order = claimed_order
        self.claimed_rho = claimed_rho
        self.claimed_delta = claimed_delta

    def values(self, x, xi):
        cols = self.lattice.indices_of(xi)
        if np.asarray(x).shape[0] != self.table.shape[0]:
            raise ValueError("sampled symbols evaluate only on their native grid")
        return self.table[:, cols]

    def x_sup_abs(self, xi):
        return np.abs(self.table[:, self.lattice.indices_of(xi)]).max(axis=0)

    def x_bandwidth(self):
        return None

    def __add__(self, other: "SampledSymbol") -> "SampledSymbol":
        if (
            not isinstance(other, SampledSymbol)
            or self.grid_size != other.grid_size
            or self.lattice != other.lattice
        ):
            raise ValueError("can only add sampled symbols on identical grid and lattice")
        # S^m1_{rho1,delta1} + S^m2_{rho2,delta2} lies in S^max(m)_{min(rho),max(delta)}
        orders = (self.claimed_order, other.claimed_order)
        return SampledSymbol(
            self.dim, self.grid_size, self.lattice, self.table + other.table,
            claimed_order=None if None in orders else max(orders),
            claimed_rho=min(self.claimed_rho, other.claimed_rho),
            claimed_delta=max(self.claimed_delta, other.claimed_delta),
        )


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------


def bessel_symbol(m: float, dim: int = 1) -> SeparableSymbol:
    """Multiplier <xi>^m (m = -s gives the inverse Bessel potential of order s)."""
    return SeparableSymbol(UnitX(), BracketPower(m), dim, claimed_order=m)


def heat_symbol(t: float, dim: int = 1) -> SeparableSymbol:
    """Multiplier exp(-t |xi|^2); decays faster than any power."""
    if t <= 0:
        raise ValueError(f"heat symbol needs t > 0, got {t}")
    return SeparableSymbol(UnitX(), GaussianDecay(t), dim, claimed_order=NEG_INFINITY_ORDER)


def modulated_symbol(c: float, g: XiFactor, dim: int = 1,
                     order: float | None = None) -> SeparableSymbol:
    """(c + cos 2 pi x_1) * g(xi); order is g's order."""
    if order is None:
        if isinstance(g, BracketPower):
            order = g.m
        elif isinstance(g, GaussianDecay):
            order = NEG_INFINITY_ORDER
        elif isinstance(g, UnitXi):
            order = 0.0
    return SeparableSymbol(CosineOffset(c), g, dim, claimed_order=order)


def character_symbol(dim: int = 1, k: int = 1) -> SeparableSymbol:
    """exp(i 2 pi k x_1): pointwise modulation, frequency-independent."""
    return SeparableSymbol(CharacterX(k), UnitXi(), dim, claimed_order=0.0)


def multiplier_symbol(g: XiFactor, dim: int = 1, order: float | None = None) -> SeparableSymbol:
    """x-independent symbol g(xi)."""
    return SeparableSymbol(UnitX(), g, dim, claimed_order=order)


def sample_symbol(a: Symbol, grid_size: int, lattice: FrequencyLattice) -> SampledSymbol:
    """Tabulate any symbol into the sampled representation."""
    table = a.values(grid_points(a.dim, grid_size), lattice.points)
    return SampledSymbol(a.dim, grid_size, lattice, table, **_claims(a))


def _claims(a: Symbol, order_shift: float | None = None) -> dict:
    """The claims of a symbol derived from ``a``: rho and delta carried over, the
    order moved by ``order_shift`` (an unknown order stays unknown)."""
    order = a.claimed_order
    if order is not None and order_shift is not None:
        order += order_shift
    return {"claimed_order": order, "claimed_rho": a.claimed_rho, "claimed_delta": a.claimed_delta}


# ---------------------------------------------------------------------------
# Difference and derivative calculus
# ---------------------------------------------------------------------------


def difference_op(a: Symbol, alpha) -> Symbol:
    """Iterated forward difference D^alpha in the frequency variable.

    Sampled symbols shrink: the result lives on radius N - max(alpha) so every
    retained point still has its shifted neighbours inside the original table.
    """
    alpha = _as_multi_index(alpha, a.dim)
    if isinstance(a, SeparableSymbol):
        claims = _claims(a, -(a.claimed_rho * sum(alpha)))
        return SeparableSymbol(a.xfactor, DifferencedXi(a.xifactor, alpha), a.dim, **claims)
    if isinstance(a, SampledSymbol):
        new_radius = a.lattice.radius - max(alpha)
        if new_radius < 0:
            raise ValueError(
                f"difference margin exhausted: order {alpha} on lattice radius "
                f"{a.lattice.radius}"
            )
        new_lat = FrequencyLattice(a.dim, new_radius)
        table = np.zeros((a.table.shape[0], len(new_lat)), dtype=np.complex128)
        for gamma, coef in _binomial_shifts(alpha):
            table += coef * a.table[:, a.lattice.indices_of(new_lat.points + gamma)]
        claims = _claims(a, -(a.claimed_rho * sum(alpha)))
        return SampledSymbol(a.dim, a.grid_size, new_lat, table, **claims)
    raise TypeError(f"unsupported symbol type {type(a).__name__}")


def x_derivative(a: Symbol, beta) -> Symbol:
    """Partial derivative d^beta/dx^beta; exact for catalog symbols, spectral
    for sampled ones (band-limited assumption on the table)."""
    beta = _as_multi_index(beta, a.dim)
    if isinstance(a, SeparableSymbol):
        if any(b > 0 for b in beta[1:]):
            xf: XFactor = ZeroX()  # catalog x-factors depend on x_1 only
        else:
            xf = a.xfactor.derivative(beta[0])
        claims = _claims(a, a.claimed_delta * sum(beta))
        return SeparableSymbol(xf, a.xifactor, a.dim, **claims)
    if isinstance(a, SampledSymbol):
        m = a.grid_size
        shape = (m,) * a.dim + (len(a.lattice),)
        cube = a.table.reshape(shape)
        freqs = np.fft.fftfreq(m, d=1.0 / m)  # integer wavenumbers
        spectrum = np.fft.fftn(cube, axes=tuple(range(a.dim)))
        for axis, b in enumerate(beta):
            if b == 0:
                continue
            mult = (1j * TWO_PI * freqs) ** b
            shape_mult = [1] * (a.dim + 1)
            shape_mult[axis] = m
            spectrum = spectrum * mult.reshape(shape_mult)
        table = np.fft.ifftn(spectrum, axes=tuple(range(a.dim))).reshape(a.table.shape)
        claims = _claims(a, a.claimed_delta * sum(beta))
        return SampledSymbol(a.dim, a.grid_size, a.lattice, table, **claims)
    raise TypeError(f"unsupported symbol type {type(a).__name__}")


# ---------------------------------------------------------------------------
# x-Fourier coefficients of symbols
# ---------------------------------------------------------------------------


def x_fourier_support(a: Symbol, radius: int | None = None) -> np.ndarray:
    """The eta with |eta|_inf <= radius (no bound for None) where hat{a}(eta, .)
    can be nonzero, as an (S, dim) int64 array in lexicographic order.

    A separable symbol's are the on-axis points (k, 0, ...) for the keys k of
    its x-factor's coefficients; a sampled table's are the box of radius
    min(radius, M//2), the window ``x_fourier_table`` reports.
    """
    if isinstance(a, SeparableSymbol):
        keys = sorted(k for k in a.xfactor.fourier() if radius is None or abs(k) <= radius)
        support = np.zeros((len(keys), a.dim), dtype=np.int64)
        support[:, 0] = keys
        return support
    if isinstance(a, SampledSymbol):
        half = a.grid_size // 2
        return box_points(a.dim, half if radius is None else min(radius, half))
    raise TypeError(f"unsupported symbol type {type(a).__name__}")


def x_fourier_table(a: Symbol, etas: np.ndarray, lattice: FrequencyLattice) -> np.ndarray:
    """Table hat{a}(eta_r, xi_l) of shape (R, L) over explicit eta rows.

    A sampled symbol answers any lattice inside its table's: the lattice's
    columns are taken from the table and only those are transformed.  Eta
    outside the alias-free window |eta|_inf <= M//2 is outside the admissible
    difference range and reported as 0.  Rows off ``x_fourier_support`` are 0,
    so callers ask for those rows only.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=np.int64))
    if isinstance(a, SeparableSymbol):
        # only rows eta = (k, 0, ...) with k in the x-factor's support are nonzero
        out = np.zeros((etas.shape[0], len(lattice)), dtype=np.complex128)
        g = a.xifactor.values(lattice.points)
        on_axis = np.all(etas[:, 1:] == 0, axis=1)
        for k, coef in a.xfactor.fourier().items():
            out[on_axis & (etas[:, 0] == k)] = coef * g
        return out
    if isinstance(a, SampledSymbol):
        if lattice.dim != a.dim or lattice.radius > a.lattice.radius:
            raise ValueError(
                f"sampled symbol is tabulated on lattice radius {a.lattice.radius} "
                f"(dim {a.lattice.dim}), which does not hold the requested radius "
                f"{lattice.radius} (dim {lattice.dim}); request at most radius {a.lattice.radius}"
            )
        m = a.grid_size
        columns = a.table if lattice == a.lattice else a.table[:, a.lattice.indices_of(lattice.points)]
        cube = columns.reshape((m,) * a.dim + (len(lattice),))
        spectrum = np.fft.fftn(cube, axes=tuple(range(a.dim)), norm="forward")
        out = spectrum[tuple((etas % m).T)]
        out[np.abs(etas).max(axis=1) > m // 2] = 0
        return out
    raise TypeError(f"unsupported symbol type {type(a).__name__}")


# ---------------------------------------------------------------------------
# Empirical order fit and Fourier decay constant
# ---------------------------------------------------------------------------


def estimate_order(
    a: Symbol, alpha, beta, lattice: FrequencyLattice
) -> tuple[float, float]:
    """Fit sup_x |D^alpha d^beta a(x, xi)| ~ C <xi>^m over lattice shells.

    Returns (m_hat, C_hat) from a log-log least-squares fit of shell-wise
    suprema against the bracket, excluding the flat region <xi> < 2.  The
    all-zero case reports order -inf.  Suprema that overflow float64 (a large
    order, difference or derivative) are refused with OverflowError; nan
    entries of a table are fitted as they are.
    """
    if lattice.radius < 8:
        raise ValueError(f"estimate_order needs lattice radius >= 8, got {lattice.radius}")
    try:
        with np.errstate(over="raise"):
            b = difference_op(x_derivative(a, beta), alpha)
            work_lattice = b.lattice if isinstance(b, SampledSymbol) else lattice
            pts = work_lattice.points
            sups = np.asarray(b.x_sup_abs(pts), dtype=np.float64)
    except (FloatingPointError, OverflowError) as exc:
        raise OverflowError(
            f"the order fit's suprema sup_x |D^alpha d^beta a(x, xi)| at alpha={alpha}, "
            f"beta={beta} overflow float64"
        ) from exc
    sq = np.sum(pts.astype(np.int64) ** 2, axis=1)
    # exact integer shells isqrt(|xi|^2): the float root is off by at most one
    shell = np.sqrt(sq).astype(np.int64)
    shell -= shell * shell > sq
    shell += (shell + 1) * (shell + 1) <= sq
    # per shell the first point, in lattice order, of the largest supremum; a
    # shell whose first point is nan keeps it (nothing compares greater)
    order = np.lexsort((-sups, shell))
    starts = np.flatnonzero(np.r_[True, np.diff(shell[order]) != 0])
    best, first = order[starts], np.minimum.reduceat(order, starts)
    best = np.where(np.isnan(sups[first]), first, best)
    xs, ys = [], []
    for s2, v in zip(sq[best].tolist(), sups[best].tolist()):
        bracket = math.sqrt(1.0 + float(s2))
        if bracket < 2.0 or v <= 0.0:
            continue
        xs.append(math.log(bracket))
        ys.append(math.log(v))
    if not xs:
        return NEG_INFINITY_ORDER, 0.0
    if len(xs) == 1:
        return 0.0, math.exp(ys[0])
    n = len(xs)
    sx, sy = fsum(xs), fsum(ys)
    sxx = fsum(x * x for x in xs)
    sxy = fsum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return float(slope), float(math.exp(intercept))


def fourier_decay_constant(
    a: Symbol, k: int, m: float, delta: float, lattice: FrequencyLattice
) -> float:
    """Empirical constant sup |hat{a}(eta, xi)| <eta>^{2k} <xi>^{-(m + 2k delta)}.

    A finite, radius-stable value certifies the expected x-Fourier decay of a
    symbol of order m and x-roughness delta with 2k derivatives in x.  Only
    the rows on ``x_fourier_support`` are weighted; a value that overflows
    float64 is refused (ValueError), not reported.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    support = x_fourier_support(a, lattice.radius)
    table = np.abs(x_fourier_table(a, support, lattice))
    eta_brackets = np.sqrt(1.0 + np.sum(support**2, axis=1).astype(np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        eta_w = eta_brackets ** (2 * k)
        xi_w = lattice.brackets() ** (-(m + 2 * k * delta))
        weighted = eta_w[:, None] * table * xi_w[None, :]
        constant = float(weighted.max(initial=0.0))
    if not math.isfinite(constant):
        raise ValueError(
            f"the decay constant at k={k}, m={m}, delta={delta} is {constant}, not a finite "
            "float64: the weights <eta>^(2k) <xi>^-(m + 2k delta) overflow; lower k or raise m"
        )
    return constant
