"""Symbols a(x, xi) on T^n x Z^n and their finite calculus.

Two representations coexist:

* catalog symbols — separable closed forms ``u(x) * g(xi)`` whose difference
  quotients, x-derivatives and x-Fourier coefficients are all exact.  The
  x-factor u is a ``TrigPolynomial``, held as its Fourier coefficients
  {k: c_k}; its values, derivatives and x-Fourier rows are read from them, and
  its sup norm is sum |c_k|, exact for every catalog factor (1, c + cos 2 pi
  x_1, a character, and their derivatives) and an upper bound in general,
* sampled symbols — a complex table over grid x lattice; differences shrink
  the lattice, x-derivatives are spectral, x-Fourier coefficients come from
  the rectangle rule, evaluated by FFT over the x axes.

``x_fourier_support`` is where the x-Fourier support is defined: the eta at
which hat{a}(eta, .) can be nonzero.  Every consumer of x-Fourier data (the
decay constant here, ``quantize.CompressedOperator`` and through it every
matrix, spectrum and trace, and the quasi-norm certificate) evaluates
``x_fourier_table`` on those rows only.

Forward differences are used throughout:
``(D_j a)(x, xi) = a(x, xi + e_j) - a(x, xi)``.
"""

from __future__ import annotations

import math
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
# x-factors: the x_1-dependent part of a separable symbol, held as its Fourier
# coefficients; values, derivatives and sup norm follow from them.
# ---------------------------------------------------------------------------


class TrigPolynomial:
    """u(x) = sum_k c_k exp(i 2 pi k x_1), held as ``coeffs`` = {k: c_k}."""

    def __init__(self, coeffs: dict[int, complex]):
        self.coeffs = coeffs

    def values(self, x: np.ndarray) -> np.ndarray:
        total = np.zeros(x.shape[0], dtype=np.complex128)
        for k, c in self.coeffs.items():
            total += c * np.exp(1j * TWO_PI * k * x[:, 0])
        return total

    def derivative(self, order: int) -> "TrigPolynomial":
        if order == 0:
            return self
        unit = 1j ** (order % 4)  # i^order, exact at any order
        return TrigPolynomial(
            {k: c * unit * (TWO_PI * k) ** order for k, c in self.coeffs.items() if k != 0}
        )

    def sup_abs(self) -> float:
        """sum |c_k|: exact for every catalog factor, an upper bound in general."""
        return math.fsum(abs(c) for c in self.coeffs.values())


# ---------------------------------------------------------------------------
# xi-factors: frequency dependence, evaluable at any integer point so that
# forward differences never run out of data on catalog symbols.
# ---------------------------------------------------------------------------


class XiFactor:
    def values(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BracketPower(XiFactor):
    """<xi>^m."""

    def __init__(self, m: float):
        self.m = m

    def values(self, xi):
        sq = np.sum(np.asarray(xi, dtype=np.float64) ** 2, axis=1)
        return ((1.0 + sq) ** (self.m / 2.0)).astype(np.complex128)


class GaussianDecay(XiFactor):
    """exp(-t |xi|^2)."""

    def __init__(self, t: float):
        self.t = t

    def values(self, xi):
        sq = np.sum(np.asarray(xi, dtype=np.float64) ** 2, axis=1)
        return np.exp(-self.t * sq).astype(np.complex128)


class DifferencedXi(XiFactor):
    """Iterated forward difference of a base factor, by binomial expansion."""

    def __init__(self, base: XiFactor, alpha: tuple[int, ...]):
        self.base = base
        self.alpha = alpha

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


class SeparableSymbol(Symbol):
    """a(x, xi) = u(x) g(xi) with exact closed-form factors."""

    def __init__(
        self,
        xfactor: TrigPolynomial,
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


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------


def bessel_symbol(m: float, dim: int = 1) -> SeparableSymbol:
    """Multiplier <xi>^m (m = -s gives the inverse Bessel potential of order s)."""
    return SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), BracketPower(m), dim, claimed_order=m)


def heat_symbol(t: float, dim: int = 1) -> SeparableSymbol:
    """Multiplier exp(-t |xi|^2); decays faster than any power."""
    if t <= 0:
        raise ValueError(f"heat symbol needs t > 0, got {t}")
    return SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), GaussianDecay(t), dim,
                           claimed_order=NEG_INFINITY_ORDER)


def modulated_symbol(c: float, g: XiFactor, dim: int = 1) -> SeparableSymbol:
    """(c + cos 2 pi x_1) * g(xi), claiming g's order.  A Gaussian exp(-t |xi|^2)
    has order -inf for t > 0 and 0 at t = 0 (g = 1); for t < 0 it grows faster
    than any power, so no order is claimed."""
    order = None
    if isinstance(g, BracketPower):
        order = g.m
    elif isinstance(g, GaussianDecay):
        order = NEG_INFINITY_ORDER if g.t > 0 else 0.0 if g.t == 0 else None
    u = TrigPolynomial({0: complex(c), 1: 0.5 + 0j, -1: 0.5 + 0j})
    return SeparableSymbol(u, g, dim, claimed_order=order)


def character_symbol(dim: int = 1) -> SeparableSymbol:
    """exp(i 2 pi x_1): pointwise modulation, frequency-independent."""
    return SeparableSymbol(TrigPolynomial({1: 1.0 + 0j}), BracketPower(0.0), dim,
                           claimed_order=0.0)


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
    for sampled ones (band-limited assumption on the table); beta = 0 gives ``a``."""
    beta = _as_multi_index(beta, a.dim)
    if not any(beta):
        return a
    if isinstance(a, SeparableSymbol):
        # catalog x-factors depend on x_1 only
        xf = TrigPolynomial({}) if any(beta[1:]) else a.xfactor.derivative(beta[0])
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
        keys = sorted(k for k in a.xfactor.coeffs if radius is None or abs(k) <= radius)
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
    so callers ask for those rows only.  A catalog entry beyond float64 reads
    inf or nan, without numpy's warning; ``quantize.CompressedOperator``
    refuses such a table.
    """
    etas = np.atleast_2d(np.asarray(etas, dtype=np.int64))
    if isinstance(a, SeparableSymbol):
        # only rows eta = (k, 0, ...) with k in the x-factor's support are nonzero
        out = np.zeros((etas.shape[0], len(lattice)), dtype=np.complex128)
        on_axis = np.all(etas[:, 1:] == 0, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # entries beyond float64 read inf or nan
            g = a.xifactor.values(lattice.points)
            for k, coef in a.xfactor.coeffs.items():
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
