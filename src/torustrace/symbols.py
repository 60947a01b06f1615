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

Both answer the same calculus as methods (``difference``, ``x_derivative``,
``x_fourier_support``, ``x_fourier_table``), so no module outside this one asks
which kind a symbol is.  ``x_fourier_support`` is where the x-Fourier support
is defined: the eta, up to a radius (none for None), at which hat{a}(eta, .)
can be nonzero, as an (S, dim) int64 array in lexicographic order.  Every
consumer of x-Fourier data (the decay constant here,
``quantize.CompressedOperator`` and through it every matrix, spectrum and
trace, and the quasi-norm certificate) evaluates ``x_fourier_table``, the table
hat{a}(eta_r, xi_l) of shape (R, L), on those rows only.

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
    return tuple(int(a) for a in alpha)


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
# forward differences never run out of data on catalog symbols.  Each carries
# its claimed ``order`` and its tail ``envelope`` (b, s), |g| <= <xi>^b e^{-s|xi|^2}.
# ---------------------------------------------------------------------------


class BracketPower:
    """<xi>^m."""

    def __init__(self, m: float):
        self.order = m
        self.envelope = (m, 0.0)

    def values(self, xi):
        sq = np.sum(np.asarray(xi, dtype=np.float64) ** 2, axis=1)
        return ((1.0 + sq) ** (self.order / 2.0)).astype(np.complex128)


class GaussianDecay:
    """exp(-t |xi|^2): order -inf for t > 0 and 0 at t = 0 (g = 1); for t < 0 it
    grows faster than any power, so no order is claimed."""

    def __init__(self, t: float):
        self.t = t
        self.order = NEG_INFINITY_ORDER if t > 0 else 0.0 if t == 0 else None
        self.envelope = (0.0, t)

    def values(self, xi):
        sq = np.sum(np.asarray(xi, dtype=np.float64) ** 2, axis=1)
        return np.exp(-self.t * sq).astype(np.complex128)


class DifferencedXi:
    """Iterated forward difference of a base factor, by binomial expansion."""

    order = envelope = None

    def __init__(self, base, alpha: tuple[int, ...]):
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


class SeparableSymbol:
    """a(x, xi) = u(x) g(xi) with exact closed-form factors."""

    radius = math.inf  # the frequencies it is known at: all of them

    def __init__(
        self,
        xfactor: TrigPolynomial,
        xifactor,
        dim: int = 1,
        claimed_order: float | None = 0.0,
        claimed_rho: float = 1.0,
        claimed_delta: float = 0.0,
    ):
        self.xfactor = xfactor
        self.xifactor = xifactor
        self.dim = dim
        self.claimed_order = claimed_order
        self.claimed_rho = claimed_rho
        self.claimed_delta = claimed_delta
        # (C, b, s) with |hat{a}(0, xi)| <= C <xi>^b e^{-s|xi|^2}, or None
        envelope = xifactor.envelope
        self.trace_envelope = None if envelope is None else (abs(xfactor.coeffs.get(0, 0.0)), *envelope)

    def values(self, x, xi):
        """Table a(x_k, xi_l) of shape (K, L)."""
        return np.outer(self.xfactor.values(np.asarray(x)), self.xifactor.values(xi))

    def x_sup_abs(self, xi):
        return self.xfactor.sup_abs() * np.abs(self.xifactor.values(xi))

    def difference(self, alpha) -> SeparableSymbol:
        alpha = _as_multi_index(alpha, self.dim)
        claims = _claims(self, -(self.claimed_rho * sum(alpha)))
        return SeparableSymbol(self.xfactor, DifferencedXi(self.xifactor, alpha), self.dim, **claims)

    def x_derivative(self, beta) -> SeparableSymbol:
        """Exact: the x-factor's derivative."""
        beta = _as_multi_index(beta, self.dim)
        if not any(beta):
            return self
        # catalog x-factors depend on x_1 only
        xf = TrigPolynomial({}) if any(beta[1:]) else self.xfactor.derivative(beta[0])
        claims = _claims(self, self.claimed_delta * sum(beta))
        return SeparableSymbol(xf, self.xifactor, self.dim, **claims)

    def x_fourier_support(self, radius: int | None = None) -> np.ndarray:
        """The on-axis points (k, 0, ...), |k| <= radius, for the keys k of the
        x-factor's coefficients."""
        keys = sorted(k for k in self.xfactor.coeffs if radius is None or abs(k) <= radius)
        support = np.zeros((len(keys), self.dim), dtype=np.int64)
        support[:, 0] = keys
        return support

    def x_fourier_table(self, etas: np.ndarray, lattice: FrequencyLattice) -> np.ndarray:
        """Exact: rows eta = (k, 0, ...) hold c_k g(xi), the rest 0."""
        etas = np.atleast_2d(np.asarray(etas, dtype=np.int64))
        out = np.zeros((etas.shape[0], len(lattice)), dtype=np.complex128)
        on_axis = np.all(etas[:, 1:] == 0, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # entries beyond float64 read inf or nan
            g = self.xifactor.values(lattice.points)
            for k, coef in self.xfactor.coeffs.items():
                out[on_axis & (etas[:, 0] == k)] = coef * g
        return out


class SampledSymbol:
    """Symbol given as a complex table over grid x lattice (x-major order)."""

    trace_envelope = None  # a table has no decay envelope past its radius

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
        self.dim = dim
        self.grid_size = grid_size
        self.lattice = lattice
        self.radius = lattice.radius
        self.table = np.asarray(table, dtype=np.complex128)
        self.claimed_order = claimed_order
        self.claimed_rho = claimed_rho
        self.claimed_delta = claimed_delta

    def x_sup_abs(self, xi):
        return np.abs(self.table[:, self.lattice.indices_of(xi)]).max(axis=0)

    def difference(self, alpha) -> SampledSymbol:
        """The table shrinks: the result lives on radius N - max(alpha), so every
        retained point still has its shifted neighbours inside the original table;
        max(alpha) <= N."""
        alpha = _as_multi_index(alpha, self.dim)
        new_lat = FrequencyLattice(self.dim, self.lattice.radius - max(alpha))
        table = np.zeros((self.table.shape[0], len(new_lat)), dtype=np.complex128)
        for gamma, coef in _binomial_shifts(alpha):
            table += coef * self.table[:, self.lattice.indices_of(new_lat.points + gamma)]
        claims = _claims(self, -(self.claimed_rho * sum(alpha)))
        return SampledSymbol(self.dim, self.grid_size, new_lat, table, **claims)

    def x_derivative(self, beta) -> SampledSymbol:
        """Spectral, under the band-limited assumption on the table."""
        beta = _as_multi_index(beta, self.dim)
        if not any(beta):
            return self
        m = self.grid_size
        shape = (m,) * self.dim + (len(self.lattice),)
        cube = self.table.reshape(shape)
        freqs = np.fft.fftfreq(m, d=1.0 / m)  # integer wavenumbers
        spectrum = np.fft.fftn(cube, axes=tuple(range(self.dim)))
        for axis, b in enumerate(beta):
            if b == 0:
                continue
            mult = (1j * TWO_PI * freqs) ** b
            shape_mult = [1] * (self.dim + 1)
            shape_mult[axis] = m
            spectrum = spectrum * mult.reshape(shape_mult)
        table = np.fft.ifftn(spectrum, axes=tuple(range(self.dim))).reshape(self.table.shape)
        claims = _claims(self, self.claimed_delta * sum(beta))
        return SampledSymbol(self.dim, self.grid_size, self.lattice, table, **claims)

    def x_fourier_support(self, radius: int | None = None) -> np.ndarray:
        """The box of radius min(radius, M//2), the window ``x_fourier_table`` reports."""
        half = self.grid_size // 2
        return box_points(self.dim, half if radius is None else min(radius, half))

    def x_fourier_table(self, etas: np.ndarray, lattice: FrequencyLattice) -> np.ndarray:
        """The rectangle rule, by FFT over the x axes, for any lattice inside the
        table's: the lattice's columns are taken from the table and only those are
        transformed (``indices_of`` raises KeyError for a lattice outside it).  Eta
        outside the alias-free window |eta|_inf <= M//2 is outside the admissible
        difference range and reported as 0."""
        etas = np.atleast_2d(np.asarray(etas, dtype=np.int64))
        m = self.grid_size
        columns = self.table if lattice == self.lattice else self.table[:, self.lattice.indices_of(lattice.points)]
        cube = columns.reshape((m,) * self.dim + (len(lattice),))
        spectrum = np.fft.fftn(cube, axes=tuple(range(self.dim)), norm="forward")
        out = spectrum[tuple((etas % m).T)]
        out[np.abs(etas).max(axis=1) > m // 2] = 0
        return out


Symbol = SeparableSymbol | SampledSymbol


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------


def bessel_symbol(m: float, dim: int = 1) -> SeparableSymbol:
    """Multiplier <xi>^m (m = -s gives the inverse Bessel potential of order s)."""
    return SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), BracketPower(m), dim, claimed_order=m)


def heat_symbol(t: float, dim: int = 1) -> SeparableSymbol:
    """Multiplier exp(-t |xi|^2), claiming ``GaussianDecay(t).order``: for t > 0 it
    decays faster than any power."""
    g = GaussianDecay(t)
    return SeparableSymbol(TrigPolynomial({0: 1.0 + 0j}), g, dim, claimed_order=g.order)


def modulated_symbol(c: float, g: BracketPower | GaussianDecay, dim: int = 1) -> SeparableSymbol:
    """(c + cos 2 pi x_1) * g(xi), claiming g's order."""
    u = TrigPolynomial({0: complex(c), 1: 0.5 + 0j, -1: 0.5 + 0j})
    return SeparableSymbol(u, g, dim, claimed_order=g.order)


def character_symbol(dim: int = 1) -> SeparableSymbol:
    """exp(i 2 pi x_1): pointwise modulation, frequency-independent."""
    return SeparableSymbol(TrigPolynomial({1: 1.0 + 0j}), BracketPower(0.0), dim,
                           claimed_order=0.0)


def sample_symbol(a: SeparableSymbol, grid_size: int, lattice: FrequencyLattice) -> SampledSymbol:
    """Tabulate a catalog symbol into the sampled representation."""
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
    entries of a table are fitted as they are.  A sampled table of radius N
    takes a lattice radius R <= N and is fitted over |xi|_inf <= min(R, N -
    max alpha), where its difference is known.
    """
    try:
        with np.errstate(over="raise"):
            b = a.x_derivative(beta).difference(alpha)
            pts = FrequencyLattice(a.dim, min(lattice.radius, b.radius)).points
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
    float64 is refused (OverflowError), not reported.
    """
    support = a.x_fourier_support(lattice.radius)
    table = np.abs(a.x_fourier_table(support, lattice))
    eta_brackets = np.sqrt(1.0 + np.sum(support**2, axis=1).astype(np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        eta_w = eta_brackets ** (2 * k)
        xi_w = lattice.brackets() ** (-(m + 2 * k * delta))
        weighted = eta_w[:, None] * table * xi_w[None, :]
        constant = float(weighted.max(initial=0.0))
    if not math.isfinite(constant):
        raise OverflowError(
            f"the decay constant at k={k}, m={m}, delta={delta} is {constant}, not a finite "
            "float64: the weights <eta>^(2k) <xi>^-(m + 2k delta) overflow"
        )
    return constant
