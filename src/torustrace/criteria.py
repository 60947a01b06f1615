"""Executable sufficient-condition checkers for r-nuclearity, and the numeric
quasi-norm bound coming from the canonical rank-one decomposition
T_a f = sum_xi fhat(xi) H_xi with H_xi(x) = e^{i2pi<x,xi>} a(x, xi).

Three checkers are exposed:

* ``check_t1`` — symbol-order criterion on the torus: 0 <= w2 < 2k - n and
  m < -n/r - w2 - delta 2k make T_a r-nuclear between dyadic-norm spaces.
* ``check_t2`` — negative-target-weight variants: either w2 < -n/2 with
  m <= -delta 2k and k > n/4 (nuclear), or w2 <= 0 with m < -n/r - delta 2k
  and k > n/2 (r-nuclear).
* ``check_tt1`` — multiplier criterion on a compact-group dual: one of four
  (p, q)-dependent series over the dual must converge.

Strict inequalities are checked strictly; a failure at equality is reported as
such.  Series convergence is certified numerically: geometric decay of dyadic
shell sums (ratio <= 0.9 over the last 4 shells) or an integral-test bound for
pure power-law terms, and the rule used is reported with the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .besov import BesovParams, besov_norm, block_index, block_sums
from .harmonic import (
    FrequencyLattice,
    PeriodicFunction,
    TWO_PI,
    forward_transform,
    min_grid_size,
)
from .sums import fsum
from .symbols import SampledSymbol, Symbol

SHELL_RATIO_LIMIT = 0.9
SHELL_RATIO_COUNT = 4


# ---------------------------------------------------------------------------
# Verdict plumbing
# ---------------------------------------------------------------------------


@dataclass
class Clause:
    """One inequality of a criterion with both sides evaluated."""

    description: str
    lhs: float
    op: str  # "<", "<=", ">", ">=", "==", "int"
    rhs: float

    def holds(self) -> bool:
        if self.op == "<":
            return self.lhs < self.rhs
        if self.op == "<=":
            return self.lhs <= self.rhs
        if self.op == ">":
            return self.lhs > self.rhs
        if self.op == ">=":
            return self.lhs >= self.rhs
        if self.op == "==":
            return self.lhs == self.rhs
        if self.op == "int":
            return float(self.lhs).is_integer()
        raise ValueError(f"unknown relation {self.op!r}")

    def render(self) -> str:
        note = ""
        if self.op in ("<", ">") and self.lhs == self.rhs:
            note = " (fails at equality)"
        return f"{self.description}: {self.lhs:.9g} {self.op} {self.rhs:.9g} is false{note}"


@dataclass
class SeriesWitness:
    """Partial sums of the governing series plus the certification verdict."""

    series: str
    labels: list[float]
    partial_sums: list[float]
    tail_estimate: float
    certified: bool
    rule: str
    note: str = ""


@dataclass
class CriterionVerdict:
    satisfied: bool
    derived_params: dict[str, float | str]
    witness: SeriesWitness | None
    violated_clauses: list[Clause] = field(default_factory=list)


def _failures(clauses: list[Clause]) -> list[Clause]:
    return [c for c in clauses if not c.holds()]


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------


def epsilon(t: float) -> float:
    """L^p decay exponent of representation entries: 1/2 on (1, 2], 1/t beyond."""
    if t <= 1.0:
        raise ValueError(f"epsilon is defined for t > 1, got {t}")
    if t <= 2.0:
        return 0.5
    return 1.0 / t


def _epsilon_ext(t: float) -> float:
    # entrywise L^1 norms are dominated by L^2 ones, extending the exponent to t = 1
    if t == 1.0:
        return 0.5
    return epsilon(t)


def lr_seminorm(a: np.ndarray, r: float) -> float:
    """Entrywise l^r seminorm (sum |a_ij|^r)^{1/r}, 0 < r <= 1."""
    if not (0.0 < r <= 1.0):
        raise ValueError(f"r must lie in (0, 1], got {r}")
    a = np.asarray(a)
    total = fsum(np.abs(a).ravel().astype(np.float64) ** r)
    return float(total ** (1.0 / r))


# ---------------------------------------------------------------------------
# Series witnesses
# ---------------------------------------------------------------------------


def _lattice_power_sums(n: int, exponent: float, radii: list[int]) -> list[float]:
    """Partial sums of sum_{|xi|_inf <= R} <xi>^exponent."""
    out = []
    for radius in radii:
        lat = FrequencyLattice(n, radius)
        out.append(fsum(lat.brackets() ** exponent))
    return out


def _power_tail_bound(n: int, exponent: float, radius: int) -> float:
    """Integral-test bound on sum_{|xi|_inf > R} <xi>^exponent (finite iff exponent < -n)."""
    if exponent >= -n:
        return math.inf
    if n == 1:
        return 2.0 * radius ** (exponent + 1) / (-exponent - 1)
    # max-norm shell s holds 8s points and <xi> >= s on it
    return 8.0 * radius ** (exponent + 2) / (-exponent - 2)


def _power_series_witness(n: int, exponent: float, label: str) -> SeriesWitness:
    radii = [4, 8, 16, 32, 64] if n == 1 else [2, 4, 8, 16]
    sums = _lattice_power_sums(n, exponent, radii)
    tail = _power_tail_bound(n, exponent, radii[-1])
    return SeriesWitness(
        series=label,
        labels=[float(r) for r in radii],
        partial_sums=sums,
        tail_estimate=tail,
        certified=exponent < -n,
        rule="integral-test(power-law)",
    )


def _complete_shell_sums(shells: np.ndarray, terms: np.ndarray, lambda_cap: float):
    """(labels, sums) of the bracket shells j wholly inside a truncation complete up
    to lambda_cap (4^{j+1} <= 1 + lambda_cap): a clipped shell could fake decay."""
    keep = shells < block_index(math.floor(lambda_cap), "bracket")
    labels, sums = block_sums(shells[keep], terms[keep])
    return [float(j) for j in labels], sums


def shell_ratios(shell_sums: list[float]) -> list[float]:
    """Consecutive shell-sum ratios; 0/0 reads 0 and x/0 reads inf."""
    pairs = zip(shell_sums, shell_sums[1:])
    return [cur / prev if prev else (math.inf if cur else 0.0) for prev, cur in pairs]


def certify_shell_sums(shell_sums: list[float]) -> tuple[bool, float, float]:
    """Geometric-ratio certificate on dyadic shell sums.

    Returns (certified, tail_estimate, worst_recent_ratio).  Certified means
    the last SHELL_RATIO_COUNT consecutive ratios all sit at or below
    SHELL_RATIO_LIMIT; the tail is then bounded by the geometric remainder.
    """
    if not shell_sums or fsum(shell_sums) == 0.0:
        return True, 0.0, 0.0
    ratios = shell_ratios(shell_sums)
    if len(ratios) < SHELL_RATIO_COUNT:
        return False, math.inf, math.inf
    recent = ratios[-SHELL_RATIO_COUNT:]
    worst = max(recent)
    if worst <= SHELL_RATIO_LIMIT:  # < 1, so the geometric remainder is finite
        return True, shell_sums[-1] * worst / (1.0 - worst), worst
    return False, math.inf, worst


# ---------------------------------------------------------------------------
# Criterion checkers
# ---------------------------------------------------------------------------


def _common_t_clauses(n, r, alpha, p1, delta, p2, q2) -> list[Clause]:
    return [
        Clause("dimension n >= 1", n, ">=", 1),
        Clause("summability index r > 0", r, ">", 0.0),
        Clause("summability index r <= 1", r, "<=", 1.0),
        Clause("alpha > 0", alpha, ">", 0.0),
        Clause("alpha <= 1/2", alpha, "<=", 0.5),
        Clause("p1 > 1", p1, ">", 1.0),
        Clause("p1 <= 2", p1, "<=", 2.0),
        Clause("delta >= 0", delta, ">=", 0.0),
        Clause("delta <= 1", delta, "<=", 1.0),
        Clause("p2 >= 1", p2, ">=", 1.0),
        Clause("q2 >= 1", q2, ">=", 1.0),
    ]


def _derived_source_params(n: float, alpha: float, p1: float) -> dict[str, float]:
    inv_conj = 1.0 - 1.0 / p1
    denom = alpha + inv_conj
    q1 = math.inf if denom <= 0 else 1.0 / denom
    return {"w1": alpha * n, "q1": q1, "beta": q1}


def check_t1(
    n: int,
    r: float,
    alpha: float,
    p1: float,
    k: int,
    delta: float,
    m: float,
    w2: float,
    p2: float = 2.0,
    q2: float = 2.0,
) -> CriterionVerdict:
    """Order criterion with nonnegative target weight.

    Requires 0 <= w2 < 2k - n and m < -n/r - w2 - delta(2k); the governing
    series sum <xi>^{r(w2 + m + 2k delta)} is reported as the witness.
    """
    if r <= 0 or p1 <= 0 or n < 1:
        raise ValueError(f"degenerate parameters: need n >= 1, r > 0, p1 > 0 "
                         f"(got n={n}, r={r}, p1={p1})")
    clauses = _common_t_clauses(n, r, alpha, p1, delta, p2, q2)
    clauses += [
        Clause("k is an integer", k, "int", 0),
        Clause("k > n/2", k, ">", n / 2.0),
        Clause("w2 >= 0", w2, ">=", 0.0),
        Clause("w2 < 2k - n", w2, "<", 2.0 * k - n),
        Clause("m < -n/r - w2 - delta(2k)", m, "<", -n / r - w2 - delta * 2.0 * k),
    ]
    failures = _failures(clauses)
    exponent = r * (w2 + m + delta * 2.0 * k)
    derived = _derived_source_params(n, alpha, p1)
    derived["series_exponent"] = exponent
    witness = _power_series_witness(n, exponent, f"sum <xi>^({exponent:.6g}) over Z^{n}")
    return CriterionVerdict(
        satisfied=not failures,
        derived_params=derived,
        witness=witness,
        violated_clauses=failures,
    )


def _truncated_bracket_convolution(n: int, w2: float, k: int, radius: int) -> SeriesWitness:
    """Witness for sum_xi (<.>^{w2} * <.>^{-2k})(xi), truncated symmetrically."""
    base = min(radius, 64 if n == 1 else 8)
    window = FrequencyLattice(n, 2 * base)
    u = window.brackets() ** w2
    lat = FrequencyLattice(n, base)
    conv = np.empty(len(lat))
    for i, xi in enumerate(lat.points):
        shifted = np.sqrt(1.0 + np.sum((xi[None, :] - window.points) ** 2, axis=1))
        conv[i] = fsum(u * shifted ** (-2.0 * k))
    shells = block_index(lat.squared_norms(), "bracket")
    labels, shell_sums = _complete_shell_sums(shells, conv, float(base) ** 2)
    certified, tail, _ = certify_shell_sums(shell_sums)
    note = ""
    if not certified:
        note = (
            "shell sums of the convolution series do not decay geometrically; "
            "the clause verdict above follows the stated inequalities, but the "
            "series bound is not certified numerically at this truncation"
        )
    return SeriesWitness(
        series=f"sum_xi (<.>^({w2:.6g}) * <.>^({-2.0 * k:.6g}))(xi) over Z^{n}",
        labels=labels,
        partial_sums=list(accumulate(shell_sums)),
        tail_estimate=tail,
        certified=certified,
        rule="geometric-shell-ratio",
        note=note,
    )


def check_t2(
    n: int,
    r: float,
    alpha: float,
    p1: float,
    k: int,
    delta: float,
    m: float,
    w2: float,
    p2: float = 2.0,
    q2: float = 2.0,
    witness_radius: int = 64,
) -> CriterionVerdict:
    """Negative-target-weight criterion; two alternative clause sets.

    Nuclear set: w2 < -n/2, m <= -delta(2k), k > n/4.  r-nuclear set: w2 <= 0,
    m < -n/r - delta(2k), k > n/2.  The verdict is satisfied when either set
    holds together with the shared parameter ranges.
    """
    if r <= 0 or p1 <= 0 or n < 1:
        raise ValueError(f"degenerate parameters: need n >= 1, r > 0, p1 > 0 "
                         f"(got n={n}, r={r}, p1={p1})")
    shared = _common_t_clauses(n, r, alpha, p1, delta, p2, q2)
    shared.append(Clause("k is an integer", k, "int", 0))
    set_nuclear = [
        Clause("nuclear set: w2 < -n/2", w2, "<", -n / 2.0),
        Clause("nuclear set: m <= -delta(2k)", m, "<=", -delta * 2.0 * k),
        Clause("nuclear set: k > n/4", k, ">", n / 4.0),
    ]
    set_r_nuclear = [
        Clause("r-nuclear set: w2 <= 0", w2, "<=", 0.0),
        Clause("r-nuclear set: m < -n/r - delta(2k)", m, "<", -n / r - delta * 2.0 * k),
        Clause("r-nuclear set: k > n/2", k, ">", n / 2.0),
    ]
    shared_fail = _failures(shared)
    nuclear_fail = _failures(set_nuclear)
    r_nuclear_fail = _failures(set_r_nuclear)
    satisfied = not shared_fail and (not nuclear_fail or not r_nuclear_fail)
    derived = _derived_source_params(n, alpha, p1)
    if not nuclear_fail and not shared_fail:
        derived["clause_set"] = "nuclear"
        witness = _truncated_bracket_convolution(n, w2, k, witness_radius)
    elif not r_nuclear_fail and not shared_fail:
        derived["clause_set"] = "r-nuclear"
        exponent = r * (m + delta * 2.0 * k)
        derived["series_exponent"] = exponent
        witness = _power_series_witness(n, exponent, f"sum <xi>^({exponent:.6g}) over Z^{n}")
    else:
        derived["clause_set"] = "none"
        if w2 < -n / 2.0:
            witness = _truncated_bracket_convolution(n, w2, k, witness_radius)
        else:
            exponent = r * (m + delta * 2.0 * k)
            witness = _power_series_witness(n, exponent, f"sum <xi>^({exponent:.6g}) over Z^{n}")
    violated = [] if satisfied else shared_fail + nuclear_fail + r_nuclear_fail
    return CriterionVerdict(
        satisfied=satisfied,
        derived_params=derived,
        witness=witness,
        violated_clauses=violated,
    )


def _tt1_case_clauses(case: int, p: float, q: float) -> list[Clause]:
    if case == 1:
        return [
            Clause("case 1: p > 1", p, ">", 1.0),
            Clause("case 1: p < q", p, "<", q),
            Clause("case 1: q < inf", q, "<", math.inf),
        ]
    if case == 2:
        return [
            Clause("case 2: q == 1", q, "==", 1.0),
            Clause("case 2: p >= 1", p, ">=", 1.0),
            Clause("case 2: p < inf", p, "<", math.inf),
        ]
    if case == 3:
        return [
            Clause("case 3: p == q", p, "==", q),
            Clause("case 3: p > 1", p, ">", 1.0),
            Clause("case 3: p <= 2", p, "<=", 2.0),
        ]
    if case == 4:
        return [
            Clause("case 4: q == 2", q, "==", 2.0),
            Clause("case 4: p >= 2", p, ">=", 2.0),
            Clause("case 4: p < inf", p, "<", math.inf),
        ]
    raise ValueError(f"case must be 1, 2, 3 or 4, got {case}")


def _tt1_lr_powers(values, d: np.ndarray, r: float) -> np.ndarray:
    """||a(xi)||_{l^r}^r per point: d |a|^r for an (N,) array of scalar * identity
    values, entrywise sums for a sequence of N matrices."""
    if len(values) != len(d):
        raise ValueError(f"a symbol must give one value or matrix per dual point ({len(d)})")
    if isinstance(values, np.ndarray) and values.ndim == 1:
        return d * np.abs(values) ** r
    return np.array([fsum(np.abs(np.asarray(m)).ravel() ** r) for m in values])


def check_tt1(dual, a, r: float, p: float, q: float, case: int) -> CriterionVerdict:
    """Multiplier criterion over a compact-group dual.

    ``a`` maps the whole dual to its N values: an (N,) array (scalar *
    identity per point) or a sequence of N d x d matrices.  The selected
    case's series is summed over the dual truncation and certified by the
    geometric shell-ratio monitor.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"r must lie in (0, 1], got {r}")
    range_clauses = _tt1_case_clauses(case, p, q)
    range_fail = _failures(range_clauses)
    if range_fail:
        raise ValueError(
            "parameter range mismatch for case "
            f"{case}: " + "; ".join(c.render() for c in range_fail)
        )
    n = dual.group_dimension
    if case == 1:
        qc = q / (q - 1.0)
        d_exp = 1.0 + r * (1.0 - _epsilon_ext(p) - _epsilon_ext(qc))
        xi_exp = n * (1.0 / p - 1.0 / q) * r
    elif case == 2:
        d_exp = 1.0 + r * (1.0 - _epsilon_ext(p))
        xi_exp = n * r / p
    elif case == 3:
        d_exp = 1.0 + r * (1.0 / p - 0.5)
        xi_exp = 0.0
    else:
        d_exp = 1.0 + r * (0.5 - 1.0 / p)
        xi_exp = 0.0
    terms = (
        dual.bracket**xi_exp
        * _tt1_lr_powers(a(dual), dual.d, r)
        * dual.d.astype(np.float64) ** d_exp
    )
    labels, shell_sums = _complete_shell_sums(dual.shells, terms, dual.lambda_cap)
    certified, tail, worst = certify_shell_sums(shell_sums)
    witness = SeriesWitness(
        series=f"case {case} dual series, bracket exponent {xi_exp:.6g}, "
        f"dimension exponent {d_exp:.6g}",
        labels=labels,
        partial_sums=list(accumulate(shell_sums)),
        tail_estimate=tail,
        certified=certified,
        rule="geometric-shell-ratio",
    )
    convergence = Clause(
        "series tail monitor: worst recent shell ratio <= 0.9", worst, "<=", SHELL_RATIO_LIMIT
    )
    failures = [] if certified else [convergence]
    derived: dict[str, float | str] = {
        "case": float(case),
        "dimension_exponent": d_exp,
        "bracket_exponent": xi_exp,
    }
    if case in (1, 2):
        derived["epsilon_p"] = _epsilon_ext(p)
    if case == 1:
        derived["epsilon_q_conjugate"] = _epsilon_ext(q / (q - 1.0))
    return CriterionVerdict(
        satisfied=certified,
        derived_params=derived,
        witness=witness,
        violated_clauses=failures,
    )


# ---------------------------------------------------------------------------
# Canonical decomposition and quasi-norm bound
# ---------------------------------------------------------------------------


@dataclass
class NuclearDecomposition:
    """Rank-one terms (H_xi, bound on the paired functional's dual norm)."""

    lattice: FrequencyLattice
    terms: list[tuple[PeriodicFunction, float]]


def rank_one_factor(a: Symbol, xi, grid_size: int) -> PeriodicFunction:
    """H_xi(x) = e^{i2pi<x,xi>} a(x, xi) sampled on an M-point grid."""
    xi = np.atleast_1d(np.asarray(xi, dtype=np.int64))
    probe = PeriodicFunction(a.dim, grid_size, np.zeros(grid_size**a.dim))
    x = probe.x_points()
    table = a.values(x, xi.reshape(1, -1))[:, 0]
    phase = np.exp(1j * TWO_PI * (x @ xi.astype(np.float64)))
    return PeriodicFunction(a.dim, grid_size, phase * table)


def nuclear_decomposition(
    a: Symbol, lattice: FrequencyLattice, grid_size: int
) -> NuclearDecomposition:
    """Canonical decomposition; the functional bound 1.0 folds the coefficient-map
    embedding constant."""
    terms = [(rank_one_factor(a, xi, grid_size), 1.0) for xi in lattice.points]
    return NuclearDecomposition(lattice, terms)


def reconstruct(dec: NuclearDecomposition, f: PeriodicFunction) -> PeriodicFunction:
    """sum_xi fhat(xi) H_xi, which must reproduce T_a f on band-limited inputs."""
    c = forward_transform(f, dec.lattice)
    stacked = np.stack([h.values for h, _ in dec.terms], axis=1)
    return PeriodicFunction(f.dim, f.grid_size, stacked @ c.coeffs)


def nuclear_quasinorm_bound(
    a: Symbol,
    r: float,
    besov: BesovParams,
    lattice: FrequencyLattice,
    block_weight: str = "abs",
) -> float:
    """sum_xi ||H_xi||_{B}^r for the canonical decomposition.

    Stability of this sum across growing radii is the numerical nuclearity
    certificate; raised to 1/r it upper-bounds the r-quasi-norm up to the
    embedding constant absorbed in the functional bounds.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if isinstance(a, SampledSymbol):
        # sampled tables only evaluate on their native grid; use the largest
        # alias-safe analysis lattice that grid supports
        from .harmonic import max_alias_free_radius

        grid = a.grid_size
        norm_lattice = FrequencyLattice(lattice.dim, max_alias_free_radius(grid))
    else:
        bandwidth = a.x_bandwidth() or 0
        norm_lattice = FrequencyLattice(lattice.dim, lattice.radius + bandwidth)
        grid = min_grid_size(norm_lattice.radius)
    powers = []
    for xi in lattice.points:
        h = rank_one_factor(a, xi, grid)
        powers.append(besov_norm(h, besov, norm_lattice, block_weight) ** r)
    return float(fsum(powers))
