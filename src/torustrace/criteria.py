"""Executable sufficient-condition checkers for r-nuclearity, and the numeric
quasi-norm bound coming from the canonical rank-one decomposition
T_a f = sum_xi fhat(xi) H_xi with H_xi(x) = e^{i2pi<x,xi>} a(x, xi).  The
coefficients of H_xi are hat{a}(d, xi) at eta = xi + d for d on the symbol's
x-Fourier support (``symbols.x_fourier_support``), so the bound never samples
H_xi.  The bound is in B^w_{2,2}, where Parseval makes a dyadic block's L^2
norm the l^2 norm of its coefficients: it reads the support table once and
sums |hat{a}|^2 per (block, column), with no compression and no synthesis.

Three checkers are exposed:

* ``check_t1`` — symbol-order criterion on the torus: 0 <= w2 < 2k - n and
  m < -n/r - w2 - delta 2k make T_a r-nuclear between dyadic-norm spaces.
* ``check_t2`` — negative-target-weight variants: either w2 < -n/2 with
  m <= -delta 2k and k > n/4 (nuclear), or w2 <= 0 with m < -n/r - delta 2k
  and k > n/2 (r-nuclear).
* ``check_tt1`` — multiplier criterion on a compact-group dual: one of four
  (p, q)-dependent series over the dual must converge.

Strict inequalities are checked strictly; a failure at equality is reported as
such.  Series convergence is certified numerically: an integral-test bound for
pure power-law terms, or ``certify_shell_sums``, the one geometric-ratio rule
(ratio <= 0.9 over the last 4 shells), which ``groups`` and ``traces`` call too;
the rule used is reported with the verdict.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

import numpy as np

from .besov import BesovParams, block_index, block_sums, weighted_norm
from .harmonic import FrequencyLattice
from .sums import fsum, fsum_by
from .symbols import Symbol, x_fourier_support, x_fourier_table

SHELL_RATIO_LIMIT = 0.9
SHELL_RATIO_COUNT = 4
RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
             "==": operator.eq, "int": lambda lhs, _: float(lhs).is_integer()}


# ---------------------------------------------------------------------------
# Verdict plumbing
# ---------------------------------------------------------------------------


class Clause:
    """One inequality of a criterion with both sides evaluated."""

    def __init__(self, description: str, lhs: float, relation: str, rhs: float):
        self.description = description
        self.lhs = lhs
        self.relation = relation  # a key of RELATIONS
        self.rhs = rhs

    def holds(self) -> bool:
        return RELATIONS[self.relation](self.lhs, self.rhs)

    def render(self) -> str:
        note = ""
        if self.relation in ("<", ">") and self.lhs == self.rhs:
            note = " (fails at equality)"
        return f"{self.description}: {self.lhs:.9g} {self.relation} {self.rhs:.9g} is false{note}"


def _failures(clauses: list[Clause]) -> list[Clause]:
    return [c for c in clauses if not c.holds()]


def _verdict(satisfied: bool, derived_params: dict, violated: list[Clause], witness: dict) -> dict:
    """A checker's verdict, the ``nuclearity`` report body: each violated clause
    as an object of its sides."""
    clauses = [{"description": c.description, "lhs": c.lhs, "relation": c.relation, "rhs": c.rhs}
               for c in violated]
    return {"satisfied": satisfied, "derived_params": derived_params,
            "violated_clauses": clauses, "witness": witness}


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


# ---------------------------------------------------------------------------
# Series witnesses
# ---------------------------------------------------------------------------


def _lattice_power_sums(n: int, exponent: float, radii: list[int]) -> list[float]:
    """Partial sums of sum_{|xi|_inf <= R} <xi>^exponent, each over a nested box
    of the largest lattice."""
    lat = FrequencyLattice(n, max(radii))
    terms = lat.brackets() ** exponent
    sup = np.abs(lat.points).max(axis=1)
    return [fsum(terms[sup <= radius]) for radius in radii]


def power_tail_bound(n: int, exponent: float, radius: int) -> float:
    """Integral-test bound on sum_{|xi|_inf > R} <xi>^exponent (finite iff exponent < -n)."""
    if exponent >= -n:
        return math.inf
    if n == 1:
        return 2.0 * radius ** (exponent + 1) / (-exponent - 1)
    # max-norm shell s holds 8s points and <xi> >= s on it
    return 8.0 * radius ** (exponent + 2) / (-exponent - 2)


def _power_series_witness(n: int, exponent: float) -> dict:
    radii = [4, 8, 16, 32, 64] if n == 1 else [2, 4, 8, 16]
    return {
        "series": f"sum <xi>^({exponent:.6g}) over Z^{n}",
        "labels": [float(r) for r in radii],
        "partial_sums": _lattice_power_sums(n, exponent, radii),
        "tail_estimate": power_tail_bound(n, exponent, radii[-1]),
        "certified": exponent < -n,
        "rule": "integral-test(power-law)",
        "note": "",
    }


def _shell_witness(
    series: str, shells: np.ndarray, terms: np.ndarray, lambda_cap: float, note: str = "",
    weights: np.ndarray | None = None,
) -> tuple[dict, float]:
    """Geometric shell-ratio witness and its worst recent ratio.  Only the bracket
    shells j wholly inside a truncation complete up to lambda_cap
    (4^{j+1} <= 1 + lambda_cap) are summed, since a clipped shell could fake
    decay; each term counts ``weights`` times (default once); ``note`` is
    attached when the sums are not certified."""
    keep = shells < block_index(math.floor(lambda_cap) + 1)
    labels, sums, _ = block_sums(shells[keep], terms[keep], None if weights is None else weights[keep])
    certified, tail, worst = certify_shell_sums(sums)
    return {
        "series": series,
        "labels": [float(j) for j in labels],
        "partial_sums": list(accumulate(sums)),
        "tail_estimate": tail,
        "certified": certified,
        "rule": "geometric-shell-ratio",
        "note": "" if certified else note,
    }, worst


def certify_shell_sums(shell_sums: list[float], min_ratios=SHELL_RATIO_COUNT) -> tuple[bool, float, float]:
    """The one geometric-ratio rule, on dyadic shell sums or ``lidskii``'s
    nuclear-trace increments: (certified, tail_estimate, worst_recent_ratio).
    Empty or all-zero sums are certified with tail 0.  Ratios read 0/0 as 0 and
    x/0 as inf, and fewer than ``min_ratios`` ratios certify nothing.  Otherwise
    the worst of the last SHELL_RATIO_COUNT (of all, when fewer) certifies iff
    <= SHELL_RATIO_LIMIT; the tail is then the geometric remainder, else inf.
    """
    if not shell_sums or fsum(shell_sums) == 0.0:
        return True, 0.0, 0.0
    pairs = zip(shell_sums, shell_sums[1:])
    ratios = [cur / prev if prev else (math.inf if cur else 0.0) for prev, cur in pairs]
    if len(ratios) < min_ratios:
        return False, math.inf, math.inf
    worst = max(ratios[-SHELL_RATIO_COUNT:])
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


def _refuse_degenerate(n: int, r: float, p1: float) -> None:
    if r <= 0 or p1 <= 0 or n < 1:
        raise ValueError(f"degenerate parameters: need n >= 1, r > 0, p1 > 0 "
                         f"(got n={n}, r={r}, p1={p1})")


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
) -> dict:
    """Order criterion with nonnegative target weight.

    Requires 0 <= w2 < 2k - n and m < -n/r - w2 - delta(2k); the governing
    series sum <xi>^{r(w2 + m + 2k delta)} is reported as the witness.
    """
    _refuse_degenerate(n, r, p1)
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
    return _verdict(not failures, derived, failures, _power_series_witness(n, exponent))


def _truncated_bracket_convolution(n: int, w2: float, k: int) -> dict:
    """Witness for sum_xi (<.>^{w2} * <.>^{-2k})(xi) over the box |xi|_inf <= R
    (R = 64 in dim 1, 8 in dim 2), each convolution value summed over the window
    |.|_inf <= 2R: one (lattice x window) array, each row exactly rounded."""
    base = 64 if n == 1 else 8
    window = FrequencyLattice(n, 2 * base)
    lat = FrequencyLattice(n, base)
    squared = sum((xi[:, None] - eta) ** 2 for xi, eta in zip(lat.points.T, window.points.T))
    shifted = np.sqrt(1.0 + squared)
    conv = np.array(fsum_by(None, window.brackets() ** w2 * shifted ** (-2.0 * k)))
    witness, _ = _shell_witness(
        f"sum_xi (<.>^({w2:.6g}) * <.>^({-2.0 * k:.6g}))(xi) over Z^{n}",
        block_index(lat.squared_norms() + 1), conv, float(base) ** 2,
        note="shell sums of the convolution series do not decay geometrically; "
        "the clause verdict above follows the stated inequalities, but the "
        "series bound is not certified numerically at this truncation",
    )
    return witness


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
) -> dict:
    """Negative-target-weight criterion; two alternative clause sets.

    Nuclear set: w2 < -n/2, m <= -delta(2k), k > n/4.  r-nuclear set: w2 <= 0,
    m < -n/r - delta(2k), k > n/2.  The verdict is satisfied when either set
    holds together with the shared parameter ranges.  The witness is the
    convolution series when w2 < -n/2 (where the r-nuclear set implies the
    nuclear one), else sum <xi>^{r(m + 2k delta)}.
    """
    _refuse_degenerate(n, r, p1)
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
    exponent = r * (m + delta * 2.0 * k)
    derived = _derived_source_params(n, alpha, p1)
    if not shared_fail and not nuclear_fail:
        derived["clause_set"] = "nuclear"
    elif not shared_fail and not r_nuclear_fail:
        derived["clause_set"] = "r-nuclear"
        derived["series_exponent"] = exponent
    else:
        derived["clause_set"] = "none"
    satisfied = derived["clause_set"] != "none"
    if w2 < -n / 2.0:
        witness = _truncated_bracket_convolution(n, w2, k)
    else:
        witness = _power_series_witness(n, exponent)
    return _verdict(satisfied, derived, [] if satisfied else shared_fail + nuclear_fail + r_nuclear_fail,
                    witness)


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


def check_tt1(dual, a, r: float, p: float, q: float, case: int) -> dict:
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
    with np.errstate(over="ignore"):  # a term beyond the float range is reported as inf
        terms = (
            dual.bracket**xi_exp
            * _tt1_lr_powers(a(dual), dual.d, r)
            * dual.d.astype(np.float64) ** d_exp
        )
    witness, worst = _shell_witness(
        f"case {case} dual series, bracket exponent {xi_exp:.6g}, dimension exponent {d_exp:.6g}",
        dual.shells, terms, dual.lambda_cap, weights=dual.mult,
    )
    monitor = Clause(f"series tail monitor: worst recent shell ratio <= {SHELL_RATIO_LIMIT:g}",
                     worst, "<=", SHELL_RATIO_LIMIT)
    derived: dict[str, float | str] = {
        "case": float(case),
        "dimension_exponent": d_exp,
        "bracket_exponent": xi_exp,
    }
    if case in (1, 2):
        derived["epsilon_p"] = _epsilon_ext(p)
    if case == 1:
        derived["epsilon_q_conjugate"] = _epsilon_ext(q / (q - 1.0))
    certified = witness["certified"]
    return _verdict(certified, derived, [] if certified else [monitor], witness)


# ---------------------------------------------------------------------------
# Quasi-norm bound of the canonical decomposition
# ---------------------------------------------------------------------------


def nuclear_quasinorm_bound(a: Symbol, r: float, w: float, lattice: FrequencyLattice) -> float:
    """sum_xi ||H_xi||_{B^w_{2,2}}^r for the canonical decomposition.

    H_xi = e_xi a(., xi) has coefficients hat{a}(d, xi) at eta = xi + d for d
    on the symbol's x-Fourier support (``x_fourier_support``), so they lie in
    |eta|_inf <= N + b with b the support's largest |d|_inf: the x-factor's
    bandwidth, or for a sampled table its window M//2.

    Parseval gives each block's L^2 norm as the l^2 norm of its coefficients,
    which is what a grid synthesis on a margin-safe grid computes up to
    rounding.  So the support table (S x L) is read once, the block of each
    eta = xi + d found by ``block_index``, and |hat a|^2 summed into a
    (blocks x L) table of per-(block, column) energies; each column is
    weighted by ``weighted_norm``.  An energy beyond float64 raises
    OverflowError.

    Stability of this sum across growing radii is the numerical nuclearity
    certificate; raised to 1/r it upper-bounds the r-quasi-norm up to the
    embedding constant absorbed in the functional bounds.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"r must lie in (0, 1], got {r}")
    support = x_fourier_support(a)
    radius = lattice.radius + int(np.abs(support).max(initial=0))  # N + b
    table = x_fourier_table(a, support, lattice)  # (S, L): H_xi's coefficient at xi + d
    squared = sum((d[:, None] + xi) ** 2 for d, xi in zip(support.T, lattice.points.T))
    # every block of the row box |eta|_inf <= N + b is nonempty, so each column
    # reports all of them, as block_norms does on that lattice
    count = int(block_index(lattice.dim * radius**2)) + 1
    size = len(lattice)
    with np.errstate(over="ignore"):  # refused below
        energy = np.bincount(
            (block_index(squared) * size + np.arange(size)).ravel(),
            weights=(table.real**2 + table.imag**2).ravel(),
            minlength=count * size,
        ).reshape(count, size)
    if not np.isfinite(energy).all():
        raise OverflowError("the certificate's block energies sum |hat{a}(d, xi)|^2 beyond float64")
    besov = BesovParams(w, 2.0, 2.0)
    return float(fsum(
        weighted_norm(list(enumerate(norms)), besov) ** r
        for norms in np.sqrt(energy).T.tolist()
    ))
