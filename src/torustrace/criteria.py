"""Executable sufficient-condition checkers for r-nuclearity, and the numeric
quasi-norm bound coming from the canonical rank-one decomposition
T_a f = sum_xi fhat(xi) H_xi with H_xi(x) = e^{i2pi<x,xi>} a(x, xi).  The
coefficients of H_xi are hat{a}(d, xi) at eta = xi + d for d on the symbol's
x-Fourier support (``a.x_fourier_support``), so the bound never samples
H_xi.  The bound is in B^w_{2,2}, where Parseval makes a dyadic block's L^2
norm the l^2 norm of its coefficients: it reads the support table once and
norms each column's weighted coefficients, with no compression and no synthesis.

Three checkers are exposed:

* ``check_t1`` — symbol-order criterion on the torus: 0 <= w2 < 2k - n and
  m < -n/r - w2 - delta 2k make T_a r-nuclear between dyadic-norm spaces.
* ``check_t2`` — negative-target-weight variants: either w2 < -n/2 with
  m <= -delta 2k and k > n/4 (nuclear), or w2 <= 0 with m < -n/r - delta 2k
  and k > n/2 (r-nuclear).
* ``check_tt1`` — multiplier criterion on a compact-group dual: one of four
  (p, q)-dependent series over the dual must converge.

Strict inequalities are checked strictly; a failure at equality is reported as
such.  Every series tail of the package is ``groups.dual_tail_bound``: an upper bound
on sum d^a <xi>^b e^{-s lambda} over the dual points past a slice, the integral
test in closed form, inf exactly when the series is not summable or when the
bound leaves float64.  Every witness sums ``GroupDual.terms`` of the envelope it
bounds over ``enumerate_dual`` rows through ``_shell_witness``: tt1's series over
the group's dual, t1's and t2's sum <xi>^b over the torus dual Z^n, and the t2
nuclear set's convolution series, which by Tonelli is the product of two of those.
A witness is certified when its tail is finite, and names its envelope as its
rule: ``integral-test(power-law)`` (s = 0) or ``integral-test(gaussian)`` (s > 0).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .besov import block_index, block_sums
from .groups import UNBOUNDED_TAIL_NOTE, Torus, dual_tail_bound, enumerate_dual
from .harmonic import FrequencyLattice
from .sums import fsum, power_norms
from .symbols import Symbol

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
    """L^p decay exponent of representation entries, t >= 1: 1/2 on (1, 2], 1/t
    beyond, and 1/2 at t = 1, where entrywise L^1 norms are dominated by L^2 ones."""
    if t <= 2.0:
        return 0.5
    return 1.0 / t


# ---------------------------------------------------------------------------
# Series witnesses
# ---------------------------------------------------------------------------


def _witness(series: str, labels, partial_sums: list[float], tail: float, gaussian: bool,
             note: str = "") -> dict:
    """A series witness: certified exactly when its tail is a finite bound; ``note``
    is attached when it is not."""
    return {"series": series, "labels": [float(j) for j in labels], "partial_sums": partial_sums,
            "tail_estimate": tail, "certified": math.isfinite(tail),
            "rule": f"integral-test({'gaussian' if gaussian else 'power-law'})",
            "note": "" if math.isfinite(tail) else note}


def _shell_witness(
    series: str, cuts: np.ndarray, terms: np.ndarray, lambda_cap: float, beyond: float,
    gaussian: bool, note: str = "", weights: np.ndarray | None = None,
) -> dict:
    """Witness of a series over a truncation complete up to lambda_cap: partial
    sums over the bracket shells j wholly inside it (4^{j+1} <= 1 + lambda_cap),
    rows cuts[j]:cuts[j + 1], and as tail the exact sums of the other shells plus
    ``beyond``, the bound past the truncation.  Each term counts ``weights`` times
    (default once).  One binned pass sums every shell (``besov.block_sums``)."""
    labels, sums, _ = block_sums(cuts, terms, weights)
    complete = bisect_left(labels, int(block_index(math.floor(lambda_cap) + 1)))
    return _witness(series, labels[:complete], list(accumulate(sums[:complete])),
                    fsum(sums[complete:] + [beyond]), gaussian, note)


def _power_witness(n: int, b: float) -> dict:
    """Witness of sum <xi>^b over Z^n, built as tt1's: the rows of
    ``enumerate_dual(Torus(n), R)``, R = 64 in dim 1 and 16 in dim 2, through
    ``_shell_witness``."""
    torus, radius = Torus(n), 64 if n == 1 else 16
    dual = enumerate_dual(torus, radius)
    return _shell_witness(f"sum <xi>^({b:.6g}) over Z^{n}", dual.cuts, dual.terms(0.0, b, 0.0),
                          torus.lambda_cap(radius), dual_tail_bound(torus, radius, 0.0, b, 0.0), False,
                          weights=dual.mult)


def _product_witness(n: int, w2: float, k: int) -> dict:
    """Witness of sum_xi (f * g)(xi), f = <.>^{w2} and g = <.>^{-2k} over Z^n.  Both are
    positive, so by Tonelli the series is (sum f)(sum g): shell by shell the partial sums
    are P_f(j) P_g(j) of the two power witnesses, and the tail bounds
    (P_f + T_f)(P_g + T_g) - P_f P_g, summed as P_f T_g + T_f P_g + T_f T_g at the last
    shell; inf when either tail is."""
    f, g = _power_witness(n, w2), _power_witness(n, -2.0 * k)
    (pf, tf), (pg, tg) = ((w["partial_sums"][-1], w["tail_estimate"]) for w in (f, g))
    return _witness(
        f"sum_xi (<.>^({w2:.6g}) * <.>^({-2.0 * k:.6g}))(xi) over Z^{n}", f["labels"],
        [x * y for x, y in zip(f["partial_sums"], g["partial_sums"])],
        math.inf if math.isinf(tf + tg) else fsum([pf * tg, tf * pg, tf * tg]), False,
        note="sum <xi>^w2 or sum <xi>^-2k over Z^n diverges, and with it the convolution "
        "series; the clause verdict above follows the stated inequalities",
    )


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
) -> dict:
    """Order criterion with nonnegative target weight.

    Requires 0 <= w2 < 2k - n and m < -n/r - w2 - delta(2k); the governing
    series sum <xi>^{r(w2 + m + 2k delta)} is reported as the witness.
    """
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
    return _verdict(not failures, derived, failures, _power_witness(n, exponent))


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
    convolution series sum_xi (<.>^{w2} * <.>^{-2k})(xi) when w2 < -n/2 (where the
    r-nuclear set implies the nuclear one), else sum <xi>^{r(m + 2k delta)}.
    """
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
        witness = _product_witness(n, w2, k)
    else:
        witness = _power_witness(n, exponent)
    return _verdict(satisfied, derived, [] if satisfied else shared_fail + nuclear_fail + r_nuclear_fail,
                    witness)


SUMMABLE_CLAUSES = ("summable: bracket_exponent + r m < -n",
                    "summable: 1 + dimension_exponent + bracket_exponent + r m < -1")
TT1_CASE_RANGES = {1: ("p > 1", "p < q", "q < inf"), 2: ("q == 1", "p >= 1", "p < inf"),
                   3: ("p == q", "p > 1", "p <= 2"), 4: ("q == 2", "p >= 2", "p < inf")}


def tt1_range_refusal(p: float, q: float, case: int) -> str:
    """Why (p, q) lies outside ``case``'s ``TT1_CASE_RANGES`` (case 1 to 4), or "" when
    it lies inside, where ``check_tt1`` is defined."""
    sides = {"p": p, "q": q}
    ranges = TT1_CASE_RANGES[case]
    failures = _failures([Clause(f"{lhs} {relation} {rhs}", sides[lhs], relation,
                                 sides[rhs] if rhs in sides else float(rhs))
                          for lhs, relation, rhs in map(str.split, ranges)])
    if not failures:
        return ""
    return (f"(p, q) = ({p:g}, {q:g}) lies outside case {case}'s range ({', '.join(ranges)}): "
            + "; ".join(c.render() for c in failures))


def check_tt1(dual, r: float, p: float, q: float, case: int, m: float | None = None,
              t: float | None = None) -> dict:
    """Multiplier criterion over a compact-group dual, for the multiplier <xi>^m
    or e^{-t lambda} (one of ``m``, ``t``), scalar times identity at every point.

    The selected case's series sum d |a|^r d^{d_exp} <xi>^{xi_exp} is
    sum d^{1 + d_exp} <xi>^b e^{-s lambda}, b = xi_exp + r m, s = r t, with terms
    ``dual.terms(1 + d_exp, b, s)``; it is summable, and the verdict satisfied,
    exactly when s > 0, or s = 0 and b < -n on the torus Z^n, 1 + d_exp + b < -1
    on SU(2) (<xi> ~ d/2).  The witness sums the truncation's complete shells;
    its tail is ``_shell_witness``'s.  It takes r in (0, 1] and (p, q) inside the
    case's range (``tt1_range_refusal``).
    """
    n = dual.group.dimension
    if case == 1:
        qc = q / (q - 1.0)
        d_exp = 1.0 + r * (1.0 - epsilon(p) - epsilon(qc))
        xi_exp = n * (1.0 / p - 1.0 / q) * r
    elif case == 2:
        d_exp = 1.0 + r * (1.0 - epsilon(p))
        xi_exp = n * r / p
    elif case == 3:
        d_exp = 1.0 + r * (1.0 / p - 0.5)
        xi_exp = 0.0
    else:
        d_exp = 1.0 + r * (0.5 - 1.0 / p)
        xi_exp = 0.0
    b, s = xi_exp + (0.0 if m is None else r * m), 0.0 if t is None else r * t
    group, a = dual.group, 1.0 + d_exp
    if t is not None:
        summable = Clause("summable: r t > 0", s, ">", 0.0)
    else:  # groups.is_summable at s = 0, a d_power + b < -1 - count_power, described by d_power
        summable = Clause(SUMMABLE_CLAUSES[group.d_power], a * group.d_power + b, "<",
                          -1.0 - group.count_power)
    witness = _shell_witness(
        f"case {case} dual series, bracket exponent {xi_exp:.6g}, dimension exponent {d_exp:.6g}",
        dual.cuts, dual.terms(a, b, s), group.lambda_cap(dual.cutoff),
        dual_tail_bound(group, dual.cutoff, a, b, s), s > 0,
        UNBOUNDED_TAIL_NOTE if summable.holds() else "", dual.mult)
    derived: dict = {"case": float(case), "dimension_exponent": d_exp, "bracket_exponent": xi_exp}
    if case in (1, 2):
        derived["epsilon_p"] = epsilon(p)
    if case == 1:
        derived["epsilon_q_conjugate"] = epsilon(q / (q - 1.0))
    return _verdict(summable.holds(), derived, _failures([summable]), witness)


# ---------------------------------------------------------------------------
# Quasi-norm bound of the canonical decomposition
# ---------------------------------------------------------------------------


def nuclear_quasinorm_bound(a: Symbol, w: float, lattice: FrequencyLattice) -> float:
    """sum_xi ||H_xi||_{B^w_{2,2}} for the canonical decomposition.

    H_xi = e_xi a(., xi) has coefficients hat{a}(d, xi) at eta = xi + d for d
    on the symbol's x-Fourier support (``a.x_fourier_support``).  Parseval gives
    each block's L^2 norm as the l^2 norm of its coefficients, which is what a
    grid synthesis on a margin-safe grid computes up to rounding, so H_xi's
    B^w_{2,2} norm is the l^2 norm of its coefficients, each weighted by
    2^{m w} with m the block of eta (``block_index``).  The support table
    (S x L) is read once, and every column's norm is one group of a single
    ``sums.power_norms`` call at p = 2 (Blue-scaled, so squares beyond float64
    do not overflow).  Only a weight 2^{mw} or a bound beyond float64 raises
    OverflowError.

    Stability of this sum across growing radii is the numerical nuclearity
    certificate; it upper-bounds the nuclear norm (the r-quasi-norm at r = 1) up
    to the embedding constant absorbed in the functional bounds.
    """
    support = a.x_fourier_support()
    table = a.x_fourier_table(support, lattice).T  # (L, S): H_xi's coefficient at xi + d
    squared = sum((xi[:, None] + d) ** 2 for d, xi in zip(support.T, lattice.points.T))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        weighted = np.ascontiguousarray(table * 2.0 ** (block_index(squared) * w))
    parts = weighted.view(np.float64)  # re, im of each coefficient, column by column
    bound = fsum(power_norms(np.abs(parts, out=parts), 2.0))
    if not math.isfinite(bound):  # an inf block norm makes it inf or nan
        raise OverflowError("the certificate's block norms of |hat{a}(d, xi)| leave float64")
    return float(bound)
