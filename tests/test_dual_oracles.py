"""Array-backed dual data and series against the per-point oracles in ``oracles``.

Enumeration (labels, order, d, lambda) must match exactly.  Series values,
dyadic shell sums and tt1 partial sums must match to 1e-15 relative: numpy's
``exp``/``pow`` may differ from libm's by an ulp per term, and every sum is
exactly rounded, so a sum of positive terms moves by at most about one ulp.
"""

import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from torustrace.criteria import check_tt1
from torustrace.groups import (
    DUAL_SIZE_LIMIT,
    bessel_terms,
    bessel_trace,
    dual_size,
    enumerate_dual,
    heat_terms,
    heat_trace,
    series_diagnostics,
)

RTOL = 1e-15

# cutoffs on a 1/4 grid: integers, half-integers and values in between, 0 included
cutoffs = st.integers(min_value=0, max_value=24).map(lambda k: k / 4.0)
torus_duals = st.one_of(
    st.tuples(st.just("torus"), cutoffs, st.just(1), st.just(True)),
    st.tuples(st.just("torus"), cutoffs.filter(lambda c: c <= 4.0), st.just(2), st.just(True)),
    st.tuples(st.just("torus"), cutoffs.filter(lambda c: c <= 2.5), st.just(3), st.just(True)),
)
su2_duals = st.tuples(st.just("su2"), cutoffs, st.just(1), st.booleans())
duals = st.one_of(torus_duals, su2_duals)
TT1_CASES = {1: (1.5, 3.0), 2: (2.0, 1.0), 3: (1.5, 1.5), 4: (4.0, 2.0)}


def assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= RTOL * abs(w), (g, w)


def both(spec):
    group, cutoff, dim, half = spec
    return (
        enumerate_dual(group, cutoff, dim=dim, half_integers=half),
        oracles.enumerate_dual(group, cutoff, dim=dim, half_integers=half),
    )


@settings(max_examples=80, deadline=None)
@given(duals)
@example(("torus", 0.0, 1, True))
@example(("torus", 0.0, 3, True))
@example(("su2", 0.0, 1, True))
@example(("su2", 0.75, 1, True))
@example(("su2", 2.5, 1, False))
def test_enumeration_matches_oracle_exactly(spec):
    dual, points = both(spec)
    assert len(dual) == len(points) == dual_size(*spec)
    assert [tuple(x.item() for x in row) for row in dual.labels] == [p.label for p in points]
    assert dual.d.tolist() == [p.d for p in points]
    assert dual.lam.tolist() == [p.lam for p in points]
    assert dual.bracket.tolist() == [p.bracket for p in points]


@pytest.mark.filterwarnings("ignore::torustrace.groups.DivergenceWarning")
@settings(max_examples=80, deadline=None)
@given(duals, st.floats(0.05, 3.0), st.floats(0.5, 6.0))
@example(("torus", 0.0, 1, True), 1.0, 2.0)
@example(("su2", 0.25, 1, True), 1.0, 4.0)
def test_series_and_shell_sums_match_oracle(spec, t, alpha):
    dual, points = both(spec)
    for value, terms, want in (
        (heat_trace(dual, t), heat_terms(dual, t), oracles.heat_terms(points, t)),
        (bessel_trace(dual, alpha), bessel_terms(dual, alpha), oracles.bessel_terms(points, alpha)),
    ):
        assert_close([value], [math.fsum(want)])
        shell_sums = series_diagnostics(dual, terms)["shell_sums"]
        assert_close(shell_sums, oracles.dual_shell_sums(points, want))


def _symbols(kind: str, m: float):
    """(array-backed symbol, per-point oracle symbol) pairs of the same multiplier."""
    if kind == "scalar":
        return (lambda dual: dual.bracket**m), (lambda p: p.bracket**m)
    if kind == "complex":
        return (lambda dual: np.exp(1j * dual.lam) * dual.bracket**m,
                lambda p: complex(math.cos(p.lam), math.sin(p.lam)) * p.bracket**m)

    def matrix(b, d):
        return b**m * (np.eye(d) + 0.5j * np.triu(np.ones((d, d)), 1))

    return (lambda dual: [matrix(b, d) for b, d in zip(dual.bracket, dual.d)],
            lambda p: matrix(p.bracket, p.d))


@settings(max_examples=80, deadline=None)
@given(duals, st.sampled_from(sorted(TT1_CASES)), st.sampled_from([1.0, 0.5]),
       st.sampled_from(["scalar", "complex", "matrix"]), st.floats(-6.0, -1.0))
@example(("torus", 0.0, 1, True), 3, 1.0, "matrix", -4.0)
@example(("su2", 6.0, 1, True), 4, 1.0, "matrix", -4.0)
@example(("su2", 5.75, 1, False), 1, 0.5, "scalar", -3.0)
def test_tt1_partial_sums_match_oracle(spec, case, r, kind, m):
    dual, points = both(spec)
    p, q = TT1_CASES[case]
    a_dual, a_point = _symbols(kind, m)
    verdict = check_tt1(dual, a_dual, r, p, q, case)
    labels, shell_sums = oracles.tt1_shells(
        points, a_point, r,
        verdict.derived_params["dimension_exponent"],
        verdict.derived_params["bracket_exponent"],
        dual.lambda_cap,
    )
    assert verdict.witness.labels == labels
    assert_close(verdict.witness.partial_sums, list(accumulate(shell_sums)))


def test_symbol_of_wrong_length_rejected():
    dual = enumerate_dual("su2", 10)
    for a in (lambda dual: np.ones(1), lambda dual: [np.eye(2)] * (len(dual) - 1)):
        with pytest.raises(ValueError, match="one value or matrix per dual point"):
            check_tt1(dual, a, 1.0, 2.0, 2.0, 3)


@pytest.mark.parametrize(
    "group, cutoff, dim, half",
    [
        ("torus", 5e6, 1, True),  # 10^7 + 1 points
        ("torus", 2000.0, 2, True),
        ("torus", 1e300, 2, True),
        ("su2", 5e6, 1, True),
        ("su2", 1e7, 1, False),
        ("su2", math.inf, 1, True),
    ],
)
def test_dual_size_budget_refuses_before_allocating(group, cutoff, dim, half):
    # every size here is above the limit, so nothing is ever built
    assert dual_size(group, cutoff, dim, half) > DUAL_SIZE_LIMIT
    with pytest.raises(ValueError, match="lower the cutoff"):
        enumerate_dual(group, cutoff, dim=dim, half_integers=half)
