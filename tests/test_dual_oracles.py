"""Array-backed dual data and series against the per-point oracles in ``oracles``.

Enumeration (labels, order, d, lambda) must match exactly.  Series values,
dyadic shell sums and tt1 partial sums must match to 1e-15 relative: numpy's
``exp``/``pow`` may differ from libm's by an ulp per term, and every sum is
exactly rounded, so a sum of positive terms moves by at most about one ulp.

The radial torus slice (one row per distinct lambda, weighted by its
multiplicity) must give the per-point slice's results bit for bit: its terms
are the same floats, each repeated r(lambda) times.
"""

import math
import struct
from dataclasses import asdict
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from torustrace.besov import block_index
from torustrace.criteria import check_tt1
from torustrace.groups import (
    DUAL_SIZE_LIMIT,
    bessel_terms,
    bessel_trace,
    dual_size,
    enumerate_dual,
    heat_terms,
    heat_trace,
    multiplier_trace,
    series_diagnostics,
    summed_series,
)
from torustrace.sums import fsum

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


radial_duals = st.tuples(st.integers(0, 160).map(lambda k: k / 4.0), st.sampled_from([1, 2]))


def bits(value) -> str:
    """Exact text of a report value: floats by their bytes, so -0.0 and nan count."""
    if isinstance(value, float):
        return struct.pack("<d", value).hex()
    if isinstance(value, complex):
        return bits(value.real) + "+" + bits(value.imag) + "j"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{bits(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(bits(v) for v in value) + "]"
    return repr(value)


@settings(max_examples=60, deadline=None)
@given(radial_duals)
@example((0.0, 1))
@example((0.0, 2))
@example((40.0, 2))
def test_radial_slice_counts_every_point(spec):
    cutoff, dim = spec
    radial = enumerate_dual("torus", cutoff, dim=dim, radial=True)
    dual = enumerate_dual("torus", cutoff, dim=dim)
    n, r = np.unique(dual.lam, return_counts=True)
    assert radial.labels is None and radial.group_dimension == dim
    assert radial.lam.tolist() == n.tolist() and radial.mult.tolist() == r.tolist()
    assert radial.d.tolist() == [1] * len(n) and int(radial.mult.sum()) == dual_size("torus", cutoff, dim)
    assert radial.lambda_cap == dual.lambda_cap
    assert radial.shells.tolist() == block_index(n.astype(np.int64) + 1).tolist()
    assert radial.bracket.tolist() == np.sqrt(1.0 + n).tolist()


@pytest.mark.filterwarnings("ignore::torustrace.groups.DivergenceWarning")
@settings(max_examples=80, deadline=None)
@given(radial_duals, st.floats(1e-4, 3.0), st.sampled_from(["convergent", "divergent"]),
       st.floats(0.0, 1.0))
@example((40.0, 2), 1e-4, "divergent", 1.0)
@example((40.0, 1), 0.01, "convergent", 0.0)
@example((0.0, 2), 1.0, "divergent", 0.5)
def test_radial_series_match_the_per_point_path_bit_for_bit(spec, t, kind, u):
    cutoff, dim = spec
    radial = enumerate_dual("torus", cutoff, dim=dim, radial=True)
    dual = enumerate_dual("torus", cutoff, dim=dim)
    # alpha <= dim diverges; the convergent draws lie in (dim, dim + 3]
    alpha = dim * u if kind == "divergent" else dim + 3.0 * u + 1e-3
    divergent = kind == "divergent"
    assert bits(heat_trace(radial, t)) == bits(heat_trace(dual, t))
    assert bits(bessel_trace(radial, alpha)) == bits(bessel_trace(dual, alpha))
    for terms in (heat_terms, lambda d, _: bessel_terms(d, alpha)):
        for flag in (False, divergent):
            want = series_diagnostics(dual, terms(dual, t), divergent=flag)
            got = series_diagnostics(radial, terms(radial, t), divergent=flag)
            assert bits(got) == bits(want)
    symbol = lambda d: np.exp(1j * d.lam) * d.bracket ** -alpha  # noqa: E731
    assert bits(multiplier_trace(radial, symbol)) == bits(multiplier_trace(dual, symbol))


@settings(max_examples=80, deadline=None)
@given(radial_duals, st.sampled_from(sorted(TT1_CASES)), st.sampled_from([1.0, 0.5]),
       st.sampled_from(["bracket", "heat"]), st.floats(-6.0, -0.5), st.floats(1e-4, 1.0))
@example((40.0, 2), 1, 1.0, "bracket", -4.0, 0.01)
@example((40.0, 2), 4, 0.5, "heat", -4.0, 1e-4)
def test_radial_tt1_verdict_matches_the_per_point_path_bit_for_bit(spec, case, r, kind, m, t):
    cutoff, dim = spec
    radial = enumerate_dual("torus", cutoff, dim=dim, radial=True)
    dual = enumerate_dual("torus", cutoff, dim=dim)
    p, q = TT1_CASES[case]
    # the CLI's catalog multipliers: bracket^m and exp(-t lambda)
    symbol = (lambda d: d.bracket**m) if kind == "bracket" else (lambda d: np.exp(-t * d.lam))
    got = check_tt1(radial, symbol, r, p, q, case)
    want = check_tt1(dual, symbol, r, p, q, case)
    assert bits(asdict(got)) == bits(asdict(want))


# the CLI's slices: radial torus in dims 1 and 2, and SU(2); large enough that the
# weighted term counts cross sums.CROSSOVER
series_duals = st.one_of(
    st.tuples(st.just("torus"), st.integers(0, 700), st.just(1), st.just(True)),
    st.tuples(st.just("torus"), st.integers(0, 40), st.just(2), st.just(True)),
    st.tuples(st.just("su2"), st.integers(0, 1200).map(lambda k: k / 2.0), st.just(1), st.booleans()),
)
# heat t and Bessel alpha, including terms that overflow to inf (alpha -300), sums that
# overflow from finite terms (alpha -280 near the top of the dual) and terms that
# underflow to 0 (t 1e300)
series_kinds = st.one_of(
    st.tuples(st.just("heat"), st.one_of(st.floats(1e-5, 3.0), st.just(1e300))),
    st.tuples(st.just("bessel"), st.one_of(st.floats(-300.0, 6.0), st.sampled_from([-300.0, -280.0, 1000.0]))),
    st.tuples(st.just("signed"), st.floats(0.5, 4.0)),
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore::torustrace.groups.DivergenceWarning")
@settings(max_examples=120, deadline=None)
@given(series_duals, series_kinds)
@example(("torus", 100000, 1, True), ("bessel", 2.0))
@example(("torus", 600, 1, True), ("bessel", -300.0))
@example(("torus", 40, 2, True), ("bessel", -280.0))
@example(("torus", 40, 2, True), ("heat", 1e300))
@example(("su2", 600.0, 1, True), ("heat", 1e300))
@example(("su2", 600.0, 1, False), ("bessel", -300.0))
@example(("torus", 0, 1, True), ("heat", 1.0))
def test_summed_series_matches_the_two_calls_bit_for_bit(spec, kind):
    group, cutoff, dim, half = spec
    dual = enumerate_dual(group, cutoff, dim=dim, half_integers=half, radial=True)
    name, u = kind
    if name == "heat":
        terms = heat_terms(dual, u)
    elif name == "bessel":
        terms = bessel_terms(dual, u)
    else:  # terms of both signs: the value and the shell sums of |term| are two reductions
        terms = np.cos(dual.lam) * bessel_terms(dual, u)
    for divergent in (False, True):
        want = outcome(lambda: (fsum(terms, dual.mult), series_diagnostics(dual, terms, divergent)))
        got = outcome(summed_series, dual, terms, divergent)
        assert bits(got) == bits(want)


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
