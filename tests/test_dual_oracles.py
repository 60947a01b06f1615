"""Array-backed dual data and series against the per-point oracles in ``oracles``.

Enumeration (order, d, lambda, each row repeated by its multiplicity) must
match exactly.  Series values, dyadic shell sums and tt1 partial sums must
match to 1e-15 relative: numpy's ``exp``/``pow`` may differ from libm's by an
ulp per term, and every sum is exactly rounded, so a sum of positive terms
moves by at most about one ulp.

The torus slice has one row per distinct lambda, weighted by its multiplicity.
It must give the results of the per-point slice (``per_point``, every row
repeated r(lambda) times) bit for bit: its terms are the same floats.
"""

import math
import struct
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
    SU2,
    UNBOUNDED_TAIL_NOTE,
    GroupDual,
    Torus,
    dual_size,
    dual_tail_bound,
    enumerate_dual,
    is_summable,
    summed_series,
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


def row_shells(dual: GroupDual) -> np.ndarray:
    """The bracket shell of each row, read off ``dual.cuts``."""
    return np.repeat(np.arange(dual.cuts.size - 1), np.diff(dual.cuts))


def row_terms(dual: GroupDual, envelope: tuple) -> np.ndarray:
    """One term per row: ``dual.terms`` with the exact zeros past its head written out."""
    terms = dual.terms(*envelope)
    return np.concatenate((terms, np.zeros(len(dual) - terms.size)))


def per_point(dual: GroupDual) -> GroupDual:
    """The slice with one row per dual point: every row repeated ``mult`` times."""
    return GroupDual(dual.group, dual.cutoff, np.repeat(dual.d, dual.mult),
                     np.repeat(dual.lam, dual.mult), np.ones(int(dual.mult.sum()), dtype=np.int64))


def record(group: str, dim: int, half: bool):
    """The group record of a (group, cutoff, dim, half_integers) spec."""
    return Torus(dim) if group == "torus" else SU2(half)


def both(spec):
    group, cutoff, dim, half = spec
    return (
        enumerate_dual(record(group, dim, half), cutoff),
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
    assert int(dual.mult.sum()) == len(points) == dual_size(dual.group, dual.cutoff)
    assert np.all(np.diff(dual.lam) > 0)  # one row per distinct lambda, ascending
    flat = per_point(dual)
    assert flat.d.tolist() == [p.d for p in points]
    assert flat.lam.tolist() == [p.lam for p in points]
    assert np.sqrt(1.0 + flat.lam).tolist() == [p.bracket for p in points]


@settings(max_examples=80, deadline=None)
@given(duals, st.floats(0.05, 3.0), st.floats(0.5, 6.0))
@example(("torus", 0.0, 1, True), 1.0, 2.0)
@example(("su2", 0.25, 1, True), 1.0, 4.0)
def test_series_and_shell_sums_match_oracle(spec, t, alpha):
    dual, points = both(spec)
    for envelope, want in (
        ((2.0, 0.0, t), oracles.heat_terms(points, t)),
        ((2.0, -alpha, 0.0), oracles.bessel_terms(points, alpha)),
    ):
        value, diag = summed_series(dual, envelope)
        assert_close([value], [math.fsum(want)])
        assert_close(diag["shell_sums"], oracles.dual_shell_sums(points, want))


def _multiplier(kind: str, u: float):
    """(check_tt1's multiplier keyword, the per-point oracle of its value): the
    bracket power <xi>^u or the heat multiplier e^{-u lambda}."""
    if kind == "bracket":
        return {"m": u}, lambda p: p.bracket**u
    return {"t": u}, lambda p: math.exp(-u * p.lam)


@settings(max_examples=80, deadline=None)
@given(duals, st.sampled_from(sorted(TT1_CASES)), st.sampled_from([1.0, 0.5]),
       st.sampled_from(["bracket", "heat"]), st.floats(-6.0, -1.0))
@example(("torus", 0.0, 1, True), 3, 1.0, "bracket", -4.0)
@example(("su2", 6.0, 1, True), 4, 1.0, "heat", -4.0)
@example(("su2", 5.75, 1, False), 1, 0.5, "bracket", -3.0)
def test_tt1_partial_sums_match_oracle(spec, case, r, kind, m):
    dual, points = both(spec)
    p, q = TT1_CASES[case]
    multiplier, a_point = _multiplier(kind, m if kind == "bracket" else -m / 4.0)  # heat t in [1/4, 3/2]
    verdict = check_tt1(dual, r, p, q, case, **multiplier)
    labels, shell_sums = oracles.tt1_shells(
        points, a_point, r,
        verdict["derived_params"]["dimension_exponent"],
        verdict["derived_params"]["bracket_exponent"],
        dual.group.lambda_cap(dual.cutoff),
    )
    assert verdict["witness"]["labels"] == labels
    assert_close(verdict["witness"]["partial_sums"], list(accumulate(shell_sums)))


# (group, cutoff, dim, half_integers, rows kept): whole slices, 0- and 1-row slices,
# and the spins l = 2^k - 1/2 (row 2^(k+1) - 1), whose lambda = 4^k - 1/4 puts
# floor(lambda) + 1 = 4^k exactly on a shell edge
@pytest.mark.parametrize("spec", [
    ("torus", 1000.0, 1, True, slice(None)),
    ("torus", 60.0, 2, True, slice(None)),
    ("su2", 2000.0, 1, True, slice(None)),
    ("su2", 2000.0, 1, False, slice(None)),
    ("torus", 0.0, 1, True, slice(None)),
    ("su2", 2000.0, 1, True, slice(0, 0)),
    ("su2", 2000.0, 1, True, slice(0, 1)),
    ("su2", 2000.0, 1, True, [2**6 - 1]),
    ("su2", 2**11 - 0.5, 1, True, [2 ** (k + 1) - 1 for k in range(11)]),
    ("su2", 2**11 - 0.5, 1, True, slice(None)),
], ids=["torus-1", "torus-2", "su2", "su2-integer", "torus-origin", "0-row", "1-row", "1-row-edge",
        "edge-spins", "su2-to-edge"])
def test_shells_are_cuts_of_the_row_by_row_binning(spec):
    group, cutoff, dim, half, rows = spec
    whole = enumerate_dual(record(group, dim, half), cutoff)
    dual = GroupDual(whole.group, cutoff, whole.d[rows], whole.lam[rows], whole.mult[rows])
    if isinstance(rows, list):  # spin l = (row + 1)/2 - 1/2 = 2^k - 1/2: floor(lambda) + 1 = 4^k
        assert [math.floor(lam) + 1 for lam in dual.lam.tolist()] == [((row + 1) // 2) ** 2 for row in rows]
    assert row_shells(dual).tolist() == oracles.bracket_shells(dual.lam).tolist()


def test_shells_cut_exactly_at_the_edges():
    # no dual row has lambda = 4^j - 1, so rows on, just below and just above each edge
    edges = 4.0 ** np.arange(1, 27) - 1.0
    lam = np.sort(np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]))
    ones = np.ones(lam.size, dtype=np.int64)
    dual = GroupDual(Torus(1), 0.0, ones, lam, ones)
    assert row_shells(dual).tolist() == oracles.bracket_shells(lam).tolist()


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
    radial = enumerate_dual(Torus(dim), cutoff)
    n, r = np.unique([p.lam for p in oracles.enumerate_dual("torus", cutoff, dim=dim)], return_counts=True)
    assert radial.group.dimension == dim
    assert radial.lam.tolist() == n.tolist() and radial.mult.tolist() == r.tolist()
    assert radial.d.tolist() == [1] * len(n) and int(radial.mult.sum()) == dual_size(Torus(dim), cutoff)
    assert row_shells(radial).tolist() == block_index(n.astype(np.int64) + 1).tolist()


@settings(max_examples=80, deadline=None)
@given(radial_duals, st.floats(1e-4, 3.0), st.sampled_from(["convergent", "divergent"]),
       st.floats(0.0, 1.0))
@example((40.0, 2), 1e-4, "divergent", 1.0)
@example((40.0, 1), 0.01, "convergent", 0.0)
@example((0.0, 2), 1.0, "divergent", 0.5)
def test_radial_series_match_the_per_point_path_bit_for_bit(spec, t, kind, u):
    cutoff, dim = spec
    radial = enumerate_dual(Torus(dim), cutoff)
    dual = per_point(radial)
    # alpha <= dim diverges; the convergent draws lie in (dim, dim + 3]
    alpha = dim * u if kind == "divergent" else dim + 3.0 * u + 1e-3
    for envelope in ((2.0, 0.0, t), (2.0, -alpha, 0.0)):
        want = summed_series(dual, envelope)
        got = summed_series(radial, envelope)
        assert bits(got) == bits(want)


@settings(max_examples=80, deadline=None)
@given(radial_duals, st.sampled_from(sorted(TT1_CASES)), st.sampled_from([1.0, 0.5]),
       st.sampled_from(["bracket", "heat"]), st.floats(-6.0, -0.5), st.floats(1e-4, 1.0))
@example((40.0, 2), 1, 1.0, "bracket", -4.0, 0.01)
@example((40.0, 2), 4, 0.5, "heat", -4.0, 1e-4)
def test_radial_tt1_verdict_matches_the_per_point_path_bit_for_bit(spec, case, r, kind, m, t):
    cutoff, dim = spec
    radial = enumerate_dual(Torus(dim), cutoff)
    dual = per_point(radial)
    p, q = TT1_CASES[case]
    # the CLI's catalog multipliers: bracket^m and exp(-t lambda)
    multiplier = {"m": m} if kind == "bracket" else {"t": t}
    got = check_tt1(radial, r, p, q, case, **multiplier)
    want = check_tt1(dual, r, p, q, case, **multiplier)
    assert bits(got) == bits(want)


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
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def series_by_math_fsum(dual: GroupDual, envelope: tuple):
    """``summed_series`` from ``math.fsum`` over the terms repeated by their
    multiplicities, whole and per dyadic bracket shell, the total first."""
    flat, shells = np.repeat(row_terms(dual, envelope), dual.mult), np.repeat(row_shells(dual), dual.mult)
    value = math.fsum(flat)
    shell_sums = [math.fsum(flat[shells == j]) for j in np.unique(shells)]
    tail = dual_tail_bound(dual.group, dual.cutoff, *envelope)
    diagnostics = {"shell_sums": shell_sums, "tail_estimate": tail, "converged": math.isfinite(tail)}
    if tail == math.inf and is_summable(dual.group, *envelope):
        diagnostics["tail_note"] = UNBOUNDED_TAIL_NOTE
    return value, diagnostics


@settings(max_examples=120, deadline=None)
@given(series_duals, st.one_of(st.floats(1e-8, 1e3), st.just(1e300)),
       st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-700.0, 700.0])))
@example(("torus", 40, 2, True), 1e300, -700.0)
@example(("su2", 600.0, 1, False), 1e-8, 700.0)
@example(("torus", 0, 1, True), 1.0, 0.0)
def test_heat_and_bessel_terms_keep_the_bits_of_their_expressions(spec, t, alpha):
    """``GroupDual.terms`` of the heat and Bessel envelopes has the bits of the
    expressions the series once wrote out: d d e^{-t lambda} and d d (1 + lambda)^{-alpha/2}."""
    group, cutoff, dim, half = spec
    dual = enumerate_dual(record(group, dim, half), cutoff)
    with np.errstate(over="ignore"):
        heat = dual.d * dual.d * np.exp(-t * dual.lam)
        bessel = dual.d * dual.d * (1.0 + dual.lam) ** (-alpha / 2)
    assert bits(row_terms(dual, (2.0, 0.0, t)).tolist()) == bits(heat.tolist())
    assert bits(row_terms(dual, (2.0, -alpha, 0.0)).tolist()) == bits(bessel.tolist())


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
    """``summed_series`` has the bits, or the exception, of two ``math.fsum`` calls
    over the repeated terms: the whole series first, then each dyadic shell."""
    group, cutoff, dim, half = spec
    dual = enumerate_dual(record(group, dim, half), cutoff)
    name, u = kind
    envelope = (2.0, 0.0, u) if name == "heat" else (2.0, -u, 0.0)
    want = outcome(series_by_math_fsum, dual, envelope)
    got = outcome(summed_series, dual, envelope)
    assert bits(got) == bits(want)


def every_row_terms(dual: GroupDual, a: float, b: float, s: float) -> np.ndarray:
    """The envelope's terms over every row, as ``GroupDual.terms`` wrote them before
    it cut the underflowed tail: three full-length factors multiplied in turn."""
    terms = None
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 past an overflowing bracket
        if a != 0 and dual.group.d_power:
            terms = dual.d.astype(np.float64) ** a
        if b != 0:
            bracket = (1.0 + dual.lam) ** (b / 2.0)
            terms = bracket if terms is None else np.multiply(terms, bracket, out=terms)
        if s != 0:
            decay = np.exp(-s * dual.lam)
            terms = decay if terms is None else np.multiply(terms, decay, out=terms)
    return np.ones(len(dual)) if terms is None else terms


# (a, b): heat, Bessel, a growing bracket, a bracket that overflows (nan past the
# head's edge), no factor but the decay
TERM_ENVELOPES = [(2.0, 0.0), (2.0, -3.0), (1.5, 2.5), (2.0, 700.0), (0.0, 0.0)]


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.0015, 1.0, 1e300, -17.7])
@pytest.mark.parametrize("group, cutoff", [(Torus(1), 2000), (Torus(2), 30), (SU2(True), 2000), (SU2(False), 2000)],
                         ids=["torus-1", "torus-2", "su2", "su2-integer"])
def test_terms_are_the_head_of_every_row_bit_for_bit(group, cutoff, s):
    """``GroupDual.terms`` evaluates the head rows only, with the bits of the
    full-length expression, and every row past the head is +0.0 there: a nan or
    inf past the head's edge keeps every row.  The torus dim-2 slice at cutoff 30
    holds lambda = 746 = 25^2 + 11^2, the edge 746/s at s = 1, in its head."""
    dual = enumerate_dual(group, cutoff)
    for a, b in TERM_ENVELOPES:
        want = every_row_terms(dual, a, b, s)
        with np.errstate(invalid="ignore"):
            got = dual.terms(a, b, s)
        assert bits(got.tolist()) == bits(want[:got.size].tolist())
        assert bits(want[got.size:].tolist()) == bits([0.0] * (len(dual) - got.size))
        if not s > 0 or not np.isfinite(want).all():
            assert got.size == len(dual)
    heat = dual.terms(2.0, 0.0, s)
    assert (heat.size < len(dual)) == (s > 0 and dual.lam[-1] > 746.0 / s)
    if group.name == "torus" and group.dimension == 2 and s == 1.0:
        assert dual.lam[heat.size - 1] == 746.0


def test_shells_past_the_head_are_reported_with_sum_zero():
    """The shells of ``heat-trace --group torus --dim 2 --t 0.01 --cutoff 1000`` past
    lambda = 746/t hold no evaluated row, and are reported, each with sum +0.0."""
    dual = enumerate_dual(Torus(2), 1000)
    value, diagnostics = summed_series(dual, (2.0, 0.0, 0.01))
    shells = oracles.bracket_shells(dual.lam)
    head = dual.terms(2.0, 0.0, 0.01).size
    assert len(diagnostics["shell_sums"]) == len(np.unique(shells)) == 11
    assert shells[head - 1] < shells[-1] - 1  # two whole shells past the head
    assert bits(diagnostics["shell_sums"][-2:]) == bits([0.0, 0.0])
    assert bits(value) == bits(314.15926535897933)


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
def test_dual_size_budget_refuses_before_allocating(capsys, monkeypatch, group, cutoff, dim, half):
    # every size here is above the limit, so the CLI builds nothing: a cutoff of inf
    # is refused by the flag table, the others by the budget check before the dual
    import torustrace.cli as cli

    assert dual_size(record(group, dim, half), cutoff) > DUAL_SIZE_LIMIT
    monkeypatch.setattr(cli, "enumerate_dual", lambda *a: pytest.fail("the dual was built"))
    code = cli.main(["heat-trace", "--group", group, "--dim", str(dim), "--t", "1", "--cutoff", str(cutoff),
                     *([] if half else ["--integer-spins"])])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if math.isfinite(cutoff):
        assert err == (f"error: the {group} dual at cutoff {cutoff} has more than {DUAL_SIZE_LIMIT} points; "
                       "lower --cutoff\n")
    else:
        assert "--cutoff: 'inf' is not a finite number >= 0" in err and "Traceback" not in err
