"""The binned exact sum (``sums.fsum_by``) against ``math.fsum``, bit for bit.

Values are compared through ``struct.pack('<d')``, so the sign of a zero
counts.  Sizes sit on both sides of ``CROSSOVER`` and of each chunk boundary,
so the kernel, its chunk loop and the ``math.fsum`` fallback all run.  The
``sorted`` and ``zero-tail`` kinds are shaped like dual series, so the one-group
and rows-as-groups sums take the run-reduced kernel and drop exact zeros.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torustrace.sums as sums
from torustrace.criteria import check_tt1
from torustrace.groups import enumerate_dual, summed_series
from torustrace.sums import CHUNK, CROSSOVER, fsum, fsum_by, fsum_complex

SIZES = (0, 1, 7, CROSSOVER - 1, CROSSOVER, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
KINDS = ("normal", "subnormal", "wide", "cancel", "negative-zero", "signed-zeros", "integers", "sorted",
         "zero-tail")


def bits(x) -> bytes:
    return struct.pack("<d", x)


def weighted_fsum(x, w):
    """The one-group weighted sum: ``fsum_by``'s first group."""
    return fsum_by(None, x, w)[0]


def outcome(fn, *args):
    """Bits of the result, or the exception's type and message."""
    try:
        result = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(result, list):
        return [bits(x) for x in result]
    return bits(result)


def terms(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6)
    if kind == "subnormal":  # multiples of 2^-1074 below 2^-1022, some normal neighbours
        x = sign * np.ldexp(rng.integers(1, 2**52, n).astype(np.float64), -1074)
        x[: n // 8] = np.ldexp(x[: n // 8], 60)
        return x
    if kind == "wide":  # spans 10^-300 .. 10^300
        return sign * rng.random(n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "cancel":  # pairs x, -x and zeros of both signs: the exact sum is 0
        half = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-300, 300, n // 2)
        x = np.concatenate([half, -half, np.full(n - 2 * (n // 2), -0.0)])
        return x[rng.permutation(n)]
    if kind == "negative-zero":
        return np.full(n, -0.0)
    if kind == "signed-zeros":
        return sign * 0.0
    if kind == "sorted":  # monotone, one exponent per 5000 terms: runs straddle the CHUNK boundaries
        mantissas = np.sort(1.0 + rng.random(n))[::-1]
        return sign[:1] * np.ldexp(mantissas, int(rng.integers(-60, 60)) - np.arange(n) // 5000)
    if kind == "zero-tail":  # decaying to subnormals, +0.0 where exp underflows, then -0.0
        x = np.exp(-745.2 / (rng.uniform(0.3, 0.5) * max(n, 1)) * np.arange(n))
        x[2 * n // 3:] = -0.0  # the last third of the rows as groups are all -0.0
        return x
    # 53-bit integers at clustered exponents: long carries between bins
    return np.ldexp(rng.integers(-(2**53) + 1, 2**53, n).astype(np.float64), rng.integers(-40, -30, n))


class TestMatchesMathFsum:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SIZES), st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
           st.integers(1, 9))
    def test_fsum_and_fsum_by(self, n, kind, seed, group_count):
        rng = np.random.default_rng(seed)
        x = terms(kind, n, rng)
        assert outcome(fsum, x) == outcome(math.fsum, x)
        # every other group id is unused, so groups in the middle are empty
        groups = 2 * rng.integers(0, group_count, n)
        want = [math.fsum(x[groups == g]) for g in range(groups.max() + 1)] if n else []
        assert outcome(fsum_by, groups, x) == [bits(v) for v in want]
        # rows as groups; their length need not divide CHUNK
        rows = x[: n - n % group_count].reshape(group_count, -1)
        assert outcome(fsum_by, None, rows) == [bits(math.fsum(row)) for row in rows]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.sampled_from(SIZES[3:7]), st.integers(0, 2**32 - 1))
    def test_arbitrary_finite_floats(self, pattern, n, seed):
        # tiled hypothesis floats, up to DBL_MAX: exact results and OverflowErrors alike
        x = np.resize(np.array(pattern), n)[np.random.default_rng(seed).permutation(n)]
        assert outcome(fsum, x) == outcome(math.fsum, x)

    @pytest.mark.parametrize("n", [CROSSOVER, 2 * CHUNK + 1])
    def test_complex_sum_is_componentwise(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) * 1e200 + 1j * rng.standard_normal(n) * 1e-200
        want = complex(math.fsum(z.real), math.fsum(z.imag))
        assert fsum_complex(z) == want and bits(fsum_complex(z).imag) == bits(want.imag)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kernel_runs_without_the_fallback(self, monkeypatch, kind):
        # zeros are dropped before the path is chosen: the terms reach math.fsum only
        # when fewer than CROSSOVER of them are nonzero (all zeros here, or none)
        x = terms(kind, CHUNK + 1, np.random.default_rng(7))
        want = outcome(math.fsum, x)
        seen = []
        real = sums._fsum_slices
        monkeypatch.setattr(sums, "_fsum_slices", lambda *a: seen.append(a) or real(*a))
        assert outcome(fsum, x) == want
        assert len(seen) == (np.count_nonzero(x) < CROSSOVER)

    def test_empty_inputs(self):
        assert bits(fsum(np.array([]))) == bits(math.fsum([]))
        assert fsum_by(np.array([], dtype=np.int64), np.array([])) == []
        assert fsum_complex(np.array([])) == 0j

    def test_more_groups_than_max_groups(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4 * CROSSOVER)
        groups = rng.integers(0, sums.MAX_GROUPS + 5, x.size)
        want = [math.fsum(x[groups == g]) for g in range(groups.max() + 1)]
        assert outcome(fsum_by, groups, x) == [bits(v) for v in want]


class TestExceptionParity:
    """inf, nan and sums near DBL_MAX give math.fsum's value or exception."""

    @staticmethod
    def padded(head) -> np.ndarray:
        x = np.zeros(2 * CROSSOVER)
        x[: len(head)] = head
        return x

    @pytest.mark.parametrize("head", [
        [math.inf, 1.0],
        [-math.inf, -math.inf],
        [math.inf, -math.inf],  # ValueError
        [1.7e308, 1.7e308, -1.7e308],  # OverflowError: intermediate overflow
        [1.7e308, -1.7e308, 1.7e308],  # finite, although near the top of the range
        [2.0**1023, 2.0**1023],  # OverflowError
    ])
    def test_specials(self, head):
        x = self.padded(head)
        want = outcome(math.fsum, x)
        assert outcome(fsum, x) == want
        got = outcome(fsum_by, np.zeros(x.size, dtype=np.int64), x)
        assert got == (want if isinstance(want, tuple) else [want])

    def test_nan(self):
        x = self.padded([1.0, math.nan])
        assert math.isnan(math.fsum(x)) and math.isnan(fsum(x))
        assert math.isnan(fsum_by(np.zeros(x.size, dtype=np.int64), x)[0])

    def test_first_failing_group_raises(self):
        x = self.padded([1.0, math.inf, -math.inf])
        groups = np.zeros(x.size, dtype=np.int64)
        groups[1:3] = 1
        with pytest.raises(ValueError):
            math.fsum(x[1:3])
        assert outcome(fsum_by, groups, x) == outcome(math.fsum, x[1:3])


def test_dual_diagnostics_take_no_ndarray_above_the_crossover_to_math_fsum(monkeypatch):
    """Tripwire: the shell sums of a 200001-point dual go through the bins."""
    dual = enumerate_dual("torus", 100000, dim=1)
    envelopes = {"bessel": (2.0, -2.0, 0.0), "heat": (2.0, 0.0, 1e-6)}
    shells = np.repeat(dual.shells, dual.mult)
    want = {name: [math.fsum(np.repeat(dual.terms(*e), dual.mult)[shells == j]) for j in np.unique(shells)]
            for name, e in envelopes.items()}
    passed = []
    real_fsum = math.fsum

    def spy(values):
        if isinstance(values, np.ndarray):
            passed.append(values.size)
        return real_fsum(values)

    monkeypatch.setattr(math, "fsum", spy)
    for name, envelope in envelopes.items():
        report = summed_series(dual, envelope)[1]
        assert [bits(v) for v in report["shell_sums"]] == [bits(v) for v in want[name]]
    assert int(dual.mult.sum()) == 200001
    assert not [size for size in passed if size >= CROSSOVER]



def test_dual_series_take_the_run_reduced_kernel_with_their_nonzero_terms(monkeypatch):
    """The torus dim-1 cutoff-1e5 Bessel series bins every chunk run-reduced, and the
    SU(2) cutoff-2e4 heat series of tt1 hands only its nonzero terms to the exact sum:
    the kernel sees them and nothing else, and no ndarray of terms reaches math.fsum."""
    runs = []
    reduce_runs = sums._reduce_runs

    def spy_runs(key, hi, lo):
        reduced = reduce_runs(key, hi, lo)
        runs.append((key.size, reduced[0].size))
        return reduced

    passed = []
    real_fsum = math.fsum

    def spy_fsum(values):
        if isinstance(values, np.ndarray):
            passed.append(values.size)
        return real_fsum(values)

    torus = enumerate_dual("torus", 100000, dim=1)
    bessel = np.repeat(torus.terms(2.0, -2.0, 0.0), torus.mult)
    su2 = enumerate_dual("su2", 20000)
    heat = su2.terms(2.0, 0.0, 0.0015)  # case 4 at p = 2, r = 1: d^2 e^{-t lambda}
    monkeypatch.setattr(sums, "_reduce_runs", spy_runs)
    monkeypatch.setattr(math, "fsum", spy_fsum)
    value = summed_series(torus, (2.0, -2.0, 0.0))[0]
    assert sum(size for size, _ in runs) == len(torus) > 3 * CHUNK
    assert all(reduced * 16 <= size for size, reduced in runs)
    runs.clear()
    verdict = check_tt1(su2, 1.0, 2.0, 2.0, 4, t=0.0015)
    assert [size for size, _ in runs] == [np.count_nonzero(heat)] == [1409]
    assert passed == []
    monkeypatch.undo()
    assert bits(value) == bits(math.fsum(bessel))
    assert bits(verdict["witness"]["partial_sums"][-1]) == bits(61042.302096036867)


class TestWeights:
    """A term of weight w sums as w copies: ``math.fsum(np.repeat(values, w))``."""

    @staticmethod
    def want(groups, x, w):
        rx = np.repeat(x, w)
        if groups is None:
            return outcome(math.fsum, rx)
        rg = np.repeat(groups, w)
        out = [outcome(math.fsum, rx[rg == g]) for g in range(groups.max() + 1)] if groups.size else []
        for o in out:  # the first failing group's exception, as fsum_by raises it
            if isinstance(o, tuple):
                return o
        return out

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from((1, 7, 300, CROSSOVER - 1, CROSSOVER, CHUNK + 1)), st.sampled_from(KINDS),
           st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 4, 100, 5000)), st.integers(1, 9))
    def test_weighted_sums_match_repeated_terms(self, n, kind, seed, top, group_count):
        rng = np.random.default_rng(seed)
        x = terms(kind, n, rng)
        w = rng.integers(1, max(1, min(top, 100_000 // n)) + 1, n)  # at most 10^5 repeated terms
        assert outcome(weighted_fsum, x, w) == self.want(None, x, w)
        groups = 2 * rng.integers(0, group_count, n)
        assert outcome(fsum_by, groups, x, w) == self.want(groups, x, w)

    @pytest.mark.parametrize("total", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
    @pytest.mark.parametrize("group_count", [1, sums.MAX_GROUPS, sums.MAX_GROUPS + 1])
    def test_counts_across_crossover_and_max_groups(self, total, group_count):
        # fewer distinct terms than CROSSOVER, standing for about CROSSOVER terms
        rng = np.random.default_rng(total + group_count)
        n = max(2 * group_count, 8)
        w = np.ones(n, dtype=np.int64)
        w[0] = total - n + 1
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n)
        groups = np.arange(n) % group_count
        assert outcome(fsum_by, groups, x, w) == self.want(groups, x, w)

    def test_weighted_kernel_runs_without_the_fallback(self, monkeypatch):
        # 300 distinct finite terms standing for about 10^5: no expansion to math.fsum
        rng = np.random.default_rng(11)
        x, w = terms("wide", 300, rng), rng.integers(1, 700, 300)
        want = self.want(None, x, w)
        monkeypatch.setattr(sums, "_fsum_slices", lambda *args: pytest.fail("fell back"))
        assert outcome(weighted_fsum, x, w) == want

    @pytest.mark.parametrize("head", [[math.inf, 1.0], [-math.inf], [math.inf, -math.inf]])
    def test_infinities(self, head):
        x = np.zeros(400)
        x[: len(head)] = head
        w = np.arange(1, 401)
        assert outcome(weighted_fsum, x, w) == self.want(None, x, w)

    def test_all_negative_zero_and_nan(self):
        w = np.arange(1, 401)
        x = np.full(400, -0.0)
        assert outcome(weighted_fsum, x, w) == self.want(None, x, w) == bits(0.0)
        x[7] = math.nan
        assert math.isnan(weighted_fsum(x, w)) and math.isnan(math.fsum(np.repeat(x, w)))

    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 1.5])
    def test_terms_near_the_overflow_limit(self, scale):
        # every term is scale 2^1024 / sum(w): 0.25 lies under the kernel's limit, 0.5
        # sums to 2^1023 on the fallback, 1 and 1.5 overflow (OverflowError); with
        # alternating signs the same terms cancel
        w = np.full(2 * CROSSOVER, 3, dtype=np.int64)
        x = np.full(w.size, math.ldexp(scale / int(w.sum()), 1024))
        assert outcome(weighted_fsum, x, w) == self.want(None, x, w)
        x[::2] *= -1.0
        assert outcome(weighted_fsum, x, w) == self.want(None, x, w) == bits(0.0)

    @pytest.mark.parametrize("w", [[1, 0, 2], [1, -1, 2], [1, 2]])
    def test_non_positive_or_misshapen_weights_refused(self, w):
        with pytest.raises(ValueError, match="weights"):
            fsum_by(None, np.ones(3), np.array(w))

    @pytest.mark.parametrize("n", [7, CROSSOVER - 1, CROSSOVER, CHUNK + 1])
    @pytest.mark.parametrize("kind", ["wide", "cancel", "negative-zero"])
    def test_unit_weights_are_no_weights(self, monkeypatch, n, kind):
        # SU(2) and per-point duals pass weights that are all 1: math.fsum's bits, and
        # neither the kernel nor the fallback sees the weights
        rng = np.random.default_rng(n)
        x, w = terms(kind, n, rng), np.ones(n, dtype=np.int64)
        groups = rng.integers(0, 3, n)
        assert outcome(weighted_fsum, x, w) == outcome(math.fsum, x)
        assert outcome(fsum_by, groups, x, w) == [bits(math.fsum(x[groups == g])) for g in range(3)]
        seen = []
        real = sums._fsum_slices
        monkeypatch.setattr(sums, "_fsum_slices", lambda *a: seen.append(a[3]) or real(*a))
        fsum_by(groups, x, w)
        # zeros are dropped before the path is chosen: CROSSOVER counts nonzero terms
        assert seen == ([None] if np.count_nonzero(x) < CROSSOVER else [])


class TestTotal:
    """``fsum_by(groups, values, weights, total=True)`` is (``fsum_by(groups, values,
    weights)``, ``fsum_by(None, values, weights)[0]``) bit for bit from one call; an
    exception is the total's when the one-group sum raises, else the group sums'."""

    @staticmethod
    def want(groups, x, w):
        total = outcome(weighted_fsum, x, w)
        if isinstance(total, tuple):
            return total
        by = outcome(fsum_by, groups, x, w)
        return by if isinstance(by, tuple) else (by, total)

    @staticmethod
    def got(groups, x, w):
        try:
            by, total = fsum_by(groups, x, w, total=True)
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)
        return [bits(v) for v in by], bits(total)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((0, 1, 300, CROSSOVER - 1, CROSSOVER, CHUNK + 1)),
           st.sampled_from(KINDS + ("specials", "near-overflow")), st.integers(0, 2**32 - 1),
           st.sampled_from((1, 3, sums.MAX_GROUPS, sums.MAX_GROUPS + 1)),
           st.sampled_from((None, 1, 3, 50)))
    def test_total_and_group_sums_from_one_call(self, n, kind, seed, group_count, top):
        rng = np.random.default_rng(seed)
        if kind == "specials":  # inf, -inf and nan among normal terms
            x = terms("normal", n, rng)
            x[rng.integers(0, max(n, 1), min(n, 3))] = rng.choice([math.inf, -math.inf, math.nan], min(n, 3))
        elif kind == "near-overflow":  # n max|x| near 2^1024: some sums overflow, most do not
            top_exponent = min(1024 - n.bit_length() + int(rng.integers(-3, 3)), 1023)
            x = rng.choice([-1.0, 1.0, 1.0], n) * np.ldexp(rng.random(n), top_exponent)
        else:
            x = terms(kind, n, rng)
        w = None if top is None else rng.integers(1, top + 1, n)
        groups = rng.integers(0, group_count, n)
        if n:
            groups[0] = group_count - 1  # max(groups) + 1 is the group count, on each side of MAX_GROUPS
        assert self.got(groups, x, w) == self.want(groups, x, w)

    def test_kernel_total_is_the_bins_total(self, monkeypatch):
        # finite terms above the crossover: group sums and total from one binned pass
        rng = np.random.default_rng(9)
        x, w = terms("wide", CHUNK + 1, rng), rng.integers(1, 4, CHUNK + 1)
        groups = rng.integers(0, 17, x.size)
        want = self.want(groups, x, w)
        monkeypatch.setattr(sums, "_fsum_slices", lambda *args: pytest.fail("fell back"))
        assert self.got(groups, x, w) == want

    def test_rows_as_groups(self):
        x = terms("cancel", 3 * CROSSOVER, np.random.default_rng(2)).reshape(3, -1)
        by, total = fsum_by(None, x, total=True)
        assert [bits(v) for v in by] == [bits(math.fsum(row)) for row in x]
        assert bits(total) == bits(math.fsum(x.ravel()))
