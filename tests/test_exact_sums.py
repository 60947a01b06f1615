"""The binned exact sum (``sums.fsum_by``) against ``math.fsum``, bit for bit.

Values are compared through ``struct.pack('<d')``, so the sign of a zero
counts.  Sizes sit on both sides of ``CROSSOVER`` and of each chunk boundary,
so the kernel, its chunk loop and the ``math.fsum`` fallback all run.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torustrace.sums as sums
from torustrace.groups import bessel_terms, enumerate_dual, heat_terms, series_diagnostics
from torustrace.sums import CHUNK, CROSSOVER, fsum, fsum_by, fsum_complex

SIZES = (0, 1, 7, CROSSOVER - 1, CROSSOVER, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
KINDS = ("normal", "subnormal", "wide", "cancel", "negative-zero", "signed-zeros", "integers")


def bits(x) -> bytes:
    return struct.pack("<d", x)


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
        def fallback(*args):
            raise AssertionError("finite terms above the crossover reached math.fsum")

        x = terms(kind, CHUNK + 1, np.random.default_rng(7))
        want = outcome(math.fsum, x)
        monkeypatch.setattr(sums, "_fsum_slices", fallback)
        assert outcome(fsum, x) == want

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
    series = {"bessel": bessel_terms(dual, 2.0), "heat": heat_terms(dual, 1e-6)}
    want = {name: [math.fsum(t[dual.shells == j]) for j in np.unique(dual.shells)]
            for name, t in series.items()}
    passed = []
    real_fsum = math.fsum

    def spy(values):
        if isinstance(values, np.ndarray):
            passed.append(values.size)
        return real_fsum(values)

    monkeypatch.setattr(math, "fsum", spy)
    for name, t in series.items():
        report = series_diagnostics(dual, t)
        assert [bits(v) for v in report["shell_sums"]] == [bits(v) for v in want[name]]
    assert len(dual) == 200001
    assert not [size for size in passed if size >= CROSSOVER]



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
        assert outcome(fsum, x, w) == self.want(None, x, w)
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
        assert outcome(fsum, x, w) == want

    @pytest.mark.parametrize("head", [[math.inf, 1.0], [-math.inf], [math.inf, -math.inf]])
    def test_infinities(self, head):
        x = np.zeros(400)
        x[: len(head)] = head
        w = np.arange(1, 401)
        assert outcome(fsum, x, w) == self.want(None, x, w)

    def test_all_negative_zero_and_nan(self):
        w = np.arange(1, 401)
        x = np.full(400, -0.0)
        assert outcome(fsum, x, w) == self.want(None, x, w) == bits(0.0)
        x[7] = math.nan
        assert math.isnan(fsum(x, w)) and math.isnan(math.fsum(np.repeat(x, w)))

    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 1.5])
    def test_terms_near_the_overflow_limit(self, scale):
        # every term is scale 2^1024 / sum(w): 0.25 lies under the kernel's limit, 0.5
        # sums to 2^1023 on the fallback, 1 and 1.5 overflow (OverflowError); with
        # alternating signs the same terms cancel
        w = np.full(2 * CROSSOVER, 3, dtype=np.int64)
        x = np.full(w.size, math.ldexp(scale / int(w.sum()), 1024))
        assert outcome(fsum, x, w) == self.want(None, x, w)
        x[::2] *= -1.0
        assert outcome(fsum, x, w) == self.want(None, x, w) == bits(0.0)

    def test_complex_weights_pass_through(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500) * 1e-200
        w = rng.integers(1, 20, 500)
        want = complex(math.fsum(np.repeat(z.real, w)), math.fsum(np.repeat(z.imag, w)))
        assert bits(fsum_complex(z, w).real) == bits(want.real)
        assert bits(fsum_complex(z, w).imag) == bits(want.imag)

    @pytest.mark.parametrize("w", [[1, 0, 2], [1, -1, 2], [1, 2]])
    def test_non_positive_or_misshapen_weights_refused(self, w):
        with pytest.raises(ValueError, match="weights"):
            fsum_by(None, np.ones(3), np.array(w))
