"""The binned exact sum (``sums.fsum_by``) against ``math.fsum``, bit for bit.

Values are compared through ``struct.pack('<d')``, so the sign of a zero
counts.  Sizes sit on both sides of ``CROSSOVER`` and of each chunk boundary,
so the kernel, its chunk loop and the ``math.fsum`` fallback all run.  The
``sorted`` and ``zero-tail`` kinds are shaped like dual series, so the one-group
and rows-as-groups sums take the run-reduced kernel, exact zeros included.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import torustrace.sums as sums
from torustrace.criteria import check_tt1
from torustrace.groups import SU2, Torus, enumerate_dual, summed_series
from torustrace.sums import CHUNK, CROSSOVER, fsum, fsum_by, fsum_complex

SIZES = (0, 1, 7, CROSSOVER - 1, CROSSOVER, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
KINDS = ("normal", "subnormal", "wide", "cancel", "negative-zero", "signed-zeros", "integers", "sorted",
         "zero-tail")


def bits(x) -> bytes:
    return struct.pack("<d", x)


def weighted_fsum(x, w):
    """The one-group weighted sum: ``fsum_by``'s first group."""
    return fsum_by(x, w)[0]


def contiguous(groups, x, w=None):
    """``x`` and ``w`` sorted stably by their group labels, and the cuts of groups
    0 .. max(groups) in that order (a label no term has is an empty group).  Within
    a group the terms keep their order, so ``math.fsum`` over ``x[groups == g]`` sees
    them as ``fsum_by`` does, exceptions included."""
    order = np.argsort(groups, kind="stable")
    cuts = np.searchsorted(groups[order], np.arange(groups.max() + 2 if groups.size else 1))
    return x[order], None if w is None else w[order], cuts


def outcome(fn, *args, **kwargs):
    """Bits of the result, or the exception's type and message."""
    try:
        result = fn(*args, **kwargs)
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


class KernelSpy:
    """numpy as ``sums`` sees it, noting the terms of each ``np.frexp`` call (one a
    chunk) in ``chunks`` and the (terms, runs) of each ``np.add.reduceat`` call (the
    hi and lo parts of a chunk of long runs, together) in ``runs``."""

    def __init__(self):
        self.chunks, self.runs = [], []
        spy = self

        class Add:
            def reduceat(self, parts, starts, **kwargs):
                spy.runs.append((parts.shape[-1], starts.size))
                return np.add.reduceat(parts, starts, **kwargs)

            def __getattr__(self, name):
                return getattr(np.add, name)

        self.add = Add()

    def frexp(self, x, **kwargs):
        self.chunks.append(x.size)
        return np.frexp(x, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)

    def long_chunks(self) -> list[int]:
        """Terms of each chunk that took the long-run path, after checking that its
        runs average 16 terms or more."""
        assert all(reduced * 16 <= size for size, reduced in self.runs)
        return [size for size, _ in self.runs]


@pytest.fixture
def kernel(monkeypatch) -> KernelSpy:
    spy = KernelSpy()
    monkeypatch.setattr(sums, "np", spy)
    return spy


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
        xs, _, cuts = contiguous(groups, x)
        assert outcome(fsum_by, xs, cuts=cuts) == [bits(v) for v in want]
        # rows as groups; their length need not divide CHUNK
        rows = x[: n - n % group_count].reshape(group_count, -1)
        assert outcome(fsum_by, rows) == [bits(math.fsum(row)) for row in rows]

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
        # zeros reach the kernel like any other term: CHUNK + 1 finite terms never
        # reach math.fsum, all zeros included
        x = terms(kind, CHUNK + 1, np.random.default_rng(7))
        want = outcome(math.fsum, x)
        seen = []
        real = sums._fsum_slices
        monkeypatch.setattr(sums, "_fsum_slices", lambda *a: seen.append(a) or real(*a))
        assert outcome(fsum, x) == want
        assert seen == []

    def test_empty_inputs(self):
        assert bits(fsum(np.array([]))) == bits(math.fsum([]))
        assert fsum_by(np.array([]), cuts=[0]) == []
        assert fsum_complex(np.array([])) == 0j

    def test_more_groups_than_max_groups(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4 * CROSSOVER)
        groups = rng.integers(0, sums.MAX_GROUPS + 5, x.size)
        want = [math.fsum(x[groups == g]) for g in range(groups.max() + 1)]
        xs, _, cuts = contiguous(groups, x)
        assert outcome(fsum_by, xs, cuts=cuts) == [bits(v) for v in want]


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
        got = outcome(fsum_by, x)
        assert got == (want if isinstance(want, tuple) else [want])

    def test_nan(self):
        x = self.padded([1.0, math.nan])
        assert math.isnan(math.fsum(x)) and math.isnan(fsum(x))
        assert math.isnan(fsum_by(x)[0])

    def test_first_failing_group_raises(self):
        x = self.padded([1.0, math.inf, -math.inf])
        with pytest.raises(ValueError):
            math.fsum(x[1:3])
        assert outcome(fsum_by, x, cuts=[0, 1, 3, x.size]) == outcome(math.fsum, x[1:3])


def test_dual_diagnostics_take_no_ndarray_above_the_crossover_to_math_fsum(monkeypatch):
    """Tripwire: the shell sums of a 200001-point dual go through the bins."""
    dual = enumerate_dual(Torus(1), 100000)
    envelopes = {"bessel": (2.0, -2.0, 0.0), "heat": (2.0, 0.0, 1e-6)}
    shells = np.repeat(oracles.bracket_shells(dual.lam), dual.mult)
    rows = {}
    for name, envelope in envelopes.items():  # one term per row: the zeros past the head written out
        head = dual.terms(*envelope)
        rows[name] = np.concatenate((head, np.zeros(len(dual) - head.size)))
    want = {name: [math.fsum(np.repeat(rows[name], dual.mult)[shells == j]) for j in np.unique(shells)]
            for name in envelopes}
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



def test_dual_series_take_the_run_reduced_kernel_with_their_nonzero_terms(monkeypatch, kernel):
    """The torus dim-1 cutoff-1e5 Bessel series sums every chunk's runs with
    ``np.add.reduceat``, 16 terms a run or more, and the SU(2) cutoff-2e4 heat series
    of tt1 hands its head (the rows with lambda <= 746/t: 1409 nonzero terms and one
    that underflowed to zero) to the exact sum: 1410 terms in 10 shells, fewer than
    CROSSOVER a shell, so ``math.fsum`` sums them as lists, zeros included, and the
    kernel sees nothing of them; no ndarray of terms reaches math.fsum."""
    passed = []
    real_fsum = math.fsum

    def spy_fsum(values):
        if isinstance(values, np.ndarray):
            passed.append(values.size)
        return real_fsum(values)

    torus = enumerate_dual(Torus(1), 100000)
    bessel = np.repeat(torus.terms(2.0, -2.0, 0.0), torus.mult)
    su2 = enumerate_dual(SU2(True), 20000)
    heat = su2.terms(2.0, 0.0, 0.0015)  # case 4 at p = 2, r = 1: d^2 e^{-t lambda}
    monkeypatch.setattr(math, "fsum", spy_fsum)
    value = summed_series(torus, (2.0, -2.0, 0.0))[0]
    assert kernel.chunks == [min(CHUNK, len(torus) - start) for start in range(0, len(torus), CHUNK)]
    assert len(kernel.chunks) > 3 and kernel.long_chunks() == kernel.chunks
    kernel.chunks.clear()
    kernel.runs.clear()
    real_slices, lists = sums._fsum_slices, []
    monkeypatch.setattr(sums, "_fsum_slices", lambda values, cuts: lists.append(
        (values.size, len(cuts) - 1)) or real_slices(values, cuts))
    verdict = check_tt1(su2, 1.0, 2.0, 2.0, 4, t=0.0015)
    assert kernel.chunks == [] and lists == [(len(heat), 10)] == [(1410, 10)]
    assert np.count_nonzero(heat) == 1409
    assert passed == []
    monkeypatch.undo()
    assert bits(value) == bits(math.fsum(bessel))
    assert bits(verdict["witness"]["partial_sums"][-1]) == bits(61042.302096036867)


def runs_of(exponents, lengths, rng: np.random.Generator) -> np.ndarray:
    """Terms in runs of one exponent e each, of the given lengths: m 2^e with m in
    [1, 2) of random sign."""
    exponent = np.repeat(exponents, lengths)
    return rng.choice([-1.0, 1.0], exponent.size) * np.ldexp(1.0 + rng.random(exponent.size), exponent)


N = 2 * CHUNK + 4000  # chunks of CHUNK, CHUNK and 4000 terms
RUNS = [5000] * (N // 5000) + [N % 5000]  # the run of terms 15000:20000 spans the first chunk edge


class TestRunCutting:
    """Each chunk is cut into runs of one group and one exponent, at every new
    exponent and at every cut inside it; a chunk of long runs adds each run's sum
    straight into its bin.  Every case is compared bit for bit with ``math.fsum``
    over each group and over all the terms, each repeated by its weight."""

    @staticmethod
    def check(x, w, cuts):
        """Two calls, one without ``total`` and one with."""
        rx = x if w is None else np.repeat(x, w)
        rcuts = cuts if w is None else np.concatenate(([0], np.cumsum(w)))[cuts]
        want = [bits(math.fsum(rx[a:b])) for a, b in zip(rcuts, rcuts[1:])]
        assert outcome(fsum_by, x, w, cuts=cuts) == want
        by, total = fsum_by(x, w, total=True, cuts=cuts)
        assert [bits(v) for v in by] == want and bits(total) == bits(math.fsum(rx))

    @pytest.mark.parametrize("cuts", [
        [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, N],  # at each chunk's first and last term
        [0, 0, CHUNK, CHUNK, CHUNK, 2 * CHUNK, 2 * CHUNK, N, N],  # empty groups at the chunk edges
        [0, 2500, 7500, 17000, N],  # one exponent on both sides of each inner cut
        [0, N],  # runs across the chunk edges, in one group
    ], ids=["chunk-first-and-last", "repeated-cuts", "cut-inside-a-run", "run-across-chunks"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "torus-mult"])
    def test_cuts_and_runs(self, kernel, cuts, weighted):
        x = runs_of(-np.arange(len(RUNS)), RUNS, np.random.default_rng(len(cuts)))
        w = None
        if weighted:  # the dim-1 torus mult: 1 at lambda = 0, else 2
            w = np.full(N, 2, dtype=np.int64)
            w[0] = 1
        self.check(x, w, np.array(cuts))
        assert kernel.chunks == 2 * [CHUNK, CHUNK, 4000] and kernel.long_chunks() == kernel.chunks

    def test_a_chunk_of_one_run_beside_a_chunk_of_one_term_runs(self, kernel):
        # chunk 0 is one run, chunk 1 changes exponent at every term (the keyed
        # bincount), chunk 2 holds five runs; they share the bins of each group
        exponents = np.concatenate(([0], np.tile([-1, -2], CHUNK // 2), -np.arange(3, 8)))
        x = runs_of(exponents, [CHUNK] + [1] * CHUNK + [800] * 5, np.random.default_rng(5))
        self.check(x, None, np.array([0, CHUNK // 2, CHUNK + 7, N]))
        assert kernel.chunks == 2 * [CHUNK, CHUNK, 4000] and kernel.long_chunks() == 2 * [CHUNK, 4000]
        assert kernel.runs[0] == (CHUNK, 2)  # the cut at CHUNK // 2 splits the one run

    def test_runs_of_one_bin_in_a_chunk(self, kernel):
        # exponents rise and fall, as a unimodal series' terms do: runs apart in a
        # chunk add into one bin, every sum of them kept
        x = runs_of(np.tile([-3, -2, -1, 0, -1, -2], 7), 900, np.random.default_rng(6))
        self.check(x, None, np.array([0, 10000, x.size]))
        assert kernel.chunks == 2 * [CHUNK, CHUNK, x.size - 2 * CHUNK] and kernel.long_chunks() == kernel.chunks


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
        xs, ws, cuts = contiguous(groups, x, w)
        assert outcome(fsum_by, xs, ws, cuts=cuts) == self.want(groups, x, w)

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
        xs, ws, cuts = contiguous(groups, x, w)
        assert outcome(fsum_by, xs, ws, cuts=cuts) == self.want(groups, x, w)

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
            fsum_by(np.ones(3), np.array(w))

    @pytest.mark.parametrize("n", [7, CROSSOVER - 1, CROSSOVER, CHUNK + 1])
    @pytest.mark.parametrize("kind", ["wide", "cancel", "negative-zero"])
    def test_unit_weights_are_no_weights(self, monkeypatch, n, kind):
        # SU(2) and per-point duals pass weights that are all 1: math.fsum's bits, and
        # neither the kernel nor the fallback sees the weights: the fallback sums the
        # terms themselves (a view of x), not their repetition by the weights
        rng = np.random.default_rng(n)
        x, w = terms(kind, n, rng), np.ones(n, dtype=np.int64)
        xs, ws, cuts = contiguous(rng.integers(0, 3, n), x, w)
        assert outcome(weighted_fsum, x, w) == outcome(math.fsum, x)
        assert outcome(fsum_by, xs, ws, cuts=cuts) == [bits(math.fsum(xs[a:b])) for a, b in zip(cuts, cuts[1:])]
        seen = []
        real = sums._fsum_slices
        monkeypatch.setattr(sums, "_fsum_slices",
                            lambda *a: seen.append(np.shares_memory(a[0], xs)) or real(*a))
        fsum_by(xs, ws, cuts=cuts)
        # zeros reach the kernel like any other term: CROSSOVER counts every term, and
        # the kernel takes the call where its groups average CROSSOVER terms or more
        assert seen == ([True] if n < CROSSOVER * (len(cuts) - 1) else [])


class TestTotal:
    """``fsum_by(values, weights, total=True, cuts=cuts)`` is (``fsum_by(values,
    weights, cuts=cuts)``, ``fsum_by(values, weights)[0]``) bit for bit from one call;
    an exception is the total's when the one-group sum raises, else the group sums'."""

    @staticmethod
    def want(x, w, cuts):
        total = outcome(weighted_fsum, x, w)
        if isinstance(total, tuple):
            return total
        by = outcome(fsum_by, x, w, cuts=cuts)
        return by if isinstance(by, tuple) else (by, total)

    @staticmethod
    def got(x, w, cuts):
        try:
            by, total = fsum_by(x, w, total=True, cuts=cuts)
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
        args = contiguous(groups, x, w)
        assert self.got(*args) == self.want(*args)

    def test_kernel_total_is_the_bins_total(self, monkeypatch):
        # finite terms above the crossover: group sums and total from one binned pass
        rng = np.random.default_rng(9)
        x, w = terms("wide", CHUNK + 1, rng), rng.integers(1, 4, CHUNK + 1)
        args = contiguous(rng.integers(0, 17, x.size), x, w)
        want = self.want(*args)
        monkeypatch.setattr(sums, "_fsum_slices", lambda *args: pytest.fail("fell back"))
        assert self.got(*args) == want

    def test_rows_as_groups(self):
        x = terms("cancel", 3 * CROSSOVER, np.random.default_rng(2)).reshape(3, -1)
        by, total = fsum_by(x, total=True)
        assert [bits(v) for v in by] == [bits(math.fsum(row)) for row in x]
        assert bits(total) == bits(math.fsum(x.ravel()))
