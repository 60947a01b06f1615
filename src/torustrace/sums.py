"""Exactly rounded scalar reductions.

Every reported scalar reduction in this package (series, traces, norms)
goes through the helpers below.  ``math.fsum`` is compensated (Shewchuk)
summation and returns the correctly rounded value of the exact sum of its
terms, so such a value does not depend on term order; complex sums reduce the
real and imaginary parts separately.  Transforms and matrix entries do not
come through here: they are FFTs and gathers (see ``harmonic``), byte-identical
across runs of one build but not independent of summation order.

A 1-D float64 ndarray is summed by ``fsum_by``, which returns the same bits
as ``math.fsum`` at a fraction of its per-term cost:

- ``np.frexp`` writes each term as x = f 2^e with 1/2 <= |f| < 1.  Every
  double is a multiple of 2^-1074, so f 2^53 is an integer, and f 2^27 splits
  into two exact integers: ``hi`` = trunc(f 2^27), below 2^27, and
  ``lo`` = (f 2^27 - hi) 2^26, below 2^26.  Then x = hi 2^(e-27) + lo 2^(e-53),
  and both parts are multiples of 2^-1074.
- The parts add up in bins of one scale 2^(k-1127): ``hi`` in bin k = e + 1100,
  ``lo`` in bin k = e + 1074 (its scale is that of ``hi`` 26 exponents down).
  A term puts at most one part, below 2^27, in any bin, so with fewer than
  2^26 terms every partial bin sum is an integer below 2^53 and each float
  addition is exact, in any order.
- Each chunk is cut into runs of one group and one exponent, at every change
  of exponent and at every cut inside it.  Where the runs average 16 terms or
  more, ``np.add.reduceat`` sums ``hi`` and ``lo`` over each run and
  ``np.add.at`` adds the run sums straight into their bins: a run sum is a
  partial bin sum, so it is exact too.  A dual series' terms follow its
  ascending lambda and are monotone or unimodal, so a slowly varying one (a
  Bessel series, a heat series at small t) has such runs.  A chunk of shorter
  runs (a Gaussian past its decay length) keys each term by group and
  exponent and bins it with two ``np.bincount`` calls.
- ``np.ldexp`` turns each nonzero bin into an exact float (a multiple of
  2^-1074 with at most 53 significant bits), and one ``math.fsum`` over those
  (at most 2125 per group, largest scale first, so that it keeps few
  partials) rounds the exact sum of the group's terms.  That
  call and ``math.fsum`` over the terms themselves return the correctly
  rounded value of the same exact number, so they are equal.  An exact sum of
  zero is +0.0 from both: ``math.fsum`` keeps no zero partials, so even an
  all -0.0 input sums to +0.0 (``tests/test_exact_sums.py`` pins this).

Integer weights w >= 1 stand for repeated terms: value x with weight w sums
as w copies of x.  The kernel multiplies ``hi`` and ``lo`` by w, which is
exact below 2^53, so a term puts at most one part, below 2^27 w, in any bin,
and every bin sum stays an exact integer below 2^53 while sum(w) < 2^26.  A
weighted sum then has the bits of ``math.fsum`` over ``np.repeat(values, w)``.
In what follows n is the number of terms, counted with their weights.
Weights that are all 1 are dropped, so the kernel skips the products.

Zeros of either sign add nothing to ``math.fsum``, which keeps no zero
partials.  So when n >= ``CROSSOVER``, the exact zeros are dropped before the
path is chosen, and n, ``CROSSOVER`` and the other rules below count nonzero
terms.

A group is a contiguous slice of the terms (a row of a 2-D array, or the
terms between two ``cuts``), so a group's key is the index of the cut a term
follows.  One call can give a series' value and its group sums (``total=True``),
as for a dual series and its dyadic shell sums.  The bins of every group are exact
floats whose exact sum is the sum of all the terms, so one ``math.fsum`` over
all groups' bins together is the correctly rounded total: the bits of
``math.fsum`` over all the terms, from the same binned pass as the group sums.

Memory: where some terms are zero, copies of the nonzero terms and of their
indices and weights, up to 24 bytes a nonzero term.  Then the terms go
through in chunks of ``CHUNK``, with about 22 bytes of temporaries a term of
a chunk in long runs (29 weighted: weights are cast a chunk at a time) and up
to 41 in short runs of several groups, plus 2125 x 8 bytes of bins per
group.  The terms go to ``math.fsum`` itself (repeated by their weights), so
that its values and its exceptions are kept, when there are fewer than
``CROSSOVER`` of them; when any is inf or nan; when max|x| >=
2^(1023 - n.bit_length()) (``math.fsum`` raises an order-dependent
OverflowError on some finite sums near the top of the range, and a bin could
overflow); when there are 2^26 or more; and when there are more than
``MAX_GROUPS`` groups.  On that path a total is ``math.fsum`` over all the
terms in order, taken before the group sums, so its exceptions come first.
``fsum`` hands a 1-D float64 ndarray of ``CROSSOVER`` terms or more to
``fsum_by``; lists, generators and other arrays go to ``math.fsum``.

Every l^p norm of the package (``harmonic.lp_norms``, ``besov.weighted_norm``,
the certificate's columns) is one ``power_norms`` call: a row sum per row, each
row first scaled into range where its largest p-th power could leave float64
(Blue's scaled norm).
"""

from __future__ import annotations

import math

import numpy as np

# Below about 1000 terms one math.fsum call is as fast as the kernel, whose
# fixed cost is about 60 us (2-core Xeon, numpy 2.4; figures in CHANGES.md).
CROSSOVER = 1024
# Terms per frexp/reduceat pass: in-process passes of the dual-series benchmark take 3.8%
# longer at 2^13 and 6.0% at 2^15 (medians of 16 fresh-process pairs; figures in CHANGES.md).
CHUNK = 1 << 14
# Past this many groups the bins (17 kB a group) outweigh the terms; such
# calls take the per-group math.fsum path.
MAX_GROUPS = 256
_MAX_TERMS = 1 << 26  # keeps every bin sum of 27-bit integers below 2^53
_OFFSET = 1074  # frexp exponents of nonzero doubles lie in [-1073, 1024]
_BINS = _OFFSET + 1025 + 26  # bin k holds scale 2^(k - 1127), k in [1, 2124]


def fsum(values) -> float:
    """Exactly rounded sum of real terms: ``fsum_by``'s one-group case for a 1-D
    float64 ndarray of ``CROSSOVER`` terms or more, ``math.fsum`` for anything else."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64
            and values.ndim == 1 and values.size >= CROSSOVER):
        return fsum_by(values)[0]
    return math.fsum(values)


def fsum_complex(values) -> complex:
    """Exactly rounded sum of complex terms (componentwise fsum)."""
    arr = np.asarray(values)
    return complex(fsum(arr.real), fsum(arr.imag))


def fsum_by(values, weights=None, total: bool = False, cuts=None):
    """Exactly rounded sum of each group of float64 ``values``, equal bit for bit to
    ``math.fsum`` over that group's terms.  Group j is terms cuts[j]:cuts[j + 1] of a
    1-D ``values`` (``cuts`` ascending from 0 to its size; an empty group sums to
    0.0); without ``cuts``, each row of a 2-D ``values`` or a 1-D ``values`` whole.
    ``weights``, of ``values``' shape, gives each term a positive integer
    multiplicity (all 1: no weights).  With ``total`` the result is (group sums, sum
    of all terms), the latter with the bits and exceptions of ``math.fsum`` over all
    the terms, each repeated by its weight, raised before any group's."""
    values = np.asarray(values, dtype=np.float64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != values.shape:
            raise ValueError(f"weights of shape {weights.shape} for values of shape {values.shape}")
        if weights.size and weights.min() < 1:
            raise ValueError("weights must be positive integers")
        weights = None if weights.size and weights.max() == 1 else weights.reshape(-1)
    if cuts is None:  # a cut at every row end
        rows, row_length = np.atleast_2d(values).shape
        cuts = np.arange(rows + 1) * row_length
    values, cuts = values.reshape(-1), np.asarray(cuts)
    size = len(cuts) - 1
    n = values.size if weights is None else int(weights.sum())
    if n >= CROSSOVER and np.count_nonzero(values) < values.size:  # nan != 0: only zeros go
        kept = np.flatnonzero(values)
        values, cuts = values[kept], np.searchsorted(kept, cuts)
        weights = None if weights is None else weights[kept]
        n = values.size if weights is None else int(weights.sum())
    limit = 2.0 ** (1023 - n.bit_length())  # n max|x| < 2^1023: no bin and no partial overflows
    if (n < CROSSOVER or n >= _MAX_TERMS or size > MAX_GROUPS
            or not (values.max() < limit and -values.min() < limit)):  # nan fails both
        if weights is not None:  # the cuts move to the repeated terms' ends
            values, cuts = np.repeat(values, weights), np.concatenate(([0], np.cumsum(weights)))[cuts]
        whole = math.fsum(values) if total else None
        sums = _fsum_slices(values, cuts)
        return (sums, whole) if total else sums
    bins = np.zeros((size, _BINS))  # bins[g, k]: group g's integer sum at scale 2^(k - 1127)
    low, high = _BINS, 0  # the bins any chunk touched
    inner = cuts[1:-1].tolist()  # the cuts a chunk can hold past its first term
    for start in range(0, values.size, CHUNK):
        stop = min(start + CHUNK, values.size)
        parts = np.empty((2, stop - start))  # hi and lo of each term
        exponent = np.frexp(values[start:stop], out=(parts[1], np.empty(stop - start, dtype=np.intc)))[1]
        parts[1] *= 2.0**27
        np.trunc(parts[1], out=parts[0])
        parts[1] -= parts[0]
        parts[1] *= 2.0**26
        if weights is not None:  # weights below 2^26, cast a chunk at a time: products below 2^53, exact
            parts *= weights[start:stop].astype(np.float64)
        # a run of one group and one exponent starts at the chunk's start, at each new exponent and at each cut
        edge = np.ones(stop - start, dtype=bool)
        np.not_equal(exponent[1:], exponent[:-1], out=edge[1:])
        edge[[cut - start for cut in inner if start < cut < stop]] = True
        # hi 2^(e-27) lands in bin e + 1100, lo 2^(e-53) = lo 2^((e-26)-27) in bin e + 1074
        if np.count_nonzero(edge) * 16 <= stop - start:  # long runs: each run's sum goes straight into its bin
            starts = np.flatnonzero(edge)
            exponent, parts = exponent[starts], np.add.reduceat(parts, starts, axis=1)
            first, last = int(exponent.min()), int(exponent.max())
            key = (np.searchsorted(cuts, starts + start, side="right") - 1) * _BINS + (exponent + _OFFSET)
            np.add.at(bins.reshape(-1), key + [[26], [0]], parts)
        else:  # short runs: one keyed bincount over the terms
            first, last = int(exponent.min()), int(exponent.max())
            width = last - first + 1
            exponent -= first
            if size > 1:
                exponent = np.repeat(np.arange(size) * width, np.diff(np.clip(cuts, start, stop))) + exponent
            window = bins[:, first + _OFFSET:last + _OFFSET + 27]
            window[:, 26:] += np.bincount(exponent, parts[0], minlength=size * width).reshape(size, width)
            window[:, :width] += np.bincount(exponent, parts[1], minlength=size * width).reshape(size, width)
        low, high = min(low, first + _OFFSET), max(high, last + _OFFSET + 27)
    # largest scale first: math.fsum then keeps few partials (over a wide exponent
    # range, ascending bins cost it about 6 times as much)
    window = bins[:, low:high][:, ::-1]
    nonzero = window != 0
    scale = np.broadcast_to(np.arange(high - 1, low - 1, -1) - (_OFFSET + 53), window.shape)
    exact = np.ldexp(window[nonzero], scale[nonzero]).tolist()
    cuts = [0, *np.cumsum(nonzero.sum(axis=1)).tolist()]
    sums = [math.fsum(exact[a:b]) for a, b in zip(cuts, cuts[1:])]
    return (sums, math.fsum(exact)) if total else sums


def power_norms(rows, p: float, divisor: float = 1.0) -> list[float]:
    """(sum_j x_j^p / divisor)^(1/p) of each row of nonnegative ``rows``, from one
    exactly rounded ``fsum_by`` row sum; the row max at p = inf.  Where the largest
    term's p-th power, in [2^((e - 1) p), 2^(e p)), could leave [2^-1000, 2^1000],
    the row is normed relative to unit 2^(e - 1), unit 1 (exact: a p = 2 norm keeps
    its bits) or, where [1, 2)^p can overflow (p > 1000), the largest term's
    mantissa; ``math.ldexp`` puts it back, raising OverflowError beyond float64."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    top = rows.max(axis=1, initial=0.0)
    if p == math.inf:
        return top.tolist()
    mantissa, exponent = np.frexp(top)
    unit = 2.0 * mantissa if p > 1000 else np.ones_like(top)
    with np.errstate(over="ignore", under="ignore"):  # a p of 1e300 times e; tiny scaled terms
        scaled = (0.0 < top) & (top < math.inf) & (((exponent - 1) * p < -1000) | (exponent * p > 1000))
        if scaled.any():
            rows = rows / np.where(scaled, np.ldexp(unit, exponent - 1), 1.0)[:, None]
        sums = fsum_by(rows**p)
    return [math.ldexp(u * (s / divisor) ** (1.0 / p), e - 1) if shift else (s / divisor) ** (1.0 / p)
            for s, shift, u, e in zip(sums, scaled.tolist(), unit.tolist(), exponent.tolist())]


def _fsum_slices(values: np.ndarray, cuts) -> list[float]:
    """``math.fsum`` over each slice values[cuts[j]:cuts[j + 1]] in turn."""
    values, cuts = values.tolist(), np.asarray(cuts).tolist()
    return [math.fsum(values[a:b]) for a, b in zip(cuts, cuts[1:])]
