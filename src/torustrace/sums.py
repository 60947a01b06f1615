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
- Two ``np.bincount`` calls add up the parts in bins of one scale 2^(k-1127):
  ``hi`` in bin k = e + 1100, ``lo`` in bin k = e + 1074 (its scale is that of
  ``hi`` 26 exponents down).  A term puts at most one part, below 2^27, in any
  bin, so with fewer than 2^26 terms every partial bin sum is an integer
  below 2^53 and each float addition is exact, in any order.
- Where a chunk's keys (group and exponent) come in runs of 16 equal keys or
  more on average, ``np.add.reduceat`` first adds up ``hi`` and ``lo`` over
  each run, and the two bincounts add the run sums.  A run sum is a partial
  bin sum, so it is exact too.  Every dual series has such runs: its rows
  ascend in lambda and its terms are monotone or unimodal.  On sorted keys
  ``np.bincount`` waits on its own stores: a chunk of 2^15 terms in long
  runs bins in about 150 us directly and 30 us run-reduced.  A chunk of
  shorter runs is binned directly, after one pass that counts its runs.
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
terms.  A series whose terms underflow costs its nonzero terms only: the
SU(2) heat series of tt1 at cutoff 2e4 and t = 0.0015 has 1,409 of 40,001.

One call can give a series' value and its group sums (``total=True``), as for
a dual series and its dyadic shell sums.  The bins of every group are exact
floats whose exact sum is the sum of all the terms, so one ``math.fsum`` over
all groups' bins together is the correctly rounded total: the bits of
``math.fsum`` over all the terms, from the same binned pass as the group sums.

Memory: where some terms are zero, a mask of 1 byte a term and copies of
the nonzero terms, their groups and their weights, up to 32 bytes a term.
Then the terms go through in chunks of ``CHUNK``, with about 38 bytes of
temporaries per term (about 1.2 MB a chunk), plus 2125 x 8 bytes of bins per
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
# Terms per frexp/bincount pass: 2^14 and 2^15 time best on 200001 terms,
# 2^17 and up fall out of cache.
CHUNK = 1 << 15
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
        return fsum_by(None, values)[0]
    return math.fsum(values)


def fsum_complex(values) -> complex:
    """Exactly rounded sum of complex terms (componentwise fsum)."""
    arr = np.asarray(values)
    return complex(fsum(arr.real), fsum(arr.imag))


def fsum_by(groups, values, weights=None, total: bool = False):
    """Exactly rounded sum of each group of float64 ``values``, equal bit for bit to
    ``math.fsum`` over that group's terms.  ``groups`` holds a nonnegative integer
    per term of a 1-D ``values``, and the sums of groups 0 .. max(groups) come back
    (an empty group sums to 0.0).  With ``groups`` None each row of a 2-D
    ``values`` is a group, and a 1-D ``values`` is one group.  ``weights``, of
    ``values``' shape, gives each term a positive integer multiplicity; weights
    that are all 1 are no weights.  With ``total`` the result is (group sums,
    sum of all terms), the latter with the bits and exceptions of ``math.fsum``
    over all the terms, each repeated by its weight, raised before any group's."""
    values = np.asarray(values, dtype=np.float64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != values.shape:
            raise ValueError(f"weights of shape {weights.shape} for values of shape {values.shape}")
        if weights.size and weights.min() < 1:
            raise ValueError("weights must be positive integers")
        if weights.size and weights.max() == 1:
            weights = None
    if groups is None:
        values = np.atleast_2d(values)
        size, row_length = values.shape
    else:
        groups = np.asarray(groups, dtype=np.intp)
        size = int(groups.max()) + 1 if groups.size else 0
    values = values.reshape(-1)
    if weights is not None:
        weights = weights.reshape(-1)
    n = values.size if weights is None else int(weights.sum())
    if n >= CROSSOVER:  # CROSSOVER counts nonzero terms; nan != 0, so only zeros go
        nonzero = values != 0
        if not nonzero.all():
            kept = np.flatnonzero(nonzero)
            values = values[kept]
            groups = kept // row_length if groups is None else groups[kept]
            weights = None if weights is None else weights[kept]
            n = values.size if weights is None else int(weights.sum())
    limit = 2.0 ** (1023 - n.bit_length())  # n max|x| < 2^1023: no bin and no partial overflows
    if (n < CROSSOVER or n >= _MAX_TERMS or size > MAX_GROUPS
            or not (values.max() < limit and -values.min() < limit)):  # nan fails both
        whole = math.fsum(values if weights is None else np.repeat(values, weights)) if total else None
        if groups is None:  # no term was dropped, so the rows are whole
            values = values.reshape(size, row_length)
            weights = None if weights is None else weights.reshape(size, row_length)
        sums = _fsum_slices(groups, values, size, weights)
        return (sums, whole) if total else sums
    if weights is not None:
        weights = weights.astype(np.float64)  # exact: each weight is below 2^26
    bins = np.zeros((size, _BINS))  # bins[g, k]: group g's integer sum at scale 2^(k - 1127)
    low, high = _BINS, 0  # the bins any chunk touched
    for start in range(0, values.size, CHUNK):
        stop = min(start + CHUNK, values.size)
        frac, key = np.frexp(values[start:stop])
        first = int(key.min())
        width = int(key.max()) - first + 1
        key -= first
        if groups is not None:
            key = groups[start:stop] * width + key
        elif size > 1:
            key = np.arange(start, stop) // row_length * width + key
        frac *= 2.0**27
        hi = np.trunc(frac)
        frac -= hi
        frac *= 2.0**26
        if weights is not None:  # products below 2^53, exact
            hi *= weights[start:stop]
            frac *= weights[start:stop]
        key, hi, frac = _reduce_runs(key, hi, frac)
        # hi 2^(e-27) lands in bin e + 1100, lo 2^(e-53) = lo 2^((e-26)-27) in bin e + 1074
        window = bins[:, first + _OFFSET:first + _OFFSET + width + 26]
        window[:, 26:] += np.bincount(key, hi, minlength=size * width).reshape(size, width)
        window[:, :width] += np.bincount(key, frac, minlength=size * width).reshape(size, width)
        low, high = min(low, first + _OFFSET), max(high, first + _OFFSET + width + 26)
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
        sums = fsum_by(None, rows**p)
    return [math.ldexp(u * (s / divisor) ** (1.0 / p), e - 1) if shift else (s / divisor) ** (1.0 / p)
            for s, shift, u, e in zip(sums, scaled.tolist(), unit.tolist(), exponent.tolist())]


def _reduce_runs(key: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """(key, hi, lo) with each run of equal ``key`` summed into its first term when
    the runs average 16 terms or more, else as given.  ``np.bincount`` adds sorted
    keys at about half its speed on scattered ones (each add waits for the last
    store to its bin), and a dual series' keys are sorted: its rows ascend in
    lambda and its terms are monotone or unimodal.  The sums are exact, being
    partial bin sums."""
    change = key[1:] != key[:-1]
    if (np.count_nonzero(change) + 1) * 16 > key.size:
        return key, hi, lo
    starts = np.flatnonzero(np.concatenate(([True], change)))
    return key[starts], np.add.reduceat(hi, starts), np.add.reduceat(lo, starts)


def _fsum_slices(groups, values: np.ndarray, size: int, weights) -> list[float]:
    """``math.fsum`` over each group's terms in turn, each term repeated by its
    weight: each row of ``values`` when ``groups`` is None, else the contiguous
    slices of a stable sort by group."""
    if groups is None:
        if weights is None:
            return [math.fsum(row) for row in values.tolist()]
        return [math.fsum(np.repeat(row, w)) for row, w in zip(values, weights)]
    if weights is not None:
        groups, values = np.repeat(groups, weights), np.repeat(values, weights)
    order = np.argsort(groups, kind="stable")
    cuts = np.searchsorted(groups[order], np.arange(size + 1)).tolist()
    values = values[order].tolist()
    return [math.fsum(values[a:b]) for a, b in zip(cuts, cuts[1:])]
