"""Memory a dual series holds and allocates, counted by ``tracemalloc``.

numpy reports its data buffers to ``tracemalloc``, so these byte counts are
exact and the same on every host, whatever its allocator or page size.  A dual
slice holds 8 bytes a row for lambda, and 8 more for the SU(2) d or the torus
multiplicities; the all-ones torus d and SU(2) multiplicities are zero-stride
views of one 1.  ``summed_series`` evaluates only the rows whose terms can be nonzero,
in one buffer (two where the envelope has two factors besides 1), passes the
shells as row ranges, and sums in chunks of ``sums.CHUNK`` terms.  The dim-1 torus
and SU(2) slices are each built in the two arrays they hold, with no full-size
temporary.
"""

import tracemalloc

import pytest

from torustrace.groups import SU2, Torus, enumerate_dual, summed_series

OBJECTS = 4096  # bytes of Python objects beside the arrays: the record, the dual, the views


@pytest.mark.parametrize(
    "group, cutoff, envelope",
    [
        (SU2(True), 200000, (2.0, 0.0, 0.001)),  # heat-trace --group su2 --t 0.001 --cutoff 200000
        (Torus(1), 100000, (2.0, -2.0, 0.0)),  # bessel-trace --group torus --dim 1 --alpha 2 --cutoff 100000
    ],
    ids=["su2-heat", "torus-bessel"],
)
def test_a_dual_series_works_in_a_bounded_set(group, cutoff, envelope):
    """The dual holds at most 16 bytes a row, and the series allocates at most 16
    bytes a row more at its peak: 15.7 on the torus Bessel series (its 8-byte terms,
    a chunk's temporaries and the bins of its 17 shells), 1.2 on the SU(2) heat
    series (terms for 1,727 of its 400,001 rows).  A dual of three int64/float64
    arrays held 24 bytes a row, and its series peaked at 32 to 36 bytes a row; the
    kernel that keyed every term before it reduced the runs peaked at 17.5."""
    tracemalloc.start()
    try:
        dual = enumerate_dual(group, cutoff)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        summed_series(dual, envelope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 16 * len(dual) + OBJECTS
    assert peak - held <= 16 * len(dual)


def test_the_torus_slice_peaks_at_what_it_holds():
    """``enumerate_dual(Torus(1), R)`` allocates only the lambda and multiplicity
    arrays it returns, 16 bytes a row."""
    tracemalloc.start()
    try:
        dual = enumerate_dual(Torus(1), 100000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= peak <= 16 * len(dual) + OBJECTS


def test_the_su2_slice_peaks_at_what_it_holds():
    """``enumerate_dual(SU2(True), l)`` allocates only the d and lambda arrays it
    returns, 16 bytes a row: lambda = l(l + 1) is computed in place."""
    tracemalloc.start()
    try:
        dual = enumerate_dual(SU2(True), 200000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= peak <= 16 * len(dual) + OBJECTS
