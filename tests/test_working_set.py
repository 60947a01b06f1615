"""Memory a dual series holds and allocates, counted by ``tracemalloc``.

numpy reports its data buffers to ``tracemalloc``, so these byte counts are
exact and the same on every host, whatever its allocator or page size.  A dual
slice holds 8 bytes a row for lambda, and 8 more for the SU(2) d or the torus
multiplicities; the all-ones torus d and SU(2) multiplicities are zero-stride
views of one 1.  ``summed_series`` evaluates only the rows whose terms can be nonzero,
in one buffer (two where the envelope has two factors besides 1), passes the
shells as row ranges, and sums in chunks of ``sums.CHUNK`` terms.  The dim-1 torus
and SU(2) slices are each built in the two arrays they hold, with no full-size
temporary.  The p = 2 dyadic block norms read a function's coefficients in
block order, with no blocks x lattice array; the partial-sum errors hold one
chunk of residual rows and their block norms at a time.
"""

import tracemalloc

import numpy as np
import pytest

from torustrace import besov
from torustrace.besov import BesovParams, block_index, block_norms, partial_sum_convergence
from torustrace.groups import SU2, Torus, enumerate_dual, summed_series
from torustrace.harmonic import FourierCoefficients, FrequencyLattice, min_grid_size

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


@pytest.mark.parametrize("dim, radius", [(1, 100000), (2, 300)])
def test_parseval_block_norms_peak_at_what_they_hold(dim, radius):
    """``block_norms`` at p = 2 allocates at most 64 bytes a coefficient (41 at dim
    1 radius 1e5): the coefficients copied in block order, the sort order, the
    blocks, their squares and a chunk's temporaries.  The blocks x 2L mask that it
    replaced peaked at 596."""
    lattice = FrequencyLattice(dim, radius)
    rng = np.random.default_rng(radius)
    c = FourierCoefficients(lattice, rng.standard_normal(len(lattice)) + 1j * rng.standard_normal(len(lattice)))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        block_norms(lattice, c.coeffs[None], 2.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 64 * len(lattice)


@pytest.mark.parametrize("p, radius, bound", [(2.0, 20000, 80), (3.0, 2000, 64)], ids=["p2", "p3"])
def test_partial_sum_errors_peak_per_row_of_a_chunk(p, radius, bound):
    """``partial_sum_convergence`` over five cutoffs, all in one chunk, allocates at
    most ``bound`` bytes for each row of it: at p = 2 per coefficient (61 here: the
    residual rows, their copy in block order, the squares of their parts, the drop
    mask, and a ``fsum_by`` chunk and the bins of every (row, block) group); at
    p = 3 per synthesized point, the unit the chunk rule counts (53 here, about
    1160 a coefficient: the (rows, blocks, M) cube, the inverse FFT's output, its
    moduli and their cubes)."""
    lattice = FrequencyLattice(1, radius)
    grid = min_grid_size(radius)
    row_points = (int(block_index(radius**2)) + 1) * grid
    n_values = [1, 4, 16, 64, 1e300]
    assert len(n_values) * row_points <= besov.DUAL_SIZE_LIMIT  # one chunk
    rng = np.random.default_rng(radius)
    c = FourierCoefficients(lattice, rng.standard_normal(len(lattice)) + 1j * rng.standard_normal(len(lattice)))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        partial_sum_convergence(c, BesovParams(0.5, p, 2.0), n_values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= bound * len(n_values) * (len(lattice) if p == 2.0 else row_points)
