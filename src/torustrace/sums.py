"""Exactly rounded scalar reductions.

Every reported scalar reduction in this package (series, traces, norms)
goes through the two helpers below.  ``math.fsum`` is compensated (Shewchuk)
summation and returns the correctly rounded value of the exact sum of its
terms, so such a value does not depend on term order; complex sums reduce the
real and imaginary parts separately.  Transforms and matrix entries do not
come through here: they are FFTs and gathers (see ``harmonic``), byte-identical
across runs of one build but not independent of summation order.
"""

from __future__ import annotations

import math

import numpy as np


def fsum(values) -> float:
    """Exactly rounded sum of real terms."""
    return math.fsum(values)


def fsum_complex(values) -> complex:
    """Exactly rounded sum of complex terms (componentwise fsum)."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 0j
    if np.iscomplexobj(arr):
        return complex(math.fsum(arr.real), math.fsum(arr.imag))
    return complex(math.fsum(arr.astype(np.float64)), 0.0)
