"""Nuclear and spectral traces of truncated toroidal operators.

At every truncation radius the compression satisfies the trace identity
exactly: sum of eigenvalues = matrix trace = sum_xi hat{a}(0, xi).
``lidskii_compare`` reads every radius from its own compression
(``quantize.CompressedOperator``), built by its caller; a sampled table answers
any radius up to its own, and ``trace`` is the case of one radius.
Non-summable symbols are not rejected: their nuclear-trace tail is reported as
inf.  Both tails here, that one and ``tail_estimate``, are
``groups.dual_tail_bound`` times a constant.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import Torus, dual_tail_bound
from .harmonic import FrequencyLattice
from .quantize import CompressedOperator, eigenvalues
from .sums import fsum_complex
from .symbols import Symbol


def lidskii_compare(a: Symbol, operators: list[CompressedOperator]) -> dict:
    """Nuclear and spectral traces of the compressions ``operators`` of ``a``, by
    increasing radius: the ``lidskii`` report body without its radii.

    A table or trace that is not finite was refused when its compression was
    built.  The tail is that of the nuclear trace past the largest radius R: for a
    catalog symbol u(x) g(xi) it is hat{u}(0) sum_{|xi|_inf > R} g(xi), at most
    |hat{u}(0)| times ``groups.dual_tail_bound`` of g (0 when hat{u}(0) = 0).  A
    sampled symbol has no such envelope: its tail is inf.  ``history_converged``
    is true exactly when the tail is finite.
    """
    history = []
    for op in operators:
        nuc, spec = op.trace(), fsum_complex(eigenvalues(op))
        history.append({"radius": op.lattice.radius, "nuclear": nuc, "spectral": spec,
                        "abs_diff": abs(nuc - spec)})
    envelope, tail = a.trace_envelope, math.inf
    if envelope is not None:
        mean, b, s = envelope
        tail = 0.0 if mean == 0 else mean * dual_tail_bound(Torus(a.dim), history[-1]["radius"], 0.0, b, s)
    return {
        "history": history,
        "nuclear_trace": history[-1]["nuclear"],
        "spectral_trace": history[-1]["spectral"],
        "tail_estimate": tail,
        "history_converged": math.isfinite(tail),
    }


def tail_estimate(a: Symbol, lattice: FrequencyLattice, order_hint: float) -> float:
    """Integral-test bound on sum_{|xi| > N} sup_x |a(x, xi)|.

    The envelope constant is calibrated on the outermost lattice shell, so the
    bound is tight exactly when the symbol really follows C <xi>^{order_hint}.
    A bound that is not finite in float64, as for a hint not below -dim, whose
    series diverges, raises OverflowError.
    """
    n = lattice.dim
    radius = lattice.radius
    boundary = np.abs(lattice.points).max(axis=1) == radius
    pts = lattice.points[boundary]
    sups = np.asarray(a.x_sup_abs(pts), dtype=np.float64)
    brackets = lattice.brackets()[boundary]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        envelope = float((sups * brackets ** (-order_hint)).max()) if pts.size else 0.0
    bound = envelope * dual_tail_bound(Torus(n), radius, 0.0, order_hint, 0.0)
    if not np.isfinite(bound):
        raise OverflowError(f"the envelope C <xi>^{order_hint:g} of the outermost shell leaves float64")
    return bound
