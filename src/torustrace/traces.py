"""Nuclear and spectral traces of truncated toroidal operators.

At every truncation radius the compression satisfies the trace identity
exactly: sum of eigenvalues = matrix trace = sum_xi hat{a}(0, xi).  Growing
the radius and watching the nuclear-trace increments gives an empirical tail;
non-summable symbols are not rejected, their divergence is surfaced in the
per-radius history.  ``lidskii_compare`` reads every radius from its own
x-Fourier support table (``quantize.CompressedOperator``); a sampled table
answers any radius up to its own.  The integral-test tail bound is
``criteria.power_tail_bound`` times the envelope.
"""

from __future__ import annotations

import numpy as np

from .criteria import certify_shell_sums, power_tail_bound
from .harmonic import FrequencyLattice
from .quantize import CompressedOperator, eigenvalues
from .sums import fsum_complex
from .symbols import Symbol


def lidskii_compare(a: Symbol, radii: list[int]) -> dict:
    """Nuclear and spectral traces across increasing radii: the ``lidskii``
    report body without its radii, one history row per radius.

    Each radius reads its compression's blocks and trace from its own support
    table, built largest radius first, so a sampled table too small for it, or
    a table that is not finite, is refused before any solve.  Successive
    nuclear-trace increments serve as the empirical truncation tail, and
    ``criteria.certify_shell_sums`` reads them as shell sums: a history whose
    last increments fail to shrink geometrically is flagged as non-convergent
    rather than rejected, and one with fewer than 2 increments gets no verdict.
    """
    radii = [int(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    if any(b <= s for s, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    operators: list[CompressedOperator] = []
    for radius in reversed(radii):
        lattice = FrequencyLattice(a.dim, radius)
        operators.insert(0, CompressedOperator(a, lattice))
    history = []
    for radius, op in zip(radii, operators):
        nuc = op.trace()
        spec = fsum_complex(eigenvalues(op))
        history.append({"radius": radius, "nuclear": nuc, "spectral": spec, "abs_diff": abs(nuc - spec)})
    increments = [
        abs(nxt["nuclear"] - cur["nuclear"]) for cur, nxt in zip(history, history[1:])
    ]
    return {
        "history": history,
        "nuclear_trace": history[-1]["nuclear"],
        "spectral_trace": history[-1]["spectral"],
        "tail_estimate": increments[-1] if increments else None,
        # one ratio suffices: the 3-radius histories of the tests give no more
        "history_converged": None if len(increments) < 2 else certify_shell_sums(increments, min_ratios=1)[0],
    }


def tail_estimate(a: Symbol, lattice: FrequencyLattice, order_hint: float) -> float:
    """Integral-test bound on sum_{|xi| > N} sup_x |a(x, xi)|.

    The envelope constant is calibrated on the outermost lattice shell, so the
    bound is tight exactly when the symbol really follows C <xi>^{order_hint}.
    A bound that is not finite in float64 raises OverflowError.
    """
    n = lattice.dim
    if not order_hint < -n:
        raise ValueError(
            f"order_hint {order_hint} is not summable in dimension {n}; need < {-n}"
        )
    radius = lattice.radius
    if radius < 1:
        raise ValueError("tail_estimate needs lattice radius >= 1")
    boundary = np.abs(lattice.points).max(axis=1) == radius
    pts = lattice.points[boundary]
    sups = np.asarray(a.x_sup_abs(pts), dtype=np.float64)
    brackets = lattice.brackets()[boundary]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        envelope = float((sups * brackets ** (-order_hint)).max()) if pts.size else 0.0
    bound = envelope * power_tail_bound(n, order_hint, radius)
    if not np.isfinite(bound):
        raise OverflowError(f"the envelope C <xi>^{order_hint:g} of the outermost shell leaves float64")
    return bound
