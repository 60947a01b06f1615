"""Toroidal pseudo-differential calculus with dyadic norms and trace identities.

The package computes, at desk scale and deterministically: truncated toroidal
Fourier analysis, symbol difference calculus with empirical order fits,
compressed operator matrices and their spectra, Besov/Hoelder norms, executable
r-nuclearity criteria over torus and SU(2) dual data, and the nuclear/spectral
trace comparison across truncations.
"""

__version__ = "0.1.0"

from .harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    PeriodicFunction,
    forward_transform,
    inverse_transform,
    japanese_bracket,
    lp_norm,
)
from .symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
    SeparableSymbol,
    Symbol,
    bessel_symbol,
    character_symbol,
    difference_op,
    estimate_order,
    fourier_decay_constant,
    heat_symbol,
    modulated_symbol,
    multiplier_symbol,
    sample_symbol,
    symbol_fourier,
    x_derivative,
)
from .quantize import (
    BandlimitWarning,
    EigensolverError,
    OperatorMatrix,
    apply_symbol,
    eigenvalues,
    operator_matrix,
)
from .besov import (
    BesovParams,
    besov_norm,
    block_norms,
    fourier_embedding_ratio,
    holder_norm,
)
from .criteria import (
    CriterionVerdict,
    check_t1,
    check_t2,
    check_tt1,
    epsilon,
    lr_seminorm,
    nuclear_quasinorm_bound,
)
from .traces import TraceReport, lidskii_compare, nuclear_trace, spectral_trace, tail_estimate
from .groups import (
    DivergenceWarning,
    GroupDual,
    bessel_trace,
    enumerate_dual,
    heat_trace,
    multiplier_trace,
    partial_sum_convergence,
)

__all__ = [
    "__version__",
    "FourierCoefficients",
    "FrequencyLattice",
    "PeriodicFunction",
    "forward_transform",
    "inverse_transform",
    "japanese_bracket",
    "lp_norm",
    "BracketPower",
    "GaussianDecay",
    "SampledSymbol",
    "SeparableSymbol",
    "Symbol",
    "bessel_symbol",
    "character_symbol",
    "difference_op",
    "estimate_order",
    "fourier_decay_constant",
    "heat_symbol",
    "modulated_symbol",
    "multiplier_symbol",
    "sample_symbol",
    "symbol_fourier",
    "x_derivative",
    "BandlimitWarning",
    "EigensolverError",
    "OperatorMatrix",
    "apply_symbol",
    "eigenvalues",
    "operator_matrix",
    "BesovParams",
    "besov_norm",
    "block_norms",
    "fourier_embedding_ratio",
    "holder_norm",
    "CriterionVerdict",
    "check_t1",
    "check_t2",
    "check_tt1",
    "epsilon",
    "lr_seminorm",
    "nuclear_quasinorm_bound",
    "TraceReport",
    "lidskii_compare",
    "nuclear_trace",
    "spectral_trace",
    "tail_estimate",
    "DivergenceWarning",
    "GroupDual",
    "bessel_trace",
    "enumerate_dual",
    "heat_trace",
    "multiplier_trace",
    "partial_sum_convergence",
]
