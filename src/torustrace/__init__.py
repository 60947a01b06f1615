"""Toroidal pseudo-differential calculus with dyadic norms and trace identities.

The package computes, at desk scale and deterministically: truncated toroidal
Fourier analysis, symbol difference calculus with empirical order fits,
compressed operator matrices and their spectra, Besov norms, executable
r-nuclearity criteria over torus and SU(2) dual data, and the nuclear/spectral
trace comparison across truncations.  Names are imported from their modules,
e.g. ``from torustrace.groups import enumerate_dual``.
"""

__version__ = "0.1.0"
