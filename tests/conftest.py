import numpy as np
import pytest

from torustrace.harmonic import FourierCoefficients, FrequencyLattice, min_grid_size

from oracles import synthesize


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def character(k: int, radius: int | None = None, grid_size: int | None = None):
    """e^{i 2 pi k x} synthesized on a grid (``oracles.synthesize``)."""
    radius = radius if radius is not None else max(abs(k), 1)
    lattice = FrequencyLattice(1, radius)
    coeffs = np.zeros(len(lattice), dtype=complex)
    coeffs[lattice.indices_of((k,))[0]] = 1.0
    grid = grid_size or min_grid_size(radius)
    return synthesize(FourierCoefficients(lattice, coeffs), grid), lattice


def bandlimited(coeff_map: dict[int, complex], radius: int, grid_size: int | None = None):
    """Trig polynomial from an explicit coefficient map (1-d)."""
    lattice = FrequencyLattice(1, radius)
    coeffs = np.zeros(len(lattice), dtype=complex)
    for k, v in coeff_map.items():
        coeffs[lattice.indices_of((k,))[0]] = v
    grid = grid_size or min_grid_size(radius)
    return synthesize(FourierCoefficients(lattice, coeffs), grid), lattice
