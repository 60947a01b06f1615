"""The B^w_{2,2} quasi-norm certificate by Parseval over the x-Fourier support.

``criteria.nuclear_quasinorm_bound`` weights each hat a(d, xi) by 2^{mw}, m
the dyadic block of eta = xi + d, d on the symbol's x-Fourier support, norms
each column's weighted coefficients, and never synthesizes H_xi.  ``oracles.dense_quasinorm_bound`` builds the dense
compression with rows out to N + b and synthesizes every column's blocks on
the margin grid.  On that alias-free grid both compute the same block norms
up to rounding, so the bounds agree within 2 ulp.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torustrace import quantize
from torustrace.besov import BesovParams
from torustrace.cli import main
from torustrace.criteria import nuclear_quasinorm_bound
from torustrace.harmonic import FrequencyLattice
from torustrace.io import save_sampled_symbol
from torustrace.symbols import (
    BracketPower,
    GaussianDecay,
    SampledSymbol,
    bessel_symbol,
    character_symbol,
    heat_symbol,
    modulated_symbol,
    sample_symbol,
)

CATALOG = {
    "bessel": lambda dim: bessel_symbol(-3.0, dim),
    "heat": lambda dim: heat_symbol(0.1, dim),
    "modulated-bracket": lambda dim: modulated_symbol(2.0, BracketPower(-4.0), dim),
    "modulated-gaussian": lambda dim: modulated_symbol(0.5, GaussianDecay(0.2), dim),
    "character": lambda dim: character_symbol(dim),
}


def _symbol(source: str, dim: int, lattice: FrequencyLattice, grid: int | None):
    """A catalog symbol, its table on a ``grid`` grid, or a random table."""
    if source == "random":
        rng = np.random.default_rng(7 * grid + lattice.radius)
        shape = (grid**dim, len(lattice))
        return SampledSymbol(dim, grid, lattice, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    a = CATALOG[source](dim)
    return a if grid is None else sample_symbol(a, grid, lattice)


@settings(max_examples=60, deadline=None)
@given(
    source=st.sampled_from(sorted(CATALOG) + ["random"]),
    sampled=st.booleans(),
    grid=st.integers(min_value=1, max_value=12),
    dim=st.sampled_from([1, 2]),
    radius=st.integers(min_value=0, max_value=6),
    w=st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
)
def test_certificate_matches_dense_synthesis(source, sampled, grid, dim, radius, w):
    lattice = FrequencyLattice(dim, radius)
    a = _symbol(source, dim, lattice, grid if sampled or source == "random" else None)
    got = nuclear_quasinorm_bound(a, w, lattice)
    want = oracles.dense_quasinorm_bound(a, 1.0, BesovParams(w, 2.0, 2.0), lattice)
    assert abs(got - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("w", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("source", ["random", "modulated-bracket"])
def test_certificate_is_homogeneous_past_the_square_root_of_float64(source, dim, w):
    # |hat a|^2 of the table times 2^520 leaves float64; sums.power_norms scales
    # each column by a power of two before squaring, which keeps every step exact,
    # so the bound scales too
    lattice = FrequencyLattice(dim, 4)
    a = _symbol(source, dim, lattice, 8)
    big = SampledSymbol(dim, a.grid_size, lattice, a.table * 2.0**520)
    want = nuclear_quasinorm_bound(a, w, lattice)
    assert nuclear_quasinorm_bound(big, w, lattice) == math.ldexp(want, 520)


def test_certificate_beyond_float64_is_refused():
    lattice = FrequencyLattice(1, 4)
    a = _symbol("random", 1, lattice, 8)
    with pytest.raises(OverflowError):
        nuclear_quasinorm_bound(SampledSymbol(1, 8, lattice, a.table * 2.0**1020), 1.0, lattice)


@pytest.mark.parametrize("sampled", [False, True])
def test_p2_certificate_builds_no_compression_and_no_synthesis(monkeypatch, sampled):
    lattice = FrequencyLattice(2, 3)
    a = modulated_symbol(2.0, BracketPower(-4.0), 2)
    if sampled:
        a = sample_symbol(a, 10, lattice)
    params = BesovParams(1.0, 2.0, 2.0)
    want = oracles.dense_quasinorm_bound(a, 1.0, params, lattice)

    def trip(*args, **kwargs):
        raise AssertionError("the p = 2 certificate must not reach this")

    # the dense compression is CompressedOperator.entries, whoever builds it
    monkeypatch.setattr(quantize.CompressedOperator, "entries", property(trip))
    monkeypatch.setattr(np.fft, "ifftn", trip)
    got = nuclear_quasinorm_bound(a, 1.0, lattice)
    assert abs(got - want) <= 2 * math.ulp(want)


def test_sampled_certificate_of_a_fine_table_equals_catalog():
    # grid 40 widens the support box to |d|_inf <= 20; every H_xi still matches the catalog's
    a = modulated_symbol(2.0, BracketPower(-4.0), 2)
    lattice = FrequencyLattice(2, 12)
    got = nuclear_quasinorm_bound(sample_symbol(a, 40, lattice), 1.0, lattice)
    want = nuclear_quasinorm_bound(a, 1.0, lattice)
    assert abs(got - want) <= 1e-12 * want


def test_trace_transforms_a_sampled_table_at_most_twice(monkeypatch, tmp_path, capsys):
    lattice = FrequencyLattice(2, 4)
    a = sample_symbol(modulated_symbol(2.0, BracketPower(-4.0), 2), 12, lattice)
    path = tmp_path / "sym.json"
    save_sampled_symbol(a, str(path))
    calls = []
    original = SampledSymbol.x_fourier_table

    def spy(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(SampledSymbol, "x_fourier_table", spy)
    code = main(["trace", "--symbol-file", str(path), "--radius", "4", "--certify-w", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and 1 <= len(calls) <= 2
    # the trace read from the matrix diagonal keeps the support table's bits
    want = quantize.CompressedOperator(a, lattice).trace()
    assert doc["body"]["nuclear_trace"] == [want.real, want.imag]
