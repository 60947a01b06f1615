"""The rank-one factors H_xi of the certificate, and every Lidskii radius.

``criteria.nuclear_quasinorm_bound`` reads the coefficients of the rank-one
factors H_xi = e_xi a(., xi) from the symbol's x-Fourier support table; the
oracle in ``oracles`` samples every H_xi and forward-transforms it.  The two
sum the same B^w_{2,2} norms of coefficients that differ only by FFT rounding,
so they agree to 1e-13 relative.  ``traces.lidskii_compare`` reads each radius from
its own compression; its records must equal the per-radius traces exactly, and for a sampled table
they must match the quadrature and whole-matrix oracles.  A sampled table
answers every radius up to its own: the compression at a smaller radius is
the sub-block of the table-radius compression, bit for bit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torustrace.besov import BesovParams
from torustrace.cli import main
from torustrace.criteria import nuclear_quasinorm_bound
from torustrace.harmonic import FrequencyLattice
from torustrace.io import save_sampled_symbol
from torustrace.quantize import CompressedOperator, eigenvalues
from torustrace.sums import fsum_complex
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
from torustrace.traces import lidskii_compare, tail_estimate

CATALOG = {
    "bessel": lambda dim: bessel_symbol(-3.0, dim),
    "heat": lambda dim: heat_symbol(0.1, dim),
    "modulated-bracket": lambda dim: modulated_symbol(2.0, BracketPower(-4.0), dim),
    "modulated-gaussian": lambda dim: modulated_symbol(0.5, GaussianDecay(0.2), dim),
    "character": lambda dim: character_symbol(dim),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    dim=st.sampled_from([1, 2]),
    radius=st.integers(min_value=0, max_value=6),
    w=st.sampled_from([0.0, 0.5, 1.0]),
    r=st.sampled_from([0.5, 1.0]),
)
def test_catalog_certificate_matches_rank_one_oracle(name, dim, radius, w, r):
    a = CATALOG[name](dim)
    lattice = FrequencyLattice(dim, radius)
    got = nuclear_quasinorm_bound(a, r, w, lattice)
    want = oracles.quasinorm_bound(a, r, BesovParams(w, 2.0, 2.0), lattice)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("dim, radius, grid", [(1, 16, 32), (2, 4, 12)])
def test_sampled_certificate_equals_catalog(dim, radius, grid):
    # every H_xi's coefficients lie in the table's x-Fourier window, so none drops out
    a = modulated_symbol(2.0, BracketPower(-4.0), dim)
    lattice = FrequencyLattice(dim, radius)
    sampled = sample_symbol(a, grid, lattice)
    got = nuclear_quasinorm_bound(sampled, 1.0, 1.0, lattice)
    want = nuclear_quasinorm_bound(a, 1.0, 1.0, lattice)
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CATALOG)),
    dim=st.sampled_from([1, 2]),
    radii=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=4),
)
def test_lidskii_records_equal_per_radius_traces(name, dim, radii):
    a = CATALOG[name](dim)
    radii = sorted(radii)
    report = lidskii_compare(a, [CompressedOperator(a, FrequencyLattice(dim, r)) for r in radii])
    for rec, radius in zip(report["history"], radii):
        lattice = FrequencyLattice(dim, radius)
        assert rec["radius"] == radius
        op = CompressedOperator(a, lattice)
        assert rec["nuclear"] == op.trace()
        assert rec["spectral"] == fsum_complex(eigenvalues(op))


def _oracle_traces(a: SampledSymbol, radius: int) -> tuple[complex, complex]:
    """(nuclear, spectral) of the radius-R compression by quadrature and a whole-matrix solve."""
    lattice = FrequencyLattice(a.dim, radius)
    cols = a.lattice.indices_of(lattice.points)
    diffs = FrequencyLattice(a.dim, 2 * radius)
    table = oracles.sampled_x_fourier_table(a, diffs.points)[:, cols]
    matrix = oracles.operator_matrix(table, lattice)
    diag, eigs = np.diag(matrix), oracles.dense_eigenvalues(matrix)
    return (complex(math.fsum(diag.real), math.fsum(diag.imag)),
            complex(math.fsum(eigs.real), math.fsum(eigs.imag)))


@pytest.mark.parametrize("dim, grid, radius, radii", [
    (1, 32, 16, "4,8,16"), (2, 12, 4, "1,2,4"),
    # largest radius below the table's: the compression is built from the table's columns
    (1, 32, 16, "4,8"), (2, 12, 4, "1,2"), (2, 12, 4, "0"),
])
def test_sampled_lidskii_runs_below_table_radius(capsys, tmp_path, dim, grid, radius, radii):
    rng = np.random.default_rng(2024)
    lattice = FrequencyLattice(dim, radius)
    table = rng.standard_normal((grid**dim, len(lattice))) + 1j * rng.standard_normal(
        (grid**dim, len(lattice))
    )
    a = SampledSymbol(dim, grid, lattice, table)
    path = tmp_path / "symbol.json"
    save_sampled_symbol(a, str(path))
    code = main(["lidskii", "--symbol-file", str(path), "--radii", radii])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    history = json.loads(captured.out)["body"]["history"]
    assert [rec["radius"] for rec in history] == [int(r) for r in radii.split(",")]
    for rec in history:
        nuclear, spectral = _oracle_traces(a, rec["radius"])
        assert abs(complex(*rec["nuclear"]) - nuclear) <= 1e-12 * (1.0 + abs(nuclear))
        assert abs(complex(*rec["spectral"]) - spectral) <= 1e-11 * (1.0 + abs(spectral))


@pytest.mark.parametrize("dim, grid, radius", [(1, 32, 16), (1, 7, 5), (2, 12, 4), (2, 7, 3)])
def test_sampled_matrix_below_table_radius_is_a_sub_block(dim, grid, radius):
    rng = np.random.default_rng(7)
    lattice = FrequencyLattice(dim, radius)
    a = SampledSymbol(dim, grid, lattice, rng.standard_normal((grid**dim, len(lattice))) + 0j)
    full = CompressedOperator(a, lattice).entries
    for r in range(radius + 1):
        smaller = FrequencyLattice(dim, r)
        idx = lattice.indices_of(smaller.points)
        assert np.array_equal(CompressedOperator(a, smaller).entries, full[np.ix_(idx, idx)])


@pytest.mark.parametrize("dim, grid, radius, below", [(1, 32, 16, 5), (2, 12, 4, 2), (2, 12, 4, 0)])
def test_sampled_trace_and_spectrum_run_below_table_radius(capsys, tmp_path, dim, grid, radius, below):
    catalog = modulated_symbol(2.0, BracketPower(-4.0), dim)
    a = sample_symbol(catalog, grid, FrequencyLattice(dim, radius))
    path = tmp_path / "symbol.json"
    save_sampled_symbol(a, str(path))
    code = main(["trace", "--symbol-file", str(path), "--radius", str(below), "--certify-w", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    doc = json.loads(captured.out)
    nuclear, spectral = _oracle_traces(a, below)
    assert abs(complex(*doc["body"]["nuclear_trace"]) - nuclear) <= 1e-12 * (1.0 + abs(nuclear))
    assert abs(complex(*doc["body"]["spectral_trace"]) - spectral) <= 1e-11 * (1.0 + abs(spectral))
    bound = nuclear_quasinorm_bound(catalog, 1.0, 1.0, FrequencyLattice(dim, below))
    assert abs(doc["diagnostics"]["quasinorm_certificate"]["bound"] - bound) <= 1e-12 * bound
    code = main(["spectrum", "--symbol-file", str(path), "--radius", str(below)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    eigs = [complex(*v) for v in json.loads(captured.out)["body"]["eigenvalues"]]
    assert len(eigs) == (2 * below + 1) ** dim
    assert abs(sum(eigs) - spectral) <= 1e-11 * (1.0 + abs(spectral))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    radius=st.integers(min_value=1, max_value=12),
    order=st.floats(min_value=-8.0, max_value=-2.05),
)
def test_tail_estimate_within_two_ulp_of_closed_form(dim, radius, order):
    # the integral-test bound with the envelope folded in first; both forms round
    # twice after the power, so they differ by at most 2 ulp (1 ulp in all but
    # about 0.2% of random cases)
    order = min(order, -dim - 0.05)
    a = bessel_symbol(order, dim)
    lattice = FrequencyLattice(dim, radius)
    pts = lattice.points[np.abs(lattice.points).max(axis=1) == radius]
    brackets = np.sqrt(1.0 + np.sum(pts.astype(np.float64) ** 2, axis=1))
    envelope = float((np.abs(a.xifactor.values(pts)) * brackets ** (-order)).max())
    if dim == 1:
        want = 2.0 * envelope * radius ** (order + 1) / (-order - 1)
    else:
        want = 8.0 * envelope * radius ** (order + 2) / (-order - 2)
    got = tail_estimate(a, lattice, order)
    assert abs(got - want) <= 2 * math.ulp(want)
