"""Block-by-block eigensolver against the whole-matrix oracles in ``oracles``.

``quantize.eigenvalues`` splits a matrix into the connected components of its
symmetrised nonzero pattern and solves equal-sized blocks in one batched LAPACK
call.  Component labels of the edge-list search (``component_labels``, over
``np.nonzero`` of a dense matrix or the support table's nonzero entries of a
``CompressedOperator``) must equal a breadth-first search exactly; eigenvalue
multisets of catalog matrices must match the full-matrix solve within
1e-10 ||A||_2, paired by nearest match; on random block matrices, which can
have defective eigenvalues, the block solve must be the spectrum up to a
backward error of 1e-10 ||A||_2 (``assert_spectrum_of``); a one-component
matrix must give the full-matrix result bit for bit.  A group of blocks with no
nonzero imaginary part goes to the real solver, and its eigenvalues must match
the complex full-matrix solve within 1e-12 ||A||_2.  The residuals are judged
against ||A||_2 only when the bound max |a_ij| cannot clear them, and stay
finite for entries near 1e200.  The eigen-sum and residual checks must still
fire, at that scale too.
"""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from torustrace import quantize
from torustrace.cli import main
from torustrace.harmonic import FrequencyLattice, min_grid_size
from torustrace.quantize import (
    CompressedOperator,
    EigensolverError,
    canonical_eigen_order,
    component_labels,
    eigenvalues,
)
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

KINDS = ("dense", "sparse", "shift", "diagonal")
block_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.sampled_from(KINDS)), max_size=7
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def permuted_block_diagonal(blocks, seed: int) -> np.ndarray:
    """Random complex blocks on the diagonal, then one random symmetric permutation."""
    rng = np.random.default_rng(seed)
    side = sum(size for size, _ in blocks)
    out = np.zeros((side, side), dtype=np.complex128)
    start = 0
    for size, kind in blocks:
        if kind == "shift":
            block = np.eye(size, k=1, dtype=np.complex128)
        else:
            block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            if kind == "sparse":
                block *= rng.random((size, size)) < 0.4
            elif kind == "diagonal":
                block = np.diag(np.diag(block))
        out[start:start + size, start:start + size] = block
        start += size
    perm = rng.permutation(side)
    return out[np.ix_(perm, perm)]


def assert_same_multiset(got: np.ndarray, want: np.ndarray, tol: float) -> None:
    """Pair each eigenvalue with its nearest unpaired oracle eigenvalue."""
    assert got.shape == want.shape
    left = list(want)
    for g in got:
        j = int(np.argmin(np.abs(np.array(left) - g)))
        assert abs(left.pop(j) - g) <= tol, (g, got, want)


def two_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def assert_spectrum_of(eigs: np.ndarray, A: np.ndarray) -> None:
    """``eigs`` is the spectrum of A up to a backward error of 1e-10 ||A||_2.

    Each value is an eigenvalue of a matrix that close to A: sigma_min(A - lambda I)
    <= 1e-10 ||A||_2.  The power sums sum lambda^k, k = 1 .. side, which fix the
    multiset (Newton's identities), differ from trace(A^k) by at most what such a
    perturbation moves them: side k 1e-10 ||A||_2^k.  A defective eigenvalue moves
    by about sqrt(eps) ||A||, so the eigenvalues of two backward-stable solves
    need not agree to 1e-10 ||A||, but both of these bounds still hold.
    """
    side = A.shape[0]
    assert eigs.shape == (side,)
    norm = two_norm(A)
    eye = np.eye(side)
    for value in eigs:
        assert np.linalg.svd(A - value * eye, compute_uv=False)[-1] <= 1e-10 * norm, value
    power = np.eye(side, dtype=np.complex128)
    for k in range(1, side + 1):
        power = power @ A
        gap = abs(np.sum(eigs**k) - np.trace(power))
        assert gap <= side * k * 1e-10 * norm**k, (k, gap)


CATALOG = [
    (modulated_symbol(2.0, BracketPower(-4.0), dim=2), FrequencyLattice(2, 3)),
    (character_symbol(2), FrequencyLattice(2, 2)),
    (character_symbol(), FrequencyLattice(1, 3)),
    (bessel_symbol(-2.0, 2), FrequencyLattice(2, 2)),
]


def catalog_matrices():
    for a, lattice in CATALOG:
        yield CompressedOperator(a, lattice)


def table_labels(a, lattice: FrequencyLattice) -> np.ndarray:
    """Component labels of the compression from its support table's edges."""
    return component_labels(len(lattice), *CompressedOperator(a, lattice).nonzero())


class TestComponents:
    @settings(max_examples=120, deadline=None)
    @given(block_lists, seeds)
    @example([], 0)
    @example([(1, "dense")] * 5, 1)
    @example([(6, "dense")], 2)
    @example([(6, "shift"), (2, "shift")], 3)
    def test_labels_equal_bfs(self, blocks, seed):
        A = permuted_block_diagonal(blocks, seed)
        assert np.array_equal(component_labels(len(A), *np.nonzero(A)), oracles.connected_components(A))

    def test_catalog_matrices(self):
        for a, lattice in CATALOG:
            dense = CompressedOperator(a, lattice).entries
            want = oracles.connected_components(dense)
            assert np.array_equal(table_labels(a, lattice), want)
            assert np.array_equal(component_labels(len(dense), *np.nonzero(dense)), want)

    def test_modulated_rows_are_components(self):
        # (c + cos 2 pi x1) g(xi) couples xi to xi +- e1 only: one component per xi2
        lat = FrequencyLattice(2, 3)
        labels = table_labels(modulated_symbol(2.0, BracketPower(-4.0), dim=2), lat)
        assert len(set(labels.tolist())) == 7
        for label in set(labels.tolist()):
            assert len(set(lat.points[labels == label, 1].tolist())) == 1


class TestBlockSpectrum:
    @settings(max_examples=120, deadline=None)
    @given(block_lists, seeds)
    @example([], 0)
    @example([(1, "dense")] * 5, 1)
    @example([(6, "dense")], 2)
    @example([(6, "shift"), (2, "shift"), (1, "diagonal")], 3)
    # defective double eigenvalues: the block and full solves put them 4.9e-9 and
    # 1.6e-8 apart, against 1e-10 ||A||_2 = 5.3e-10 and 4.0e-10
    @example([(2, "sparse"), (3, "sparse"), (5, "dense"), (5, "sparse")], 3)
    @example([(1, "sparse"), (4, "sparse"), (4, "sparse"), (6, "sparse")], 48719)
    def test_multiset_matches_full_solve(self, blocks, seed):
        A = permuted_block_diagonal(blocks, seed)
        got = eigenvalues(A)
        assert_spectrum_of(got, A)
        assert np.array_equal(got, got[canonical_eigen_order(got)])
        with_res, residuals = eigenvalues(A, with_residuals=True)
        assert_spectrum_of(with_res, A)
        assert residuals.shape == got.shape
        assert np.all(residuals <= 1e-9 * max(two_norm(A), 1e-300))

    def test_catalog_matrices(self):
        for mat in catalog_matrices():
            tol = 1e-10 * two_norm(mat.entries)
            assert_same_multiset(eigenvalues(mat), oracles.dense_eigenvalues(mat.entries), tol)

    def test_character_shift_is_nilpotent(self):
        lat = FrequencyLattice(2, 2)
        mat = CompressedOperator(character_symbol(2), lat)
        assert np.abs(eigenvalues(mat)).max() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=24), seeds)
    def test_one_component_bit_identical(self, side, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        assert np.array_equal(eigenvalues(A), oracles.dense_eigenvalues(A))
        vals = np.linalg.eig(A)[0]
        assert np.array_equal(eigenvalues(A, with_residuals=True)[0], vals[canonical_eigen_order(vals)])

    def test_random_sampled_symbol_is_one_component(self, rng):
        lat = FrequencyLattice(2, 2)
        grid = min_grid_size(2)
        table = rng.standard_normal((grid**2, len(lat))) + 1j * rng.standard_normal((grid**2, len(lat)))
        a = SampledSymbol(2, grid, lat, table)
        mat = CompressedOperator(a, lat)
        assert not np.any(table_labels(a, lat))
        assert np.array_equal(eigenvalues(mat), oracles.dense_eigenvalues(mat.entries))

    def test_exact_zeros_of_a_sampled_symbol_split_it(self):
        # the FFT of a real even x-factor has exact zeros; splitting on them is exact
        lat = FrequencyLattice(2, 2)
        a = sample_symbol(modulated_symbol(2.0, BracketPower(-2.0), dim=2), min_grid_size(2), lat)
        mat = CompressedOperator(a, lat)
        labels = table_labels(a, lat)
        assert np.array_equal(labels, oracles.connected_components(mat.entries))
        assert len(set(labels.tolist())) > 1
        tol = 1e-10 * two_norm(mat.entries)
        assert_same_multiset(eigenvalues(mat), oracles.dense_eigenvalues(mat.entries), tol)


SYMBOLS = {
    "bessel": lambda dim: bessel_symbol(-3.0, dim),
    "heat": lambda dim: heat_symbol(0.1, dim),
    "bracket": lambda dim: modulated_symbol(2.0, BracketPower(-4.0), dim),
    "gaussian": lambda dim: modulated_symbol(0.5, GaussianDecay(0.1), dim),
    "character": lambda dim: character_symbol(dim),  # no zero row: trace 0
}


def sampled(kind: str, dim: int, radius: int, grid: int, seed: int) -> SampledSymbol:
    """A table on the lattice of ``radius``: the FFT of a real even x-factor, whose
    exact zeros split the compression, or random complex samples."""
    lattice = FrequencyLattice(dim, radius)
    if kind == "zeros":
        return sample_symbol(modulated_symbol(2.0, BracketPower(-2.0), dim), grid, lattice)
    rng = np.random.default_rng(seed)
    shape = (grid**dim, len(lattice))
    return SampledSymbol(dim, grid, lattice, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@st.composite
def symbols_and_radii(draw):
    """(name, symbol, radius) in dims 1 and 2; a sampled table is read at its own
    radius or below, its window M//2 above or below 2N."""
    dim = draw(st.sampled_from([1, 2]))
    top = 8 if dim == 1 else 3
    name = draw(st.sampled_from(sorted(SYMBOLS) + ["zeros", "random"]))
    if name in SYMBOLS:
        a, table_radius = SYMBOLS[name](dim), top
    else:
        table_radius = draw(st.integers(min_value=0, max_value=top))
        grid = draw(st.sampled_from([3, 4, 7, min_grid_size(table_radius)]))
        a = sampled(name, dim, table_radius, grid, draw(seeds))
    return name, a, draw(st.integers(min_value=0, max_value=table_radius))


class TestSupportTable:
    """The support-table path against the dense oracles, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(symbols_and_radii())
    @example(("character", character_symbol(2), 3))
    @example(("zeros", sampled("zeros", 2, 2, min_grid_size(2), 0), 2))
    def test_table_path_equals_dense_oracle(self, case):
        name, a, radius = case
        lattice = FrequencyLattice(a.dim, radius)
        dense = oracles.dense_compression(a, lattice, lattice)
        assert np.array_equal(CompressedOperator(a, lattice).entries, dense)
        op = CompressedOperator(a, lattice)
        assert np.array_equal(table_labels(a, lattice), oracles.connected_components(dense))
        got, residuals = eigenvalues(op, with_residuals=True)
        want, want_residuals = eigenvalues(dense, with_residuals=True)
        assert np.array_equal(got, want) and np.array_equal(residuals, want_residuals)
        assert np.array_equal(eigenvalues(op), eigenvalues(dense))
        trace = op.trace()
        assert repr(trace) == repr(fsum_complex(np.diag(dense)))
        if name == "character":
            assert trace == 0

    def test_side_limit_trace_allocates_no_dense_matrix(self, capsys):
        # side 3969: a dense compression alone is 252 MB
        tracemalloc.start()
        try:
            code = main(["trace", "--symbol", "modulated", "--c", "2", "--m", "-4", "--dim", "2",
                         "--radius", "31", "--certify-w", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 3969**2  # under one byte per dense entry


def counting(monkeypatch, name: str, corrupt=None, record=np.shape) -> list:
    """Replace np.linalg.<name> by a wrapper that records each batch (its shape,
    or ``record`` of it) and optionally corrupts the result."""
    real = getattr(np.linalg, name)
    calls = []

    def wrapper(a):
        calls.append(record(a))
        out = real(a)
        return corrupt(out) if corrupt else out

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def corrupt_first_vector(result):
    vals, vecs = result
    vecs = vecs.copy()
    vecs[..., 0, 0] += 1.0
    return vals, vecs


def shift_first_value(vals):
    vals = vals.copy()
    vals[..., 0] += 1e-3
    return vals


class TestChecksSurvive:
    def matrix(self):
        lat = FrequencyLattice(2, 2)
        return CompressedOperator(modulated_symbol(2.0, BracketPower(-4.0), dim=2), lat)

    def test_corrupted_eigenpair_raises(self, monkeypatch):
        counting(monkeypatch, "eig", corrupt_first_vector)
        with pytest.raises(EigensolverError, match="residual"):
            eigenvalues(self.matrix(), with_residuals=True)

    def test_eigen_sum_missing_trace_raises(self, monkeypatch):
        counting(monkeypatch, "eigvals", shift_first_value)
        with pytest.raises(EigensolverError, match="trace"):
            eigenvalues(self.matrix())

    def test_one_component_checks_still_fire(self, monkeypatch):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        counting(monkeypatch, "eig", corrupt_first_vector)
        with pytest.raises(EigensolverError, match="residual"):
            eigenvalues(A, with_residuals=True)

    def test_cli_exit_3(self, monkeypatch, capsys):
        counting(monkeypatch, "eig", corrupt_first_vector)
        code = main(["spectrum", "--symbol", "modulated", "--m", "-4", "--dim", "2", "--radius", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "numerical failure" in captured.err and "Traceback" not in captured.err

    def test_one_lapack_call_per_block_size(self, monkeypatch):
        A = permuted_block_diagonal([(3, "dense"), (1, "dense"), (3, "dense"), (2, "dense")], 11)
        calls = counting(monkeypatch, "eigvals")
        eigenvalues(A)
        assert sorted(calls) == [(1, 1, 1), (1, 2, 2), (2, 3, 3)]

    def test_spectrum_solves_once_and_reports_residual(self, monkeypatch, capsys):
        eig_calls = counting(monkeypatch, "eig")
        eigvals_calls = counting(monkeypatch, "eigvals")
        code = main(["spectrum", "--symbol", "modulated", "--m", "-4", "--dim", "2", "--radius", "3"])
        out = capsys.readouterr().out
        assert code == 0
        # seven components of side 7 (one per xi2): a single batched call
        assert eig_calls == [(7, 7, 7)] and eigvals_calls == []
        residual = json.loads(out)["diagnostics"]["max_residual"]
        assert 0.0 <= residual <= 1e-9


def two_norm_calls(monkeypatch) -> list:
    """Record the shape of every np.linalg.norm(x, 2, ...) call."""
    real = np.linalg.norm
    calls = []

    def wrapper(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", wrapper)
    return calls


# sparse blocks are left out: they can be defective, and a defective eigenvalue
# moves by about sqrt(eps) ||A|| between two backward-stable solves
real_block_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=6), st.sampled_from(("dense", "shift", "diagonal"))),
    min_size=1, max_size=7,
)


class TestRealBlocks:
    @settings(max_examples=120, deadline=None)
    @given(real_block_lists, seeds)
    @example([(6, "shift"), (2, "shift"), (1, "diagonal")], 3)
    @example([(2, "dense")] * 6, 4)
    def test_real_solve_matches_complex_oracle(self, blocks, seed):
        A = permuted_block_diagonal(blocks, seed).real.astype(np.complex128)
        norm = two_norm(A)
        got = eigenvalues(A)
        assert_same_multiset(got, oracles.dense_eigenvalues(A), 1e-12 * norm)
        assert np.array_equal(np.sort_complex(got), np.sort_complex(got.conj()))
        with_res, residuals = eigenvalues(A, with_residuals=True)
        assert_same_multiset(with_res, got, 1e-12 * norm)
        assert np.all(residuals <= 1e-9 * max(norm, 1e-300))
        trace = fsum_complex(np.diag(A))
        assert abs(fsum_complex(got) - trace) <= 1e-9 * (1.0 + abs(trace))

    def test_one_complex_block_keeps_its_group_complex(self, monkeypatch):
        rng = np.random.default_rng(5)
        A = np.zeros((8, 8), dtype=np.complex128)
        A[:3, :3] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A[3:6, 3:6] = rng.standard_normal((3, 3))
        A[6:, 6:] = rng.standard_normal((2, 2))
        dtypes = counting(monkeypatch, "eigvals", record=lambda a: a.dtype)
        got = eigenvalues(A)
        assert dtypes == [np.float64, np.complex128]
        assert_same_multiset(got, oracles.dense_eigenvalues(A), 1e-10 * two_norm(A))

    def test_negative_zero_imaginary_part_is_real(self, monkeypatch):
        A = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128)
        A.imag = -0.0
        dtypes = counting(monkeypatch, "eigvals", record=lambda a: a.dtype)
        assert np.array_equal(eigenvalues(A), [-1j, 1j])
        assert dtypes == [np.float64]

    def test_nan_imaginary_part_stays_complex(self, monkeypatch):
        A = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        A[1, 2] = 1.0 + 1j * np.nan
        dtypes = counting(monkeypatch, "eigvals", record=lambda a: a.dtype)
        with pytest.raises(EigensolverError):
            eigenvalues(A)
        assert dtypes == [np.float64, np.complex128]


class TestTwoNormOnlyWhenNeeded:
    def test_not_computed_for_well_conditioned_blocks(self, monkeypatch):
        lat = FrequencyLattice(2, 3)
        catalog = CompressedOperator(modulated_symbol(2.0, BracketPower(-4.0), dim=2), lat)
        dense = permuted_block_diagonal([(4, "dense"), (2, "dense"), (1, "dense")], 9)
        calls = two_norm_calls(monkeypatch)
        for A in (catalog, dense):
            eigenvalues(A, with_residuals=True)
        assert calls == []

    def test_computed_when_the_entry_bound_cannot_certify(self, monkeypatch):
        # the all-ones block: max |a_ij| = 1, ||A||_2 = 16
        A = np.ones((16, 16), dtype=np.complex128)
        want, residuals = eigenvalues(A, with_residuals=True)
        worst = residuals.max()
        assert worst > 0
        calls = two_norm_calls(monkeypatch)
        monkeypatch.setattr(quantize, "EIGEN_RESIDUAL_TOL", worst / 8)  # TOL < worst <= 16 TOL
        got, got_residuals = eigenvalues(A, with_residuals=True)
        assert calls == [(1, 16, 16)]
        assert np.array_equal(got, want) and np.array_equal(got_residuals, residuals)
        tol = worst / 32  # 16 TOL < worst: the exact norm fails it too, and the message names it
        monkeypatch.setattr(quantize, "EIGEN_RESIDUAL_TOL", tol)
        with pytest.raises(EigensolverError, match=f"\\* \\|\\|A\\|\\| = {tol * 16:.3e}"):
            eigenvalues(A, with_residuals=True)
        assert calls == [(1, 16, 16)] * 2


def huge_block(is_complex: bool) -> np.ndarray:
    """A dense 5 x 5 block with entries near 1e200, whose squares overflow float64."""
    rng = np.random.default_rng(13)
    B = rng.standard_normal((5, 5)) + (1j * rng.standard_normal((5, 5)) if is_complex else 0)
    return 1e200 * B.astype(np.complex128)


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
class TestHugeEntries:
    def test_residuals_stay_finite(self, is_complex):
        A = huge_block(is_complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, residuals = eigenvalues(A, with_residuals=True)
        assert np.isfinite(residuals).all() and residuals.max() <= 1e-9 * two_norm(A)

    def test_a_bad_pair_is_refused(self, monkeypatch, is_complex):
        counting(monkeypatch, "eig", corrupt_first_vector)
        with pytest.raises(EigensolverError, match="residual"):
            eigenvalues(huge_block(is_complex), with_residuals=True)
