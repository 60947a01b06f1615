"""Output checks for the benchmark, against oracles computed here in numpy.

Nothing in this module imports torustrace: every expected value comes from a
closed form or from an independent numpy computation on the generated inputs.
Each check takes the command's stdout (and the work directory, for commands
that write files) and returns a list of failure messages; an empty list means
the output passed.  Tolerances are relative, never byte comparisons against a
fixed build, because summation order may legitimately change last bits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import product

import numpy as np

IDENTITY_TOL = 1e-9  # the trace identity contract: |nuclear - spectral| <= tol (1 + |trace|)
VALUE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Lattice and dual helpers (mirroring the documented conventions)
# ---------------------------------------------------------------------------


def lattice_points(dim: int, radius: int) -> np.ndarray:
    """{xi : |xi|_inf <= radius} in lexicographic order, as the README defines it."""
    axis = range(-radius, radius + 1)
    return np.array(list(product(axis, repeat=dim)), dtype=np.int64).reshape(-1, dim)


def brackets(points: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + np.sum(points.astype(np.float64) ** 2, axis=1))


def block_index(squared_norm: int) -> int:
    """Dyadic block 2^m <= |xi| < 2^{m+1}, origin in block 0."""
    key = int(squared_norm)
    return 0 if key <= 0 else (key.bit_length() - 1) // 2


def synthesize(points: np.ndarray, coeffs: np.ndarray, dim: int, grid_size: int) -> np.ndarray:
    """Trigonometric polynomial sum_xi c[xi] e^{i 2 pi <x, xi>} on the grid, by FFT."""
    spec = np.zeros((grid_size,) * dim, dtype=np.complex128)
    np.add.at(spec, tuple((points % grid_size).T), coeffs)
    return (np.fft.ifftn(spec) * grid_size**dim).reshape(-1)


def besov_oracle(points, coeffs, dim, grid_size, w, p, q) -> float:
    """(sum_m 2^{mwq} ||block_m f||_p^q)^{1/q} from explicit coefficients.

    p = 2 uses Parseval on the coefficients; other p synthesize each block by
    FFT and take the rectangle-rule L^p norm on the probability torus.
    """
    sq = np.sum(points.astype(np.int64) ** 2, axis=1)
    blocks = np.array([block_index(s) for s in sq], dtype=np.int64)
    weighted = []
    for m in sorted(set(blocks.tolist())):
        sel = blocks == m
        if p == 2.0:
            norm = math.sqrt(math.fsum(np.abs(coeffs[sel]) ** 2))
        else:
            vals = synthesize(points[sel], coeffs[sel], dim, grid_size)
            norm = float(np.mean(np.abs(vals) ** p) ** (1.0 / p))
        weighted.append(2.0 ** (m * w) * norm)
    return math.fsum(t**q for t in weighted) ** (1.0 / q)


def torus_dual(dim: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """(d, lambda) over {|xi|_inf <= cutoff}."""
    pts = lattice_points(dim, int(cutoff))
    return np.ones(len(pts)), np.sum(pts.astype(np.float64) ** 2, axis=1)


def su2_dual(cutoff: float, half_integers: bool) -> tuple[np.ndarray, np.ndarray]:
    """(d, lambda) over l = 0, 1/2, ... (or integers only) up to the cutoff."""
    if half_integers:
        ls = np.arange(int(round(2 * cutoff)) + 1) / 2.0
    else:
        ls = np.arange(int(cutoff) + 1, dtype=np.float64)
    return 2.0 * ls + 1.0, ls * (ls + 1.0)


# ---------------------------------------------------------------------------
# Parsing and comparison primitives
# ---------------------------------------------------------------------------


def report(text: str) -> dict:
    doc = json.loads(text)
    if set(doc) != {"header", "body", "diagnostics"}:
        raise ValueError(f"report keys {sorted(doc)}")
    return doc


def cplx(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def close(label: str, got, want, rtol: float = VALUE_RTOL, atol: float = 0.0) -> list[str]:
    got_c, want_c = complex(got), complex(want)
    if abs(got_c - want_c) <= atol + rtol * abs(want_c):
        return []
    return [f"{label}: got {got_c!r}, oracle {want_c!r}"]


def identity(label: str, nuclear: complex, spectral: complex) -> list[str]:
    if abs(nuclear - spectral) <= IDENTITY_TOL * (1.0 + abs(nuclear)):
        return []
    return [f"{label}: trace identity broken, nuclear {nuclear!r} vs spectral {spectral!r}"]


def guarded(check):
    """Turn a parse error inside a check into a reported failure."""

    def run(text: str, workdir) -> list[str]:
        try:
            return check(text, workdir)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return run


# ---------------------------------------------------------------------------
# Operator checks
# ---------------------------------------------------------------------------


def multiplier_trace(symbol_diag: np.ndarray):
    """`trace` of an x-independent symbol: nuclear = sum of the diagonal values."""
    want = complex(math.fsum(symbol_diag.real), math.fsum(symbol_diag.imag))

    @guarded
    def check(text, workdir):
        body = report(text)["body"]
        nuc, spec = cplx(body["nuclear_trace"]), cplx(body["spectral_trace"])
        errs = identity("trace", nuc, spec)
        errs += close("nuclear trace vs lattice sum", nuc, want)
        if body["eigenvalue_count"] != symbol_diag.size:
            errs.append(f"eigenvalue_count {body['eigenvalue_count']} != {symbol_diag.size}")
        return errs

    return check


def with_tail_estimate(check):
    @guarded
    def run(text, workdir):
        errs = check(text, workdir)
        tail = report(text)["diagnostics"].get("tail_estimate")
        if not (isinstance(tail, float) and math.isfinite(tail) and tail >= 0.0):
            errs.append(f"tail_estimate {tail!r} is not a finite nonnegative number")
        return errs

    return run


def lidskii_csv(nuclear_at):
    """CSV lidskii: trace identity and the nuclear closed form at every radius."""

    @guarded
    def check(text, workdir):
        rows = list(csv.DictReader(io.StringIO(text)))
        errs = [] if rows else ["empty CSV"]
        for row in rows:
            n = int(row["N"])
            nuc = complex(float(row["nuclear_re"]), float(row["nuclear_im"]))
            spec = complex(float(row["spectral_re"]), float(row["spectral_im"]))
            errs += identity(f"N={n}", nuc, spec)
            errs += close(f"N={n} nuclear", nuc, nuclear_at(n))
        return errs

    return check


def lidskii_json(nuclear_at):
    @guarded
    def check(text, workdir):
        body = report(text)["body"]
        errs = [] if body["history"] else ["empty history"]
        for rec in body["history"]:
            nuc, spec = cplx(rec["nuclear"]), cplx(rec["spectral"])
            errs += identity(f"N={rec['radius']}", nuc, spec)
            errs += close(f"N={rec['radius']} nuclear", nuc, nuclear_at(rec["radius"]))
        return errs

    return check


def spectrum(matrix: np.ndarray, sorted_eigs: np.ndarray | None = None, csv_name: str | None = None):
    """`spectrum` against an oracle matrix.

    Always: eigenvalue sum = reported trace = oracle trace, and the sum of
    squared eigenvalues = tr(A^2) (a spectral invariant that does not depend on
    eigenvector conditioning).  With ``sorted_eigs`` (normal matrices) the
    eigenvalues themselves are compared in canonical order; with ``csv_name``
    the exported matrix is compared entrywise.
    """
    tr = complex(np.trace(matrix))
    tr2 = complex(np.sum(matrix * matrix.T))
    scale = float(np.abs(matrix).max())

    @guarded
    def check(text, workdir):
        body = report(text)["body"]
        eigs = np.array([cplx(v) for v in body["eigenvalues"]])
        errs = []
        if eigs.size != matrix.shape[0]:
            return [f"{eigs.size} eigenvalues for a side-{matrix.shape[0]} matrix"]
        errs += identity("spectrum", cplx(body["trace"]), complex(math.fsum(eigs.real), math.fsum(eigs.imag)))
        errs += close("matrix trace", cplx(body["trace"]), tr)
        errs += close("sum of squared eigenvalues vs tr(A^2)", complex(np.sum(eigs**2)), tr2, rtol=1e-8)
        if sorted_eigs is not None and np.max(np.abs(eigs - sorted_eigs)) > 1e-12 * (1.0 + scale):
            errs.append("eigenvalues differ from the sorted bracket powers")
        if csv_name is not None:
            errs += _matrix_csv(workdir / csv_name, matrix)
        return errs

    return check


def _matrix_csv(path, matrix: np.ndarray) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    side = matrix.shape[0]
    if len(rows) != side * side:
        return [f"{path.name}: {len(rows)} rows, expected {side * side}"]
    got = np.zeros_like(matrix)
    for row in rows:
        got[int(row["eta_index"]), int(row["xi_index"])] = complex(float(row["re"]), float(row["im"]))
    if np.max(np.abs(got - matrix)) > 1e-12 * (1.0 + float(np.abs(matrix).max())):
        return [f"{path.name}: exported entries differ from the oracle matrix"]
    return []


def modulated_quasinorm(c: float, m: float, dim: int, radius: int) -> float:
    """Certificate sum_xi ||e_xi a(., xi)||_{B^1_{2,2}} for a = (c + cos 2 pi x_1) <xi>^m.

    H_xi has coefficients c <xi>^m at xi and <xi>^m / 2 at xi +- e_1; with
    p = q = 2 the Besov norm is sqrt(sum_eta 4^{w m(eta)} |coef|^2) by Parseval.
    """
    e1 = np.zeros(dim, dtype=np.int64)
    e1[0] = 1
    total = []
    for xi in lattice_points(dim, radius):
        g = (1.0 + float(np.sum(xi**2))) ** (m / 2.0)
        parts = [(xi, c * g), (xi + e1, 0.5 * g), (xi - e1, 0.5 * g)]
        total.append(math.sqrt(math.fsum(4.0 ** block_index(int(np.sum(eta**2))) * v * v for eta, v in parts)))
    return math.fsum(total)


def certified_trace(nuclear: complex, bound: float):
    @guarded
    def check(text, workdir):
        doc = report(text)
        body = doc["body"]
        nuc, spec = cplx(body["nuclear_trace"]), cplx(body["spectral_trace"])
        errs = identity("trace", nuc, spec) + close("nuclear trace", nuc, nuclear)
        errs += close("quasi-norm certificate", doc["diagnostics"]["quasinorm_certificate"]["bound"], bound)
        return errs

    return check


def sampled_matrix(table: np.ndarray, dim: int, grid_size: int, radius: int) -> np.ndarray:
    """A[eta, xi] = hat a(eta - xi, xi) from the table by FFT, 0 outside |eta - xi|_inf <= M // 2."""
    pts = lattice_points(dim, radius)
    cube = table.reshape((grid_size,) * dim + (len(pts),))
    spec = np.fft.fftn(cube, axes=tuple(range(dim))) / grid_size**dim
    diff = pts[:, None, :] - pts[None, :, :]
    admissible = np.all(np.abs(diff) <= grid_size // 2, axis=2)
    idx = tuple((diff % grid_size)[..., k] for k in range(dim))
    cols = np.broadcast_to(np.arange(len(pts))[None, :], admissible.shape)
    return np.where(admissible, spec[idx + (cols,)], 0.0)


# ---------------------------------------------------------------------------
# Dyadic-norm checks
# ---------------------------------------------------------------------------


def besov_report(points, coeffs, dim, grid_size, w, p, q):
    want = besov_oracle(points, coeffs, dim, grid_size, w, p, q)

    @guarded
    def check(text, workdir):
        return close(f"besov norm (w={w}, p={p}, q={q})", report(text)["body"]["norm"], want)

    return check


def approx_report(points, coeffs, dim, grid_size, w, p, q, n_values):
    """approx-demo: each error matches the oracle norm of the residual, and errors never grow."""
    bracket_sq = 1.0 + np.sum(points.astype(np.float64) ** 2, axis=1)
    want = [
        besov_oracle(points, np.where(bracket_sq > n * n, coeffs, 0.0), dim, grid_size, w, p, q)
        for n in n_values
    ]

    @guarded
    def check(text, workdir):
        table = report(text)["body"]["table"]
        errors = [float(row["besov_error"]) for row in table]
        if len(errors) != len(want):
            return [f"{len(errors)} table rows, expected {len(want)}"]
        errs = []
        for n, got, exp in zip(n_values, errors, want):
            errs += close(f"N={n} error", got, exp, atol=1e-12 * (1.0 + want[0]))
        if any(b > a for a, b in zip(errors, errors[1:])):
            errs.append(f"approximation errors increase: {errors}")
        return errs

    return check


def class_report(m_hat: float, m_tol: float, c_hat: float | None = None, decay: float | None = None):
    """check-class: fitted order (absolute tolerance), constant and decay constant (relative)."""

    @guarded
    def check(text, workdir):
        body = report(text)["body"]
        errs = []
        if abs(float(body["m_hat"]) - m_hat) > m_tol:
            errs.append(f"m_hat {body['m_hat']} is not within {m_tol} of {m_hat}")
        if c_hat is not None:
            errs += close("C_hat", body["C_hat"], c_hat, rtol=1e-6)
        if decay is not None:
            errs += close("decay constant", body["decay_constant"]["C_est"], decay)
        return errs

    return check


# ---------------------------------------------------------------------------
# Dual-series checks
# ---------------------------------------------------------------------------


def _consistent(diag: dict) -> list[str]:
    if diag.get("converged") is True and diag.get("divergent") is True:
        return ["diagnostics say converged: true beside divergent: true"]
    return []


def series_value(want: float, divergent: bool | None = None, rtol: float = 1e-12):
    @guarded
    def check(text, workdir):
        doc = report(text)
        errs = close("series value", doc["body"]["value"], want, rtol=rtol)
        errs += _consistent(doc["diagnostics"])
        if divergent is not None and doc["diagnostics"].get("divergent") is not divergent:
            errs.append(f"divergent flag {doc['diagnostics'].get('divergent')!r}, expected {divergent}")
        return errs

    return check


def verdict_consistent(text: str) -> list[str]:
    body = report(text)["body"]
    if not isinstance(body["satisfied"], bool):
        return [f"satisfied is {body['satisfied']!r}"]
    if body["satisfied"] != (not body["violated_clauses"]):
        return ["satisfied disagrees with the violated-clause list"]
    return []


def tt1_report(d: np.ndarray, lam: np.ndarray, lambda_cap: float, symbol, r: float,
               d_exp: float, xi_exp: float):
    """tt1: the certified partial sum equals the oracle sum over complete dyadic shells.

    ``symbol`` maps lambda to |a|; the term is <xi>^{xi_exp} d |a|^r d^{d_exp}.
    """
    max_complete = -1
    while 4.0 ** (max_complete + 2) <= 1.0 + lambda_cap:
        max_complete += 1
    shells = np.array([block_index(int(math.floor(v)) + 1) for v in lam])
    keep = shells <= max_complete
    terms = np.sqrt(1.0 + lam) ** xi_exp * d * symbol(lam) ** r * d**d_exp
    want = math.fsum(terms[keep])
    n_shells = len(set(shells[keep].tolist()))

    @guarded
    def check(text, workdir):
        body = report(text)["body"]
        errs = verdict_consistent(text)
        witness = body["witness"]
        if len(witness["partial_sums"]) != n_shells:
            errs.append(f"{len(witness['partial_sums'])} shells, oracle {n_shells}")
        errs += close("final partial sum", witness["partial_sums"][-1], want, rtol=1e-12)
        if witness["certified"] != body["satisfied"]:
            errs.append("witness certification disagrees with the verdict")
        return errs

    return check
