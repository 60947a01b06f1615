"""Acceptance suite: one test per criterion, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from torustrace.besov import BesovParams, coefficient_norm, partial_sum_convergence
from torustrace.cli import main
from torustrace.criteria import Clause, check_t1, nuclear_quasinorm_bound
from torustrace.harmonic import (
    FourierCoefficients,
    FrequencyLattice,
    forward_transform,
    lp_norms,
    min_grid_size,
)
from torustrace.quantize import CompressedOperator, eigenvalues
from torustrace.sums import fsum, fsum_complex
from torustrace.symbols import (
    BracketPower,
    bessel_symbol,
    estimate_order,
    fourier_decay_constant,
    modulated_symbol,
)
from torustrace.traces import lidskii_compare

import oracles
from oracles import random_bandlimited
from test_criteria import HAND_TABLE


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def run_cli_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_01_torus_heat_trace(capsys):
    start = time.perf_counter()
    doc = run_cli_json(capsys, [
        "heat-trace", "--group", "torus", "--dim", "1", "--t", "1", "--cutoff", "6",
    ])
    elapsed = time.perf_counter() - start
    value = doc["body"]["value"]
    oracle = fsum(math.exp(-k * k) for k in range(-20, 21))  # independent, cutoff 20
    ok = abs(value - oracle) <= 1e-9 and abs(value - 1.7726372048) <= 1e-9 and elapsed < 1.0
    report(1, ok, f"torus heat trace {value:.12f} vs oracle {oracle:.12f}, {elapsed:.3f}s")


def test_criterion_02_bessel_closed_form(capsys):
    start = time.perf_counter()
    doc = run_cli_json(capsys, [
        "bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "2",
        "--cutoff", "100000", "--tail-correct",
    ])
    elapsed = time.perf_counter() - start
    value = doc["body"]["value"]
    closed = math.pi / math.tanh(math.pi)
    raw = fsum((1.0 + k * k) ** -1.0 for k in range(-100000, 100001))  # raw-sum oracle
    ok = abs(value - closed) <= 1e-8 and value >= raw and elapsed < 5.0
    report(2, ok, f"bessel alpha=2 corrected {value:.10f} vs pi*coth(pi) {closed:.10f}, "
                  f"{elapsed:.2f}s")


def test_criterion_03_su2_heat_trace(capsys):
    doc = run_cli_json(capsys, [
        "heat-trace", "--group", "su2", "--t", "1.0", "--cutoff", "20",
    ])
    value = doc["body"]["value"]
    # independent re-summation: the per-point oracle dual, nothing read from groups
    oracle = math.fsum(oracles.heat_terms(oracles.enumerate_dual("su2", 60), 1.0))
    ok = abs(value - oracle) <= 1e-6 and abs(value - 4.5517515) <= 1e-6
    report(3, ok, f"su2 heat trace {value:.9f} vs l_max=60 oracle {oracle:.9f}")


def test_criterion_04_lidskii_compressions():
    a = modulated_symbol(2.0, BracketPower(-4.0))
    rep = lidskii_compare(a, [CompressedOperator(a, FrequencyLattice(1, r)) for r in (4, 8, 16)])
    diffs_ok = all(rec["abs_diff"] <= 1e-8 for rec in rep["history"])
    incs = [abs(b["nuclear"] - q["nuclear"]) for q, b in zip(rep["history"], rep["history"][1:])]
    shrink = incs[0] / incs[1]
    residual_ok = True
    for radius in (4, 8, 16):
        lattice = FrequencyLattice(1, radius)
        mat = CompressedOperator(a, lattice)
        res = eigenvalues(mat, with_residuals=True)[1]
        residual_ok &= res.max() <= 1e-9 * np.linalg.norm(mat.entries, 2)
    ok = diffs_ok and shrink >= 6.0 and residual_ok
    report(4, ok, f"trace identity diffs <= 1e-8, increment shrink {shrink:.2f} >= 6, "
                  f"residuals within 1e-9 ||A||")


def test_criterion_05_multiplier_spectrum_identity():
    lat = FrequencyLattice(1, 8)
    a = bessel_symbol(-4.0)
    mat = CompressedOperator(a, lat)
    eigs = eigenvalues(mat)
    expect = np.sort_complex(lat.brackets() ** -4.0 + 0j)
    multiset_ok = np.abs(np.sort_complex(eigs) - expect).max() <= 1e-12
    summed = fsum_complex(lat.brackets() ** -4.0)
    trace_ok = mat.trace() == summed  # byte-equal: diagonal is the multiplier itself
    ok = multiset_ok and trace_ok
    report(5, ok, f"eigen multiset matches within 1e-12, trace equals sum exactly "
                  f"({mat.trace().real:.12f})")


def test_criterion_06_besov_closed_form(rng):
    lat = FrequencyLattice(1, 8)
    coeffs = np.zeros(len(lat), dtype=complex)
    coeffs[lat.indices_of(4)[0]] = 1.0
    f = oracles.synthesize(FourierCoefficients(lat, coeffs), min_grid_size(8))
    norm = coefficient_norm(forward_transform(f, lat), BesovParams(1, 2, 2), f.grid_size)
    closed_ok = abs(norm - 4.0) <= 1e-10
    l2_ok = True
    for _ in range(20):
        g = random_bandlimited(lat, min_grid_size(8), rng)
        b = coefficient_norm(forward_transform(g, lat), BesovParams(0, 2, 2), g.grid_size)
        l2_ok &= abs(b - lp_norms(g.values[None, :], 2)[0]) <= 1e-10
    ok = closed_ok and l2_ok
    report(6, ok, "besov(e^{i2pi 4x}; 1,2,2) = 4 within 1e-10; "
                  "B^0_{2,2} = L^2 within 1e-10 on 20 random functions")


def test_criterion_07_approximation_demo(rng):
    lat = FrequencyLattice(1, 8)
    ok = True
    for trial in range(3):
        degree = int(rng.integers(2, 9))
        coeffs = np.zeros(len(lat), dtype=complex)
        for k in range(-degree, degree + 1):
            coeffs[lat.indices_of(k)[0]] = complex(*rng.standard_normal(2))
        c, grid = FourierCoefficients(lat, coeffs), min_grid_size(8)
        threshold = math.sqrt(1 + degree * degree)
        n_values = [1, 2, 4, math.ceil(threshold), 12]
        for w in (0.0, 1.0):
            for q in (1.0, 2.0, math.inf):
                rows = dict(partial_sum_convergence(c, BesovParams(w, 2.0, q), n_values, grid))
                for n_cut, err in rows.items():
                    if n_cut >= threshold:
                        ok &= err <= 1e-12
        rows = partial_sum_convergence(c, BesovParams(0.0, 2.0, 2.0), n_values, grid)
        errs = [e for _, e in rows]
        ok &= all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    report(7, ok, "S_N reproduces degree-D polynomials for N >= <D> across "
                  "(w,q) grid; p=q=2 error column non-increasing")


def test_criterion_08_checker_table():
    results = [(label, make()["satisfied"], expected) for label, make, expected in HAND_TABLE]
    bad = [label for label, got, expected in results if got is not expected]
    boundary = check_t1(n=1, r=0.5, alpha=0.5, p1=2.0, k=2, delta=1.0, m=-7.0, w2=1.0)
    equality_named = any(
        c["lhs"] == c["rhs"] and "equality" in Clause(**c).render() for c in boundary["violated_clauses"]
    )
    ok = len(results) >= 12 and not bad and equality_named
    report(8, ok, f"{len(results)} hand-evaluated tuples reproduced exactly "
                  f"(failures: {bad or 'none'}); equality boundary reported as such")


def test_criterion_09_decay_constant_stability():
    a = modulated_symbol(2.0, BracketPower(-4.0))
    c16 = fourier_decay_constant(a, 1, -4.0, 0.0, FrequencyLattice(1, 16))
    c32 = fourier_decay_constant(a, 1, -4.0, 0.0, FrequencyLattice(1, 32))
    ok = c16 <= 4.0 and c32 <= 4.0 and abs(c32 - c16) <= 0.05 * c16
    report(9, ok, f"decay constant C_est = {c16:.6f} (N=16), {c32:.6f} (N=32), <= 4 "
                  f"and stable within 5%")


def test_criterion_10_order_recovery():
    lat = FrequencyLattice(1, 256)
    fits = {}
    ok = True
    for m in (-2.0, -4.0, -6.0):
        m_hat, _ = estimate_order(bessel_symbol(m), 0, 0, lat)
        fits[m] = m_hat
        ok &= abs(m_hat - m) <= 0.1
    report(10, ok, "order fits at radius 256: " +
           ", ".join(f"m={m:g} -> {v:.4f}" for m, v in fits.items()))


def test_criterion_11_quasinorm_and_w_independence(capsys):
    lat = FrequencyLattice(1, 16)
    a = bessel_symbol(-4.0)
    bound = nuclear_quasinorm_bound(a, 1.0, 0.0, lat)
    closed = fsum((1.0 + k * k) ** -2.0 for k in range(-16, 17))
    closed_ok = abs(bound - closed) <= 1e-10
    lines = []
    for w in ("0", "1", "2"):
        code = main(["trace", "--symbol", "bessel", "--m", "-4", "--radius", "16",
                     "--certify-w", w])
        out = capsys.readouterr().out
        assert code == 0
        lines.append([l for l in out.splitlines() if '"nuclear_trace"' in l][0])
    byte_ok = lines[0] == lines[1] == lines[2]
    ok = closed_ok and byte_ok
    report(11, ok, f"quasi-norm bound {bound:.12f} = sum|a| within 1e-10; "
                   f"nuclear_trace field byte-identical across w in {{0,1,2}}")
