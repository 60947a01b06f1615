"""The three benchmark workloads: seeded inputs and the command list of one pass.

A pass is a fixed list of torustrace CLI invocations.  The seed draws the
sampled-symbol and periodic-function files (and, for ``dual-series``, the
series parameters); problem sizes are constants below and never depend on it.
Every command carries the check its stdout must pass (see checks.py).

Why these workloads:

* ``operator-spectra`` -- matrix assembly (x_fourier_table -> operator_matrix),
  the eigensolver, per-radius rebuilds and the quasi-norm certificate do the
  work; groups does none.  Catalog and sampled symbols are mixed so a change
  that helps the quadrature path but slows the exact-coefficient path shows.
* ``dyadic-norms`` -- harmonic transforms and besov blocks do the work, the
  eigensolver none; symbols is used through differences, derivatives and the
  all-eta decay table instead of matrix assembly.
* ``dual-series`` -- dual enumeration, series, shell diagnostics and check_tt1
  do all the work; harmonic and quantize none (the "no change" side for
  transform and assembly optimisations).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

# Sizes are trimmed so that a run holds MIN_ROUNDS rounds in about 35 s
# (see README.md).
SAMPLED_1D = dict(dim=1, radius=32, grid=32, bandwidth=4)
SAMPLED_2D = dict(dim=2, radius=4, grid=12, bandwidth=2)
CERTIFY_RADIUS = 2
SPECTRUM_2D_RADIUS = 8
LIDSKII_2D_RADII = (4, 6, 8)
HEAT_2D_RADIUS = 8
# (file, dim, radius, besov-norm p values, approx-demo p values, approx-demo n-values)
FUNCTIONS = (
    ("f1.json", 1, 128, (2,), (1, 2), (1, 16, 182)),
    ("f2.json", 2, 8, (3,), (2,), (1, 12)),
)
TORUS_2D_CUTOFF = 80
TT1_TORUS_CUTOFF = 60
SU2_CUTOFF = 20000

WORKLOADS = ("operator-spectra", "dyadic-norms", "dual-series")


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str, Path], list[str]]


# ---------------------------------------------------------------------------
# Seeded input files
# ---------------------------------------------------------------------------


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values.reshape(-1)]


def _write(path: Path, doc: dict) -> int:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path.stat().st_size


def sampled_symbol(rng, path: Path, dim: int, radius: int, grid: int, bandwidth: int):
    """Table f(x) <xi>^-4 with f a random trigonometric polynomial of the given bandwidth.

    Returns (table, bandwidth lattice points, x-factor coefficients on them, file bytes).
    """
    band = ck.lattice_points(dim, bandwidth)
    coeffs = rng.standard_normal(len(band)) + 1j * rng.standard_normal(len(band))
    coeffs *= ck.brackets(band) ** -2.0
    coeffs[len(band) // 2] += 3.0  # keep f away from zero
    f = ck.synthesize(band, coeffs, dim, grid)
    g = ck.brackets(ck.lattice_points(dim, radius)) ** -4.0
    table = f[:, None] * g[None, :]
    size = _write(path, {"dim": dim, "grid_size": grid, "lattice_radius": radius,
                         "values": _pairs(table), "claimed_order": -4.0})
    return table, band, coeffs, size


def periodic_function(rng, path: Path, dim: int, radius: int):
    """Random band-limited function, coefficients ~ N(0,1) <xi>^-1, on the margin grid."""
    pts = ck.lattice_points(dim, radius)
    coeffs = (rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))) * ck.brackets(pts) ** -1.0
    grid = 2 * (2 * radius + 1)
    size = _write(path, {"dim": dim, "grid_size": grid, "values": _pairs(ck.synthesize(pts, coeffs, dim, grid))})
    return pts, coeffs, grid, size


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _bracket_sum(dim: int, radius: int, m: float) -> float:
    return math.fsum(ck.brackets(ck.lattice_points(dim, radius)) ** m)


def _modulated_matrix(dim: int, radius: int, c: float, m: float) -> np.ndarray:
    """A[eta, xi] = hat a(eta - xi, xi) for (c + cos 2 pi x_1) <xi>^m."""
    pts = ck.lattice_points(dim, radius)
    diff = pts[:, None, :] - pts[None, :, :]
    g = ck.brackets(pts) ** m
    on_axis = np.all(diff[..., 1:] == 0, axis=2)
    coef = np.where(on_axis & (diff[..., 0] == 0), c, 0.0)
    coef = coef + np.where(on_axis & (np.abs(diff[..., 0]) == 1), 0.5, 0.0)
    return (coef * g[None, :]).astype(np.complex128)


def operator_spectra(rng, work: Path) -> tuple[list[Command], dict]:
    table1, _, _, size1 = sampled_symbol(rng, work / "sym1.json", **SAMPLED_1D)
    table2, _, _, size2 = sampled_symbol(rng, work / "sym2.json", **SAMPLED_2D)
    r1, r2 = SAMPLED_1D["radius"], SAMPLED_2D["radius"]

    readme_diag = ck.brackets(ck.lattice_points(1, 8)) ** -4.0
    heat_diag = np.exp(-0.05 * np.sum(ck.lattice_points(2, HEAT_2D_RADIUS) ** 2, axis=1))
    modulated_1d = lambda n: 2.0 * _bracket_sum(1, n, -4.0)  # noqa: E731
    modulated_2d = lambda n: 2.0 * _bracket_sum(2, n, -4.0)  # noqa: E731
    radii = ",".join(str(r) for r in LIDSKII_2D_RADII)
    commands = [
        Command("readme-trace", ("trace", "--symbol", "bessel", "--m", "-4", "--dim", "1",
                                 "--radius", "16", "--format", "json"),
                ck.multiplier_trace(ck.brackets(ck.lattice_points(1, 16)) ** -4.0 + 0j)),
        Command("readme-lidskii", ("lidskii", "--symbol", "modulated", "--c", "2", "--m", "-4",
                                   "--radii", "4,8,16", "--format", "csv"),
                ck.lidskii_csv(modulated_1d)),
        Command("readme-spectrum", ("spectrum", "--symbol", "bessel", "--m", "-4", "--radius", "8",
                                    "--matrix-csv", "matrix.csv"),
                ck.spectrum(np.diag(readme_diag + 0j), np.sort(readme_diag)[::-1] + 0j, "matrix.csv")),
        Command("certify-2d", ("trace", "--symbol", "modulated", "--m", "-4", "--dim", "2",
                               "--radius", str(CERTIFY_RADIUS), "--certify-w", "1"),
                ck.certified_trace(modulated_2d(CERTIFY_RADIUS),
                                   ck.modulated_quasinorm(2.0, -4.0, 2, CERTIFY_RADIUS))),
        Command("spectrum-2d", ("spectrum", "--symbol", "modulated", "--m", "-4", "--dim", "2",
                                "--radius", str(SPECTRUM_2D_RADIUS)),
                ck.spectrum(_modulated_matrix(2, SPECTRUM_2D_RADIUS, 2.0, -4.0))),
        Command("lidskii-2d", ("lidskii", "--symbol", "modulated", "--m", "-4", "--dim", "2",
                               "--radii", radii),
                ck.lidskii_json(modulated_2d)),
        Command("heat-2d", ("trace", "--symbol", "heat", "--t", "0.05", "--dim", "2",
                            "--radius", str(HEAT_2D_RADIUS), "--order-hint", "-4"),
                ck.with_tail_estimate(ck.multiplier_trace(heat_diag + 0j))),
        Command("sampled-trace-1d", ("trace", "--symbol-file", "sym1.json", "--radius", str(r1),
                                     "--order-hint", "-4"),
                ck.with_tail_estimate(ck.multiplier_trace(table1.mean(axis=0)))),
        Command("sampled-spectrum-2d", ("spectrum", "--symbol-file", "sym2.json", "--radius", str(r2)),
                ck.spectrum(ck.sampled_matrix(table2, 2, SAMPLED_2D["grid"], r2))),
    ]
    return commands, {"sym1.json": size1, "sym2.json": size2}


def dyadic_norms(rng, work: Path) -> tuple[list[Command], dict]:
    sizes = {}
    stock = ck.lattice_points(1, 8)
    char4 = ck.lattice_points(1, 4)
    commands = [
        Command("readme-besov", ("besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2",
                                 "--radius", "8"),
                ck.besov_report(char4, (char4[:, 0] == 4).astype(complex), 1, 34, 1.0, 2.0, 2.0)),
        Command("readme-approx", ("approx-demo", "--stock", "8", "--w", "0", "--p", "2", "--q", "2",
                                  "--n-values", "1,2,4,8,9"),
                ck.approx_report(stock, ck.brackets(stock) ** -2.0 + 0j, 1, 34, 0.0, 2.0, 2.0,
                                 (1, 2, 4, 8, 9))),
        Command("readme-class-bessel", ("check-class", "--symbol", "bessel", "--m", "-4", "--radius", "256"),
                ck.class_report(-4.0, 1e-9, c_hat=1.0)),
        Command("readme-class-modulated", ("check-class", "--symbol", "modulated", "--c", "2", "--m", "-4",
                                           "--radius", "16", "--decay-k", "1", "--decay-m", "-4"),
                ck.class_report(-4.0, 1e-9, c_hat=3.0, decay=2.0)),
    ]
    for name, dim, radius, besov_ps, approx_ps, n_values in FUNCTIONS:
        pts, coeffs, grid, sizes[name] = periodic_function(rng, work / name, dim, radius)
        stem = name.removesuffix(".json")
        for p in besov_ps:
            commands.append(Command(
                f"besov-{stem}-p{p}",
                ("besov-norm", "--input", name, "--w", "0.5", "--p", str(p), "--q", "2",
                 "--radius", str(radius)),
                ck.besov_report(pts, coeffs, dim, grid, 0.5, float(p), 2.0)))
        for p in approx_ps:
            commands.append(Command(
                f"approx-{stem}-p{p}",
                ("approx-demo", "--input", name, "--w", "0.5", "--p", str(p), "--q", "2",
                 "--radius", str(radius), "--n-values", ",".join(str(n) for n in n_values)),
                ck.approx_report(pts, coeffs, dim, grid, 0.5, float(p), 2.0, n_values)))

    # Sampled symbol f(x) <xi>^-4: the decay constant is sup_eta |hat f(eta)| <eta>^2
    # over the alias window, and the first difference lowers the order by about one.
    _, band, fcoef, sizes["sym1.json"] = sampled_symbol(rng, work / "sym1.json", **SAMPLED_1D)
    decay = float(np.max(np.abs(fcoef) * ck.brackets(band) ** 2))
    r1 = SAMPLED_1D["radius"]
    commands += [
        Command("class-sampled-1d", ("check-class", "--symbol-file", "sym1.json", "--radius", str(r1),
                                     "--alpha-idx", "1", "--decay-k", "1", "--decay-m", "-4"),
                ck.class_report(-5.0, 0.5, decay=decay)),
        Command("class-modulated-2d", ("check-class", "--symbol", "modulated", "--m", "-4", "--dim", "2",
                                       "--radius", "16", "--decay-k", "1", "--decay-m", "-4"),
                ck.class_report(-4.0, 1e-9, c_hat=3.0, decay=2.0)),
    ]
    return commands, sizes


def dual_series(rng, work: Path) -> tuple[list[Command], dict]:
    t_heat = round(float(rng.uniform(0.001, 0.002)), 6)
    alpha_conv = round(float(rng.uniform(2.5, 3.5)), 6)
    alpha_div = round(float(rng.uniform(1.2, 1.8)), 6)
    alpha_su2 = round(float(rng.uniform(3.5, 4.5)), 6)
    t_tt1 = round(float(rng.uniform(0.0005, 0.002)), 6)

    d1, lam1 = ck.torus_dual(1, 6)
    ds, lams = ck.su2_dual(20, half_integers=True)
    d2, lam2 = ck.torus_dual(2, TORUS_2D_CUTOFF)
    di, lami = ck.su2_dual(SU2_CUTOFF, half_integers=False)
    dt, lamt = ck.torus_dual(2, TT1_TORUS_CUTOFF)
    dh, lamh = ck.su2_dual(SU2_CUTOFF, half_integers=True)
    dr, lamr = ck.su2_dual(200, half_integers=True)
    axis = np.exp(-t_heat * np.arange(-TORUS_2D_CUTOFF, TORUS_2D_CUTOFF + 1, dtype=np.float64) ** 2)
    c = TORUS_2D_CUTOFF
    commands = [
        Command("readme-heat-torus", ("heat-trace", "--group", "torus", "--dim", "1", "--t", "1",
                                      "--cutoff", "6"),
                ck.series_value(math.fsum(d1 * d1 * np.exp(-lam1)))),
        Command("readme-heat-su2", ("heat-trace", "--group", "su2", "--t", "1.0", "--cutoff", "20"),
                ck.series_value(math.fsum(ds * ds * np.exp(-lams)))),
        Command("readme-bessel-tail", ("bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "2",
                                       "--cutoff", "100000", "--tail-correct"),
                ck.series_value(math.pi / math.tanh(math.pi), divergent=False, rtol=1e-10)),
        Command("readme-t1", ("nuclearity", "--theorem", "t1", "--n", "1", "--r", "1", "--alpha", "0.5",
                              "--p1", "2", "--k", "1", "--delta", "0", "--m", "-4", "--w2", "0"),
                ck.guarded(lambda text, workdir: ck.verdict_consistent(text))),
        Command("readme-tt1-su2", ("nuclearity", "--theorem", "tt1", "--case", "3", "--group", "su2",
                                   "--cutoff", "200", "--r", "1", "--p", "2", "--q", "2",
                                   "--symbol", "bessel", "--m", "-4"),
                ck.tt1_report(dr, lamr, 200.0 * 201.0, lambda lam: (1.0 + lam) ** -2.0, 1.0, 1.0, 0.0)),
        Command("heat-torus-2d", ("heat-trace", "--group", "torus", "--dim", "2", "--t", str(t_heat),
                                  "--cutoff", str(c)),
                ck.series_value(math.fsum(axis) ** 2, rtol=1e-10)),
        Command("bessel-torus-2d-conv", ("bessel-trace", "--group", "torus", "--dim", "2",
                                         "--alpha", str(alpha_conv), "--cutoff", str(c)),
                ck.series_value(math.fsum((1.0 + lam2) ** (-alpha_conv / 2.0)), divergent=False)),
        Command("bessel-torus-2d-div", ("bessel-trace", "--group", "torus", "--dim", "2",
                                        "--alpha", str(alpha_div), "--cutoff", str(c)),
                ck.series_value(math.fsum((1.0 + lam2) ** (-alpha_div / 2.0)), divergent=True)),
        Command("bessel-su2", ("bessel-trace", "--group", "su2", "--alpha", str(alpha_su2),
                               "--cutoff", str(SU2_CUTOFF), "--integer-spins"),
                ck.series_value(math.fsum(di * di * (1.0 + lami) ** (-alpha_su2 / 2.0)), divergent=False)),
        Command("tt1-case1-torus", ("nuclearity", "--theorem", "tt1", "--case", "1", "--group", "torus",
                                    "--dim", "2", "--cutoff", str(TT1_TORUS_CUTOFF), "--r", "1",
                                    "--p", "1.5", "--q", "2", "--symbol", "bessel", "--m", "-4"),
                # torus: d = 1, so only the bracket exponent n (1/p - 1/q) r matters
                ck.tt1_report(dt, lamt, float(TT1_TORUS_CUTOFF) ** 2, lambda lam: (1.0 + lam) ** -2.0,
                              1.0, 1.0, 2.0 * (1.0 / 1.5 - 0.5))),
        Command("tt1-case4-su2", ("nuclearity", "--theorem", "tt1", "--case", "4", "--group", "su2",
                                  "--cutoff", str(SU2_CUTOFF), "--r", "1", "--p", "2", "--q", "2",
                                  "--symbol", "heat", "--t", str(t_tt1)),
                # case 4 with p = 2: dimension exponent 1 + r (1/2 - 1/p) = 1, bracket exponent 0
                ck.tt1_report(dh, lamh, SU2_CUTOFF * (SU2_CUTOFF + 1.0), lambda lam: np.exp(-t_tt1 * lam),
                              1.0, 1.0, 0.0)),
    ]
    params = {"t_heat": t_heat, "alpha_convergent": alpha_conv, "alpha_divergent": alpha_div,
              "alpha_su2": alpha_su2, "t_tt1": t_tt1}
    return commands, params


BUILDERS = {
    "operator-spectra": operator_spectra,
    "dyadic-norms": dyadic_norms,
    "dual-series": dual_series,
}


def build(workload: str, seed: int, work: Path) -> tuple[list[Command], dict]:
    """Write the workload's inputs into ``work`` and return its pass and an input record."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    commands, record = BUILDERS[workload](rng, work)
    return commands, {"seed": seed, "inputs": record}
