"""Dual enumeration, closed-form trace series, and truncation convergence."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torustrace
from torustrace.besov import BesovParams, partial_sum_convergence
from torustrace.groups import (
    SU2,
    Torus,
    _bessel_integral,
    bessel_tail,
    enumerate_dual,
    summed_series,
)
from torustrace.harmonic import FrequencyLattice, forward_transform
from torustrace.quantize import CompressedOperator
from torustrace.sums import fsum
from torustrace.symbols import bessel_symbol, heat_symbol

from conftest import bandlimited

TORUS_THETA_T1 = 1.7726372048266521  # oracle: direct summation at cutoff 20
SU2_HEAT_T1 = 4.5517515889374893  # oracle: direct summation at l_max = 60
PI_COTH_PI = math.pi / math.tanh(math.pi)


def heat_sum(dual, t):
    return summed_series(dual, (2.0, 0.0, t))[0]


def bessel_sum(dual, alpha):
    return summed_series(dual, (2.0, -alpha, 0.0))[0]


class TestEnumerateDual:
    def test_torus_n1(self):
        dual = enumerate_dual(Torus(1), 2)
        assert len(dual) == 3
        assert all(d == 1 for d in dual.d)
        # one row per distinct eigenvalue, ascending, with its number of lattice points
        assert dual.lam.tolist() == [0.0, 1.0, 4.0]
        assert dual.mult.tolist() == [1, 2, 2]

    def test_su2_small(self):
        dual = enumerate_dual(SU2(True), 1)
        got = [(d, lam, mult) for d, lam, mult in zip(dual.d, dual.lam, dual.mult)]
        assert got == [(1, 0.0, 1), (2, 0.75, 1), (3, 2.0, 1)]

    def test_torus_n2(self):
        dual = enumerate_dual(Torus(2), 1)
        assert dual.lam.tolist() == [0.0, 1.0, 2.0]
        assert dual.mult.tolist() == [1, 4, 4]

    def test_su2_fractional_cutoff_stops_at_cutoff(self):
        # l = 1 > 0.75 is left out, as for the integer-spin subset
        dual = enumerate_dual(SU2(True), 0.75)
        assert dual.d.tolist() == [1, 2]

    def test_su2_integer_spins(self):
        dual = enumerate_dual(SU2(False), 3)
        assert dual.d.tolist() == [1, 3, 5, 7]

    def test_bracket_consistent_with_lattice(self):
        dual = enumerate_dual(Torus(1), 5)
        brackets, counts = np.unique(FrequencyLattice(1, 5).brackets(), return_counts=True)
        assert np.sqrt(1.0 + dual.lam).tolist() == pytest.approx(brackets.tolist(), abs=1e-15)
        assert dual.mult.tolist() == counts.tolist()


class TestHeatTrace:
    def test_torus_reference_value(self):
        dual = enumerate_dual(Torus(1), 6)
        assert heat_sum(dual, 1.0) == pytest.approx(TORUS_THETA_T1, abs=1e-12)

    def test_torus_independent_resummation(self):
        # oracle computed at a larger cutoff; tail below 1e-21
        wide = enumerate_dual(Torus(1), 20)
        narrow = enumerate_dual(Torus(1), 6)
        assert heat_sum(narrow, 1.0) == pytest.approx(heat_sum(wide, 1.0), abs=1e-15)

    def test_su2_reference_value(self):
        dual = enumerate_dual(SU2(True), 20)
        wide = enumerate_dual(SU2(True), 60)
        assert heat_sum(dual, 1.0) == pytest.approx(SU2_HEAT_T1, abs=1e-9)
        assert heat_sum(dual, 1.0) == pytest.approx(heat_sum(wide, 1.0), abs=1e-6)

    def test_strictly_decreasing_in_t(self):
        dual = enumerate_dual(SU2(True), 10)
        ts = [0.25, 0.5, 1.0, 2.0, 5.0]
        vals = [heat_sum(dual, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_long_time_limit_is_one(self):
        for dual in (enumerate_dual(Torus(1), 8), enumerate_dual(SU2(True), 10)):
            assert heat_sum(dual, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_t_validated(self, capsys):
        # the command refuses t <= 0; the library sums any envelope, and t = 0 diverges
        from torustrace.cli import main

        for t in ("0", "-1"):
            assert main(["heat-trace", "--group", "torus", "--t", t, "--cutoff", "4"]) == 2
            assert "--t" in capsys.readouterr().err
        assert summed_series(enumerate_dual(Torus(1), 4), (2.0, 0.0, 0.0))[1]["converged"] is False


class TestBesselTrace:
    def test_closed_form_with_tail_correction(self):
        dual = enumerate_dual(Torus(1), 100000)
        correction, bound = bessel_tail(100000, 2.0)
        got = bessel_sum(dual, 2.0) + correction
        assert got == pytest.approx(PI_COTH_PI, abs=1e-14)
        assert 0 < bound < 1e-15

    def test_partial_sum_stability_alpha4(self):
        d100 = enumerate_dual(Torus(1), 100)
        d200 = enumerate_dual(Torus(1), 200)
        assert abs(bessel_sum(d100, 4.0) - bessel_sum(d200, 4.0)) <= 1e-5

    def test_tail_correction_needs_torus_1d(self, capsys, monkeypatch):
        # the command refuses it before the dual is built; bessel_tail reads no group
        import torustrace.cli as cli

        monkeypatch.setattr(cli, "enumerate_dual", lambda *a, **k: pytest.fail("the dual was built"))
        for group in (["--group", "su2"], ["--group", "torus", "--dim", "2"]):
            code = cli.main(["bessel-trace", *group, "--alpha", "4", "--cutoff", "20", "--tail-correct"])
            assert code == 2 and capsys.readouterr().err == (
                "error: tail correction is implemented for the torus with dim = 1; drop --tail-correct\n")


class TestBesselIntegral:
    """``groups._bessel_integral``, int_x^inf (1 + t^2)^{-alpha/2} dt, against the
    elementary closed forms at alpha 2, 3 and 4, each written without
    cancellation: with theta = atan(1/x), pi/2 - atan x = theta, 1 - x/sqrt(1 + x^2)
    = 1/(h (h + x)) with h = sqrt(1 + x^2), and (pi/2 - atan x)/2 - x/(2 (1 + x^2))
    = (phi - sin phi)/4 with phi = 2 theta, by its Taylor series."""

    @staticmethod
    def phi_minus_sin(phi):
        terms, term, k = [], phi, 1
        while term > 1e-40 * phi**3:
            term *= phi * phi / ((2 * k) * (2 * k + 1))
            terms.append(term if k % 2 else -term)
            k += 1
        return math.fsum(terms)

    @pytest.mark.parametrize("x", [0.5, 1.0, 1.5, 10.5, 520.5, 100000.5])
    def test_elementary_closed_forms(self, x):
        h = math.hypot(1.0, x)
        for alpha, exact in ((2.0, math.atan(1.0 / x)), (3.0, 1.0 / (h * (h + x))),
                             (4.0, self.phi_minus_sin(2.0 * math.atan(1.0 / x)) / 4.0)):
            assert abs(_bessel_integral(x, alpha) - exact) <= 1e-15 * exact, alpha

    def test_beyond_the_square_of_float64(self):
        # x^2 leaves float64 but the integral, about x^(1 - alpha)/(alpha - 1), does not
        assert _bessel_integral(1e200, 1.5) == pytest.approx(2e-100, rel=1e-15)


class TestGaussLegendre64:
    """The tail correction was once a 64-point Golub-Welsch rule built with numpy;
    its closed form (``_bessel_integral``) takes ``math`` alone."""

    def test_tail_correction_imports_no_numpy_polynomial(self):
        # numpy 2 imports numpy.polynomial lazily (numpy 1.x eagerly, with numpy
        # itself); the tail correction must not pull it in
        code = (
            "import sys\n"
            "import numpy\n"
            "before = 'numpy.polynomial' in sys.modules\n"
            "from torustrace.cli import main\n"
            "code = main(['bessel-trace', '--group', 'torus', '--dim', '1', '--alpha', '2',\n"
            "             '--cutoff', '10', '--tail-correct'])\n"
            "assert code == 0, code\n"
            "print(before, 'numpy.polynomial' in sys.modules)\n"
        )
        src = str(Path(torustrace.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              check=True)
        before, after = done.stdout.splitlines()[-1].split()
        assert after == before


class TestMultiplierTrace:
    def test_heat_symbol_chases_definition(self):
        dual = enumerate_dual(SU2(True), 15)
        got = fsum(dual.d * dual.d * np.exp(-1.0 * dual.lam))
        assert got == pytest.approx(heat_sum(dual, 1.0), abs=1e-12)

    def test_bessel_symbol_chases_definition(self):
        dual = enumerate_dual(Torus(1), 50)
        got = fsum(np.repeat(dual.d * dual.d * np.sqrt(1.0 + dual.lam) ** -4.0, dual.mult))
        assert got == pytest.approx(bessel_sum(dual, 4.0), abs=1e-12)

    def test_cross_module_against_nuclear_trace(self):
        # same multiplier, summed over the dual and over the lattice
        dual = enumerate_dual(Torus(1), 16)
        lat = FrequencyLattice(1, 16)
        via_dual = summed_series(dual, (0.0, -4.0, 0.0))[0]
        via_lattice = CompressedOperator(bessel_symbol(-4.0), lat).trace()
        assert abs(via_dual - via_lattice) <= 1e-12

    def test_gaussian_cross_module(self):
        dual = enumerate_dual(Torus(1), 6)
        lat = FrequencyLattice(1, 6)
        via_dual = summed_series(dual, (0.0, 0.0, 1.0))[0]
        via_lattice = CompressedOperator(heat_symbol(1.0), lat).trace()
        assert abs(via_dual - via_lattice) <= 1e-14


class TestWeylGrowth:
    def test_squared_dimension_sums(self):
        # sum over l = 0, 1/2, ..., L of (2l+1)^2 telescopes to a cubic closed form
        for twice_l_max in (4, 9, 20):
            dual = enumerate_dual(SU2(True), twice_l_max / 2.0)
            got = fsum(dual.d.astype(float) ** 2)
            j = twice_l_max + 1
            assert got == pytest.approx(j * (j + 1) * (2 * j + 1) / 6.0, abs=1e-9)

    def test_monotone_superlinear(self):
        sums = []
        for l_max in (5, 10, 20, 40):
            dual = enumerate_dual(SU2(True), l_max)
            sums.append(fsum(dual.d.astype(float) ** 2))
        assert all(b > 2 * a for a, b in zip(sums, sums[1:]))


class TestPartialSumConvergence:
    def test_bandlimited_reproduced(self):
        f, lat = bandlimited({3: 1.0}, radius=4)
        rows = partial_sum_convergence(forward_transform(f, lat), BesovParams(0, 2, 2), [4, 5],
                                       f.grid_size)
        for n_cut, err in rows:
            assert err <= 1e-12  # <3> = sqrt(10) <= 4

    def test_bracket_cutoff_boundary(self):
        # <3> = sqrt(10) > 3: the N = 3 partial sum misses the top frequency
        f, lat = bandlimited({3: 1.0}, radius=4)
        rows = dict(partial_sum_convergence(forward_transform(f, lat), BesovParams(0, 2, 2), [3, 4],
                                            f.grid_size))
        assert rows[3.0] > 0.5
        assert rows[4.0] <= 1e-12

    def test_constant(self):
        f, lat = bandlimited({0: 1.0}, radius=2)
        rows = partial_sum_convergence(forward_transform(f, lat), BesovParams(1, 2, 2), [1, 2],
                                       f.grid_size)
        assert all(err <= 1e-12 for _, err in rows)

    def test_decreasing_error_column(self):
        coeffs = {k: (1.0 + k * k) ** -1.0 for k in range(-8, 9)}
        f, lat = bandlimited(coeffs, radius=8)
        rows = partial_sum_convergence(forward_transform(f, lat), BesovParams(0, 2, 2), [1, 2, 4, 8, 9],
                                       f.grid_size)
        errs = [err for _, err in rows]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[:-1] == sorted(errs[:-1], reverse=True)
        assert errs[-1] <= 1e-12  # <8> = sqrt(65) <= 9
        assert errs[-2] > 1e-12  # ... but > 8

    def test_negative_cutoff_keeps_nothing(self):
        # <xi> >= 1 > N, though 1 + |0|^2 <= N^2 at N = -1: S_N f = 0, as at N = 0
        f, lat = bandlimited({0: 1.0, 2: 0.5}, radius=4)
        rows = partial_sum_convergence(forward_transform(f, lat), BesovParams(0, 2, 2), [-1, -2.5, 0],
                                       f.grid_size)
        assert rows[0][1] == rows[1][1] == rows[2][1] > 1.0
