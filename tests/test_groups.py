"""Dual enumeration, closed-form trace series, and truncation convergence."""

import math

import numpy as np
import pytest

from torustrace.besov import BesovParams
from torustrace.groups import (
    DivergenceWarning,
    bessel_trace,
    enumerate_dual,
    heat_trace,
    multiplier_trace,
    partial_sum_convergence,
)
from torustrace.harmonic import FrequencyLattice
from torustrace.sums import fsum
from torustrace.symbols import bessel_symbol, heat_symbol
from torustrace.traces import nuclear_trace

from conftest import bandlimited

TORUS_THETA_T1 = 1.7726372048266521  # oracle: direct summation at cutoff 20
SU2_HEAT_T1 = 4.5517515889374893  # oracle: direct summation at l_max = 60
PI_COTH_PI = math.pi / math.tanh(math.pi)


class TestEnumerateDual:
    def test_torus_n1(self):
        dual = enumerate_dual("torus", 2, dim=1)
        assert len(dual) == 5
        assert all(d == 1 for d in dual.d)
        assert sorted(dual.lam) == [0.0, 1.0, 1.0, 4.0, 4.0]
        assert dual.lam[0] == 0.0  # sorted by eigenvalue
        # eigenvalue ties broken by label
        assert [tuple(label) for label in dual.labels] == [(0,), (-1,), (1,), (-2,), (2,)]

    def test_su2_small(self):
        dual = enumerate_dual("su2", 1)
        got = [(label[0], d, lam) for label, d, lam in zip(dual.labels, dual.d, dual.lam)]
        assert got == [(0, 1, 0.0), (0.5, 2, 0.75), (1, 3, 2.0)]

    def test_torus_n2(self):
        dual = enumerate_dual("torus", 1, dim=2)
        lams = sorted(dual.lam)
        assert lams == [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]

    def test_su2_fractional_cutoff_stops_at_cutoff(self):
        # l = 1 > 0.75 is left out, as for the integer-spin subset
        dual = enumerate_dual("su2", 0.75)
        assert dual.labels[:, 0].tolist() == [0.0, 0.5]

    def test_su2_integer_spins(self):
        dual = enumerate_dual("su2", 3, half_integers=False)
        assert [label[0] for label in dual.labels] == [0, 1, 2, 3]

    def test_bracket_consistent_with_lattice(self):
        dual = enumerate_dual("torus", 5, dim=1)
        for label, bracket in zip(dual.labels, dual.bracket):
            k = label[0]
            assert bracket == pytest.approx(math.sqrt(1 + k * k), abs=1e-15)


class TestHeatTrace:
    def test_torus_reference_value(self):
        dual = enumerate_dual("torus", 6, dim=1)
        assert heat_trace(dual, 1.0) == pytest.approx(TORUS_THETA_T1, abs=1e-12)

    def test_torus_independent_resummation(self):
        # oracle computed at a larger cutoff; tail below 1e-21
        wide = enumerate_dual("torus", 20, dim=1)
        narrow = enumerate_dual("torus", 6, dim=1)
        assert heat_trace(narrow, 1.0) == pytest.approx(heat_trace(wide, 1.0), abs=1e-15)

    def test_su2_reference_value(self):
        dual = enumerate_dual("su2", 20)
        wide = enumerate_dual("su2", 60)
        assert heat_trace(dual, 1.0) == pytest.approx(SU2_HEAT_T1, abs=1e-9)
        assert heat_trace(dual, 1.0) == pytest.approx(heat_trace(wide, 1.0), abs=1e-6)

    def test_strictly_decreasing_in_t(self):
        dual = enumerate_dual("su2", 10)
        ts = [0.25, 0.5, 1.0, 2.0, 5.0]
        vals = [heat_trace(dual, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_long_time_limit_is_one(self):
        for dual in (enumerate_dual("torus", 8, dim=1), enumerate_dual("su2", 10)):
            assert heat_trace(dual, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_t_validated(self):
        dual = enumerate_dual("torus", 4, dim=1)
        with pytest.raises(ValueError):
            heat_trace(dual, 0.0)


class TestBesselTrace:
    def test_closed_form_with_tail_correction(self):
        dual = enumerate_dual("torus", 100000, dim=1)
        got = bessel_trace(dual, 2.0, tail_correction=True)
        assert got == pytest.approx(PI_COTH_PI, abs=1e-8)

    def test_partial_sum_stability_alpha4(self):
        d100 = enumerate_dual("torus", 100, dim=1)
        d200 = enumerate_dual("torus", 200, dim=1)
        assert abs(bessel_trace(d100, 4.0) - bessel_trace(d200, 4.0)) <= 1e-5

    def test_su2_alpha3_divergence_flag(self):
        dual = enumerate_dual("su2", 30)
        with pytest.warns(DivergenceWarning):
            bessel_trace(dual, 3.0)

    def test_convergent_run_has_no_flag(self):
        dual = enumerate_dual("su2", 30)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            bessel_trace(dual, 4.0)

    def test_tail_correction_needs_torus_1d(self):
        dual = enumerate_dual("su2", 10)
        with pytest.raises(ValueError, match="torus"):
            bessel_trace(dual, 4.0, tail_correction=True)


class TestMultiplierTrace:
    def test_heat_symbol_chases_definition(self):
        dual = enumerate_dual("su2", 15)
        got = multiplier_trace(dual, lambda dual: np.exp(-1.0 * dual.lam))
        assert got.real == pytest.approx(heat_trace(dual, 1.0), abs=1e-12)
        assert got.imag == 0.0

    def test_bessel_symbol_chases_definition(self):
        dual = enumerate_dual("torus", 50, dim=1)
        got = multiplier_trace(dual, lambda dual: dual.bracket**-4.0)
        assert got.real == pytest.approx(bessel_trace(dual, 4.0), abs=1e-12)

    def test_cross_module_against_nuclear_trace(self):
        # same multiplier, summed over the dual and over the lattice
        dual = enumerate_dual("torus", 16, dim=1)
        lat = FrequencyLattice(1, 16)
        via_dual = multiplier_trace(dual, lambda dual: dual.bracket**-4.0)
        via_lattice = nuclear_trace(bessel_symbol(-4.0), lat)
        assert abs(via_dual - via_lattice) <= 1e-12

    def test_gaussian_cross_module(self):
        dual = enumerate_dual("torus", 6, dim=1)
        lat = FrequencyLattice(1, 6)
        via_dual = multiplier_trace(dual, lambda dual: np.exp(-dual.lam))
        via_lattice = nuclear_trace(heat_symbol(1.0), lat)
        assert abs(via_dual - via_lattice) <= 1e-14


class TestWeylGrowth:
    def test_squared_dimension_sums(self):
        # sum over l = 0, 1/2, ..., L of (2l+1)^2 telescopes to a cubic closed form
        for twice_l_max in (4, 9, 20):
            dual = enumerate_dual("su2", twice_l_max / 2.0)
            got = fsum(dual.d.astype(float) ** 2)
            j = twice_l_max + 1
            assert got == pytest.approx(j * (j + 1) * (2 * j + 1) / 6.0, abs=1e-9)

    def test_monotone_superlinear(self):
        sums = []
        for l_max in (5, 10, 20, 40):
            dual = enumerate_dual("su2", l_max)
            sums.append(fsum(dual.d.astype(float) ** 2))
        assert all(b > 2 * a for a, b in zip(sums, sums[1:]))


class TestPartialSumConvergence:
    def test_bandlimited_reproduced(self):
        f, lat = bandlimited({3: 1.0}, radius=4)
        rows = partial_sum_convergence(f, BesovParams(0, 2, 2), [4, 5], lat)
        for n_cut, err in rows:
            assert err <= 1e-12  # <3> = sqrt(10) <= 4

    def test_bracket_cutoff_boundary(self):
        # <3> = sqrt(10) > 3: the N = 3 partial sum misses the top frequency
        f, lat = bandlimited({3: 1.0}, radius=4)
        rows = dict(partial_sum_convergence(f, BesovParams(0, 2, 2), [3, 4], lat))
        assert rows[3.0] > 0.5
        assert rows[4.0] <= 1e-12

    def test_constant(self):
        f, lat = bandlimited({0: 1.0}, radius=2)
        rows = partial_sum_convergence(f, BesovParams(1, 2, 2), [1, 2], lat)
        assert all(err <= 1e-12 for _, err in rows)

    def test_decreasing_error_column(self):
        coeffs = {k: (1.0 + k * k) ** -1.0 for k in range(-8, 9)}
        f, lat = bandlimited(coeffs, radius=8)
        rows = partial_sum_convergence(f, BesovParams(0, 2, 2), [1, 2, 4, 8, 9], lat)
        errs = [err for _, err in rows]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[:-1] == sorted(errs[:-1], reverse=True)
        assert errs[-1] <= 1e-12  # <8> = sqrt(65) <= 9
        assert errs[-2] > 1e-12  # ... but > 8
