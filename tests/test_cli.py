"""End-to-end CLI coverage: every subcommand, exit codes, schemas, determinism."""

import argparse
import importlib
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from torustrace.cli import HANDLERS, build_parser, main
from torustrace.harmonic import FourierCoefficients, FrequencyLattice, PeriodicFunction, min_grid_size
from torustrace.io import (
    load_periodic_function,
    load_sampled_symbol,
    save_periodic_function,
    save_sampled_symbol,
)
from torustrace.symbols import SampledSymbol, bessel_symbol, sample_symbol

from conftest import bandlimited
from oracles import synthesize


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    assert set(doc) == {"header", "body", "diagnostics"}
    header = doc["header"]
    for key in ("tool", "version", "schema_version", "normalization", "timestamp"):
        assert key in header
    return doc


class TestTraceCommand:
    def test_bessel_trace_report(self, capsys):
        doc = run_json(capsys, [
            "trace", "--symbol", "bessel", "--m", "-4", "--dim", "1",
            "--radius", "16", "--format", "json",
        ])
        nuc = doc["body"]["nuclear_trace"]
        spec = doc["body"]["spectral_trace"]
        # oracle: direct summation
        oracle = sum((1.0 + k * k) ** -2.0 for k in range(-16, 17))
        assert nuc[0] == pytest.approx(oracle, abs=1e-12)
        assert abs(complex(nuc[0], nuc[1]) - complex(spec[0], spec[1])) <= 1e-9

    def test_positive_exponent_end_to_end(self, capsys):
        # growing multiplier: still a valid compression trace at every radius
        doc = run_json(capsys, [
            "trace", "--symbol", "bessel", "--m", "4", "--dim", "1", "--radius", "16",
        ])
        oracle = math.fsum((1.0 + k * k) ** 2.0 for k in range(-16, 17))  # sum <xi>^4
        assert doc["body"]["nuclear_trace"][0] == pytest.approx(oracle, rel=1e-12)

    def test_order_hint_tail(self, capsys):
        doc = run_json(capsys, [
            "trace", "--symbol", "bessel", "--m", "-4", "--radius", "16",
            "--order-hint", "-4",
        ])
        assert 0 < doc["diagnostics"]["tail_estimate"] < 1e-3

    def test_table_refuses_the_radius_before_the_order_hint_tail(self, capsys, tmp_path):
        # the tail reads the table at the requested radius, outside a radius-4 table: the
        # table's refusal must come first, exit 2 with its message and no traceback
        path = tmp_path / "sym.json"
        save_sampled_symbol(sample_symbol(bessel_symbol(-4.0), min_grid_size(4), FrequencyLattice(1, 4)),
                            str(path))
        code, out, err = run(capsys, ["trace", "--symbol-file", str(path), "--radius", "6",
                                      "--order-hint", "-4"])
        assert code == 2 and out == ""
        assert "does not hold the requested radius 6" in err
        assert "Traceback" not in err and "KeyError" not in err

    def test_w_independence_byte_level(self, capsys):
        outs = []
        for w in ("0", "1", "2"):
            code, out, _ = run(capsys, [
                "trace", "--symbol", "bessel", "--m", "-4", "--radius", "8",
                "--certify-w", w,
            ])
            assert code == 0
            doc = json.loads(out)
            line = [l for l in out.splitlines() if '"nuclear_trace"' in l]
            outs.append(line[0])
            assert doc["diagnostics"]["quasinorm_certificate"]["w"] == float(w)
        assert outs[0] == outs[1] == outs[2]


class TestLidskiiCommand:
    def test_json_history(self, capsys):
        doc = run_json(capsys, [
            "lidskii", "--symbol", "modulated", "--c", "2", "--g", "bracket",
            "--m", "-4", "--radii", "4,8,16",
        ])
        hist = doc["body"]["history"]
        assert [h["radius"] for h in hist] == [4, 8, 16]
        assert all(h["abs_diff"] <= 1e-9 for h in hist)
        assert doc["body"]["history_converged"] is True

    def test_csv_schema(self, capsys):
        code, out, err = run(capsys, [
            "lidskii", "--symbol", "bessel", "--m", "-4", "--radii", "4,8",
            "--format", "csv",
        ])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,nuclear_re,nuclear_im,spectral_re,spectral_im,abs_diff"
        assert len(lines) == 3

    def test_require_convergent_failure(self, capsys):
        code, out, err = run(capsys, [
            "lidskii", "--symbol", "bessel", "--m", "0", "--radii", "2,4,8",
            "--require-convergent",
        ])
        assert code == 3
        assert "numerical failure" in err


class TestLidskiiTail:
    def test_slow_power_law_tail_is_proved(self, capsys):
        # the nuclear trace's tail past radius 17 is 2 sum_{k > 17} <k>^-1.5 = 0.9556...;
        # the last increment, 0.028, is no bound on it
        doc = run_json(capsys, ["lidskii", "--symbol", "bessel", "--m", "-1.5", "--dim", "1",
                                "--radii", "4,8,16,17"])
        assert doc["body"]["history_converged"] is True
        assert 0.956 <= doc["body"]["tail_estimate"] <= 1.1 * 0.9556
        assert "increment_rule" not in doc["diagnostics"]

    @pytest.mark.parametrize("argv", [
        ["--symbol", "bessel", "--m", "-1", "--radii", "2,4"],
        ["--symbol-file", "FILE", "--radii", "2,4"],
    ], ids=["divergent", "sampled"])
    def test_require_convergent_exits_3_without_a_proved_tail(self, capsys, tmp_path, argv):
        path = tmp_path / "sym.json"
        save_sampled_symbol(sample_symbol(bessel_symbol(-4.0), min_grid_size(4), FrequencyLattice(1, 4)),
                            str(path))
        argv = ["lidskii", *[str(path) if v == "FILE" else v for v in argv]]
        doc = run_json(capsys, argv)
        assert doc["body"]["tail_estimate"] == "inf" and doc["body"]["history_converged"] is False
        code, out, err = run(capsys, [*argv, "--require-convergent"])
        assert code == 3 and out == ""
        note = doc["diagnostics"]["tail_note"]
        assert err == f"numerical failure: the nuclear-trace tail is not certified: {note}\n"


class TestBesovCommand:
    def test_character_norm(self, capsys):
        doc = run_json(capsys, [
            "besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2",
            "--radius", "8",
        ])
        # the coefficients are written onto the lattice, not synthesized and
        # transformed back, so the blocks without frequency 4 hold exact zeros
        blocks = {b["m"]: b["lp_norm"] for b in doc["body"]["blocks"]}
        assert blocks[0] == blocks[1] == blocks[3] == 0.0
        assert abs(doc["body"]["norm"] - 4.0) <= math.ulp(4.0)

    def test_block_csv(self, capsys):
        code, out, _ = run(capsys, [
            "besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2",
            "--radius", "8", "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines()[0] == "m,block_lp_norm"

    def test_file_input(self, capsys, tmp_path):
        f, _ = bandlimited({1: 1.0, 2: 0.5}, radius=4)
        path = tmp_path / "f.json"
        save_periodic_function(f, str(path))
        doc = run_json(capsys, [
            "besov-norm", "--input", str(path), "--w", "0", "--p", "2", "--q", "2",
            "--radius", "4",
        ])
        assert doc["body"]["norm"] == pytest.approx(math.sqrt(1.25), abs=1e-10)

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 1, "grid_size": 8}')
        code, _, err = run(capsys, [
            "besov-norm", "--input", str(path), "--w", "0", "--p", "2", "--q", "2",
            "--radius", "2",
        ])
        assert code == 2
        assert "values" in err

    def test_bracket_block_weight_flag(self, capsys):
        doc = run_json(capsys, [
            "besov-norm", "--character", "1", "--w", "1", "--p", "2", "--q", "2",
            "--radius", "4",
        ])
        # |1| = 1 and <1> = sqrt 2 both lie in [1, 2) -> block 0 -> weight 1
        assert doc["body"]["norm"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", ["1", "2", "3", "inf"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stock_above_radius_is_sized_from_the_radius(self, capsys, p, fmt):
        # on the lattice of radius 8 --stock K >= 8 is --stock 8: the same coefficients,
        # so the same grid and the same bytes, however large K is
        def report(stock):
            code, out, err = run(capsys, ["besov-norm", "--stock", stock, "--w", "1", "--p", p,
                                          "--q", "2", "--radius", "8", "--format", fmt])
            assert code == 0, err
            return out

        want = report("8")
        assert [report(k) for k in ("9", "1000", "200000")] == [want] * 3


class TestCheckClassCommand:
    def test_order_fit(self, capsys):
        doc = run_json(capsys, [
            "check-class", "--symbol", "bessel", "--m", "-4", "--radius", "64",
        ])
        assert doc["body"]["m_hat"] == pytest.approx(-4.0, abs=0.1)
        assert doc["body"]["expected_slope"] == -4.0

    def test_decay_section(self, capsys):
        doc = run_json(capsys, [
            "check-class", "--symbol", "modulated", "--c", "2", "--m", "-4",
            "--radius", "16", "--decay-k", "1", "--decay-m", "-4",
        ])
        assert doc["body"]["decay_constant"]["C_est"] <= 4.0

    def test_missing_decay_m_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "check-class", "--symbol", "bessel", "--m", "-4", "--radius", "16",
            "--decay-k", "1",
        ])
        assert code == 2 and "--decay-m" in err

    @pytest.mark.parametrize("flags", [["--decay-m", "-4"], ["--decay-delta", "0.5"],
                                       ["--decay-m", "-4", "--decay-delta", "0.5"]])
    def test_decay_weights_without_decay_k_exit_2(self, capsys, flags):
        # they were ignored: the run exited 0 with no decay constant
        code, out, err = run(capsys, [
            "check-class", "--symbol", "bessel", "--m", "-4", "--radius", "16", *flags,
        ])
        assert code == 2 and out == ""
        assert err == f"error: {flags[0]} also needs --decay-k K\n"

    def test_overflowing_decay_weights_are_refused(self, capsys):
        # the dense eta x xi table read nan here (0 x inf on its zero rows) and
        # numpy wrote RuntimeWarnings; the support rows give inf, which is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [
                "check-class", "--symbol", "modulated", "--c", "2", "--m", "-4",
                "--radius", "16", "--decay-k", "1", "--decay-m", "-1000",
            ])
        assert code == 2 and out == ""
        assert "not a finite float64" in err and "lower k or raise m" in err
        assert "Warning" not in err and "Traceback" not in err

    def test_large_decay_k_reports_the_true_constant(self, capsys):
        # sup at eta = +-1, xi = 0: 0.5 <1>^800 = 1.29e120, not nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = run_json(capsys, [
                "check-class", "--symbol", "modulated", "--c", "2", "--m", "-4",
                "--radius", "16", "--decay-k", "400", "--decay-m", "-4",
            ])
        assert doc["body"]["decay_constant"]["C_est"] == pytest.approx(0.5 * math.sqrt(2.0) ** 800)

    @pytest.mark.parametrize("t, claimed", [("0.01", "-inf"), ("0", 0), ("-0.01", None)])
    def test_modulated_gaussian_claimed_order(self, capsys, t, claimed):
        # a growing Gaussian (t < 0) once claimed order -inf beside a positive m_hat
        doc = run_json(capsys, ["check-class", "--symbol", "modulated", "--g", "gaussian",
                                "--t", t, "--radius", "8"])
        body = doc["body"]
        assert body["claimed_order"] == claimed
        assert ("expected_slope" in body) == (claimed == 0)
        if claimed is None:
            assert body["m_hat"] > 0

    @pytest.mark.parametrize("flags", [["--m", "800", "--alpha-idx", "1"], ["--m", "800"]])
    def test_overflowing_order_fit_is_refused(self, capsys, flags):
        # <xi>^800 overflows from |xi| = 3 on and its differences read inf - inf:
        # the fit reported m_hat nan with numpy RuntimeWarnings on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["check-class", "--symbol", "bessel", *flags, "--radius", "9"])
        assert code == 2 and out == ""
        assert "overflow float64" in err and "--m" in err and "--alpha-idx" in err
        assert "Warning" not in err and "Traceback" not in err


class TestCheckClassLatticeBudget:
    """Lattices above DUAL_SIZE_LIMIT points are refused from the flags alone; the
    lattice constructor is a tripwire that must not be reached."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def tripwire(self, monkeypatch):
        import torustrace.cli as cli

        def trip(*args, **kwargs):
            raise self.Reached

        monkeypatch.setattr(cli, "FrequencyLattice", trip)

    @pytest.mark.parametrize("dim, radius", [(1, 5_000_000), (2, 1581), (2, 10**9)])
    def test_refused_before_allocation(self, capsys, tripwire, dim, radius):
        code, out, err = run(capsys, [
            "check-class", "--symbol", "bessel", "--m", "-4", "--dim", str(dim),
            "--radius", str(radius),
        ])
        assert code == 2 and out == ""
        assert "lower --radius" in err and "10000000" in err

    @pytest.mark.parametrize("argv, err", [
        (["check-class", "--symbol", "bessel", "--m", "-4", "--dim", "2", "--radius", "2000"],
         "error: radius 2000 in dim 2 gives a lattice of 16008001 points, above 10000000; "
         "lower --radius\n"),
        (["besov-norm", "--stock", "8", "--w", "1", "--p", "2", "--q", "2", "--radius", "5000000"],
         "error: radius 5000000 in dim 1 gives a lattice of 10000001 points, above 10000000; "
         "lower --radius\n"),
    ], ids=["check-class", "besov-norm"])
    def test_one_lattice_guard_for_the_fit_and_the_dyadic_norms(self, capsys, tripwire, argv, err):
        # the two commands share cli._require_lattice; only the remedy may differ
        assert run(capsys, argv) == (2, "", err)

    @pytest.mark.parametrize("dim, radius", [(1, 4_999_999), (2, 1580)])
    def test_largest_lattice_within_budget_passes(self, tripwire, dim, radius):
        with pytest.raises(self.Reached):
            main(["check-class", "--symbol", "bessel", "--m", "-4", "--dim", str(dim),
                  "--radius", str(radius)])


class TestDyadicNormBudget:
    """``besov-norm``/``approx-demo`` size their lattice and block synthesis from
    the flags (and a function file's grid) and refuse more than DUAL_SIZE_LIMIT
    points; every builder is a tripwire that must not be reached."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def tripwires(self, monkeypatch):
        import torustrace.cli as cli

        def trip(*args, **kwargs):
            raise self.Reached

        for name in ("FrequencyLattice", "forward_transform", "block_norms", "partial_sum_convergence"):
            monkeypatch.setattr(cli, name, trip)

    @pytest.fixture
    def function_files(self, tmp_path):
        paths = {}
        for dim in (1, 2):
            lattice = FrequencyLattice(dim, 1)
            coeffs = np.zeros(len(lattice), dtype=complex)
            coeffs[0] = 1.0
            f = synthesize(FourierCoefficients(lattice, coeffs), 6)
            paths[dim] = str(tmp_path / f"f{dim}.json")
            save_periodic_function(f, paths[dim])
        return paths

    NORM = ["--w", "1", "--p", "2", "--q", "2"]

    @pytest.mark.parametrize("argv, remedy", [
        (["besov-norm", "--stock", "4", *NORM, "--radius", "3000000"], "lower --radius"),
        (["approx-demo", "--stock", "1000000000", *NORM, "--n-values", "1,2"], "lower --stock"),
        (["besov-norm", "--character", "4", "--grid", "2500001", *NORM, "--radius", "8"],
         "lower --grid or --radius"),
        (["approx-demo", "--character", "4", "--grid", "2500001", *NORM, "--radius", "8",
          "--n-values", "1"], "lower --grid or --radius"),
        (["besov-norm", "--character", "4", *NORM, "--radius", "3000000"], "lower --radius"),
        (["besov-norm", "--input", 1, *NORM, "--radius", "5000000"], "lower --input grid or --radius"),
        (["approx-demo", "--input", 2, *NORM, "--radius", "1581", "--n-values", "1"],
         "lower --input grid or --radius"),
    ], ids=[f"argv{i}" for i in range(7)])  # ids that do not spell out the remedy text
    def test_refused_before_allocation(self, capsys, tripwires, function_files, argv, remedy):
        argv = [function_files[v] if isinstance(v, int) else v for v in argv]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert remedy in err and "above 10000000" in err

    @pytest.mark.parametrize("argv", [
        ["besov-norm", "--character", "4", "--grid", "2500000", *NORM, "--radius", "8"],
        ["approx-demo", "--stock", "4", "--grid", "2500000", *NORM, "--radius", "8", "--n-values", "1"],
        ["besov-norm", "--input", 1, *NORM, "--radius", "4999999"],
        ["approx-demo", "--input", 2, *NORM, "--n-values", "1"],
        ["besov-norm", "--stock", "1000000000", *NORM, "--radius", "8"],
    ], ids=[f"argv{i}" for i in range(5)])
    def test_largest_sizes_within_budget_pass(self, tripwires, function_files, argv):
        # 4 dyadic blocks of radius 8 on 2500000 grid points are exactly the budget;
        # a --stock K above --radius is sized from the radius alone
        argv = [function_files[v] if isinstance(v, int) else v for v in argv]
        with pytest.raises(self.Reached):
            main(argv)


class TestNuclearityCommand:
    def test_t1_satisfied(self, capsys):
        doc = run_json(capsys, [
            "nuclearity", "--theorem", "t1", "--n", "1", "--r", "1",
            "--alpha", "0.5", "--p1", "2", "--k", "1", "--delta", "0",
            "--m", "-4", "--w2", "0",
        ])
        body = doc["body"]
        assert body["satisfied"] is True
        assert body["derived_params"]["q1"] == pytest.approx(1.0)
        assert body["witness"]["certified"] is True

    def test_t2_verdict(self, capsys):
        doc = run_json(capsys, [
            "nuclearity", "--theorem", "t2", "--n", "1", "--r", "1",
            "--alpha", "0.5", "--p1", "2", "--k", "1", "--delta", "0",
            "--m", "0", "--w2", "-1",
        ])
        assert doc["body"]["satisfied"] is True
        assert doc["body"]["derived_params"]["clause_set"] == "nuclear"

    def test_tt1_case3(self, capsys):
        doc = run_json(capsys, [
            "nuclearity", "--theorem", "tt1", "--case", "3", "--group", "torus",
            "--dim", "1", "--cutoff", "512", "--r", "1", "--p", "2", "--q", "2",
            "--symbol", "bessel", "--m", "-3",
        ])
        assert doc["body"]["satisfied"] is True

    @pytest.mark.parametrize("m, satisfied", [("-3.1", True), ("-3", False)])
    def test_tt1_exponent_clause(self, capsys, m, satisfied):
        # case 3 on SU(2) sums d^2 <xi>^m ~ 2^-m d^(2 + m): summable exactly for m < -3
        body = run_json(capsys, ["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "su2",
                                 "--cutoff", "200", "--r", "1", "--p", "2", "--q", "2", "--m", m])["body"]
        assert body["satisfied"] is body["witness"]["certified"] is satisfied
        if satisfied:
            assert body["violated_clauses"] == [] and body["witness"]["tail_estimate"] < math.inf
        else:
            [clause] = body["violated_clauses"]
            assert clause["lhs"] == clause["rhs"] == -1.0 and clause["relation"] == "<"

    def test_tt1_case_mismatch_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "nuclearity", "--theorem", "tt1", "--case", "3", "--group", "torus",
            "--cutoff", "64", "--r", "1", "--p", "3", "--q", "3.5",
            "--symbol", "bessel", "--m", "-3",
        ])
        assert code == 2 and "case 3" in err

    def test_missing_flag_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "nuclearity", "--theorem", "t1", "--n", "1",
        ])
        assert code == 2 and "--r" in err

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_lattice_dim_outside_choices_exit_2(self, capsys, theorem):
        code, out, err = run(capsys, [
            "nuclearity", "--theorem", theorem, "--n", "3", "--r", "1", "--alpha", "0.5",
            "--p1", "2", "--k", "1", "--delta", "0", "--m", "-4", "--w2", "0",
        ])
        assert code == 2 and out == ""
        assert "argument --n: invalid choice" in err and "choose from 1, 2" in err


T1_ARGV = ["--n", "1", "--r", "1", "--alpha", "0.5", "--p1", "2", "--k", "1", "--delta", "0",
           "--m", "-4", "--w2", "0"]
TT1_ARGV = ["nuclearity", "--theorem", "tt1", "--case", "3", "--cutoff", "20", "--r", "1",
            "--p", "2", "--q", "2"]


class TestNuclearityFlagFamilies:
    """Each theorem family refuses the flags only the other reads, before any dual is built."""

    @pytest.fixture
    def tripwires(self, monkeypatch):
        import torustrace.cli as cli

        def trip(*args, **kwargs):
            pytest.fail("the run went past the flag check")

        for name in ("enumerate_dual", "check_t1", "check_t2", "check_tt1"):
            monkeypatch.setattr(cli, name, trip)

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    @pytest.mark.parametrize("extra", [
        ["--case", "3"], ["--p", "2"], ["--q", "2"], ["--group", "su2"], ["--group", "torus"],
        ["--dim", "1"], ["--cutoff", "5"], ["--symbol", "heat"], ["--symbol", "bessel"],
        ["--t", "1"],
    ], ids=lambda extra: extra[0][2:] + "-" + extra[1])
    def test_t_family_refuses_tt1_flags(self, capsys, tripwires, theorem, extra):
        code, out, err = run(capsys, ["nuclearity", "--theorem", theorem, *T1_ARGV, *extra])
        assert code == 2 and out == ""
        assert err == f"error: --theorem {theorem} does not read {extra[0]}; drop {extra[0]}\n"

    @pytest.mark.parametrize("symbol, extra", [
        (["--m", "-4"], ["--n", "2"]),
        (["--m", "-4"], ["--alpha", "9"]),
        (["--m", "-4"], ["--p1", "2"]),
        (["--m", "-4"], ["--k", "3"]),
        (["--m", "-4"], ["--delta", "0"]),
        (["--m", "-4"], ["--w2", "1"]),
        (["--m", "-4"], ["--p2", "2"]),
        (["--m", "-4"], ["--q2", "2"]),
        (["--m", "-4"], ["--t", "1"]),
        (["--symbol", "bessel", "--m", "-4"], ["--t", "1"]),
        (["--symbol", "heat", "--t", "0.1"], ["--m", "-4"]),
        (["--symbol", "heat", "--t", "0.1"], ["--k", "3"]),
    ], ids=lambda flags: "-".join(flags).replace("--", ""))
    def test_tt1_refuses_t_family_flags(self, capsys, tripwires, symbol, extra):
        code, out, err = run(capsys, [*TT1_ARGV, *symbol, *extra])
        assert code == 2 and out == ""
        assert err.startswith("error: --theorem tt1 with --symbol ")
        assert err.endswith(f" does not read {extra[0]}; drop {extra[0]}\n")

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_t_family_defaults_p2_q2_to_2(self, capsys, theorem):
        want = run_json(capsys, ["nuclearity", "--theorem", theorem, *T1_ARGV, "--p2", "2", "--q2", "2"])
        assert run_json(capsys, ["nuclearity", "--theorem", theorem, *T1_ARGV]) == want

    @pytest.mark.parametrize("symbol", [["--m", "-4"], ["--symbol", "heat", "--t", "0.1"]])
    def test_tt1_defaults_to_the_dim_1_torus_and_bessel(self, capsys, symbol):
        explicit = ["--group", "torus", "--dim", "1"] + (["--symbol", "bessel"] if "--m" in symbol else [])
        want = run_json(capsys, [*TT1_ARGV, *explicit, *symbol])
        assert run_json(capsys, [*TT1_ARGV, *symbol]) == want


class TestDualTraceCommands:
    def test_heat_torus(self, capsys):
        doc = run_json(capsys, [
            "heat-trace", "--group", "torus", "--dim", "1", "--t", "1",
            "--cutoff", "6",
        ])
        assert doc["body"]["value"] == pytest.approx(1.7726372048, abs=1e-9)
        assert doc["diagnostics"]["converged"] is True

    def test_heat_su2(self, capsys):
        doc = run_json(capsys, [
            "heat-trace", "--group", "su2", "--t", "1.0", "--cutoff", "20",
        ])
        assert doc["body"]["value"] == pytest.approx(4.5517515, abs=1e-6)

    def test_bessel_with_tail_correction(self, capsys):
        doc = run_json(capsys, [
            "bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "2",
            "--cutoff", "100000", "--tail-correct",
        ])
        assert doc["body"]["value"] == pytest.approx(math.pi / math.tanh(math.pi), abs=1e-8)
        assert doc["diagnostics"]["divergent"] is False

    # sum over Z of <k>^-alpha (pi coth pi at alpha 2) from the Hurwitz-zeta expansion
    # of its tail, at the decimal alpha: the double nearest 1.0001 moves it by 2e-9,
    # the one nearest 1.1 by 2e-14, each far inside the bounds below
    BESSEL_SERIES = {"1.0001": "20001.38993196163172769", "1.1": "21.35771385188294934699",
                     "1.2": "11.32799056334978079753", "1.5": "5.251219224201036877792",
                     "2": "3.153348094937162348268", "4": "1.613673950845817387836"}

    @pytest.mark.parametrize("cutoff", ["0", "1", "10", "520", "1000"])
    @pytest.mark.parametrize("alpha", list(BESSEL_SERIES))
    def test_tail_corrected_value_is_within_its_bound(self, capsys, alpha, cutoff):
        # the series lies in [value - tail_estimate, value + tail_estimate] (a quadrature
        # once left alpha 1.1, cutoff 1000 at 21.1635), and that bound is tighter than the
        # uncorrected tail's, which it once repeated
        argv = ["bessel-trace", "--group", "torus", "--dim", "1", "--alpha", alpha, "--cutoff", cutoff]
        doc = run_json(capsys, [*argv, "--tail-correct"])
        value, bound = Decimal(doc["body"]["value"]), Decimal(doc["diagnostics"]["tail_estimate"])
        assert abs(value - Decimal(self.BESSEL_SERIES[alpha])) <= bound
        assert bound < Decimal(run_json(capsys, argv)["diagnostics"]["tail_estimate"])
        assert doc["diagnostics"]["converged"] is True

    def test_bessel_divergence_flag(self, capsys):
        # the su2 series converges exactly for alpha above the group dimension 3
        for alpha, divergent in (("3", True), ("4", False)):
            doc = run_json(capsys, [
                "bessel-trace", "--group", "su2", "--alpha", alpha, "--cutoff", "30",
            ])
            assert doc["diagnostics"]["divergent"] is divergent

    def test_divergent_series_never_converged(self, capsys):
        doc = run_json(capsys, [
            "bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "1",
            "--cutoff", "4",
        ])
        assert doc["diagnostics"]["divergent"] is True
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["tail_estimate"] == "inf"
        assert "tail_note" not in doc["diagnostics"]

    def test_summable_series_whose_bound_leaves_float64_says_so(self, capsys):
        # the tail past spin 20 of the su2 heat series at t = 1e-300 is about 1e451
        doc = run_json(capsys, ["heat-trace", "--group", "su2", "--t", "1e-300", "--cutoff", "20"])
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["tail_estimate"] == "inf"
        assert doc["diagnostics"]["tail_note"] == "the series is summable, but its tail bound leaves float64"

    def test_integer_spin_tail_counts_the_odd_d(self, capsys):
        # d^2 <xi>^-alpha over the odd d past 40001: 0.0023233978 summed to d = 2 10^7,
        # plus at least 1.8727e-05 past it, (1/2) int_{2 10^7 + 3}^inf 2^alpha x^(2 - alpha) dx
        doc = run_json(capsys, ["bessel-trace", "--group", "su2", "--alpha", "3.777023", "--cutoff", "20000",
                                "--integer-spins"])
        assert 0.0023421246 <= doc["diagnostics"]["tail_estimate"] < 0.0023422

    @pytest.mark.parametrize("argv, true_tail", [
        # Jacobi theta by Poisson summation: sum_k e^{-k^2} = sqrt(pi) sum_k e^{-pi^2 k^2}
        (["heat-trace", "--group", "torus", "--dim", "1", "--t", "1", "--cutoff", "3"],
         math.sqrt(math.pi) * math.fsum(math.exp(-math.pi**2 * k * k) for k in range(-3, 4))
         - math.fsum(math.exp(-k * k) for k in range(-3, 4))),
        # sum_k 1/(1 + k^2) = pi coth pi
        (["bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "2", "--cutoff", "2"],
         math.pi / math.tanh(math.pi) - 2.4),
        # the brute-force partial tail out to 2 10^6
        (["bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "1.1", "--cutoff", "1000"],
         2 * math.fsum((1.0 + np.arange(1001, 2 * 10**6 + 1, dtype=np.float64) ** 2) ** -0.55)),
    ], ids=["heat-cutoff-3", "bessel-cutoff-2", "bessel-slow"])
    def test_convergent_series_reports_a_proved_tail(self, capsys, argv, true_tail):
        doc = run_json(capsys, argv)
        assert doc["diagnostics"]["converged"] is True
        assert true_tail <= doc["diagnostics"]["tail_estimate"] < math.inf

    def test_slow_bessel_tail_is_proved(self, capsys):
        # 2 sum_{k > 520} <k>^-1.2 = 2.8623...; the shell ratios once read 0.0664
        doc = run_json(capsys, ["bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "1.2",
                                "--cutoff", "520"])
        assert doc["diagnostics"]["converged"] is True
        assert 2.86 <= doc["diagnostics"]["tail_estimate"] <= 1.1 * 2.8623

    def test_overflowing_terms_reported_as_inf(self, capsys):
        code, out, err = run(capsys, [
            "bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "-1000",
            "--cutoff", "10",
        ])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["body"]["value"] == "inf"
        assert doc["diagnostics"]["divergent"] is True

    def test_underflowing_terms_reported_quietly(self, capsys):
        # t lambda leaves the float range from lambda 1.8e8 on: those terms are 0, and
        # numpy's overflow warning stays off stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [
                "heat-trace", "--group", "torus", "--dim", "1", "--t", "1e300", "--cutoff", "100000",
            ])
        assert code == 0 and err == ""
        assert json.loads(out)["body"]["value"] == 1

    @pytest.mark.parametrize("argv, remedy", [
        (["bessel-trace", "--group", "torus", "--dim", "2", "--alpha", "-280", "--cutoff", "40"], "raise --alpha"),
        (["bessel-trace", "--group", "torus", "--dim", "2", "--alpha", "-250", "--cutoff", "40"], "raise --alpha"),
        (["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "torus", "--dim", "2", "--cutoff",
          "40", "--r", "1", "--p", "2", "--q", "2", "--symbol", "bessel", "--m", "280"], "lower --m"),
        (["nuclearity", "--theorem", "tt1", "--case", "4", "--group", "torus", "--dim", "2", "--cutoff",
          "40", "--r", "1", "--p", "2", "--q", "2", "--symbol", "bessel", "--m", "280"], "lower --m"),
        (["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "torus", "--dim", "2", "--cutoff",
          "40", "--r", "1", "--p", "2", "--q", "2", "--symbol", "heat", "--t", "-17.7"], "raise --t"),
    ], ids=["bessel-280", "bessel-250", "tt1-case3", "tt1-case4", "tt1-heat"])
    def test_sum_beyond_float64_exit_2(self, capsys, argv, remedy):
        # finite terms whose exactly rounded sum leaves float64: math.fsum raises
        # 'intermediate overflow in fsum', which is refused with a remedy
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert remedy in err and "Traceback" not in err

    def test_overflowing_tt1_terms_reported_quietly(self, capsys):
        # d |a|^r leaves the float range: those terms are inf, without numpy's warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [
                "nuclearity", "--theorem", "tt1", "--case", "3", "--group", "su2", "--cutoff", "40",
                "--r", "1", "--p", "2", "--q", "2", "--symbol", "bessel", "--m", "250",
            ])
        assert code == 0 and err == ""
        assert json.loads(out)["body"]["satisfied"] is False

    @pytest.mark.parametrize("argv", [
        ["heat-trace", "--group", "torus", "--dim", "2", "--t", "1", "--cutoff", "2000"],
        ["bessel-trace", "--group", "su2", "--alpha", "4", "--cutoff", "1e9"],
        ["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "torus", "--cutoff",
         "1e7", "--r", "1", "--p", "2", "--q", "2", "--m", "-4"],
        # the su2 count floors 2 * cutoff, inf at these: an OverflowError traceback once
        ["heat-trace", "--group", "su2", "--t", "1", "--cutoff", "1e308"],
        ["bessel-trace", "--group", "su2", "--alpha", "4", "--cutoff", "1e308"],
        ["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "su2", "--cutoff",
         "1e308", "--r", "1", "--p", "2", "--q", "2"],
    ])
    def test_dual_above_size_budget_exit_2(self, capsys, argv):
        # sizes above the budget only: the dual is refused before it is built
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "lower the cutoff" in err and "Traceback" not in err

    def test_budget_edge_refused_before_any_allocation(self, capsys, monkeypatch):
        # (2 * 1582 + 1)^2 = 10,017,225 points: the first dim-2 cutoff above the budget
        import torustrace.groups as groups

        def trip(*args, **kwargs):
            raise AssertionError("a dual builder ran")

        monkeypatch.setattr(groups, "_radial_torus", trip)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, ["heat-trace", "--group", "torus", "--dim", "2",
                                          "--t", "0.01", "--cutoff", "1582"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "lower the cutoff" in err and "Traceback" not in err
        assert peak < 1 << 20  # a quarter box alone would be 20 MB

    @pytest.mark.parametrize("argv, remedy", [
        (["heat-trace", "--group", "su2", "--dim", "2", "--t", "1", "--cutoff", "20"], "drop --dim"),
        (["bessel-trace", "--group", "su2", "--dim", "2", "--alpha", "4", "--cutoff", "20"],
         "drop --dim"),
        (["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "su2", "--dim", "2",
          "--cutoff", "200", "--r", "1", "--p", "2", "--q", "2", "--m", "-4"], "drop --dim"),
        (["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "6", "--integer-spins"],
         "drop it for --group torus"),
        (["bessel-trace", "--group", "torus", "--alpha", "2", "--cutoff", "6", "--integer-spins"],
         "drop it for --group torus"),
        (["bessel-trace", "--group", "torus", "--alpha", "1", "--cutoff", "6", "--tail-correct"],
         "(alpha > 1)"),
        (["besov-norm", "--input", "FILE", "--grid", "1", "--w", "1", "--p", "2", "--q", "2",
          "--radius", "2"], "--input carries its own grid; drop --grid"),
        (["approx-demo", "--input", "FILE", "--grid", "64", "--w", "0", "--p", "2", "--q", "2",
          "--n-values", "1"], "--input carries its own grid; drop --grid"),
    ], ids=["heat-su2-dim", "bessel-su2-dim", "tt1-su2-dim", "heat-torus-spins", "bessel-torus-spins",
            "bessel-divergent-tail", "besov-input-grid", "approx-input-grid"])
    def test_flag_the_group_ignores_exit_2(self, capsys, monkeypatch, tmp_path, argv, remedy):
        # the flag was ignored (exit 0), and su2 reports echoed "dim": 2; a function
        # file's run gave the same bytes with --grid as without it
        import torustrace.cli as cli

        monkeypatch.setattr(cli, "enumerate_dual", lambda *a, **k: pytest.fail("the dual was built"))
        monkeypatch.setattr(cli, "forward_transform", lambda *a: pytest.fail("the file was transformed"))
        path = tmp_path / "f.json"
        save_periodic_function(bandlimited({1: 1.0}, radius=2)[0], str(path))
        code, out, err = run(capsys, [str(path) if v == "FILE" else v for v in argv])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and remedy in err

    def test_su2_default_dim_runs(self, capsys):
        doc = run_json(capsys, ["heat-trace", "--group", "su2", "--dim", "1", "--t", "1",
                                "--cutoff", "20"])
        assert doc["body"]["dim"] == 1

    def test_bessel_require_convergent_exit_3(self, capsys):
        code, _, err = run(capsys, [
            "bessel-trace", "--group", "su2", "--alpha", "3", "--cutoff", "30",
            "--require-convergent",
        ])
        assert code == 3


class TestApproxDemoCommand:
    def test_stock_table(self, capsys):
        doc = run_json(capsys, [
            "approx-demo", "--stock", "8", "--w", "0", "--p", "2", "--q", "2",
            "--n-values", "1,2,4,8,9",
        ])
        errs = [row["besov_error"] for row in doc["body"]["table"]]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-12

    def test_csv(self, capsys):
        code, out, _ = run(capsys, [
            "approx-demo", "--character", "3", "--w", "1", "--p", "2", "--q", "2",
            "--n-values", "2,4", "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines()[0] == "N,besov_error"

    def test_conflicting_inputs_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "approx-demo", "--character", "3", "--stock", "4", "--w", "0",
            "--p", "2", "--q", "2", "--n-values", "1",
        ])
        assert code == 2


class TestDyadicCommandTransforms:
    """One forward transform per command, and one inverse FFT per block table: the
    FFT entry points are counted while a file input (no synthesis of its own) runs."""

    @pytest.fixture
    def ffts(self, monkeypatch, path):  # after the input file is written
        counts = {"fftn": 0, "ifftn": 0}
        for name in counts:
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return counts

    @pytest.fixture
    def path(self, tmp_path):
        f, _ = bandlimited({0: 1.0, 1: 1.0, 3: 0.5, 7: 0.25}, radius=8)
        path = tmp_path / "f.json"
        save_periodic_function(f, str(path))
        return str(path)

    def test_besov_norm_one_transform_one_synthesis(self, capsys, ffts, path):
        doc = run_json(capsys, ["besov-norm", "--input", path, "--w", "1", "--p", "3", "--q", "2",
                                "--radius", "8"])
        assert [b["m"] for b in doc["body"]["blocks"]] == [0, 1, 2, 3]
        assert ffts == {"fftn": 1, "ifftn": 1}

    def test_approx_demo_one_transform(self, capsys, ffts, path):
        doc = run_json(capsys, ["approx-demo", "--input", path, "--w", "0", "--p", "2", "--q", "2",
                                "--radius", "8", "--n-values", "1,2,4,8,9"])
        assert len(doc["body"]["table"]) == 5
        assert ffts == {"fftn": 1, "ifftn": 5}


class TestApproxDemoNValues:
    @pytest.mark.parametrize("values", ["nan,2", "1,inf", "2,-inf", "1,two"])
    def test_non_finite_or_malformed_exit_2(self, capsys, values):
        code, out, err = run(capsys, [
            "approx-demo", "--stock", "8", "--w", "0", "--p", "2", "--q", "2",
            "--n-values", values,
        ])
        assert code == 2 and out == ""
        assert "finite numbers" in err and "Traceback" not in err

    def test_negative_cutoff_keeps_nothing(self, capsys):
        code, out, err = run(capsys, ["approx-demo", "--stock", "8", "--w", "0", "--p", "2",
                                      "--q", "2", "--n-values=-1,0"])
        assert code == 0, err
        assert json.loads(out)["body"]["table"] == [{"N": -1, "besov_error": 1.269887116348329},
                                                    {"N": 0, "besov_error": 1.269887116348329}]


class TestMatrixSideGuard:
    """Sides above EIGEN_SIDE_LIMIT are refused from the flags alone: the lattice,
    trace and matrix functions are replaced by tripwires that must not be reached."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def tripwires(self, monkeypatch):
        import torustrace.cli as cli

        def trip(*args, **kwargs):
            raise self.Reached

        for name in ("FrequencyLattice", "CompressedOperator", "lidskii_compare"):
            monkeypatch.setattr(cli, name, trip)

    @pytest.mark.parametrize("argv, remedy", [
        (["trace", "--symbol", "bessel", "--m", "-4", "--dim", "1", "--radius", "2100"], "lower --radius"),
        (["trace", "--symbol", "bessel", "--m", "-4", "--dim", "2", "--radius", "100000"], "lower --radius"),
        (["lidskii", "--symbol", "bessel", "--m", "-4", "--dim", "2", "--radii", "4,8,33"], "lower --radii"),
        (["spectrum", "--symbol", "modulated", "--m", "-4", "--dim", "2", "--radius", "33"], "lower --radius"),
    ], ids=["argv0", "argv1", "argv2", "argv3"])  # ids that do not spell out the remedy text
    def test_refused_before_allocation(self, capsys, tripwires, argv, remedy):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert remedy in err and "4096" in err

    @staticmethod
    def _radius_4_table(tmp_path) -> str:
        path = tmp_path / "a.json"
        save_sampled_symbol(
            sample_symbol(bessel_symbol(-4.0, 2), min_grid_size(4), FrequencyLattice(2, 4)), str(path)
        )
        return str(path)

    def test_sampled_lidskii_checks_the_table_side(self, capsys, tmp_path, monkeypatch, tripwires):
        # radii 1,4 reach the table radius 4: side 81, above a guard of 50
        import torustrace.cli as cli

        monkeypatch.setattr(cli, "EIGEN_SIDE_LIMIT", 50)
        code, out, err = run(capsys, ["lidskii", "--symbol-file", self._radius_4_table(tmp_path), "--radii", "1,4"])
        assert code == 2 and out == ""
        assert "radius 4 in dim 2 gives matrix side 81" in err

    def test_sampled_lidskii_below_the_table_side_runs(self, capsys, tmp_path, monkeypatch):
        # radii 1,2 give side 25: the compression is built at radius 2, not at the table's 4
        import torustrace.cli as cli

        monkeypatch.setattr(cli, "EIGEN_SIDE_LIMIT", 50)
        code, out, err = run(capsys, ["lidskii", "--symbol-file", self._radius_4_table(tmp_path), "--radii", "1,2"])
        assert code == 0, err
        assert [rec["radius"] for rec in json.loads(out)["body"]["history"]] == [1, 2]

    @pytest.mark.parametrize("argv", [
        ["trace", "--symbol", "bessel", "--m", "-4", "--dim", "1", "--radius", "2047"],
        ["lidskii", "--symbol", "bessel", "--m", "-4", "--dim", "2", "--radii", "4,31"],
        ["spectrum", "--symbol", "bessel", "--m", "-4", "--dim", "2", "--radius", "31"],
    ])
    def test_largest_side_within_guard_passes(self, tripwires, argv):
        with pytest.raises(self.Reached):
            main(argv)


class TestSpectrumCommand:
    def test_eigenvalue_list(self, capsys):
        doc = run_json(capsys, [
            "spectrum", "--symbol", "bessel", "--m", "-4", "--radius", "4",
        ])
        eigs = doc["body"]["eigenvalues"]
        assert len(eigs) == 9
        mags = [math.hypot(re, im) for re, im in eigs]
        assert mags == sorted(mags, reverse=True)
        assert doc["diagnostics"]["max_residual"] <= 1e-9

    def test_matrix_export(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        code, out, _ = run(capsys, [
            "spectrum", "--symbol", "bessel", "--m", "-2", "--radius", "2",
            "--matrix-csv", str(path),
        ])
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "eta_index,xi_index,re,im"
        assert len(lines) == 1 + 25

    def test_matrix_export_bytes_match_entrywise_rendering(self, capsys, tmp_path):
        from torustrace.cli import render_csv
        from torustrace.quantize import CompressedOperator
        from torustrace.symbols import BracketPower, modulated_symbol

        path = tmp_path / "matrix.csv"
        code, _, err = run(capsys, [
            "spectrum", "--symbol", "modulated", "--m", "-4", "--dim", "2", "--radius", "2",
            "--matrix-csv", str(path),
        ])
        assert code == 0, err
        lat = FrequencyLattice(2, 2)
        matrix = CompressedOperator(modulated_symbol(2.0, BracketPower(-4.0), 2), lat)
        rows = []
        for i in range(len(matrix.entries)):
            for j in range(len(matrix.entries)):
                entry = matrix.entries[i, j]
                rows.append([i, j, entry.real, entry.imag])
        expected = render_csv("eta_index,xi_index,re,im", rows)
        assert path.read_bytes() == expected.encode()

    def test_csv_spectrum(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--symbol", "bessel", "--m", "-2", "--radius", "2",
            "--format", "csv",
        ])
        assert out.splitlines()[0] == "index,re,im"


class TestSymbolTableOverflow:
    """A symbol whose x-Fourier table leaves float64 is refused (exit 2, a remedy
    naming its flags) before the eigensolver runs.  These exited 3 with "QR
    iteration did not converge: Array must not contain infs or NaNs" after numpy
    RuntimeWarnings."""

    @pytest.fixture
    def no_eigensolver(self, monkeypatch):
        def trip(*args, **kwargs):
            raise AssertionError("the eigensolver ran")

        monkeypatch.setattr(np.linalg, "eig", trip)
        monkeypatch.setattr(np.linalg, "eigvals", trip)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--symbol", "bessel", "--m", "300", "--dim", "2", "--radius", "12"],
        ["spectrum", "--symbol", "modulated", "--m", "40", "--c", "1e308", "--radius", "3"],
        ["trace", "--symbol", "modulated", "--m", "40", "--c", "1e308", "--radius", "3"],
        ["lidskii", "--symbol", "bessel", "--m", "300", "--dim", "2", "--radii", "4,8"],
        ["spectrum", "--symbol", "modulated", "--g", "gaussian", "--t", "-1000", "--radius", "3"],
    ], ids=["bessel-spectrum", "modulated-spectrum", "modulated-trace", "bessel-lidskii",
            "gaussian-spectrum"])
    def test_refused_with_remedy(self, capsys, no_eigensolver, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "not finite in float64" in err and "lower --m or --c, or raise --t" in err
        assert "Warning" not in err and "Traceback" not in err

    def test_non_finite_symbol_file_names_the_file(self, capsys, tmp_path, no_eigensolver):
        a = sample_symbol(bessel_symbol(-4.0), min_grid_size(4), FrequencyLattice(1, 4))
        a.table[0, 0] = np.nan
        path = tmp_path / "a.json"
        save_sampled_symbol(a, str(path))
        code, out, err = run(capsys, ["spectrum", "--symbol-file", str(path), "--radius", "4"])
        assert code == 2 and out == ""
        assert "not finite in float64" in err and "--symbol-file" in err


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv", [
        ["bessel-trace", "--group", "torus", "--alpha", "nan", "--cutoff", "4"],
        ["trace", "--symbol", "bessel", "--m", "nan", "--radius", "4"],
        ["bessel-trace", "--group", "su2", "--alpha", "4", "--cutoff", "inf"],
        ["heat-trace", "--group", "torus", "--t=-inf", "--cutoff", "4"],
        ["besov-norm", "--character", "4", "--w", "inf", "--p", "2", "--q", "2",
         "--radius", "8"],
        ["besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "nan",
         "--radius", "8"],
        ["nuclearity", "--theorem", "t1", "--n", "1", "--r", "NaN", "--alpha", "0.5",
         "--p1", "2", "--k", "1", "--delta", "0", "--m", "-4", "--w2", "0"],
    ])
    def test_rejected_at_parser_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "is not a" in err and "Traceback" not in err

    def test_inf_accepted_where_in_range(self, capsys):
        doc = run_json(capsys, [
            "besov-norm", "--character", "4", "--w", "1", "--p", "inf", "--q", "inf",
            "--radius", "8",
        ])
        assert doc["body"]["norm"] == pytest.approx(4.0)


class TestRangeRefusedAtParser:
    """A flag's range is declared in its argparse type: a value outside it exits 2
    with the subcommand's usage and the flag's name before any handler runs, as
    the removed ``--block-weight`` does."""

    @pytest.mark.parametrize("argv, flag", [
        (["trace", "--symbol", "bessel", "--m", "-4", "--radius", "-1"], "--radius"),
        (["spectrum", "--symbol", "bessel", "--m", "-4", "--radius", "-1"], "--radius"),
        (["check-class", "--symbol", "bessel", "--m", "-4", "--radius", "3"], "--radius"),
        (["heat-trace", "--group", "torus", "--t", "0", "--cutoff", "3"], "--t"),
        (["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "-3"], "--cutoff"),
        (["bessel-trace", "--group", "torus", "--alpha", "2", "--cutoff", "-3"], "--cutoff"),
        (["nuclearity", "--theorem", "tt1", "--case", "3", "--cutoff", "-1", "--r", "1",
          "--p", "2", "--q", "2", "--m", "-4"], "--cutoff"),
        (["besov-norm", "--stock", "-3", "--w", "1", "--p", "2", "--q", "2", "--radius", "8"], "--stock"),
        (["besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2", "--radius", "-1"],
         "--radius"),
        (["approx-demo", "--stock", "-3", "--w", "1", "--p", "2", "--q", "2", "--n-values", "1"],
         "--stock"),
        (["approx-demo", "--stock", "8", "--w", "1", "--p", "2", "--q", "2", "--n-values", "1",
          "--radius", "-1"], "--radius"),
        (["lidskii", "--symbol", "bessel", "--m", "-4", "--radii", ","], "--radii"),
        (["lidskii", "--symbol", "bessel", "--m", "-4", "--radii", "4,-8"], "--radii"),
        (["approx-demo", "--stock", "8", "--w", "0", "--p", "2", "--q", "2", "--n-values", "1,two"],
         "--n-values"),
        (["check-class", "--symbol", "bessel", "--m", "-4", "--radius", "16", "--alpha-idx", "x"],
         "--alpha-idx"),
        (["check-class", "--symbol", "bessel", "--m", "-4", "--radius", "16", "--beta-idx", "-1"],
         "--beta-idx"),
        (["besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2", "--radius", "8",
          "--block-weight", "abs"], "--block-weight"),
        (["besov-norm", "--character", "4", "--grid", "0", "--w", "1", "--p", "2", "--q", "2",
          "--radius", "8"], "--grid"),
        (["approx-demo", "--stock", "8", "--grid", "-5", "--w", "0", "--p", "2", "--q", "2",
          "--n-values", "1"], "--grid"),
        (["check-class", "--symbol", "bessel", "--m", "-4", "--radius", "16", "--decay-k", "0",
          "--decay-m", "-4"], "--decay-k"),
        (["besov-norm", "--stock", "8", "--w", "1", "--p", "0.5", "--q", "2", "--radius", "8"], "--p"),
        (["besov-norm", "--stock", "8", "--w", "1", "--p", "2", "--q", "0.5", "--radius", "8"], "--q"),
        (["approx-demo", "--stock", "8", "--w", "1", "--p", "0.5", "--q", "2", "--n-values", "1"], "--p"),
        (["approx-demo", "--stock", "8", "--w", "1", "--p", "2", "--q", "0.5", "--n-values", "1"], "--q"),
    ], ids=["trace-radius", "spectrum-radius", "check-class-radius", "heat-t", "heat-cutoff",
            "bessel-cutoff", "tt1-cutoff", "besov-stock", "besov-radius", "approx-stock",
            "approx-radius", "empty-radii", "negative-radii", "n-values", "alpha-idx", "beta-idx",
            "block-weight", "grid-zero", "grid-negative", "decay-k-zero", "besov-p", "besov-q",
            "approx-p", "approx-q"])
    def test_exit_2_with_usage_before_the_handler(self, capsys, monkeypatch, argv, flag):
        import torustrace.cli as cli

        command = argv[0]
        monkeypatch.setitem(cli.HANDLERS, command, lambda args: pytest.fail("a handler ran"))
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: torustrace {command} ")
        assert flag in err.splitlines()[-1] and "Traceback" not in err

    def test_grid_below_the_margin_reaches_the_handler(self, capsys):
        code, out, err = run(capsys, ["approx-demo", "--stock", "8", "--grid", "3", "--w", "0",
                                      "--p", "2", "--q", "2", "--n-values", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: --grid 3 is below the anti-aliasing margin")

    def test_integer_beyond_float64_reaches_the_size_guard(self, capsys):
        # an int of 400 digits is in range; converting it to a float would overflow
        code, out, err = run(capsys, ["trace", "--symbol", "bessel", "--m", "-4", "--radius", "9" * 400])
        assert code == 2 and out == ""
        assert err.startswith("error: radius 9999") and "lower --radius" in err


class TestWeightOverflow:
    """A dyadic weight 2^{m w} beyond float64 is refused (exit 2) with the flag
    to lower, not raised as an OverflowError; so is a tail envelope
    C <xi>^{order hint} that leaves float64 (the flag to move), with no numpy
    RuntimeWarning."""

    @pytest.mark.parametrize("argv, remedy", [
        # blocks m <= 2 on this row box, so 2^{2 w} leaves float64 from w = 512 on
        (["trace", "--symbol", "modulated", "--m", "-4", "--dim", "2", "--radius", "4",
          "--certify-w", "600"], "lower --certify-w"),
        (["besov-norm", "--character", "4", "--w", "1000", "--p", "2", "--q", "2",
          "--radius", "8"], "lower --w"),
        (["approx-demo", "--stock", "8", "--w", "400", "--p", "2", "--q", "2",
          "--n-values", "1"], "lower --w"),
        (["trace", "--symbol", "bessel", "--m", "-4", "--radius", "4", "--order-hint", "-1000"],
         "pass an --order-hint nearer the symbol's order"),
    ], ids=["trace", "besov-norm", "approx-demo", "order-hint"])
    def test_exit_2_names_the_flag(self, capsys, monkeypatch, argv, remedy):
        import torustrace.cli as cli

        # every refusal comes before the eigensolver, the costliest step of a trace
        monkeypatch.setattr(cli, "eigenvalues", lambda *a, **k: pytest.fail("the eigensolver ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err and remedy in err


class TestCertificateRange:
    """A certificate whose block energies |hat a|^2 leave float64 while its
    bound does not is reported: each column is scaled by a power of two before
    squaring.  Once --c dominates the cosine of (c + cos 2 pi x_1) <xi>^m, the
    bound grows in proportion to c, so it is checked against --c 1e100, whose
    energies stay inside float64."""

    modulated = ["trace", "--symbol", "modulated", "--m", "-4", "--radius", "4"]

    @pytest.mark.parametrize("argv, c", [
        (modulated + ["--c", "1e200", "--certify-w", "1"], 1e200),
        (["trace", "--symbol", "bessel", "--m", "150", "--dim", "2", "--radius", "8",
          "--certify-w", "1"], None),
        (modulated + ["--c", "1e160", "--certify-w", "-300"], 1e160),
        (["trace", "--symbol", "modulated", "--m", "-4", "--dim", "2", "--radius", "4",
          "--certify-w", "400"], None),
    ], ids=["certificate-c", "certificate-m", "certificate-negative-w", "certify-w-400"])
    def test_finite_bound_is_reported(self, capsys, argv, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        bound = json.loads(out)["diagnostics"]["quasinorm_certificate"]["bound"]
        assert isinstance(bound, float) and 1e100 < bound < math.inf
        if c is not None:
            ref = run_json(capsys, [*argv[:-4], "--c", "1e100", *argv[-2:]])
            ref_bound = ref["diagnostics"]["quasinorm_certificate"]["bound"]
            assert bound == pytest.approx(c / 1e100 * ref_bound, rel=1e-14)

    def test_subnormal_coefficients_are_scaled_in_range(self, capsys):
        # e^{-0.3 |xi|^2} reaches the subnormal range near |xi| = 50; its columns are
        # scaled by powers of two near 2^-1040 without a complex division overflowing,
        # and the terms past radius 40 do not move the bound
        argv = ["trace", "--symbol", "heat", "--t", "0.3", "--radius", "64", "--certify-w", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        bound = json.loads(out)["diagnostics"]["quasinorm_certificate"]["bound"]
        ref = run_json(capsys, [*argv[:-3], "40", *argv[-2:]])["diagnostics"]["quasinorm_certificate"]["bound"]
        assert bound == ref


class TestLebesgueExponentRange:
    """A block whose |f|^p sums to 0 or inf in float64 is normed relative to its
    sup: at p = 1e10 each block norm lies within a factor n^{-1/p} of the sup
    that --p inf reports, with no RuntimeWarning."""

    @pytest.mark.parametrize("argv, column", [
        (["besov-norm", "--stock", "8", "--w", "1", "--q", "2", "--radius", "8"], "lp_norm"),
        (["approx-demo", "--stock", "8", "--w", "1", "--q", "2", "--n-values", "1,2,4"],
         "besov_error"),
    ], ids=["besov-norm", "approx-demo"])
    def test_large_p_reads_near_the_sup(self, capsys, argv, column):
        rows = {}
        for p in ("1e10", "inf"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, argv + ["--p", p])
            assert code == 0 and err == ""
            body = json.loads(out)["body"]
            rows[p] = [row[column] for row in body.get("blocks", body.get("table"))]
        assert len(rows["1e10"]) == len(rows["inf"])
        for got, sup in zip(rows["1e10"], rows["inf"]):
            assert sup * (1.0 - 1e-8) <= got <= sup * (1.0 + 1e-12)


class TestCliContract:
    def test_console_script_target_runs(self, capsys, monkeypatch):
        # the [project.scripts] target an install puts on PATH as `torustrace`
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        module, func = re.search(r'^torustrace = "([\w.]+):(\w+)"$', text, re.M).groups()
        entrypoint = getattr(importlib.import_module(module), func)
        monkeypatch.setattr(sys, "argv", ["torustrace", "besov-norm", "--character", "4", "--w", "1",
                                          "--p", "2", "--q", "2", "--radius", "8"])
        # raise the exit code instead of leaving pytest's own process
        monkeypatch.setattr(os, "_exit", lambda code: sys.exit(code))
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["body"]["norm"] == pytest.approx(4.0, abs=1e-10)

    def test_unknown_flag_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        code, out, err = run(capsys, ["trace", "--symbol", "bessel", "--m", "-4",
                                      "--radius", "4", "--no-such-flag"])
        assert (code, out) == (2, "")
        assert err == (
            "usage: torustrace trace [-h] [--symbol {bessel,heat,modulated,character}]\n"
            "                        [--symbol-file SYMBOL_FILE] [--m M] [--t T] [--c C]\n"
            "                        [--g {bracket,gaussian}] [--dim {1,2}] --radius RADIUS\n"
            "                        [--order-hint ORDER_HINT] [--certify-w CERTIFY_W]\n"
            "                        [--format {json,csv}] [--output OUTPUT]\n"
            "torustrace trace: error: unrecognized arguments: --no-such-flag\n"
        )

    @pytest.mark.parametrize("command", list(HANDLERS))
    def test_unknown_flag_reported_with_the_command_usage(self, capsys, command):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[command]
        # a valid value for each required flag, so that parsing reaches the leftover tokens
        required = [tok for a in parser._actions if a.required
                    for tok in (a.option_strings[0], str((a.choices or ["8"])[0]))]
        code, out, err = run(capsys, [command, *required, "--no-such-flag", "x"])
        assert (code, out) == (2, "")
        assert err == (parser.format_usage()
                       + f"torustrace {command}: error: unrecognized arguments: --no-such-flag x\n")

    @pytest.mark.parametrize("argv, flag, value", [
        (["approx-demo", "--stock", "8", "--w", "0", "--p", "2", "--q", "2"], "--n-values", "-1,0"),
        (["trace", "--symbol", "bessel", "--radius", "4"], "--m", "-1e1"),
    ], ids=["n-values-list", "m-exponent"])
    def test_negative_value_after_its_flag(self, capsys, argv, flag, value):
        # argparse alone takes only -12 and -1.5 for numbers and stops "-1,0" and
        # "-1e1" with "expected one argument"
        joined = run(capsys, argv + [f"{flag}={value}"])
        assert joined[0] == 0, joined[2]
        assert run(capsys, argv + [flag, value]) == joined

    def test_csv_unsupported_command_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "heat-trace", "--group", "torus", "--t", "1", "--cutoff", "4",
            "--format", "csv",
        ])
        assert code == 2
        assert "json" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--symbol", "bessel", "--m", "-4", "--radius", "4"],
        ["lidskii", "--symbol", "modulated", "--c", "2", "--m", "-4", "--radii", "2,4"],
        ["besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2", "--radius", "8"],
        ["approx-demo", "--stock", "8", "--w", "0", "--p", "2", "--q", "2", "--n-values", "1,2"],
    ], ids=["spectrum", "lidskii", "besov-norm", "approx-demo"])
    def test_csv_rendered_only_when_asked(self, capsys, monkeypatch, argv):
        import torustrace.cli as cli

        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0 and out.count("\n") >= 3
        monkeypatch.setattr(cli, "render_csv", lambda *a: pytest.fail("CSV rendered for JSON"))
        run_json(capsys, argv)

    def test_csv_refusal_pinned(self, capsys):
        code, out, err = run(capsys, ["trace", "--symbol", "bessel", "--m", "-4", "--radius", "4",
                                      "--format", "csv"])
        assert (code, out, err) == (2, "", "error: trace has no CSV schema; use --format json\n")

    @pytest.mark.parametrize("argv", [
        ["trace", "--symbol", "bessel", "--m", "-4", "--radius", "4"],
        ["besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2", "--radius", "8",
         "--format", "csv"],
    ], ids=["json", "csv"])
    def test_output_into_missing_directory_pinned(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        target = "missing/report.out"
        code, out, err = run(capsys, argv + ["--output", target])
        assert (code, out) == (2, "")
        assert err == (f"error: cannot write {target}: [Errno 2] No such file or directory: "
                       f"'{target}'; pick a writable path\n")
        assert list(tmp_path.iterdir()) == []

    def test_byte_determinism(self, capsys):
        argv = ["trace", "--symbol", "modulated", "--c", "2", "--m", "-4",
                "--radius", "8", "--certify-w", "1"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_byte_determinism_across_processes(self):
        import subprocess
        import sys as _sys

        argv = [_sys.executable, "-m", "torustrace.cli", "nuclearity",
                "--theorem", "t1", "--n", "1", "--r", "1", "--alpha", "0.5",
                "--p1", "2", "--k", "1", "--delta", "0", "--m", "-4", "--w2", "0"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout

    def test_output_file_lf_only(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, [
            "heat-trace", "--group", "torus", "--t", "1", "--cutoff", "4",
            "--output", str(path),
        ])
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        json.loads(raw.decode())


# Defective data files: each edits a well-formed file's JSON object (DELETE drops the
# key), or is the file's raw content, or is a path with no file or a directory.
DELETE = object()
FILE_DEFECTS = {
    "missing-path": "absent",
    "directory": "directory",
    "holds-7": b"7",
    "invalid-json": b"{nope",
    "not-utf-8": b"\xff\xfe",
    "missing-field": {"values": DELETE},
    "null-grid-size": {"grid_size": None},
    "fractional-grid-size": {"grid_size": 8.5},
    "zero-grid-size": {"grid_size": 0},
    "string-dim": {"dim": "1"},
    "bool-dim": {"dim": True},
    "dim-3": {"dim": 3},
    "dim-1e9": {"dim": 10**9},
    "values-not-a-list": {"values": 5},
    "bad-pairs": {"values": [[1.0]] * 162},
    "ragged-pairs": {"values": [[1.0, 0.0], [1.0]]},
    "string-pairs": {"values": [["re", "im"]]},
    "value-count": {"grid_size": 17},
}
SYMBOL_DEFECTS = {
    "negative-lattice-radius": {"lattice_radius": -1},
    "lattice-radius-1e6": {"lattice_radius": 10**6},  # 162 values: refused before the lattice
    "string-claim": {"claimed_rho": "one"},
    "list-claim": {"claimed_order": [-4]},
}
DEFECT_COMMANDS = {
    "trace": ("symbol", ["trace", "--symbol-file", "{}", "--radius", "4"]),
    "spectrum": ("symbol", ["spectrum", "--symbol-file", "{}", "--radius", "4"]),
    "besov-norm": ("function", ["besov-norm", "--input", "{}", "--w", "0", "--p", "2", "--q", "2",
                                "--radius", "2"]),
}


def write_defective_file(tmp_path, kind: str, defect) -> str:
    path = tmp_path / f"{kind}.json"
    if kind == "symbol":
        save_sampled_symbol(sample_symbol(bessel_symbol(-4.0), min_grid_size(4), FrequencyLattice(1, 4)),
                            str(path))
    else:
        save_periodic_function(bandlimited({1: 1.0}, radius=2)[0], str(path))
    if defect == "absent":
        path.unlink()
    elif defect == "directory":
        path.unlink()
        path.mkdir()
    elif isinstance(defect, bytes):
        path.write_bytes(defect)
    else:
        doc = json.loads(path.read_text())
        for key, value in defect.items():
            if value is DELETE:
                del doc[key]
            else:
                doc[key] = value
        path.write_text(json.dumps(doc))
    return str(path)


class TestDataFiles:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, defect", [
        (command, defect) for command, (kind, _) in DEFECT_COMMANDS.items()
        for defect in [*FILE_DEFECTS, *(SYMBOL_DEFECTS if kind == "symbol" else ())]])
    def test_defective_file_exit_2_naming_it(self, capsys, tmp_path, monkeypatch, command, defect):
        # one "error:" line that names the file, no report, no warning; and io never
        # builds the lattice of a file it refuses
        import torustrace.io as io

        kind, argv = DEFECT_COMMANDS[command]
        monkeypatch.setattr(io, "FrequencyLattice", lambda *a: pytest.fail("a lattice was built"))
        path = write_defective_file(tmp_path, kind, {**FILE_DEFECTS, **SYMBOL_DEFECTS}[defect])
        code, out, err = run(capsys, [arg.format(path) for arg in argv])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {kind} file {path}: ") and err.count("\n") == 1, err

    def test_value_count_is_checked_before_the_lattice(self, capsys, tmp_path, monkeypatch):
        import torustrace.io as io

        built = []
        monkeypatch.setattr(io, "FrequencyLattice", lambda *a: built.append(a) or FrequencyLattice(*a))
        path = write_defective_file(tmp_path, "symbol", SYMBOL_DEFECTS["lattice-radius-1e6"])
        code, _, err = run(capsys, ["trace", "--symbol-file", path, "--radius", "4"])
        assert code == 2 and built == []
        assert err == (f"error: symbol file {path}: 162 values, expected "
                       "(grid_size (2 lattice_radius + 1))^dim = 36000018\n")
        load_sampled_symbol(write_defective_file(tmp_path, "symbol", {}))
        assert built == [(1, 4)]

    @pytest.mark.parametrize("key", ["claimed_order", "claimed_rho", "claimed_delta"])
    def test_null_claim_reads_as_absent(self, capsys, tmp_path, key):
        argv = ["check-class", "--symbol-file", "{}", "--radius", "8", "--alpha-idx", "1", "--beta-idx", "1"]
        outs = []
        for defect in ({key: None}, {key: DELETE}):
            path = write_defective_file(tmp_path, "symbol", defect)
            code, out, err = run(capsys, [arg.format(path) for arg in argv])
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_save_then_load_keeps_the_bits(self, tmp_path):
        # signed zeros, subnormals and the ends of the range, in both parts
        pairs = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [5e-324, -5e-324],
                          [1.7976931348623157e308, -2.2250738585072014e-308], [math.pi, -math.e]])
        values = pairs.view(np.complex128)[:, 0]
        path = str(tmp_path / "f.json")
        save_periodic_function(PeriodicFunction(1, 6, values), path)
        assert load_periodic_function(path).values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
        a = SampledSymbol(1, 2, FrequencyLattice(1, 1), values.reshape(2, 3), claimed_order=-2.5,
                          claimed_rho=0.5, claimed_delta=0.25)
        save_sampled_symbol(a, path)
        b = load_sampled_symbol(path)
        assert b.table.view(np.uint64).tolist() == a.table.view(np.uint64).tolist()
        assert (b.claimed_order, b.claimed_rho, b.claimed_delta) == (-2.5, 0.5, 0.25)

    def test_function_round_trip(self, tmp_path):
        f, _ = bandlimited({0: 1.0, 3: 2.0 - 1.0j}, radius=4)
        path = tmp_path / "f.json"
        save_periodic_function(f, str(path))
        g = load_periodic_function(str(path))
        assert g.dim == f.dim and g.grid_size == f.grid_size
        assert np.abs(g.values - f.values).max() == 0.0

    def test_symbol_round_trip(self, tmp_path):
        lat = FrequencyLattice(1, 3)
        a = sample_symbol(bessel_symbol(-2.0), min_grid_size(3), lat)
        path = tmp_path / "a.json"
        save_sampled_symbol(a, str(path))
        b = load_sampled_symbol(str(path))
        assert b.lattice.radius == 3
        assert np.abs(b.table - a.table).max() == 0.0
        assert b.claimed_order == -2.0

    def test_symbol_file_through_cli(self, capsys, tmp_path):
        lat = FrequencyLattice(1, 4)
        a = sample_symbol(bessel_symbol(-4.0), min_grid_size(4), lat)
        path = tmp_path / "a.json"
        save_sampled_symbol(a, str(path))
        doc = run_json(capsys, [
            "trace", "--symbol-file", str(path), "--radius", "4",
        ])
        oracle = sum((1.0 + k * k) ** -2.0 for k in range(-4, 5))
        assert doc["body"]["nuclear_trace"][0] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("command", [["trace", "--radius", "4"], ["spectrum", "--radius", "4"],
                                         ["lidskii", "--radii", "2,4"], ["check-class", "--radius", "8"]])
    @pytest.mark.parametrize("extra", [["--m", "3"], ["--t", "1"], ["--c", "5"], ["--g", "gaussian"],
                                       ["--g", "bracket"], ["--dim", "2"]],
                             ids=lambda extra: extra[0][2:] + "-" + extra[1])
    def test_symbol_file_refuses_catalog_flags(self, capsys, tmp_path, monkeypatch, command, extra):
        import torustrace.cli as cli

        monkeypatch.setattr(cli, "CompressedOperator", lambda *a: pytest.fail("an operator was built"))
        monkeypatch.setattr(cli, "estimate_order", lambda *a: pytest.fail("an order was fitted"))
        path = tmp_path / "a.json"
        save_sampled_symbol(sample_symbol(bessel_symbol(-4.0), min_grid_size(4), FrequencyLattice(1, 4)),
                            str(path))
        code, out, err = run(capsys, [command[0], "--symbol-file", str(path), *command[1:], *extra])
        assert code == 2 and out == ""
        if extra[0] == "--dim":
            assert err == "error: --symbol-file holds a dim 1 table; drop --dim\n"
        else:
            assert err == f"error: --symbol-file reads a table, not {extra[0]}; drop {extra[0]}\n"

    def test_symbol_file_accepts_its_own_dim(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        save_sampled_symbol(sample_symbol(bessel_symbol(-4.0), min_grid_size(4), FrequencyLattice(1, 4)),
                            str(path))
        want = run_json(capsys, ["trace", "--symbol-file", str(path), "--radius", "4"])
        assert run_json(capsys, ["trace", "--symbol-file", str(path), "--radius", "4", "--dim", "1"]) == want

    def test_symbol_file_radius_mismatch_exit_2(self, capsys, tmp_path):
        lat = FrequencyLattice(1, 4)
        a = sample_symbol(bessel_symbol(-4.0), min_grid_size(4), lat)
        path = tmp_path / "a.json"
        save_sampled_symbol(a, str(path))
        code, _, err = run(capsys, [
            "trace", "--symbol-file", str(path), "--radius", "8",
        ])
        assert code == 2
        assert "radius 4" in err and "radius 8" in err


def test_source_date_epoch_sets_the_header_timestamp(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    doc = run_json(capsys, ["heat-trace", "--group", "torus", "--dim", "1", "--t", "1", "--cutoff", "6"])
    assert doc["header"]["timestamp"] == "1970-01-01T00:00:00+00:00"
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert run_json(capsys, ["heat-trace", "--group", "torus", "--t", "1", "--cutoff", "6"])["header"]["timestamp"] is None
