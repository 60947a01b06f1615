"""End-to-end CLI coverage: every subcommand, exit codes, schemas, determinism."""

import json
import math

import numpy as np
import pytest

from torustrace.cli import main
from torustrace.harmonic import FrequencyLattice, min_grid_size
from torustrace.io import (
    load_periodic_function,
    load_sampled_symbol,
    save_periodic_function,
    save_sampled_symbol,
)
from torustrace.symbols import bessel_symbol, sample_symbol

from conftest import bandlimited


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
    for key in ("tool", "version", "schema_version", "normalization", "block_weight",
                "timestamp"):
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
        from torustrace.harmonic import FrequencyLattice
        from torustrace.symbols import bessel_symbol
        from torustrace.traces import nuclear_trace

        doc = run_json(capsys, [
            "trace", "--symbol", "bessel", "--m", "4", "--dim", "1", "--radius", "16",
        ])
        oracle = nuclear_trace(bessel_symbol(4.0), FrequencyLattice(1, 16))
        assert doc["body"]["nuclear_trace"][0] == pytest.approx(oracle.real, rel=1e-12)

    def test_order_hint_tail(self, capsys):
        doc = run_json(capsys, [
            "trace", "--symbol", "bessel", "--m", "-4", "--radius", "16",
            "--order-hint", "-4",
        ])
        assert 0 < doc["diagnostics"]["tail_estimate"] < 1e-3

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


class TestBesovCommand:
    def test_character_norm(self, capsys):
        doc = run_json(capsys, [
            "besov-norm", "--character", "4", "--w", "1", "--p", "2", "--q", "2",
            "--radius", "8",
        ])
        assert doc["body"]["norm"] == pytest.approx(4.0, abs=1e-10)

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
            "--radius", "4", "--block-weight", "bracket",
        ])
        assert doc["header"]["block_weight"] == "bracket"
        # <1> = sqrt 2 in [1, 2) -> block 0 -> weight 1
        assert doc["body"]["norm"] == pytest.approx(1.0, abs=1e-10)


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

    def test_bessel_divergence_flag(self, capsys):
        doc = run_json(capsys, [
            "bessel-trace", "--group", "su2", "--alpha", "3", "--cutoff", "30",
        ])
        assert doc["diagnostics"]["divergent"] is True

    def test_divergent_series_never_converged(self, capsys):
        doc = run_json(capsys, [
            "bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "1",
            "--cutoff", "4",
        ])
        assert doc["diagnostics"]["divergent"] is True
        assert doc["diagnostics"]["converged"] is False
        assert doc["diagnostics"]["tail_estimate"] == "inf"

    def test_overflowing_terms_reported_as_inf(self, capsys):
        code, out, err = run(capsys, [
            "bessel-trace", "--group", "torus", "--dim", "1", "--alpha", "-1000",
            "--cutoff", "10",
        ])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["body"]["value"] == "inf"
        assert doc["diagnostics"]["divergent"] is True

    @pytest.mark.parametrize("argv", [
        ["heat-trace", "--group", "torus", "--dim", "2", "--t", "1", "--cutoff", "2000"],
        ["bessel-trace", "--group", "su2", "--alpha", "4", "--cutoff", "1e9"],
        ["nuclearity", "--theorem", "tt1", "--case", "3", "--group", "torus", "--cutoff",
         "1e7", "--r", "1", "--p", "2", "--q", "2", "--m", "-4"],
    ])
    def test_dual_above_size_budget_exit_2(self, capsys, argv):
        # sizes above the budget only: the dual is refused before it is built
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "lower the cutoff" in err and "Traceback" not in err

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

    def test_csv_spectrum(self, capsys):
        code, out, _ = run(capsys, [
            "spectrum", "--symbol", "bessel", "--m", "-2", "--radius", "2",
            "--format", "csv",
        ])
        assert out.splitlines()[0] == "index,re,im"


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


class TestCliContract:
    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, ["trace", "--symbol", "bessel", "--m", "-4",
                                  "--radius", "4", "--no-such-flag"])
        assert code == 2

    def test_csv_unsupported_command_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "heat-trace", "--group", "torus", "--t", "1", "--cutoff", "4",
            "--format", "csv",
        ])
        assert code == 2
        assert "json" in err

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


class TestDataFiles:
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
