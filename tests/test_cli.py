import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bifrac
from bifrac import solver
from bifrac.cli import main
from bifrac.greenop import GridFunction, make_grid


def run(tmp_path, *argv):
    return main([*argv, "--outdir", str(tmp_path)])


def read_json(tmp_path, name):
    with open(tmp_path / name) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_certify_pass(self, tmp_path):
        assert run(tmp_path, "certify") == 0
        rep = read_json(tmp_path, "certificate.json")
        assert rep["schema"] == 1
        assert rep["certificate"]["pass"] is True

    def test_certify_negative_result(self, tmp_path):
        # a forcing too large for the certificate is reported, not an error
        assert run(tmp_path, "certify", "--h-amplitude", "5.0") == 1
        rep = read_json(tmp_path, "certificate.json")
        assert rep["certificate"]["pass"] is False
        assert rep["certificate"]["failure"] == "supercritical"

    def test_usage_error_malformed_point(self, tmp_path, capsys):
        assert run(tmp_path, "kernel", "--green", "0.1") == 2
        assert "--green" in capsys.readouterr().err

    def test_usage_error_alpha_window(self, tmp_path):
        # kernel accepts the full range, the solver does not
        assert run(tmp_path, "kernel", "--alpha", "0.5", "--green", "0,0.5") == 0
        assert run(tmp_path, "certify", "--alpha", "0.5") == 2

    def test_usage_error_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alhpa = 1.5\n")
        assert run(tmp_path, "certify", "--config", str(cfg)) == 2
        assert "alhpa" in capsys.readouterr().err

    def test_usage_error_bad_sweep_range(self, tmp_path):
        assert run(tmp_path, "sweep", "--scalar", "--lambda-lo", "2.0",
                   "--lambda-hi", "1.0") == 2

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--lambda-hi", "inf"],
            ["solve", "--solve-tol", "nan"],
            ["lemmas", "--tol", "all=nan"],
        ],
        ids=["lambda-hi-inf", "solve-tol-nan", "tol-nan"],
    )
    def test_usage_error_bad_number(self, tmp_path, capsys, argv):
        # such numbers would run on to a wrong report
        assert run(tmp_path, *argv) == 2
        assert "finite" in capsys.readouterr().err

    def test_usage_error_non_chebyshev_csv(self, tmp_path, capsys):
        # the cached operator assumes make_grid(n) nodes; uniform nodes would
        # silently get the Chebyshev matrix
        rows = "".join(f"{x!r},{0.05 * (1 - x * x)!r}\n" for x in np.linspace(-1, 1, 65).tolist())
        (tmp_path / "h.csv").write_text("x,value\n" + rows)
        assert run(tmp_path, "certify", "--h-csv", str(tmp_path / "h.csv")) == 2
        assert "make_grid(65)" in capsys.readouterr().err


class TestKernel:
    def test_green_golden_row(self, tmp_path):
        assert run(tmp_path, "kernel", "--green", "0,0.5", "--w", "0,0.5",
                   "--poisson", "0,1.5,1") == 0
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert lines[0] == "kind,x,y,r,value"
        assert lines[1] == "green,0,0.5,,0.35646685935169681"
        assert lines[2] == "w,0,0.5,,3"
        assert lines[3].startswith("poisson,0,1.5,1,0.1269291467614924")


class TestSolve:
    def test_writes_both_branches(self, tmp_path):
        assert run(tmp_path, "solve") == 0
        rep = read_json(tmp_path, "report.json")
        assert rep["schema"] == 1
        assert rep["config"]["alpha"] == 1.5
        assert rep["minimal"]["converged"] and rep["second"]["converged"]
        assert rep["distinct"] is True
        assert rep["separation"] > rep["separation_required"]
        low = GridFunction.read_csv(tmp_path / "minimal.csv")
        high = GridFunction.read_csv(tmp_path / "second.csv")
        assert high.sup_norm > low.sup_norm

    def test_degenerate_forcing(self, tmp_path):
        assert run(tmp_path, "solve", "--h-amplitude", "0") == 0
        rep = read_json(tmp_path, "report.json")
        assert rep["degenerate"] is True
        assert (tmp_path / "minimal.csv").exists()
        assert not (tmp_path / "second.csv").exists()

    def test_forcing_from_csv(self, tmp_path):
        g = make_grid(65)
        GridFunction(g, 0.05 * (1 - g.nodes**2)).write_csv(tmp_path / "h.csv")
        assert run(tmp_path, "solve", "--h-csv", str(tmp_path / "h.csv")) == 0
        rep = read_json(tmp_path, "report.json")
        assert rep["config"]["h_csv"].endswith("h.csv")

    def test_profile_flags(self, tmp_path):
        assert run(tmp_path, "solve", "--h-profile", "torsion",
                   "--h-amplitude", "0.06") == 0
        rep = read_json(tmp_path, "report.json")
        assert rep["config"]["h_profile"] == "torsion"
        assert rep["config"]["h_amplitude"] == 0.06


class TestLemmas:
    def test_battery_passes(self, tmp_path):
        assert run(tmp_path, "lemmas", "--samples", "30") == 0
        rep = read_json(tmp_path, "lemmas.json")
        assert rep["pass"] is True
        items = rep["items"]
        assert set(items) == {"green_ratio", "unimodality", "reflection",
                              "kul", "poisson", "invariance"}
        assert all(v["pass"] for v in items.values())
        assert all(v["worst"] <= v["threshold"] for v in items.values())

    def test_negative_control(self, tmp_path):
        # impossible tolerance must flip the verdict, not crash
        assert run(tmp_path, "lemmas", "--samples", "30",
                   "--tol", "all=1e-15") == 1
        assert read_json(tmp_path, "lemmas.json")["pass"] is False


class TestSweep:
    def test_scalar_fold(self, tmp_path):
        assert run(tmp_path, "sweep", "--scalar", "--lambda-lo", "0.5",
                   "--lambda-hi", "3.5", "--steps", "7") == 0
        rep = read_json(tmp_path, "fold.json")
        assert rep["bracketed"] is True
        assert rep["fold_status"] == "converged"
        assert rep["fold_estimate"] == pytest.approx(2.0, rel=1e-12)
        assert rep["lambda_cert"] == pytest.approx(2.0, rel=1e-9)
        lines = (tmp_path / "branches.csv").read_text().splitlines()
        assert lines[0] == "lambda,n_found,sup_minimal,sup_second"
        assert len(lines) == 8

    def test_default_fold_reaches_picard_convergence(self, tmp_path):
        # monotone Picard from zero still converges at 2.79678, so the fold
        # of the default problem cannot lie below it
        assert run(tmp_path, "sweep") == 0
        rep = read_json(tmp_path, "fold.json")
        assert rep["fold_status"] == "converged"
        assert rep["fold_estimate"] >= 2.79678
        assert "rel_width" not in rep["config"]

    def test_newton_failure_is_negative_result(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "_fold_newton", lambda *args: None)
        assert run(tmp_path, "sweep", "--scalar") == 1
        rep = read_json(tmp_path, "fold.json")
        assert rep["fold_status"] == "newton_failed"
        assert rep["bracketed"] is False and rep["fold_estimate"] is None

    def test_fold_an_ulp_past_a_scan_point_is_accepted(self, tmp_path, monkeypatch):
        # the scalar fold of this scan sits on its point lambda = 2, where the
        # double root counts as one branch; rounding may put Newton's fold
        # an ulp above that point, still inside the bracket
        monkeypatch.setattr(solver, "_fold_newton", lambda *args: np.nextafter(2.0, 3.0))
        assert run(tmp_path, "sweep", "--scalar", "--lambda-lo", "0.5",
                   "--lambda-hi", "3.5", "--steps", "7") == 0
        assert read_json(tmp_path, "fold.json")["fold_status"] == "converged"

    def test_rel_width_flag_is_gone(self, tmp_path):
        assert run(tmp_path, "sweep", "--scalar", "--rel-width", "1e-3") == 2

    def test_unbracketed_is_negative_result(self, tmp_path):
        assert run(tmp_path, "sweep", "--scalar", "--lambda-lo", "0.25",
                   "--lambda-hi", "0.5", "--steps", "3") == 1
        rep = read_json(tmp_path, "fold.json")
        assert rep["bracketed"] is False
        assert rep["fold_status"] == "not_bracketed"
        assert rep["fold_estimate"] is None  # NaN maps to null in the report


class TestConfigPlumbing:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nalpha = 1.2\np = 3\n")
        assert run(tmp_path, "certify", "--config", str(cfg), "--alpha", "1.5") == 0
        rep = read_json(tmp_path, "certificate.json")
        assert rep["config"]["alpha"] == 1.5  # flag wins
        assert rep["config"]["p"] == 3.0  # file beats default

    def test_tolerance_config_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_poisson = 1e-15\n")
        assert run(tmp_path, "lemmas", "--samples", "30",
                   "--config", str(cfg)) == 1

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BIFRAC_OUTDIR", str(tmp_path))
        assert main(["certify"]) == 0
        assert (tmp_path / "certificate.json").exists()

    def test_outdir_flag_beats_env(self, tmp_path, monkeypatch):
        other = tmp_path / "env"
        other.mkdir()
        monkeypatch.setenv("BIFRAC_OUTDIR", str(other))
        assert run(tmp_path, "certify") == 0
        assert (tmp_path / "certificate.json").exists()
        assert not (other / "certificate.json").exists()


class TestDeterminism:
    def test_solve_outputs_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir(), second.mkdir()
        argv = ["solve", "--seed", "11", "--samples", "40"]
        assert main([*argv, "--outdir", str(first)]) == 0
        assert main([*argv, "--outdir", str(second)]) == 0
        for name in ("minimal.csv", "second.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        ra = read_json(first, "report.json")
        rb = read_json(second, "report.json")
        ra["config"].pop("output_dir"), rb["config"].pop("output_dir")
        assert ra == rb

    def test_lemmas_byte_identical_same_outdir(self, tmp_path):
        argv = ["lemmas", "--samples", "25", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        bytes_a = (tmp_path / "lemmas.json").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "lemmas.json").read_bytes() == bytes_a


def test_cli_import_loads_neither_optimize_nor_interpolate():
    # a fresh process pays for every module the CLI pulls in at import
    code = (
        "import sys, bifrac.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.optimize', 'scipy.interpolate'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bifrac.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
