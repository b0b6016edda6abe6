import argparse
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import bifrac
from bifrac import cli, cone, greenop, kernels, solver
from bifrac.cli import RunConfig, main
from bifrac.greenop import GreenOperator, GridFunction, make_grid

from csv_reference import write_branches


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
            ["certify", "--h-amplitude", "inf"],
            ["certify", "--h-amplitude", "nan"],
            ["kernel", "--green", "nan,0.2"],
            ["kernel", "--w", "0.1,inf"],
            ["kernel", "--poisson", "nan,2,1"],
        ],
        ids=[
            "lambda-hi-inf", "solve-tol-nan", "tol-nan", "h-amplitude-inf", "h-amplitude-nan",
            "green-nan", "w-inf", "poisson-nan",
        ],
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

    @pytest.mark.parametrize("text", ["", "x,value\n0.5\n"], ids=["empty", "one-field-row"])
    def test_usage_error_malformed_csv(self, tmp_path, capsys, text):
        (tmp_path / "h.csv").write_text(text)
        assert run(tmp_path, "certify", "--h-csv", str(tmp_path / "h.csv")) == 2
        assert "h.csv" in capsys.readouterr().err

    def test_usage_error_csv_size_differs_from_grid_n(self, tmp_path, capsys):
        # the report embeds grid_n, so it has to be the size the run used
        g = make_grid(129)
        GridFunction(g, 0.05 * (1 - g.nodes**2)).write_csv(tmp_path / "h.csv")
        assert run(tmp_path, "solve", "--h-csv", str(tmp_path / "h.csv")) == 2
        err = capsys.readouterr().err
        assert "129" in err and "65" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("defect", ["nan", "spike"])
    def test_usage_error_sweep_forcing_shape(self, tmp_path, capsys, defect):
        # certify and solve reject such a forcing; the sweep must not report
        # it as a fold it failed to bracket
        g = make_grid(65)
        values = 0.05 * (1 - g.nodes**2)
        values[10] = np.nan if defect == "nan" else -5.0
        GridFunction(g, values).write_csv(tmp_path / "h.csv")
        assert run(tmp_path, "sweep", "--h-csv", str(tmp_path / "h.csv")) == 2
        assert "unimodal" in capsys.readouterr().err
        assert not (tmp_path / "fold.json").exists()

    @pytest.mark.parametrize("command", ["certify", "solve", "sweep"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_usage_error_non_finite_forcing(self, tmp_path, capsys, command, bad):
        # named as such, before any number is computed from it: a
        # RuntimeWarning on the way would fail the test
        g = make_grid(65)
        values = 0.05 * (1 - g.nodes**2)
        values[10] = bad
        GridFunction(g, values).write_csv(tmp_path / "h.csv")
        assert run(tmp_path, command, "--h-csv", str(tmp_path / "h.csv")) == 2
        assert "finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["h.csv"]

    @pytest.mark.parametrize("command", ["certify", "solve", "sweep"])
    def test_usage_error_amplitude_with_csv(self, tmp_path, capsys, command):
        # the amplitude scales a named profile; a CSV forcing is taken as given
        g = make_grid(65)
        GridFunction(g, 0.05 * (1 - g.nodes**2)).write_csv(tmp_path / "h.csv")
        assert run(tmp_path, command, "--h-csv", str(tmp_path / "h.csv"), "--h-amplitude", "5") == 2
        err = capsys.readouterr().err
        assert "h_amplitude" in err and "h_csv" in err
        assert os.listdir(tmp_path) == ["h.csv"]
        assert run(tmp_path, command, "--h-csv", str(tmp_path / "h.csv"), "--h-amplitude", "auto") != 2

    @pytest.mark.parametrize("command", ["lemmas", "certify"])
    def test_usage_error_negative_seed(self, tmp_path, capsys, command):
        assert run(tmp_path, command, "--seed", "-1") == 2
        assert "seed" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a grid too large for the machine is not a failed property (exit 1)
        def exhausted(op):
            raise MemoryError(f"cannot allocate the {op.grid.n} x {op.grid.n} operator")

        monkeypatch.setattr(GreenOperator, "_build", exhausted)
        assert run(tmp_path, "certify", "--grid-n", "100001") == 2
        err = capsys.readouterr().err
        assert err == "error: cannot allocate the 100001 x 100001 operator\n"
        assert not os.listdir(tmp_path)


class TestKernel:
    def test_green_golden_row(self, tmp_path):
        assert run(tmp_path, "kernel", "--green", "0,0.5", "--w", "0,0.5",
                   "--poisson", "0,1.5,1") == 0
        lines = (tmp_path / "kernel.csv").read_text().splitlines()
        assert lines[0] == "kind,x,y,r,value"
        # G(0, 0.5) = 0.35646685935169689956... to 40 digits; the last two
        # digits here are the rounding of the hypergeometric series
        assert lines[1] == "green,0,0.5,,0.35646685935169642"
        assert lines[2] == "w,0,0.5,,3"
        assert lines[3].startswith("poisson,0,1.5,1,0.1269291467614924")
        # csv.writer's line endings
        assert (tmp_path / "kernel.csv").read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()


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

    def test_constants_computed_once(self, tmp_path, monkeypatch):
        # certify poses the problem once and the branch solvers read it; the
        # second operator_norm_b is build_forcing's automatic amplitude.  The
        # kernel's cone carries gamma_U, whose two points share one
        # green_ball call, and a reads it; the core mass makes the other call
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("radii_certificate", "coercivity_a", "operator_norm_b", "gamma_U", "green_ball")
        for mod in (solver, cli, cone, greenop, kernels):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        for command in ("solve", "certify"):
            calls.clear()
            assert run(tmp_path, command) == 0
            assert calls == {"radii_certificate": 1, "coercivity_a": 1, "operator_norm_b": 2,
                             "gamma_U": 1, "green_ball": 2}, command

    def test_near_the_fold_both_branches_converge(self, tmp_path):
        # the default auto amplitude times the fold times (1 - 1e-5)
        assert run(tmp_path, "solve", "--h-amplitude", "0.7456033460274057") == 0
        rep = read_json(tmp_path, "report.json")
        assert rep["minimal"]["converged"] and rep["second"]["converged"]
        assert rep["distinct"] is True

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
        # impossible tolerance must flip the verdict, not crash; the Poisson
        # mass is exact to a few ulp, so only zero is out of reach
        assert run(tmp_path, "lemmas", "--samples", "30",
                   "--tol", "all=0") == 1
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

    def test_branches_csv_bytes_match_csv_writer(self, tmp_path):
        # points past the fold carry nan sups
        assert run(tmp_path, "sweep", "--steps", "5") == 0
        cfg = RunConfig(steps=5)
        kp = cfg.kernel_params()
        res = solver.fold_sweep(cli.build_forcing(cfg, kp), cfg.p, kp, cfg.lambda_lo, cfg.lambda_hi, cfg.steps)
        assert any(np.isnan(pt.sup_second) for pt in res.points)
        write_branches(res.points, tmp_path / "old.csv")
        assert (tmp_path / "branches.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

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

    def test_fold_past_a_one_branch_point_exits_0(self, tmp_path):
        # lambda = 1.697 counts one branch and the fold lies 0.12 % above
        # it: the minimal branch exists there, so that is no bracket's end
        assert run(tmp_path, "sweep", "--alpha", "1.05", "--p", "3", "--h-profile", "plateau",
                   "--grid-n", "33", "--lambda-lo", "1.1313708498984762",
                   "--lambda-hi", "5.656854249492381") == 0
        rep = read_json(tmp_path, "fold.json")
        assert rep["fold_status"] == "converged"
        assert rep["fold_estimate"] == pytest.approx(1.6991581202355845, rel=1e-12)

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
        cfg.write_text("tol_poisson = 0\n")
        assert run(tmp_path, "lemmas", "--samples", "30",
                   "--config", str(cfg)) == 1

    @pytest.mark.parametrize("amplitude", [0.01, None], ids=["number", "auto"])
    def test_every_field_round_trips_from_a_config_file(self, tmp_path, amplitude):
        g = make_grid(33)
        GridFunction(g, 0.01 * (1 - g.nodes**2)).write_csv(tmp_path / "h.csv")
        settings = {
            "alpha": 1.4, "p": 2.5, "grid_n": 33, "a_half": 0.4, "h_profile": "torsion",
            "h_amplitude": amplitude, "h_csv": str(tmp_path / "h.csv"), "seed": 3,
            "samples": 7, "solve_tol": 1e-10, "lambda_lo": 0.5, "lambda_hi": 3.0,
            "steps": 5, "scalar": True, "output_dir": str(tmp_path),
        }
        if amplitude is not None:  # a number scales the profile; a CSV forcing is taken as given
            del settings["h_csv"]
        lines = [f"{k} = {'auto' if v is None else v}" for k, v in settings.items()]
        (tmp_path / "run.cfg").write_text("\n".join([*lines, "tol_all = 0.1", "tol_poisson = 1e-3"]))
        assert main(["certify", "--config", str(tmp_path / "run.cfg")]) == 0
        got = read_json(tmp_path, "certificate.json")["config"]
        assert got == {"h_csv": None, **settings, "tolerances": {"all": 0.1, "poisson": 1e-3}}
        assert set(got) == {f.name for f in fields(RunConfig)}

    def test_tolerance_flags_merge_over_file_items(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_poisson = 1e-3\ntol_kul = 1e-9\n")
        assert run(tmp_path, "certify", "--config", str(cfg), "--tol", "all=0.1",
                   "--tol", "kul=1e-8") == 0
        got = read_json(tmp_path, "certificate.json")["config"]["tolerances"]
        assert got == {"poisson": 1e-3, "kul": 1e-8, "all": 0.1}

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


COMMON_FLAGS = {
    "-h": None, "--help": None, "--config": None, "--alpha": None, "--p": None,
    "--grid-n": None, "--a-half": None, "--seed": None, "--samples": None,
    "--h-profile": ["bump", "plateau", "torsion"], "--h-amplitude": None, "--h-csv": None,
    "--solve-tol": None, "--outdir": None, "--tol": None,
}


class TestSurface:
    def test_option_strings_and_choices(self):
        parser = cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        surface = {
            name: {opt: a.choices and sorted(a.choices) for a in p._actions for opt in a.option_strings}
            for name, p in sub.choices.items()
        }
        kernel = {"--green": None, "--w": None, "--poisson": None}
        sweep = {"--lambda-lo": None, "--lambda-hi": None, "--steps": None, "--scalar": None}
        assert surface == {
            "kernel": {**COMMON_FLAGS, **kernel},
            "certify": COMMON_FLAGS,
            "solve": COMMON_FLAGS,
            "lemmas": COMMON_FLAGS,
            "sweep": {**COMMON_FLAGS, **sweep},
        }


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


def _src_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bifrac.__file__)))


def test_cli_import_loads_neither_optimize_nor_interpolate(tmp_path):
    # a fresh process pays for every module the CLI pulls in; the default
    # certify, solve and sweep load no SciPy module at all
    code = (
        "import sys, bifrac.cli; "
        f"[bifrac.cli.main([cmd, '--outdir', {str(tmp_path)!r}]) for cmd in ('certify', 'solve', 'sweep')]; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert {"certificate.json", "report.json", "fold.json"} <= set(os.listdir(tmp_path))


NO_SCIPY_RUNS = {
    "kernel": ["kernel", "--green", "0,0.5", "--green=-0.9,0.85", "--w", "0,0.5", "--poisson", "0,1.5,1"],
    "certify": ["certify"],
    "solve": ["solve"],
    "solve257": ["solve", "--grid-n", "257"],
    "lemmas": ["lemmas"],
    "sweep": ["sweep"],
    "sweep_scalar": ["sweep", "--scalar"],
}


def _same_outputs(first, second):
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        if name.endswith(".json"):
            docs = [json.loads((d / name).read_text()) for d in (first, second)]
            for doc in docs:
                doc["config"].pop("output_dir")
            assert docs[0] == docs[1], (first, name)
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (first, name)


def test_every_subcommand_runs_without_scipy(tmp_path):
    script = tmp_path / "blocked.py"
    script.write_text(textwrap.dedent(f"""
        import json, sys
        sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError
        from bifrac.cli import main
        runs = {NO_SCIPY_RUNS!r}
        out = {str(tmp_path / "blocked")!r}
        print(json.dumps({{name: main([*argv, "--outdir", f"{{out}}/{{name}}"]) for name, argv in runs.items()}}))
    """))
    out = subprocess.run([sys.executable, str(script)], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == {name: 0 for name in NO_SCIPY_RUNS}
    for name, argv in NO_SCIPY_RUNS.items():
        assert main([*argv, "--outdir", str(tmp_path / "normal" / name)]) == 0
        _same_outputs(tmp_path / "blocked" / name, tmp_path / "normal" / name)


def test_parser_is_built_once_and_reused(tmp_path):
    # flags of one call must not leak into the next: append actions and
    # per-subcommand flags start afresh each time
    argvs = [
        ["sweep", "--scalar", "--steps", "5"],
        ["sweep", "--steps", "5"],
        ["certify", "--alpha", "1.2", "--tol", "kul=1e-9"],
        ["kernel", "--green", "0,0.5", "--green", "0.1,0.2"],
        ["certify"],
        ["kernel", "--w", "0,0.5"],
        ["lemmas", "--samples", "10", "--tol", "all=0"],
        ["lemmas", "--samples", "10"],
    ]
    cli._build_parser.cache_clear()
    codes = [main([*argv, "--outdir", str(tmp_path / "reused" / str(i))]) for i, argv in enumerate(argvs)]
    assert cli._build_parser.cache_info().misses == 1
    assert codes == [0, 0, 0, 0, 0, 0, 1, 0]
    for i, argv in enumerate(argvs):
        cli._build_parser.cache_clear()
        assert main([*argv, "--outdir", str(tmp_path / "fresh" / str(i))]) == codes[i]
        _same_outputs(tmp_path / "reused" / str(i), tmp_path / "fresh" / str(i))
