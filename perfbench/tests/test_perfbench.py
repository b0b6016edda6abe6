"""Tests of the benchmark itself: run with `python -m pytest perfbench/tests`."""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bifrac
import checks
import spans
import workloads
from bifrac import cli

ROOT = Path(__file__).resolve().parents[2]


def _run(req, outdir):
    outdir.mkdir(exist_ok=True)
    return cli.main([*req.argv, "--outdir", str(outdir)])


def _edit(path, **changes):
    doc = json.loads(path.read_text())
    for key, val in changes.items():
        target = doc
        *parents, last = key.split("__")
        for p in parents:
            target = target[p]
        target[last] = val
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    req = workloads.Request(
        "solve", ("solve", "--alpha", "1.37", "--h-profile", "plateau", "--grid-n", "65"), 1.37, 65
    )
    out = tmp_path_factory.mktemp("solve")
    assert _run(req, out) == 0
    return req, out


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


class TestValidator:
    def test_clean_solve_passes(self, solved):
        req, out = solved
        verdict = checks.check(req, 0, str(out))
        assert verdict.problems == []
        assert verdict.strong_residual > 0

    @pytest.mark.parametrize(
        "change",
        [
            {"distinct": False},
            {"second__converged": False},
            {"minimal__in_cone": False},
            {"certificate__pass": False},
            {"certificate__margin": 0.4},
            {"schema": 2},
        ],
    )
    def test_corrupted_solve_report_fails(self, solved, tmp_path, change):
        req, out = solved
        copy = _copy(out, tmp_path)
        _edit(copy / "report.json", **change)
        assert checks.check(req, 0, str(copy)).problems

    def test_exit_code_and_missing_or_broken_files_fail(self, solved, tmp_path):
        req, out = solved
        assert checks.check(req, 1, str(out)).problems
        copy = _copy(out, tmp_path)
        (copy / "report.json").write_text('{"distinct": tr')
        assert checks.check(req, 0, str(copy)).problems
        (copy / "second.csv").unlink()
        assert checks.check(req, 0, str(copy)).problems

    @pytest.mark.parametrize("scalar", [False, True])
    def test_sweep_fold_checks(self, tmp_path, scalar):
        req = workloads._sweep(random.Random(0), 1.5, 65, 3.0, scalar)
        out = tmp_path / "run"
        assert _run(req, out) == 0
        verdict = checks.check(req, 0, str(out))
        assert verdict.problems == []
        assert (verdict.fold_rel_err is not None) == scalar
        doc = json.loads((out / "fold.json").read_text())
        # a full-problem fold below lambda_cert breaks guarantee 8, and so
        # does a scalar fold 1e-5 away from its closed form
        low = doc["lambda_cert"] * (1.0 - 1e-5)
        _edit(out / "fold.json", fold_estimate=low)
        assert checks.check(req, 0, str(out)).problems
        _edit(out / "fold.json", fold_estimate=doc["fold_estimate"], bracketed=False)
        assert checks.check(req, 0, str(out)).problems

    def test_failed_lemma_battery_fails(self, tmp_path):
        req = workloads._battery_item(random.Random(0), "lemmas", 0.5)
        out = tmp_path / "run"
        assert _run(req, out) == 0
        assert checks.check(req, 0, str(out)).problems == []
        _edit(out / "lemmas.json", **{"pass": False})
        assert checks.check(req, 0, str(out)).problems

    def test_torsion_oracle_is_tight(self):
        assert checks.torsion_error(1.37, 65) < checks.TORSION_TOL


class TestTracer:
    def test_traced_reports_are_byte_identical(self, tmp_path):
        req = workloads._solve(random.Random(5), 65, 2.0, "plateau")
        out = tmp_path / "run"
        assert _run(req, out) == 0
        names = checks.OUTPUTS["solve"]
        before = {n: (out / n).read_bytes() for n in names}
        original = bifrac.greenop.green_ball
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert bifrac.greenop.green_ball is not original
            assert bifrac.greenop.green_ball is bifrac.kernels.green_ball
            with tracer.request(1):
                assert _run(req, out) == 0
        finally:
            tracer.uninstall()
        assert bifrac.greenop.green_ball is original
        for n in names:
            assert (out / n).read_bytes() == before[n], n
        recorded = Counter(s[0] for s in tracer.spans)
        assert recorded["cli.main"] == 1
        assert recorded["greenop.get_operator"] > 0
        assert recorded["kernels.frac_laplacian_pv"] > 0
        assert all(s[4] == 1 for s in tracer.spans)

    def test_no_spans_outside_a_request(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            bifrac.greenop.gamma_U(0.5, bifrac.KernelParams(alpha=1.5))
        finally:
            tracer.uninstall()
        assert tracer.spans == []

    def test_self_time_and_hit_ratio(self):
        # get_operator [0, 10] builds [1, 9], which evaluates green_ball [2, 6];
        # a second get_operator [11, 12] is a cache hit
        recs = [
            ["greenop.get_operator", 0.0, 10.0, None, 1, None],
            [spans.BUILD, 1.0, 9.0, 0, 1, {"n": 65}],
            ["kernels.green_ball", 2.0, 6.0, 1, 1, {"points": 100}],
            ["greenop.get_operator", 11.0, 12.0, None, 1, None],
        ]
        m = spans.layer_metrics(recs)
        assert m["greenop.build.self_s"] == 4.0
        assert m["greenop.build.mean_s.n65"] == 8.0
        assert m["kernels.green_ball.self_s"] == 4.0
        assert m["kernels.green_ball.ns_per_point"] == pytest.approx(4e9 / 100)
        assert m["greenop.get_operator.hit_ratio"] == 0.5
        assert m["greenop.operator_builds"] == 1
        assert m["greenop.self_s"] == 7.0
        assert m["trace.wall_s"] == 11.0


class TestWorkloads:
    @pytest.mark.parametrize("name", workloads.WORKLOADS)
    def test_same_seed_same_requests(self, name):
        assert workloads.first_requests(name, 7, 60) == workloads.first_requests(name, 7, 60)
        assert workloads.warmup(name, 7) == workloads.warmup(name, 7)
        assert workloads.first_requests(name, 7, 60) != workloads.first_requests(name, 8, 60)

    def test_cycles_keep_their_mix(self):
        for seed in range(3):
            gen = workloads.cycles("scan-cold", seed)
            for _ in range(3):
                assert Counter(r.grid_n for r in next(gen)) == {65: 18, 129: 6, 257: 1}
            cycle = next(workloads.cycles("fold-warm", seed))
            assert sum(r.scalar for r in cycle) == 3 and len(cycle) == 21
            cycle = next(workloads.cycles("battery", seed))
            assert Counter(r.kind for r in cycle) == {"lemmas": 3, "certify": 6}
            assert cycle[0].kind == "lemmas"

    def test_scan_cold_alphas_are_fresh(self):
        reqs = workloads.first_requests("scan-cold", 3, 200)
        assert len({r.alpha for r in reqs}) == 200
        assert all(workloads.ALPHA_MIN <= r.alpha <= workloads.ALPHA_MAX for r in reqs)


def test_a_slow_cycle_does_not_move_the_percentiles():
    import run

    # scan-cold's shape: 18 fast, six middling and one slow request a cycle
    cycle = [0.1] * 18 + [0.2] * 6 + [0.6]
    result = {"latencies": cycle * 5, "cycle_lengths": [25] * 5, "peak_rss_mb": 1.0}
    steady = run.end_to_end(result, 0.3)
    result["latencies"] = cycle * 4 + [2.0 * t for t in cycle]
    assert run.end_to_end(result, 0.3) == steady
    assert steady["latency_p50_s"] == pytest.approx(0.1)
    assert steady["latency_p90_s"] == pytest.approx(0.2)
    assert steady["throughput_rps"] == pytest.approx(25 / sum(cycle))


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
