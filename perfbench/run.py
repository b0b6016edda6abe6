"""Benchmark of bifrac: three seeded request mixes through the CLI entry point.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan-cold --seed 1 --seconds 25 --trace 0
    python -m pytest perfbench/tests        # tests of the benchmark itself

One single-threaded closed-loop client calls `bifrac.cli.main(argv)` in
process, one request at a time; a fresh interpreter plus `import bifrac`
costs about 0.3 s, which would otherwise be most of each request, and is
reported on its own as `setup_s`.  Every request is validated (see
checks.py).  The workloads, and why each exists, are listed in
BENCHMARK.json and built in workloads.py.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it first runs an untraced pass for half the time in a
fresh interpreter, then the same requests traced in this one (spans.py),
and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable table and the run metadata.  The metadata, per-request times
and (traced) spans are kept under `.perfbench/` in the repository root;
the request outputs are deleted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The client is one thread, so BLAS gets one too.  On a 2-vCPU AMD EPYC
# VM with OpenBLAS's default of one thread per core, an n = 257 solve took
# 0.77 s of wall and 1.5 s of CPU against 0.66 s of both single-threaded,
# and the figures then depend on what else runs on the other core.  Set before numpy loads;
# the set-up and baseline interpreters inherit it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 9
# a time-bounded pass runs until p90 has at least ten samples beyond it
MIN_REQUESTS = 100


def _env():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def measure_setup() -> float:
    """Median wall time of a fresh `python -m bifrac.cli --help`.

    That is interpreter start, `import bifrac` and building the CLI
    parser.  One untimed run first fills the bytecode cache.
    """
    cmd = [sys.executable, "-m", "bifrac.cli", "--help"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode()[-500:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def metadata() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "git_commit": commit,
        "src_lines": src_lines,
        "client": "1 process, 1 closed-loop client thread",
    }


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _split_cycles(latencies, lengths) -> list:
    out, start = [], 0
    for length in lengths:
        out.append(latencies[start : start + length])
        start += length
    return out


def end_to_end(result, setup_s) -> dict:
    # Every cycle holds the same mix, so each metric is taken per cycle and
    # the median over cycles is reported.  A slow spell on a shared host
    # (2x for a few seconds) then moves a few cycles, not the result.  A
    # percentile of all latencies pooled would not stay put: in scan-cold
    # the rare n = 257 solves sit a few % of the ranks above p90, so a spell
    # that lifts a few n = 65 solves over the n = 129 ones drags p90 towards
    # them.  Replaying recorded latencies with two such spells moved pooled
    # p90 by up to 75 % and the median of per-cycle p90 by 2 %.
    per_cycle = _split_cycles(result["latencies"], result["cycle_lengths"])
    return {
        "setup_s": setup_s,
        "throughput_rps": statistics.median(len(c) / sum(c) for c in per_cycle),
        "latency_p50_s": statistics.median(_quantile(c, 50) for c in per_cycle),
        "latency_p90_s": statistics.median(_quantile(c, 90) for c in per_cycle),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def accuracy(result) -> dict:
    return {
        "greenop.torsion_err_max": result["torsion_err_max"],
        "solver.strong_residual_max": result["strong_residual_max"],
        "solver.fold_rel_err_max": result["fold_rel_err_max"],
    }


def traced_run(args, workdir) -> tuple:
    """Untraced baseline pass in a fresh interpreter, then the same requests traced."""
    import session
    import spans

    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py"), args.workload, str(args.seed),
         str(workdir / "baseline"), str(args.seconds / 2.0)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"baseline pass failed: {proc.stderr[-2000:]}")
    base = json.loads(proc.stdout.strip().splitlines()[-1])
    count = len(base["latencies"])

    tracer = spans.Tracer()
    traced = session.run_pass(args.workload, args.seed, str(workdir / "traced"),
                              count=count, tracer=tracer)
    tracer.write_jsonl(workdir / "spans.jsonl")
    metrics = spans.layer_metrics(tracer.spans)
    metrics.update(accuracy(traced))
    metrics["trace.overhead_frac"] = sum(traced["latencies"]) / sum(base["latencies"]) - 1.0
    for key in ("attempted", "failed"):
        traced[key] += base[key]
    traced["problems"] = base["problems"] + traced["problems"]
    return traced, metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifrac" / "__init__.py").is_file():
        print(f"perfbench: no bifrac package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    meta = metadata()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)

    if args.trace:
        result, computed = traced_run(args, workdir)
        wanted = spec["per_layer"]
    else:
        import session

        setup_s = measure_setup()
        result = session.run_pass(args.workload, args.seed, str(workdir / "requests"),
                                  seconds=args.seconds, min_requests=MIN_REQUESTS)
        computed = end_to_end(result, setup_s)
        wanted = spec["end_to_end"]
    for sub in ("requests", "baseline", "traced"):
        shutil.rmtree(workdir / sub, ignore_errors=True)

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    timed = len(result["latencies"])
    meta["timed_requests"] = timed
    (workdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    with open(workdir / "requests.jsonl", "w") as fh:
        for argv, seconds in zip(result["argvs"], result["latencies"]):
            fh.write(json.dumps({"argv": argv, "seconds": seconds}) + "\n")

    print("meta " + json.dumps(meta))
    print(f"{args.workload}: {timed} timed requests, {result['attempted']} attempted, "
          f"{result['failed']} failed (fail_frac {result['failed'] / result['attempted']:.4g})")
    for name, val in metrics.items():
        print(f"  {name:40s} {val['value']:.6g} {val['unit']}")
    if not args.trace:
        for name, val in accuracy(result).items():
            print(f"  {name:40s} {val:.6g} 1")
    for problem in result["problems"][:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
