"""One pass of a workload: a single-threaded closed-loop client in process.

The client calls `bifrac.cli.main(argv)` for one request at a time and
times only that call.  Each request writes into a fresh directory (on
some filesystems overwriting a non-empty file costs tens of ms, which
would time the filesystem instead of bifrac).  Validation, the torsion
oracle and the memory reading happen between requests, outside the
timed region.
"""

from __future__ import annotations

import os
import resource
import time
import traceback
from contextlib import nullcontext

import checks
import workloads

# peak RSS is read after this many timed requests, not at the end: the
# process caches every operator it builds, so a reading at the end of a
# fixed-time run would grow with throughput
RSS_AFTER = 30


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Client:
    def __init__(self, outroot):
        from bifrac import cli

        self.cli = cli
        self.outroot = outroot
        self.tracer = None
        self.count = 0
        self.failed = 0
        self.problems = []
        self.torsion = {}
        self.strong_residual_max = 0.0
        self.fold_rel_err_max = 0.0

    def execute(self, req) -> float:
        """Run one request, validate it, and return its wall time in s."""
        self.count += 1
        outdir = os.path.join(self.outroot, f"r{self.count:05d}")
        os.makedirs(outdir)
        argv = [*req.argv, "--outdir", outdir]
        scope = self.tracer.request(self.count) if self.tracer else nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with scope:
                rc = self.cli.main(argv)
        except Exception:  # a crash is a failed request; the run goes on
            rc, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0

        verdict = checks.check(req, rc, outdir)
        if error:
            verdict.problems.append(f"raised: {error}")
        key = (req.alpha, req.grid_n)
        if key not in self.torsion and rc == 0:
            self.torsion[key] = checks.torsion_error(req.alpha, req.grid_n)
            if not self.torsion[key] < checks.TORSION_TOL:
                verdict.problems.append(f"torsion oracle error {self.torsion[key]:.3g}")
        if verdict.strong_residual is not None:
            self.strong_residual_max = max(self.strong_residual_max, verdict.strong_residual)
        if verdict.fold_rel_err is not None:
            self.fold_rel_err_max = max(self.fold_rel_err_max, verdict.fold_rel_err)
        if verdict.problems:
            self.failed += 1
            self.problems.append(f"{' '.join(req.argv)}: {'; '.join(verdict.problems)}")
        return elapsed


def run_pass(workload, seed, outroot, seconds=0.0, min_requests=0, count=None, tracer=None) -> dict:
    """Warm up, then time requests for `seconds`, or for exactly `count` requests.

    A time-bounded pass ends on a cycle boundary once both `seconds` of
    request time and `min_requests` requests are done.  With a tracer
    the spans of the timed requests are recorded.
    """
    client = _Client(outroot)
    for req in workloads.warmup(workload, seed):
        client.execute(req)
    if count is None:
        batches = workloads.cycles(workload, seed)
    else:
        batches = [workloads.first_requests(workload, seed, count)]
    if tracer is not None:
        tracer.install()
        client.tracer = tracer

    latencies = []
    argvs = []
    cycle_lengths = []
    rss_mb = None
    try:
        for batch in batches:
            start = len(latencies)
            for req in batch:
                latencies.append(client.execute(req))
                argvs.append(" ".join(req.argv))
                if len(latencies) == RSS_AFTER:
                    rss_mb = _peak_rss_mb()
            cycle_lengths.append(len(latencies) - start)
            if count is None and sum(latencies) >= seconds and len(latencies) >= min_requests:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "latencies": latencies,
        "argvs": argvs,
        "cycle_lengths": cycle_lengths,
        "attempted": client.count,
        "failed": client.failed,
        "problems": client.problems,
        "peak_rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
        "torsion_err_max": max(client.torsion.values(), default=0.0),
        "strong_residual_max": client.strong_residual_max,
        "fold_rel_err_max": client.fold_rel_err_max,
    }


if __name__ == "__main__":
    # an untraced pass in a fresh interpreter, for the traced run's baseline:
    # session.py WORKLOAD SEED OUTROOT SECONDS
    import json
    import sys

    name, seed, outroot, seconds = sys.argv[1:]
    print(json.dumps(run_pass(name, int(seed), outroot, seconds=float(seconds))))
