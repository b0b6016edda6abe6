"""Before-and-after timings of bifrac for one change, written to one JSON file.

Usage, from the root of the repository:

    python3 tools/bench_pr.py --out BENCH.json --base HEAD~1
    python3 tools/bench_pr.py --out bench.json --seconds 2 --pairs 1   # this tree alone

The working tree is the "head" side.  With `--base REV` the "base" side
is that commit, extracted with `git archive` into a temporary directory,
and every measurement alternates between the two sides, switching which
runs first.  For each side the file holds:

- `fresh_s`: the best of 5 wall times of `python -m bifrac.cli CMD` as a
  fresh process, for the six subcommands in COMMANDS (one untimed run
  first fills the bytecode cache);
- `warm_s`: the median in-process time of `bifrac.cli.main` on the same
  commands, over 3 interpreters per side with one untimed call of each
  command first;
- `workloads`: for each workload of BENCHMARK.json, the end-to-end
  metrics of `perfbench/run.py` (its own copy on each side), one entry
  per pair of runs;
- `layers`: for each workload, the per-layer metrics of one
  `perfbench/run.py --trace 1` run (calls, points and self times per
  layer and function, as BENCHMARK.json's `per_layer` lists them);
- `src_lines`: the line count of `src/`, counted as run.py counts it.

`machine` is run.py's metadata without the fields of one run (commit,
workload, seed and so on).  Every child process gets one BLAS thread, as
run.py sets for itself.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {
    "certify": ["certify"],
    "solve": ["solve"],
    "lemmas": ["lemmas"],
    "sweep": ["sweep"],
    "sweep --scalar": ["sweep", "--scalar"],
    "solve --grid-n 257": ["solve", "--grid-n", "257"],
}
FRESH_REPEATS = 5
# warm interpreters per side, and timed calls of each command in each
WARM_ROUNDS = 3
WARM_REPEATS = 15
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# run.py metadata that describes one run, not the machine
RUN_FIELDS = ("git_commit", "src_lines", "workload", "seed", "seconds", "trace", "timed_requests")

# runs in a child interpreter: argv[1] is the output directory, argv[2] the
# repeat count, stdin the commands as JSON; prints the times as JSON
WARM_CHILD = """
import json, sys, time
from bifrac.cli import main
outdir, repeats, commands = sys.argv[1], int(sys.argv[2]), json.load(sys.stdin)
out = {}
for name, argv in commands.items():
    argv = argv + ["--outdir", outdir]
    if main(argv) != 0:
        sys.exit(f"{name}: nonzero exit")
    out[name] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        main(argv)
        out[name].append(time.perf_counter() - t0)
print(json.dumps(out))
"""


class Side:
    """One source tree under test and the measurements taken on it."""

    def __init__(self, name: str, root: Path, rev: str):
        self.name, self.root, self.rev = name, root, rev
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_THREADS)
        self.fresh = {cmd: [] for cmd in COMMANDS}
        self.warm = {cmd: [] for cmd in COMMANDS}
        self.workloads = {}
        self.layers = {}
        self.meta = None

    def run(self, argv, **kw):
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=900, **kw)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.name}: {' '.join(argv[1:])} failed:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def cli(self, argv, outdir) -> float:
        t0 = time.perf_counter()
        self.run([sys.executable, "-m", "bifrac.cli", *argv, "--outdir", outdir])
        return time.perf_counter() - t0

    def perfbench(self, workload: str, seed: int, seconds: float, trace: int) -> dict:
        """The metrics of one run.py run, which must report no failed request."""
        out = self.run([sys.executable, str(self.root / "perfbench" / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)])
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        if result["correct"] is not True:
            raise RuntimeError(f"{self.name}: {workload} reported failed requests")
        if self.meta is None:
            self.meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
        return {name: m["value"] for name, m in result["metrics"].items()}

    def workload(self, workload: str, seed: int, seconds: float):
        self.workloads.setdefault(workload, []).append(self.perfbench(workload, seed, seconds, 0))

    def trace(self, workload: str, seed: int, seconds: float):
        self.layers[workload] = self.perfbench(workload, seed, seconds, 1)

    def src_lines(self) -> int:
        return sum(len(p.read_text().splitlines()) for p in sorted((self.root / "src").rglob("*.py")))

    def report(self) -> dict:
        return {
            "rev": self.rev,
            "src_lines": self.src_lines(),
            "fresh_s": {cmd: min(times) for cmd, times in self.fresh.items()},
            "warm_s": {cmd: statistics.median(times) for cmd, times in self.warm.items()},
            "workloads": self.workloads,
            "layers": self.layers,
        }


def alternate(sides, index):
    """The sides in the order of measurement `index`: who goes first alternates."""
    return sides if index % 2 == 0 else sides[::-1]


def git_rev(root: Path, rev: str) -> str:
    proc = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=root,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"unknown revision {rev!r}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def extract(rev: str, dest: Path):
    """The files of commit `rev` under dest, as `git archive` gives them."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev} failed: {proc.stderr.decode()[-500:]}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def measure(sides, args, workdir: Path):
    outdir = str(workdir / "out")
    for side in sides:
        for argv in COMMANDS.values():  # fill the bytecode caches
            side.cli(argv, outdir)
    for i in range(FRESH_REPEATS):
        for cmd, argv in COMMANDS.items():
            for side in alternate(sides, i):
                side.fresh[cmd].append(side.cli(argv, outdir))
    for i in range(WARM_ROUNDS):
        for side in alternate(sides, i):
            out = side.run([sys.executable, "-c", WARM_CHILD, outdir, str(WARM_REPEATS)],
                           input=json.dumps(COMMANDS))
            for cmd, times in json.loads(out.strip().splitlines()[-1]).items():
                side.warm[cmd] += times
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        for i in range(args.pairs):
            for side in alternate(sides, i):
                side.workload(workload, args.seed, args.seconds)
                print(f"{side.name} {workload} {i}: {side.workloads[workload][-1]}", file=sys.stderr)
        for side in alternate(sides, workloads.index(workload)):
            side.trace(workload, args.seed, args.seconds)


def summary(doc) -> str:
    sides = doc["sides"]
    names = list(sides)
    lines = [f"{'':48s}" + "".join(f"{name:>14s}" for name in names)]
    for key in ("fresh_s", "warm_s"):
        for cmd in COMMANDS:
            label = f"{key} {cmd}"
            lines.append(f"{label:48.48s}" + "".join(f"{sides[n][key][cmd]:14.4g}" for n in names))
    for workload in next(iter(sides.values()))["workloads"]:
        metrics = sides[names[0]]["workloads"][workload][0]
        for metric in metrics:
            vals = [statistics.median(run[metric] for run in sides[n]["workloads"][workload]) for n in names]
            label = f"{workload} {metric}"
            lines.append(f"{label:48.48s}" + "".join(f"{v:14.4g}" for v in vals))
    for workload, metrics in next(iter(sides.values()))["layers"].items():
        for metric in metrics:
            vals = [sides[n]["layers"][workload][metric] for n in names]
            label = f"{workload} {metric}"
            lines.append(f"{label:48.48s}" + "".join(f"{v:14.4g}" for v in vals))
    lines.append("src_lines".ljust(48) + "".join(f"{sides[n]['src_lines']:14d}" for n in names))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--base", help="commit to compare the working tree with")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of each workload run")
    parser.add_argument("--pairs", type=int, default=3, help="workload runs per side")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pr_") as tmp:
        workdir = Path(tmp)
        sides = []
        if args.base:
            rev = git_rev(ROOT, args.base)
            extract(rev, workdir / "base")
            sides.append(Side("base", workdir / "base", rev))
        head_rev = git_rev(ROOT, "HEAD") if (ROOT / ".git").exists() else "unknown"
        sides.append(Side("head", ROOT, f"working tree on {head_rev}"))
        measure(sides, args, workdir)
        doc = {
            "schema": 1,
            "machine": {k: v for k, v in sides[0].meta.items() if k not in RUN_FIELDS},
            "settings": {"seconds": args.seconds, "pairs": args.pairs, "seed": args.seed,
                         "fresh_repeats": FRESH_REPEATS, "warm_rounds": WARM_ROUNDS,
                         "warm_repeats": WARM_REPEATS},
            "sides": {side.name: side.report() for side in sides},
        }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(summary(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
