"""Seeded request mixes for the benchmark.

A workload is an endless sequence of cycles.  Each cycle holds a fixed
multiset of request classes (subcommand, grid size, exponent, and so on)
in a seeded order, with the remaining parameters drawn from the seed.
Runs always end on a cycle boundary, so every run of a workload sees the
same mix and the percentiles land at the same place in it whatever the
seed; the seed moves only the draws inside the classes.

Every request uses the default `--h-amplitude auto` (certificate margin
1/2), so each one is expected to exit 0.  The program only ever sees the
generated argv plus the `--outdir` the runner appends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

ALPHA_MIN, ALPHA_MAX = 1.05, 1.95  # the solver window
PROFILES = ("bump", "torsion", "plateau")
EXPONENTS = (1.5, 2.0, 3.0)

# fold-warm: the operator is built once per (alpha, n) and then reused
FOLD_ALPHAS = (1.2, 1.5, 1.8)
FOLD_GRIDS = (65, 129)

# battery: two certify requests per lemmas request, so the median falls
# inside the certify class and p90 inside the lemmas class
BATTERY_HALF_WIDTHS = (0.3, 0.5, 0.7)


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv (without --outdir) and the facts a check needs."""

    kind: str
    argv: tuple
    alpha: float
    grid_n: int
    scalar: bool = False


def _num(x: float) -> str:
    return repr(float(x))


def _fresh_alpha(rng: random.Random) -> float:
    return rng.uniform(ALPHA_MIN, ALPHA_MAX)


def _solve(rng, n, p, profile):
    alpha = _fresh_alpha(rng)
    argv = (
        "solve", "--alpha", _num(alpha), "--p", _num(p),
        "--h-profile", profile, "--grid-n", str(n),
    )
    return Request("solve", argv, alpha, n)


def _pairs(rng, first, second):
    """Each item of `first` with a distinct item of `second`, randomly matched."""
    second = list(second)
    rng.shuffle(second)
    return list(zip(first, second))


def _sweep(rng, alpha, n, p, scalar, profile=None):
    # guarantee 8 places the fold in [0.8, 4] x lambda_cert, and with the
    # auto amplitude lambda_cert = 2^(1/(p-1)) for every alpha and profile
    lam_cert = 2.0 ** (1.0 / (p - 1.0))
    argv = (
        "sweep", "--alpha", _num(alpha), "--p", _num(p),
        "--h-profile", profile or rng.choice(PROFILES), "--grid-n", str(n),
        "--lambda-lo", _num(0.8 * lam_cert), "--lambda-hi", _num(4.0 * lam_cert),
    )
    if scalar:
        argv += ("--scalar",)
    return Request("sweep", argv, alpha, n, scalar)


def _battery_item(rng, kind, a_half):
    alpha = _fresh_alpha(rng)
    argv = (
        kind, "--alpha", _num(alpha), "--a-half", _num(a_half),
        "--seed", str(rng.randrange(2**31)),
    )
    return Request(kind, argv, alpha, 65)


def _scan_cold_cycle(rng):
    # eighteen n = 65 requests (every p with every profile, twice), six
    # n = 129 and one n = 257, so the median falls inside the n = 65 class
    # and p90 inside the n = 129 class.  n = 257 stays rare: its assembly
    # streams MB-sized temporaries, and across ten runs on a shared 2-vCPU
    # AMD EPYC VM its median latency spread 18 % (IQR over median) against
    # 5 % for the smaller grids.  At one in 13 requests it took 30 % of the
    # run time and doubled the spread of throughput; at one in 25, 18 %
    specs = [(65, p, prof) for p in EXPONENTS for prof in PROFILES] * 2
    for _ in range(2):
        specs += [(129, p, prof) for p, prof in _pairs(rng, EXPONENTS, PROFILES)]
    specs.append((257, rng.choice(EXPONENTS), rng.choice(PROFILES)))
    rng.shuffle(specs)
    return [_solve(rng, *spec) for spec in specs]


def _fold_warm_cycle(rng):
    # every (alpha, n, p) once as a full-problem sweep, the three alphas of
    # each (n, p) on the three profiles, plus one scalar sweep per p.  A
    # scalar share of 1/7 keeps p50 on the full sweeps and p90 on the
    # scalar ones, and puts more than ten requests beyond p90 in a run of
    # five cycles, the fewest that reach the runner's 100-request minimum
    specs = [
        (a, n, p, False, prof)
        for n in FOLD_GRIDS
        for p in EXPONENTS
        for a, prof in _pairs(rng, FOLD_ALPHAS, PROFILES)
    ]
    specs += [(rng.choice(FOLD_ALPHAS), rng.choice(FOLD_GRIDS), p, True) for p in EXPONENTS]
    rng.shuffle(specs)
    return [_sweep(rng, *spec) for spec in specs]


def _battery_cycle(rng):
    lemmas = list(BATTERY_HALF_WIDTHS)
    certify = list(BATTERY_HALF_WIDTHS) * 2
    rng.shuffle(lemmas)
    rng.shuffle(certify)
    cycle = []
    for i, a_half in enumerate(lemmas):
        cycle.append(_battery_item(rng, "lemmas", a_half))
        cycle += [_battery_item(rng, "certify", c) for c in certify[2 * i : 2 * i + 2]]
    return cycle


_CYCLES = {
    "scan-cold": _scan_cold_cycle,
    "fold-warm": _fold_warm_cycle,
    "battery": _battery_cycle,
}
WORKLOADS = tuple(_CYCLES)


def cycles(workload: str, seed: int):
    """Endless cycles of requests, a pure function of (workload, seed)."""
    make = _CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


def warmup(workload: str, seed: int) -> list:
    """Untimed requests that finish lazy imports and first-call set-up.

    The first request on a grid size runs about 40 % slower than later
    ones, so scan-cold warms up once per size.  For fold-warm they also
    build the six operators a library session would already hold, with
    one cheap p = 3 sweep per (alpha, n).
    """
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "fold-warm":
        return [_sweep(rng, a, n, 3.0, False) for a in FOLD_ALPHAS for n in FOLD_GRIDS]
    if workload == "battery":
        return [_battery_item(rng, "lemmas", 0.5), _battery_item(rng, "certify", 0.5)]
    return [_solve(rng, n, 2.0, "bump") for n in (65, 129, 257)]


def first_requests(workload: str, seed: int, count: int) -> list:
    """The first `count` timed requests of a run, in order."""
    flat = (req for cycle in cycles(workload, seed) for req in cycle)
    return list(islice(flat, count))
