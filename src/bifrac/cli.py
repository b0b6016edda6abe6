"""Command line front end: kernel tables, certificates, solves, sweeps.

Exit codes follow a three-way contract so shells can branch on the
mathematical outcome: 0 means the requested property holds, 1 means the
computation ran but the property failed (certificate rejected, second
branch missing, battery violation), 2 means the request itself was
malformed.  Every JSON report carries `schema: 1` and the configuration
that produced it; identical configuration and seed give byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cone import ConeSpec, verify_invariance
from .greenop import GridFunction, _write_csv_lines, apply_green, make_grid, operator_norm_b
from .kernels import (
    KernelParams,
    _GreenPlan,
    green_ball,
    poisson_ball,
    poisson_total_mass,
    w_factor,
)
from .scalar import critical_constant
from .solver import certify, fold_sweep, newton_second, picard_minimal, residual_strong

__all__ = ["RunConfig", "lemma_battery", "main"]


def _bump(x, alpha):
    return 1.0 - x**2


def _torsion_profile(x, alpha):
    return (1.0 - x**2) ** (alpha / 2.0)


def _plateau(x, alpha):
    return np.minimum(1.0, 2.0 * (1.0 - np.abs(x)))


PROFILES = {"bump": _bump, "torsion": _torsion_profile, "plateau": _plateau}

# default thresholds of the lemma battery, overridable per item or wholesale
BATTERY_TOL = {
    "green_ratio": 2e-2,
    "unimodality": 1e-9,
    "reflection": 1e-10,
    "kul": 1e-10,
    "poisson": 1e-6,
    "invariance": 1e-8,
}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_amplitude(text: str):
    return None if text.strip().lower() == "auto" else float(text)


def _parse_tolerance(text: str) -> dict:
    item, _, num = text.partition("=")
    if not num or item not in (*BATTERY_TOL, "all"):
        raise ValueError(f"expected ITEM=VALUE with ITEM in {sorted((*BATTERY_TOL, 'all'))}, got {text!r}")
    return {item: float(num)}


def _setting(flag: str, parse, help: str, commands=None, **argparse_kw) -> dict:
    """Field metadata: the flag, the parser of its text, help, and the
    subcommands that take it (None: all).  A config-file value goes
    through the same parser under the field name as its key."""
    return {"flag": flag, "parse": parse, "help": help, "commands": commands, "argparse": argparse_kw}


_SWEEP = ("sweep",)


@dataclass
class RunConfig:
    """Settings of one run; each field's metadata declares its flag (see _setting)."""

    alpha: float = field(default=1.5, metadata=_setting("--alpha", float, "order of the operator"))
    p: float = field(default=2.0, metadata=_setting("--p", float, "power of the nonlinearity"))
    grid_n: int = field(default=65, metadata=_setting("--grid-n", int, "grid size (odd, >= 33)"))
    a_half: float = field(
        default=0.5, metadata=_setting("--a-half", float, "half-width of the core interval")
    )
    h_profile: str = field(
        default="bump",
        metadata=_setting("--h-profile", str, "named forcing profile", choices=sorted(PROFILES)),
    )
    # None scales for certificate margin 1/2
    h_amplitude: float | None = field(
        default=None, metadata=_setting("--h-amplitude", _parse_amplitude, "forcing amplitude, or 'auto'")
    )
    h_csv: str | None = field(
        default=None, metadata=_setting("--h-csv", str, "forcing from a CSV file (overrides profile)")
    )
    seed: int = field(default=0, metadata=_setting("--seed", int, "seed for all sampling"))
    samples: int = field(
        default=100, metadata=_setting("--samples", int, "sample count for batteries and probes")
    )
    solve_tol: float = field(default=1e-12, metadata=_setting("--solve-tol", float, "fixed point tolerance"))
    lambda_lo: float = field(
        default=0.25, metadata=_setting("--lambda-lo", float, "lower end of the sweep", _SWEEP)
    )
    lambda_hi: float = field(
        default=4.0, metadata=_setting("--lambda-hi", float, "upper end of the sweep", _SWEEP)
    )
    steps: int = field(default=9, metadata=_setting("--steps", int, "coarse sweep points", _SWEEP))
    scalar: bool = field(
        default=False,
        metadata=_setting("--scalar", _parse_bool, "sweep the scalar model instead", _SWEEP,
                          action="append_const", const="true"),
    )
    output_dir: str | None = field(
        default=None, metadata=_setting("--outdir", str, "output directory (or $BIFRAC_OUTDIR)")
    )
    # file keys are tol_ITEM; file and flags merge item by item
    tolerances: dict = field(
        default_factory=dict,
        metadata=_setting("--tol", _parse_tolerance, "battery tolerance override, ITEM may be 'all'",
                          metavar="ITEM=VALUE"),
    )

    def validate(self):
        """Reject settings the CLI cannot run on; the solver window and the
        grid size are the library's own checks."""
        self.kernel_params().require_solver_window()
        make_grid(self.grid_n)
        if not 1.0 < self.p <= 4.0:
            raise ValueError(f"p must lie in (1, 4], got {self.p}")
        if not 0.0 < self.a_half < 1.0:
            raise ValueError(f"a_half must lie in (0,1), got {self.a_half}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.h_profile not in PROFILES:
            raise ValueError(f"unknown profile {self.h_profile!r}, pick from {sorted(PROFILES)}")
        if self.h_amplitude is not None and not (math.isfinite(self.h_amplitude) and self.h_amplitude >= 0):
            raise ValueError(f"h_amplitude must be finite and >= 0, got {self.h_amplitude}")
        for name in ("lambda_lo", "lambda_hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (math.isfinite(self.solve_tol) and self.solve_tol > 0):
            raise ValueError(f"solve_tol must be finite and positive, got {self.solve_tol}")
        for item, val in self.tolerances.items():
            if not (math.isfinite(val) and val >= 0):
                raise ValueError(f"tolerance {item} must be finite and >= 0, got {val}")

    def kernel_params(self) -> KernelParams:
        return KernelParams(alpha=self.alpha)

    def tol(self, item: str) -> float:
        return float(self.tolerances.get(item, self.tolerances.get("all", BATTERY_TOL[item])))


def read_config_file(path: str) -> dict:
    """Flat key=value lines; # starts a comment, blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then explicit flags.

    Flag text and file values go through the parser their field declares;
    each setting names its source (flag or file key) in its errors.
    """
    cfg = RunConfig()
    by_name = {f.name: f for f in fields(cfg)}
    settings = []
    for key, text in (read_config_file(args.config) if args.config else {}).items():
        name = key
        if key.startswith("tol_"):  # tol_ITEM = VALUE reads as --tol ITEM=VALUE
            name, text = "tolerances", f"{key[4:]}={text}"
        if name not in by_name or key == "tolerances":
            raise ValueError(f"unknown config key {key!r}")
        settings.append((key, by_name[name], text))
    for f in by_name.values():
        settings += [(f.metadata["flag"], f, text) for text in getattr(args, f.name, None) or []]
    for source, f, text in settings:
        try:
            value = f.metadata["parse"](text)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
        if isinstance(value, dict):
            getattr(cfg, f.name).update(value)
        else:
            setattr(cfg, f.name, value)
    return cfg


def _resolve_outdir(cfg: RunConfig) -> str:
    out = cfg.output_dir or os.environ.get("BIFRAC_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_report(path: str, payload: dict, cfg: RunConfig):
    doc = dict(payload)
    doc["schema"] = 1
    doc["config"] = asdict(cfg)
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_forcing(cfg: RunConfig, kp: KernelParams) -> GridFunction:
    """The forcing h from the configured profile or CSV file."""
    if cfg.h_csv is not None:
        h = GridFunction.read_csv(cfg.h_csv)
        if h.grid.n != cfg.grid_n:
            # the report embeds grid_n, so it must be the size of the run
            raise ValueError(f"{cfg.h_csv} has {h.grid.n} nodes but grid_n is {cfg.grid_n}")
        return h
    grid = make_grid(cfg.grid_n)
    profile = GridFunction.from_callable(grid, lambda x: PROFILES[cfg.h_profile](x, kp.alpha))
    if cfg.h_amplitude is not None:
        return profile.with_values(cfg.h_amplitude * profile.values)
    # pick the amplitude that puts the certificate at half its threshold
    s = apply_green(profile, kp).sup_norm
    b = operator_norm_b(kp, cfg.p)
    amp = (critical_constant(cfg.p) / (2.0 * b)) ** (1.0 / (cfg.p - 1.0)) / s
    return profile.with_values(amp * profile.values)


def cmd_kernel(cfg: RunConfig, args) -> int:
    kp = KernelParams(alpha=cfg.alpha)  # full kernel range (0,2), no solver window
    rows = []
    for spec_str in args.green or []:
        x, y = _parse_floats(spec_str, 2, "--green")
        rows.append(("green", x, y, "", float(green_ball(x, y, kp))))
    for spec_str in args.w or []:
        x, y = _parse_floats(spec_str, 2, "--w")
        rows.append(("w", x, y, "", float(w_factor(x, y))))
    for spec_str in args.poisson or []:
        x, y, r = _parse_floats(spec_str, 3, "--poisson")
        rows.append(("poisson", x, y, f"{r:.17g}", float(poisson_ball(x, y, r, kp))))
    if not rows:
        raise ValueError("nothing to evaluate: pass --green, --w or --poisson points")
    lines = (f"{kind},{x:.17g},{y:.17g},{r},{value:.17g}" for kind, x, y, r, value in rows)
    _write_csv_lines(os.path.join(_resolve_outdir(cfg), "kernel.csv"), ["kind,x,y,r,value", *lines])
    return 0


def _parse_floats(text: str, count: int, flag: str):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} expects {count} comma-separated numbers, got {text!r}")
    try:
        nums = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag}: could not parse numbers from {text!r}") from None
    if not all(map(math.isfinite, nums)):
        # a NaN or infinite point would run on to a value of 0 or nan
        raise ValueError(f"{flag}: numbers must be finite, got {text!r}")
    return nums


def cmd_certify(cfg: RunConfig, args) -> int:
    cfg.validate()
    kp = cfg.kernel_params()
    h = build_forcing(cfg, kp)
    report = certify(h, cfg.p, ConeSpec.for_kernel(kp, a_half=cfg.a_half), kp)
    write_report(
        os.path.join(_resolve_outdir(cfg), "certificate.json"),
        {"certificate": report.to_dict()},
        cfg,
    )
    return 0 if report.passed else 1


def cmd_solve(cfg: RunConfig, args) -> int:
    cfg.validate()
    kp = cfg.kernel_params()
    h = build_forcing(cfg, kp)
    outdir = _resolve_outdir(cfg)
    cert = certify(h, cfg.p, ConeSpec.for_kernel(kp, a_half=cfg.a_half), kp)

    if h.sup_norm == 0.0:
        trivial = picard_minimal(cert, tol=cfg.solve_tol)
        trivial.u.write_csv(os.path.join(outdir, "minimal.csv"))
        write_report(
            os.path.join(outdir, "report.json"),
            {
                "degenerate": True,
                "certificate": cert.to_dict(),
                "minimal": trivial.to_dict(),
            },
            cfg,
        )
        return 0

    rmin = picard_minimal(cert, tol=cfg.solve_tol)
    rsec = newton_second(cert, rmin, tol=cfg.solve_tol)
    residual_strong([res for res in (rmin, rsec) if res.converged], cert)
    separation = float(np.abs(rsec.u.values - rmin.u.values).max())
    sep_needed = (cert.radii.rho2 - cert.radii.rho1) if cert.passed else 1e-7
    distinct = rmin.converged and rsec.converged and separation > sep_needed

    rmin.u.write_csv(os.path.join(outdir, "minimal.csv"))
    rsec.u.write_csv(os.path.join(outdir, "second.csv"))
    write_report(
        os.path.join(outdir, "report.json"),
        {
            "degenerate": False,
            "certificate": cert.to_dict(),
            "minimal": rmin.to_dict(),
            "second": rsec.to_dict(),
            "separation": separation,
            "separation_required": sep_needed,
            "distinct": distinct,
        },
        cfg,
    )
    return 0 if distinct else 1


def _green_ratio_points(a_half: float):
    """The table's 161 x in U, an exact mirror, and its y in [0, 1): 201
    uniform points plus 120 graded to within 1e-9 of 1."""
    xp = np.linspace(0.0, a_half, 81)
    ys = np.concatenate([1.0 - np.geomspace(1e-9, 1.0, 120), np.linspace(0.0, 0.999, 201)])
    return np.concatenate([-xp[:0:-1], xp]), np.unique(ys)


@functools.lru_cache(maxsize=4)
def _green_ratio_plans(a_half: float) -> tuple:
    """Kernel plans of the ratio table over _green_ratio_points and of its
    row G(0, y), kept for the last few core widths."""
    xs, ys = _green_ratio_points(a_half)
    return _GreenPlan(xs[:, None], ys[None, :]), _GreenPlan(np.zeros_like(ys), ys)


def _green_ratio_table(a_half: float, kp: KernelParams) -> float:
    """Minimum of G(x,y)/G(0,y) over _green_ratio_points: the lemma's check
    on gamma_U.  G(-x,-y) equals G(x,y) bit for bit and the x grid is an
    exact mirror, so the y < 0 half of the table would repeat this half."""
    table, zero_row = _green_ratio_plans(a_half)
    return float((table.evaluate(kp).min(axis=0) / zero_row.evaluate(kp)).min())


@functools.cache
def _reflection_plans() -> tuple:
    """Kernel plans of the reflection and kul checks, one per subinterval
    W = (2z-1, 1), in W's unit coordinates, with W's radius.

    The unit coordinate grid must be exactly antisymmetric, otherwise
    reflected pairs near the diagonal differ at rounding level and the
    kernel's |x-y|^(alpha-1) cusp amplifies that far above the threshold.
    Each plan holds the reflected pairs (-S,-T), (S,T) and (-S,T), (S,-T),
    then kul's same side (S2,T2) and opposite side (-S2,T2) on the right
    half of W, with the coordinates green_interval would scale them to.
    Returns the size of S and the (radius, plan) pairs.
    """
    half = np.arange(1, 11) * 0.095
    st = np.concatenate([-half[::-1], [0.0], half])
    S, T = np.meshgrid(st, st, indexing="ij")
    s = np.linspace(0.025, 0.975, 39)
    S2, T2 = np.meshgrid(s, s, indexing="ij")
    sx = np.concatenate([a.ravel() for a in (-S, S, -S, S, S2, -S2)])
    tx = np.concatenate([a.ravel() for a in (-T, T, T, -T, T2, T2)])
    plans = []
    for z in (0.1, 0.3, 0.55):
        r = 1.0 - z
        # not sx itself: z + sx r shifted back and scaled differs in the last bit
        plans.append((r, _GreenPlan((z + sx * r - z) / r, (z + tx * r - z) / r)))
    return S.size, plans


def lemma_battery(cfg: RunConfig) -> dict:
    """The six numerical checks behind the existence machinery.

    Returns one entry per check with the worst observed violation, the
    threshold applied, and a verdict; `pass` on the top level requires
    all six.  Importable so the tests drive it directly.
    """
    cfg.validate()
    kp = cfg.kernel_params()
    grid = make_grid(cfg.grid_n)
    spec = ConeSpec.for_kernel(kp, a_half=cfg.a_half)
    items = {}

    g1 = spec.gamma
    g2 = _green_ratio_table(cfg.a_half, kp)
    rel = abs(g2 - g1) / g1 if g1 > 0 else float("inf")
    items["green_ratio"] = {
        "pass": g1 > 0 and rel <= cfg.tol("green_ratio"),
        "worst": rel,
        "threshold": cfg.tol("green_ratio"),
        "value": g1,
        "refined": g2,
    }

    # one draw of cone members serves unimodality (G u) and invariance
    inv = verify_invariance(cfg.p, spec, kp, cfg.samples, grid=grid, seed=cfg.seed)
    items["unimodality"] = {
        "pass": inv.linear_shape <= cfg.tol("unimodality"),
        "worst": inv.linear_shape,
        "threshold": cfg.tol("unimodality"),
        "samples": cfg.samples,
    }

    # reflection identities and kul's same-side dominance on subintervals
    # W = (2z-1, 1), one kernel call per z, scaled as green_interval does
    size, plans = _reflection_plans()
    worst_refl = worst_kul = 0.0
    for r, plan in plans:
        g = r ** (kp.alpha - 1.0) * plan.evaluate(kp)
        refl, kul = g[: 4 * size].reshape(4, -1), g[4 * size :].reshape(2, -1)
        both = np.abs(refl[0] - refl[1]).max()
        single = np.abs(refl[2] - refl[3]).max()
        worst_refl = max(worst_refl, float(both), float(single))
        worst_kul = max(worst_kul, float((kul[1] - kul[0]).max()))
    items["reflection"] = {
        "pass": worst_refl <= cfg.tol("reflection"),
        "worst": worst_refl,
        "threshold": cfg.tol("reflection"),
    }
    items["kul"] = {
        "pass": worst_kul <= cfg.tol("kul"),
        "worst": worst_kul,
        "threshold": cfg.tol("kul"),
    }

    mass = poisson_total_mass(np.array([0.0, 0.35, -0.6]), 1.0, kp)
    worst_mass = float(np.abs(mass - 1.0).max())
    items["poisson"] = {
        "pass": worst_mass <= cfg.tol("poisson"),
        "worst": worst_mass,
        "threshold": cfg.tol("poisson"),
    }

    items["invariance"] = {
        "pass": inv.failures == 0 and inv.worst_violation <= cfg.tol("invariance"),
        "worst": inv.worst_violation,
        "threshold": cfg.tol("invariance"),
        "failures": inv.failures,
    }

    return {"items": items, "pass": all(entry["pass"] for entry in items.values())}


def cmd_lemmas(cfg: RunConfig, args) -> int:
    report = lemma_battery(cfg)
    write_report(os.path.join(_resolve_outdir(cfg), "lemmas.json"), report, cfg)
    return 0 if report["pass"] else 1


def cmd_sweep(cfg: RunConfig, args) -> int:
    cfg.validate()
    kp = cfg.kernel_params()
    h_base = build_forcing(cfg, kp)
    result = fold_sweep(
        h_base,
        cfg.p,
        kp,
        cfg.lambda_lo,
        cfg.lambda_hi,
        cfg.steps,
        scalar_model=cfg.scalar,
    )
    outdir = _resolve_outdir(cfg)
    lines = (
        f"{pt.lam:.17g},{pt.n_found},{pt.sup_minimal:.17g},{pt.sup_second:.17g}" for pt in result.points
    )
    _write_csv_lines(os.path.join(outdir, "branches.csv"), ["lambda,n_found,sup_minimal,sup_second", *lines])
    write_report(
        os.path.join(outdir, "fold.json"),
        {
            "fold_estimate": result.fold_estimate,
            "fold_status": result.fold_status,
            "lambda_cert": result.lambda_cert,
            "bracketed": result.bracketed,
            "scalar_model": cfg.scalar,
        },
        cfg,
    )
    # failing to bracket the fold in the window is a finding, not an error
    return 0 if result.bracketed else 1


def _add_settings(parser: argparse.ArgumentParser, settings, commands=None):
    """Flags of the settings declared for `commands` (None: every subcommand)."""
    for f in settings:
        meta = f.metadata
        if meta["commands"] == commands:
            kw = {"action": "append", **meta["argparse"]}
            parser.add_argument(meta["flag"], dest=f.name, help=meta["help"], **kw)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    # every setting flag appends its text; build_config parses and layers it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    settings = fields(RunConfig)
    _add_settings(common, settings)

    parser = argparse.ArgumentParser(prog="bifrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", parents=[common], help="tabulate kernel values")
    pk.add_argument("--green", action="append", metavar="X,Y", help="Green function point")
    pk.add_argument("--w", action="append", metavar="X,Y", help="similarity variable point")
    pk.add_argument("--poisson", action="append", metavar="X,Y,R", help="Poisson kernel point")
    sub.add_parser("certify", parents=[common], help="run the radii certificate")
    sub.add_parser("solve", parents=[common], help="compute both solution branches")
    sub.add_parser("lemmas", parents=[common], help="run the lemma battery")
    pw = sub.add_parser("sweep", parents=[common], help="sweep the forcing amplitude for the fold")
    _add_settings(pw, settings, _SWEEP)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        # looked up per call, so a command wrapped after the parser was built runs wrapped
        return globals()[f"cmd_{args.command}"](cfg, args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
