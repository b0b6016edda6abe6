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
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .cone import ConeSpec, check_membership, sample_cone, verify_invariance
from .greenop import (
    GridFunction,
    apply_green,
    gamma_U,
    make_grid,
    operator_norm_b,
    require_chebyshev,
)
from .kernels import (
    SOLVER_ALPHA_MAX,
    SOLVER_ALPHA_MIN,
    KernelParams,
    green_ball,
    green_interval,
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


@dataclass
class RunConfig:
    alpha: float = 1.5
    p: float = 2.0
    grid_n: int = 65
    a_half: float = 0.5
    h_profile: str = "bump"
    h_amplitude: float | None = None  # None scales for certificate margin 1/2
    h_csv: str | None = None
    seed: int = 0
    samples: int = 100
    solve_tol: float = 1e-12
    lambda_lo: float = 0.25
    lambda_hi: float = 4.0
    steps: int = 9
    scalar: bool = False
    output_dir: str | None = None
    tolerances: dict = field(default_factory=dict)

    def validate(self, solver: bool = True):
        if solver and not SOLVER_ALPHA_MIN <= self.alpha <= SOLVER_ALPHA_MAX:
            raise ValueError(
                f"alpha must lie in [{SOLVER_ALPHA_MIN}, {SOLVER_ALPHA_MAX}], got {self.alpha}"
            )
        if not 1.0 < self.p <= 4.0:
            raise ValueError(f"p must lie in (1, 4], got {self.p}")
        if self.grid_n % 2 == 0 or self.grid_n < 33:
            raise ValueError(f"grid_n must be odd and at least 33, got {self.grid_n}")
        if not 0.0 < self.a_half < 1.0:
            raise ValueError(f"a_half must lie in (0,1), got {self.a_half}")
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.h_profile not in PROFILES:
            raise ValueError(f"unknown profile {self.h_profile!r}, pick from {sorted(PROFILES)}")
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

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        out["tolerances"] = dict(self.tolerances)
        return out


_FIELD_PARSERS = {
    "alpha": float, "p": float, "grid_n": int, "a_half": float,
    "h_profile": str, "h_csv": str, "seed": int, "samples": int,
    "solve_tol": float, "lambda_lo": float, "lambda_hi": float, "steps": int,
    "output_dir": str,
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


def _apply_setting(cfg: RunConfig, key: str, val: str):
    if key in _FIELD_PARSERS:
        setattr(cfg, key, _FIELD_PARSERS[key](val))
    elif key == "h_amplitude":
        cfg.h_amplitude = _parse_amplitude(val)
    elif key == "scalar":
        cfg.scalar = _parse_bool(val)
    elif key == "tol_all":
        cfg.tolerances["all"] = float(val)
    elif key.startswith("tol_") and key[4:] in BATTERY_TOL:
        cfg.tolerances[key[4:]] = float(val)
    else:
        raise ValueError(f"unknown config key {key!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, then the config file, then explicit flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, val in read_config_file(args.config).items():
            _apply_setting(cfg, key, val)
    for key in (*_FIELD_PARSERS, "scalar"):
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    if getattr(args, "h_amplitude", None) is not None:
        cfg.h_amplitude = _parse_amplitude(args.h_amplitude)
    for item, flag in (getattr(args, "tol", None) or {}).items():
        cfg.tolerances[item] = flag
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
    doc["config"] = cfg.to_dict()
    with open(path, "w") as fh:
        json.dump(_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_forcing(cfg: RunConfig, kp: KernelParams) -> GridFunction:
    """The forcing h from the configured profile or CSV file."""
    if cfg.h_csv is not None:
        h = GridFunction.read_csv(cfg.h_csv)
        require_chebyshev(h.grid)
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


def _cone_spec(cfg: RunConfig, kp: KernelParams) -> ConeSpec:
    return ConeSpec.for_kernel(kp, a_half=cfg.a_half)


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
    path = os.path.join(_resolve_outdir(cfg), "kernel.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x", "y", "r", "value"])
        for kind, x, y, r, value in rows:
            writer.writerow([kind, f"{x:.17g}", f"{y:.17g}", r, f"{value:.17g}"])
    return 0


def _parse_floats(text: str, count: int, flag: str):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{flag} expects {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag}: could not parse numbers from {text!r}") from None


def cmd_certify(cfg: RunConfig, args) -> int:
    cfg.validate()
    kp = cfg.kernel_params()
    h = build_forcing(cfg, kp)
    report = certify(h, cfg.p, _cone_spec(cfg, kp), kp)
    write_report(
        os.path.join(_resolve_outdir(cfg), "certificate.json"),
        {"certificate": report.to_dict()},
        cfg,
    )
    return 0 if report.passed else 1


def cmd_solve(cfg: RunConfig, args) -> int:
    cfg.validate()
    kp = cfg.kernel_params()
    spec = _cone_spec(cfg, kp)
    h = build_forcing(cfg, kp)
    outdir = _resolve_outdir(cfg)
    cert = certify(h, cfg.p, spec, kp)

    if h.sup_norm == 0.0:
        trivial = picard_minimal(h, cfg.p, kp, tol=cfg.solve_tol, spec=spec)
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

    rmin = picard_minimal(h, cfg.p, kp, tol=cfg.solve_tol, spec=spec)
    rsec = newton_second(h, cfg.p, kp, rmin, tol=cfg.solve_tol, spec=spec)
    if rmin.converged:
        residual_strong(rmin, h, cfg.p, kp)
    if rsec.converged:
        residual_strong(rsec, h, cfg.p, kp)
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


def _green_ratio_table(a_half: float, kp: KernelParams) -> float:
    """Minimum of G(x,y)/G(0,y) over 161 x in U and 401 uniform y plus 120
    per side graded to within 1e-9 of +-1: the lemma's check on gamma_U."""
    graded = 1.0 - np.geomspace(1e-9, 1.0, 120)
    ys = np.unique(np.concatenate([-graded, graded, np.linspace(-0.999, 0.999, 401)]))
    xs = np.linspace(-a_half, a_half, 161)
    G = green_ball(xs[:, None], ys[None, :], kp)
    return float((G.min(axis=0) / green_ball(np.zeros_like(ys), ys, kp)).min())


def lemma_battery(cfg: RunConfig) -> dict:
    """The six numerical checks behind the existence machinery.

    Returns one entry per check with the worst observed violation, the
    threshold applied, and a verdict; `pass` on the top level requires
    all six.  Importable so the tests drive it directly.
    """
    cfg.validate()
    kp = cfg.kernel_params()
    grid = make_grid(cfg.grid_n)
    spec = _cone_spec(cfg, kp)
    items = {}

    g1 = gamma_U(cfg.a_half, kp)
    g2 = _green_ratio_table(cfg.a_half, kp)
    rel = abs(g2 - g1) / g1 if g1 > 0 else float("inf")
    items["green_ratio"] = {
        "pass": g1 > 0 and rel <= cfg.tol("green_ratio"),
        "worst": rel,
        "threshold": cfg.tol("green_ratio"),
        "value": g1,
        "refined": g2,
    }

    worst_shape = 0.0
    for u in sample_cone(1.0, cfg.samples, cfg.seed, grid=grid, kp=kp, spec=spec):
        image = apply_green(u, kp)
        rep = check_membership(image, spec)
        sup = image.sup_norm
        defect = max(rep.violations["asymmetry"], rep.violations["unimodality"])
        worst_shape = max(worst_shape, defect / sup if sup > 0 else 0.0)
    items["unimodality"] = {
        "pass": worst_shape <= cfg.tol("unimodality"),
        "worst": worst_shape,
        "threshold": cfg.tol("unimodality"),
        "samples": cfg.samples,
    }

    # reflection identities on subintervals W = (2z-1, 1): the unit
    # coordinate grid must be exactly antisymmetric, otherwise reflected
    # pairs near the diagonal differ at rounding level and the kernel's
    # |x-y|^(alpha-1) cusp amplifies that far above the threshold
    worst_refl = 0.0
    half = np.arange(1, 11) * 0.095
    st = np.concatenate([-half[::-1], [0.0], half])
    S, T = np.meshgrid(st, st, indexing="ij")
    for z in (0.1, 0.3, 0.55):
        r = 1.0 - z
        gw = lambda s, t: green_interval(z + s * r, z + t * r, z, r, kp)
        both = np.abs(gw(-S, -T) - gw(S, T)).max()
        single = np.abs(gw(-S, T) - gw(S, -T)).max()
        worst_refl = max(worst_refl, float(both), float(single))
    items["reflection"] = {
        "pass": worst_refl <= cfg.tol("reflection"),
        "worst": worst_refl,
        "threshold": cfg.tol("reflection"),
    }

    # same-side dominance of the kernel on the right half of W
    s = np.linspace(0.025, 0.975, 39)
    S, T = np.meshgrid(s, s, indexing="ij")
    worst_kul = 0.0
    for z in (0.1, 0.3, 0.55):
        r = 1.0 - z
        same = green_interval(z + S * r, z + T * r, z, r, kp)
        opposite = green_interval(z - S * r, z + T * r, z, r, kp)
        worst_kul = max(worst_kul, float((opposite - same).max()))
    items["kul"] = {
        "pass": worst_kul <= cfg.tol("kul"),
        "worst": worst_kul,
        "threshold": cfg.tol("kul"),
    }

    worst_mass = max(abs(poisson_total_mass(x, 1.0, kp) - 1.0) for x in (0.0, 0.35, -0.6))
    items["poisson"] = {
        "pass": worst_mass <= cfg.tol("poisson"),
        "worst": worst_mass,
        "threshold": cfg.tol("poisson"),
    }

    inv = verify_invariance(cfg.p, spec, kp, cfg.samples, grid=grid, seed=cfg.seed)
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
    with open(os.path.join(outdir, "branches.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "n_found", "sup_minimal", "sup_second"])
        for pt in result.points:
            writer.writerow(
                [f"{pt.lam:.17g}", pt.n_found, f"{pt.sup_minimal:.17g}", f"{pt.sup_second:.17g}"]
            )
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


class _TolAction(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        store = getattr(namespace, self.dest, None) or {}
        item, _, num = value.partition("=")
        if not num or item not in (*BATTERY_TOL, "all"):
            raise argparse.ArgumentError(
                self, f"expected ITEM=VALUE with ITEM in {sorted((*BATTERY_TOL, 'all'))}"
            )
        try:
            store[item] = float(num)
        except ValueError:
            raise argparse.ArgumentError(self, f"bad tolerance value {num!r}") from None
        setattr(namespace, self.dest, store)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--alpha", type=float, help="order of the operator")
    common.add_argument("--p", type=float, help="power of the nonlinearity")
    common.add_argument("--grid-n", type=int, dest="grid_n", help="grid size (odd, >= 33)")
    common.add_argument("--a-half", type=float, dest="a_half", help="half-width of the core interval")
    common.add_argument("--seed", type=int, help="seed for all sampling")
    common.add_argument("--samples", type=int, help="sample count for batteries and probes")
    common.add_argument("--h-profile", dest="h_profile", choices=sorted(PROFILES), help="named forcing profile")
    common.add_argument("--h-amplitude", dest="h_amplitude", help="forcing amplitude, or 'auto'")
    common.add_argument("--h-csv", dest="h_csv", help="forcing from a CSV file (overrides profile)")
    common.add_argument("--solve-tol", type=float, dest="solve_tol", help="fixed point tolerance")
    common.add_argument("--outdir", dest="output_dir", help="output directory (or $BIFRAC_OUTDIR)")
    common.add_argument("--tol", action=_TolAction, metavar="ITEM=VALUE", help="battery tolerance override, ITEM may be 'all'")

    parser = argparse.ArgumentParser(prog="bifrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", parents=[common], help="tabulate kernel values")
    pk.add_argument("--green", action="append", metavar="X,Y", help="Green function point")
    pk.add_argument("--w", action="append", metavar="X,Y", help="similarity variable point")
    pk.add_argument("--poisson", action="append", metavar="X,Y,R", help="Poisson kernel point")
    pk.set_defaults(func=cmd_kernel)

    pc = sub.add_parser("certify", parents=[common], help="run the radii certificate")
    pc.set_defaults(func=cmd_certify)

    ps = sub.add_parser("solve", parents=[common], help="compute both solution branches")
    ps.set_defaults(func=cmd_solve)

    pl = sub.add_parser("lemmas", parents=[common], help="run the lemma battery")
    pl.set_defaults(func=cmd_lemmas)

    pw = sub.add_parser("sweep", parents=[common], help="sweep the forcing amplitude for the fold")
    pw.add_argument("--lambda-lo", type=float, dest="lambda_lo", help="lower end of the sweep")
    pw.add_argument("--lambda-hi", type=float, dest="lambda_hi", help="upper end of the sweep")
    pw.add_argument("--steps", type=int, help="coarse sweep points")
    pw.add_argument("--scalar", action="store_const", const=True, help="sweep the scalar model instead")
    pw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = build_config(args)
        return args.func(cfg, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
