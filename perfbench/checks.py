"""Per-request validation against the CLI contract and closed-form oracles.

`check` reads the files one request wrote and returns what is wrong with
them; an empty list means the request met its guarantees.  A request
fails when it exits non-zero, raises, or fails any of these checks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

# auto amplitude puts b * sup(G h)^(p-1) at half of c_p, so the margin
# (c_p - lhs) / c_p is 1/2 up to rounding
CERT_MARGIN = 0.5
MARGIN_TOL = 1e-9
# guarantee 8: the scalar-model fold matches its closed form, lambda_cert
SCALAR_FOLD_RTOL = 1e-6
# test_greenop's torsion oracle tolerance
TORSION_TOL = 1e-12

OUTPUTS = {
    "solve": ("report.json", "minimal.csv", "second.csv"),
    "sweep": ("fold.json", "branches.csv"),
    "lemmas": ("lemmas.json",),
    "certify": ("certificate.json",),
}


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    strong_residual: float | None = None  # solve: worst over both branches
    fold_rel_err: float | None = None  # scalar sweep: |fold - lambda_cert| / lambda_cert


def _certificate_problems(cert: dict) -> list:
    out = []
    if cert.get("pass") is not True:
        out.append(f"certificate did not pass: {cert.get('failure')}")
    margin = cert.get("margin")
    if not isinstance(margin, float) or abs(margin - CERT_MARGIN) > MARGIN_TOL:
        out.append(f"certificate margin {margin!r} is not {CERT_MARGIN}")
    return out


def _check_solve(doc: dict, verdict: Verdict):
    if doc.get("distinct") is not True:
        verdict.problems.append("branches are not distinct")
    verdict.problems += _certificate_problems(doc.get("certificate", {}))
    residuals = []
    for branch in ("minimal", "second"):
        res = doc.get(branch, {})
        if res.get("converged") is not True:
            verdict.problems.append(f"{branch} branch did not converge: {res.get('status')}")
        if res.get("in_cone") is not True:
            verdict.problems.append(f"{branch} branch left the cone")
        r = res.get("strong_residual")
        if isinstance(r, float) and math.isfinite(r):
            residuals.append(r)
        else:
            verdict.problems.append(f"{branch} branch has no strong residual")
    if residuals:
        # reported, not gated: on plateau at n = 257 the probe x = +-0.5
        # sits on the profile's kink and the residual reaches a few 1e-2
        verdict.strong_residual = max(residuals)


def _check_sweep(doc: dict, scalar: bool, verdict: Verdict):
    if doc.get("bracketed") is not True:
        verdict.problems.append("fold not bracketed")
        return
    fold, cert = doc.get("fold_estimate"), doc.get("lambda_cert")
    if not (isinstance(fold, float) and isinstance(cert, float) and cert > 0):
        verdict.problems.append(f"bad fold {fold!r} or lambda_cert {cert!r}")
        return
    if scalar:
        verdict.fold_rel_err = abs(fold - cert) / cert
        if verdict.fold_rel_err > SCALAR_FOLD_RTOL:
            verdict.problems.append(f"scalar fold off its closed form by {verdict.fold_rel_err:.3g}")
    elif fold < cert:
        verdict.problems.append(f"fold {fold!r} below lambda_cert {cert!r}")


def check(req, rc, outdir: str) -> Verdict:
    """Validate the outputs of one request run into `outdir`."""
    verdict = Verdict()
    if rc != 0:
        verdict.problems.append(f"exit code {rc!r}")
    missing = [n for n in OUTPUTS[req.kind] if not os.path.isfile(os.path.join(outdir, n))]
    if missing:
        verdict.problems.append(f"missing outputs {missing}")
        return verdict
    try:
        with open(os.path.join(outdir, OUTPUTS[req.kind][0])) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        verdict.problems.append(f"unreadable report: {exc}")
        return verdict
    if doc.get("schema") != 1:
        verdict.problems.append(f"schema {doc.get('schema')!r}")
    if req.kind == "solve":
        _check_solve(doc, verdict)
    elif req.kind == "sweep":
        _check_sweep(doc, req.scalar, verdict)
    elif req.kind == "lemmas":
        if doc.get("pass") is not True:
            failed = sorted(k for k, v in doc.get("items", {}).items() if not v.get("pass"))
            verdict.problems.append(f"lemma battery failed {failed}")
    else:
        verdict.problems += _certificate_problems(doc.get("certificate", {}))
    return verdict


def torsion_error(alpha: float, n: int) -> float:
    """|G 1 - c (1 - x^2)^(alpha/2)|_inf / max, from the cached operator.

    G 1 has this closed form on (-1, 1); the operator the request built
    is fetched from bifrac's cache, so this costs one matrix-vector
    product.
    """
    import numpy as np
    from bifrac import GridFunction, KernelParams, apply_green, make_grid

    grid = make_grid(n)
    got = apply_green(GridFunction(grid, np.ones(n)), KernelParams(alpha=alpha)).values
    c = 2.0 ** (-alpha) * math.sqrt(math.pi) / (
        math.gamma((1.0 + alpha) / 2.0) * math.gamma(1.0 + alpha / 2.0)
    )
    want = c * (1.0 - grid.nodes**2) ** (alpha / 2.0)
    return float(np.abs(got - want).max() / want.max())
