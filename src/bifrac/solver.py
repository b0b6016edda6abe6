"""Two solution branches of u = G(u^p) + G(h) and the fold in between.

The minimal branch is the monotone limit of Picard iteration from zero;
it exists whenever the scalar certificate passes, and the iteration is
increasing so any escape past the certified radius means divergence.
Everything else is one dense Newton routine, `_newton`, fed a callback
that returns the residual and Jacobian of its system.  The second branch
is Newton deflated away from the minimal solution (Farrell, Birkisson &
Funke, SIAM J. Sci. Comput. 37, 2015), started at the amplitude the
scalar model predicts for the larger root, then at multiples of it;
`newton_second` and the sweep run the same search.  `fold_sweep` scales
the forcing by lambda, counts branches on a coarse lambda grid, and
locates the fold where the two branches merge by one Newton solve of the
Moore-Spence extended system (Moore & Spence, SIAM J. Numer. Anal. 17,
1980), warm-started from the last two-branch point of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone import ConeSpec, check_membership, sample_cone
from .greenop import GridFunction, apply_green, coercivity_a, get_operator, operator_norm_b
from .kernels import KernelParams, PVConfig, frac_laplacian_pv
from .scalar import (
    CertificateFailure,
    Radii,
    ScalarProblem,
    critical_constant,
    radii_certificate,
    scalar_roots,
)

__all__ = [
    "CertificateReport",
    "SolveResult",
    "ProbeReport",
    "SweepPoint",
    "SweepResult",
    "certify",
    "picard_minimal",
    "newton_second",
    "krasnoselskii_probe",
    "residual_strong",
    "fold_sweep",
]


# amplitudes of the second-branch Newton starts, as multiples of the scalar
# model's larger root: the first predicts the branch well, the others catch
# a start that falls outside the deflated iteration's basin
_SECOND_STARTS = (1.0, 1.5, 0.75, 2.5, 4.0)


def _pow(u, p):
    # solutions of interest are nonnegative; clipping the base removes the
    # spurious sign-flipped fixed points an odd extension would admit
    return np.maximum(u, 0.0) ** p


def _dpow(u, p):
    return p * np.maximum(u, 0.0) ** (p - 1.0)


@dataclass(frozen=True)
class CertificateReport:
    """Constants and verdict of the scalar two-solution certificate."""

    b: float
    a_coerc: float
    c_p: float
    u0_sup: float
    lhs: float
    passed: bool
    margin: float
    radii: Radii | None = None
    failure: CertificateFailure | None = None

    def to_dict(self) -> dict:
        out = {
            "b": self.b,
            "a_coerc": self.a_coerc,
            "c_p": self.c_p,
            "u0_sup": self.u0_sup,
            "lhs": self.lhs,
            "pass": self.passed,
            "margin": self.margin,
        }
        if self.radii is not None:
            out["radii"] = {
                "rho1": self.radii.rho1,
                "rho2": self.radii.rho2,
                "rho3": self.radii.rho3,
            }
        if self.failure is not None:
            out["failure"] = self.failure.kind
        return out


def certify(h: GridFunction, p: float, spec: ConeSpec, kp: KernelParams) -> CertificateReport:
    """Run the radii certificate for the forcing h.

    h must itself have the cone shape (the ratio floor is not required
    of the forcing); otherwise the problem leaves the framework and a
    ValueError is raised.
    """
    shape_spec = ConeSpec(a_half=spec.a_half, gamma=0.0, tol=max(spec.tol, 1e-12))
    rep = check_membership(h, shape_spec)
    if not rep.member:
        raise ValueError(f"forcing must be nonnegative, even and unimodal: {rep.violations}")
    u0 = apply_green(h, kp)
    b = operator_norm_b(kp, p)
    a = coercivity_a(spec.a_half, p, kp)
    c_p = critical_constant(p)
    u0_sup = u0.sup_norm
    lhs = b * u0_sup ** (p - 1.0)
    res = radii_certificate(a, b, u0_sup, p)
    if isinstance(res, Radii):
        return CertificateReport(
            b=b, a_coerc=a, c_p=c_p, u0_sup=u0_sup, lhs=lhs,
            passed=True, margin=(c_p - lhs) / c_p, radii=res,
        )
    return CertificateReport(
        b=b, a_coerc=a, c_p=c_p, u0_sup=u0_sup, lhs=lhs,
        passed=False, margin=res.margin, failure=res,
    )


@dataclass
class SolveResult:
    u: GridFunction
    fixed_point_residual: float
    iterations: int
    branch: str
    in_cone: bool
    converged: bool
    status: str
    strong_residual: float | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "converged": self.converged,
            "status": self.status,
            "iterations": self.iterations,
            "sup_norm": self.u.sup_norm,
            "fixed_point_residual": self.fixed_point_residual,
            "strong_residual": self.strong_residual,
            "in_cone": self.in_cone,
        }


def _picard(M, u0vec, p, tol, max_iter, guard):
    u = np.zeros_like(u0vec)
    for it in range(1, max_iter + 1):
        un = M @ _pow(u, p) + u0vec
        step = float(np.abs(un - u).max())
        u = un
        if np.abs(u).max() > guard:
            return u, it, "diverged"
        if step < tol:
            return u, it, "converged"
    return u, max_iter, "max_iter"


def _newton(system, x, tol, max_iter, known=None):
    """Dense Newton for F(x) = 0, where system(x) returns (F, J).

    Returns (x, iterations, status): "converged" once a step is below tol
    in the max norm, "diverged" on a non-finite step, "singular" when J
    cannot be factored, else "max_iter".  Steps are capped at
    50 max(1, |x|) so no jump overflows the power.  Given `known`, F is
    deflated by 1 + 1/|x - known|^2, which repels the iteration from it.
    """
    for it in range(1, max_iter + 1):
        F, J = system(x)
        try:
            d = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return x, it, "singular"
        if not np.isfinite(d).all():
            return x, it, "diverged"
        if known is not None:
            diff = x - known
            nrm2 = float(diff @ diff)
            if nrm2 > 0.0:
                # the rank-one update of the deflated Jacobian reduces to
                # scaling the plain step (Sherman-Morrison)
                eta = 1.0 + 1.0 / nrm2
                tau = float(-2.0 * (diff @ d) / nrm2**2)
                if abs(eta - tau) > 1e-300:
                    d = d * (eta / (eta - tau))
        cap = 50.0 * max(1.0, float(np.abs(x).max()))
        dmax = float(np.abs(d).max())
        if dmax > cap:
            d = d * (cap / dmax)
        x = x + d
        if dmax < tol:
            return x, it, "converged"
    return x, max_iter, "max_iter"


def _branch_system(M, u0vec, p):
    """(F, J) for u = M u^p + u0vec: F = u - M u^p - u0vec, J = I - M diag(p u^(p-1))."""
    eye = np.eye(u0vec.size)
    return lambda u: (u - M @ _pow(u, p) - u0vec, eye - M * _dpow(u, p)[None, :])


def _second_branch(system, known, profile, scalar, tol, max_iter, accept=None):
    """Newton deflated off the solution `known`, from rescaled `profile`.

    Starts are `profile` scaled to the _SECOND_STARTS multiples of the
    larger root of the ScalarProblem `scalar` (of twice its tangency
    amplitude past the fold).  Returns (u, iterations, "converged") for
    the first start that reaches a nonnegative solution distinct from
    `known` which `accept`, if given, takes; else the last start's
    outcome, with "not_found" for a rejected converged one.
    """
    b, p = scalar.b, scalar.p
    base = max(scalar_roots(scalar), default=2.0 * (1.0 / (p * b)) ** (1.0 / (p - 1.0)))
    psup = float(np.abs(profile).max())
    for factor in _SECOND_STARTS:
        u, it, status = _newton(system, profile * (factor * base / psup), tol, max_iter, known=known)
        if (
            status == "converged"
            and float(np.abs(u - known).max()) > 1e-7
            and u.min() >= -1e-10 * max(1.0, float(np.abs(u).max()))
            and (accept is None or accept(u))
        ):
            return u, it, status
    return u, it, "not_found" if status == "converged" else status


def picard_minimal(
    h: GridFunction,
    p: float,
    kp: KernelParams,
    tol: float = 1e-12,
    max_iter: int = 5000,
    spec: ConeSpec | None = None,
) -> SolveResult:
    """Minimal-branch solution by monotone iteration from zero.

    The iterates increase toward the smallest fixed point.  While the
    certificate holds they stay under rho2, so crossing that radius (or
    four times the scalar tangency amplitude when the certificate fails)
    is reported as divergence.
    """
    if spec is None:
        spec = ConeSpec.for_kernel(kp)
    op = get_operator(h.grid, kp)
    u0vec = op.apply(h.values)
    u0_sup = float(np.abs(u0vec).max())
    if u0_sup == 0.0:
        u = h.with_values(np.zeros(h.grid.n))
        return SolveResult(
            u=u, fixed_point_residual=0.0, iterations=0, branch="minimal",
            in_cone=check_membership(u, spec).member, converged=True, status="converged",
        )
    b = operator_norm_b(kp, p)
    u_t = (1.0 / (p * b)) ** (1.0 / (p - 1.0))
    if b * u0_sup ** (p - 1.0) < critical_constant(p):
        # under the certificate the monotone iterates stay below rho2
        guard = (u0_sup / (b * (p - 1.0))) ** (1.0 / p) * (1.0 + 1e-9)
    else:
        guard = 4.0 * u_t
    vals, iters, status = _picard(M=op.matrix, u0vec=u0vec, p=p, tol=tol, max_iter=max_iter, guard=guard)
    u = h.with_values(vals)
    fp = float(np.abs(vals - op.matrix @ _pow(vals, p) - u0vec).max())
    return SolveResult(
        u=u, fixed_point_residual=fp, iterations=iters, branch="minimal",
        in_cone=check_membership(u, spec).member, converged=(status == "converged"),
        status=status,
    )


def newton_second(
    h: GridFunction,
    p: float,
    kp: KernelParams,
    known: "SolveResult | GridFunction",
    tol: float = 1e-12,
    max_iter: int = 80,
    spec: ConeSpec | None = None,
) -> SolveResult:
    """Second-branch solution by Newton iteration deflated off the known one.

    Starts are the known profile rescaled to the _SECOND_STARTS multiples
    of the scalar model's larger root, which predicts the second branch
    sup well.  A candidate is accepted only if it converged to something
    genuinely distinct, nonnegative and inside the cone, beyond rho2 when
    a certificate is available.  The fold sweep runs the same search.
    """
    if spec is None:
        spec = ConeSpec.for_kernel(kp)
    known_u = known.u if isinstance(known, SolveResult) else known
    op = get_operator(h.grid, kp)
    u0vec = op.apply(h.values)
    u0_sup = float(np.abs(u0vec).max())
    b = operator_norm_b(kp, p)

    radii = radii_certificate(coercivity_a(spec.a_half, p, kp), b, u0_sup, p)
    radii = radii if isinstance(radii, Radii) else None
    sep_floor = max(1e-7, 10.0 * tol, (radii.rho2 - radii.rho1) / 2.0 if radii else 0.0)

    def accept(vals):
        return (
            float(np.abs(vals - known_u.values).max()) > sep_floor
            and check_membership(h.with_values(vals), spec).member
            and (radii is None or float(np.abs(vals).max()) > radii.rho2)
        )

    # a zero known solution gives no shape; start from the torsion profile
    profile = known_u.values if known_u.sup_norm > 0.0 else (1.0 - h.grid.nodes**2) ** (kp.alpha / 2.0)
    vals, iters, status = _second_branch(
        _branch_system(op.matrix, u0vec, p), known_u.values, profile,
        ScalarProblem(b=b, u0=u0_sup, p=p), tol, max_iter, accept,
    )
    u, converged = h.with_values(vals), status == "converged"
    return SolveResult(
        u=u, fixed_point_residual=float(np.abs(vals - op.matrix @ _pow(vals, p) - u0vec).max()),
        iterations=iters, branch="second", in_cone=converged or check_membership(u, spec).member,
        converged=converged, status=status,
    )


@dataclass(frozen=True)
class ProbeReport:
    rho: float
    min_T: float
    max_T: float
    count: int


def krasnoselskii_probe(
    rho: float,
    h: GridFunction,
    p: float,
    kp: KernelParams,
    spec: ConeSpec,
    count: int,
    seed: int = 0,
) -> ProbeReport:
    """Range of sup|T(u)| over random cone members with sup|u| = rho.

    T(u) = G(u^p) + G(h).  On the certified radii the range must land
    strictly inside (rho1 side) or outside (rho2 side) of rho, which is
    the compression/expansion picture behind the two-solution count.
    """
    op = get_operator(h.grid, kp)
    u0vec = op.apply(h.values)
    sups = []
    for u in sample_cone(rho, count, seed, grid=h.grid, kp=kp, spec=spec):
        sups.append(float(np.abs(op.apply(_pow(u.values, p)) + u0vec).max()))
    return ProbeReport(rho=rho, min_T=min(sups), max_T=max(sups), count=count)


def residual_strong(
    result: SolveResult,
    h: GridFunction,
    p: float,
    kp: KernelParams,
    cfg: PVConfig | None = None,
    probes=(0.0, 0.25, -0.25, 0.5, -0.5),
) -> float:
    """Pointwise residual of the differential equation at the probe points.

    Evaluates the fractional Laplacian of the computed solution by the
    principal-value quadrature and compares with u^p + h.  The result is
    stored on the SolveResult and returned.
    """
    from scipy.interpolate import CubicSpline  # kept off the import path of the CLI

    u = result.u
    su = CubicSpline(u.grid.nodes, u.values)
    sh = CubicSpline(h.grid.nodes, h.values)
    worst = 0.0
    for x in probes:
        lap = frac_laplacian_pv(u, x, kp, cfg)
        rhs = float(su(x)) ** p + float(sh(x))
        worst = max(worst, abs(lap - rhs))
    result.strong_residual = worst
    return worst


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    n_found: int
    sup_minimal: float
    sup_second: float


@dataclass(frozen=True)
class SweepResult:
    points: list
    fold_estimate: float
    lambda_cert: float
    fold_status: str  # "converged", "not_bracketed" or "newton_failed"

    @property
    def bracketed(self) -> bool:
        return np.isfinite(self.fold_estimate)


def _solve_pair(M, u0vec, p, b, tol=1e-11, picard_max=300, newton_max=100):
    """(count, minimal, second) for u = M u^p + u0vec; absent branches are None.

    Picard from zero is capped: near the fold it would need up to 1e5
    steps.  Its last iterate is a subsolution below the minimal branch,
    from which plain Newton on this convex map climbs monotonically to it.
    The second branch is sought by the search newton_second runs.
    """
    u_t = (1.0 / (p * b)) ** (1.0 / (p - 1.0))
    system = _branch_system(M, u0vec, p)
    umin, _, st = _picard(M, u0vec, p, tol=tol, max_iter=picard_max, guard=4.0 * u_t)
    if st == "max_iter":
        umin, _, st = _newton(system, umin, 1e-12, newton_max)
    if st != "converged":
        return 0, None, None
    scalar = ScalarProblem(b=b, u0=float(np.abs(u0vec).max()), p=p)
    usec, _, st = _second_branch(system, umin, umin, scalar, 1e-12, newton_max)
    return (2, umin, usec) if st == "converged" else (1, umin, None)


def _fold_newton(M, base, p, u, v, lam, tol=1e-12, max_iter=30):
    """Moore-Spence Newton for the fold of u = M u^p + lam * base.

    Unknowns u, v and lam; equations u - M u^p - lam base = 0,
    (I - M diag(p u^(p-1))) v = 0 and v[c] = 1, c = argmax |v| at the
    start: the bordered (2m+1) system handed to _newton.  A quadratic
    fold is a regular solution, so Newton converges quadratically near
    it.  u must be positive: callers drop the zero endpoint values, where
    p (p-1) u^(p-2) is infinite for p < 2.  Returns lam, or None.
    """
    m = u.size
    c = int(np.argmax(np.abs(v)))
    branch = _branch_system(M, np.zeros(m), p)
    A = np.zeros((2 * m + 1, 2 * m + 1))
    A[:m, 2 * m] = -base
    A[2 * m, m + c] = 1.0

    def system(x):
        u, v, lam = x[:m], x[m:2 * m], x[2 * m]
        F, J = branch(u)
        A[:m, :m] = J
        A[m:2 * m, m:2 * m] = J
        with np.errstate(all="ignore"):  # a non-finite entry gives a non-finite step
            A[m:2 * m, :m] = -M * (p * (p - 1.0) * np.maximum(u, 0.0) ** (p - 2.0) * v)[None, :]
        return np.concatenate([F - lam * base, J @ v, [v[c] - 1.0]]), A

    x, _, status = _newton(system, np.concatenate([u, v / v[c], [lam]]), tol, max_iter)
    return float(x[2 * m]) if status == "converged" else None


def fold_sweep(
    h_base: GridFunction,
    p: float,
    kp: KernelParams,
    lambda_lo: float,
    lambda_hi: float,
    steps: int,
    scalar_model: bool = False,
) -> SweepResult:
    """Scan u = G(u^p) + lambda G(h_base) for the fold where two branches merge.

    Counts branches on a coarse lambda grid.  The last two-branch point
    lam_lo and the next point lam_hi bracket the fold; from lam_lo the
    fold is located by one Newton solve of the Moore-Spence system,
    started at u = (u_minimal + u_second)/2 with null vector
    u_second - u_minimal.  The scalar model is the same solve with n = 1.
    fold_estimate is NaN, and fold_status says why, when the scan never
    went from two branches to fewer ("not_bracketed"), or when Newton
    failed or left (lam_lo, lam_hi] by more than its tolerance
    ("newton_failed").
    """
    if not (0.0 < lambda_lo < lambda_hi):
        raise ValueError(f"need 0 < lambda_lo < lambda_hi, got [{lambda_lo}, {lambda_hi}]")
    if steps < 2:
        raise ValueError(f"need at least 2 sweep steps, got {steps}")
    b = operator_norm_b(kp, p)
    u0_base = apply_green(h_base, kp)
    u0_base_sup = u0_base.sup_norm
    if u0_base_sup == 0.0:
        raise ValueError("base forcing is identically zero; nothing to sweep")
    if scalar_model:
        M = np.array([[b]])
        base = np.array([u0_base_sup])
        inner = slice(None)
    else:
        M = get_operator(h_base.grid, kp).matrix
        base = u0_base.values
        inner = slice(1, -1)  # u vanishes at the endpoints
    lam_cert = (critical_constant(p) / b) ** (1.0 / (p - 1.0)) / u0_base_sup

    sup = lambda u: float(np.abs(u).max()) if u is not None else np.nan
    points, pairs = [], []
    for lam in np.linspace(lambda_lo, lambda_hi, steps):
        nf, umin, usec = _solve_pair(M, lam * base, p, b)
        points.append(SweepPoint(lam=float(lam), n_found=nf, sup_minimal=sup(umin), sup_second=sup(usec)))
        pairs.append((umin, usec))

    fold, status = np.nan, "not_bracketed"
    two = [i for i, pt in enumerate(points) if pt.n_found == 2]
    if two and two[-1] + 1 < len(points):
        lo, hi = points[two[-1]].lam, points[two[-1] + 1].lam
        umin, usec = pairs[two[-1]]
        lam = _fold_newton(
            M[inner, inner], base[inner], p,
            0.5 * (umin + usec)[inner], (usec - umin)[inner], lo,
        )
        # a fold on the scan point hi is a double root counted as one
        # branch there; Newton then lands within its tolerance of hi
        if lam is not None and lo < lam <= hi * (1.0 + 1e-12):
            fold, status = lam, "converged"
        else:
            status = "newton_failed"
    return SweepResult(
        points=points, fold_estimate=float(fold), lambda_cert=float(lam_cert), fold_status=status
    )
