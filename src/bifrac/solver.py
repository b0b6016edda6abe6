"""Two solution branches of u = G(u^p) + G(h) and the fold in between.

`certify(h, p, kp, a_half)` poses the problem once: its CertificateReport
holds h, p, the kernel, its cone, u0 = G h, the constants b and a and the
radii, and refuses a forcing that is not finite or lacks the cone shape.
`picard_minimal(cert, tol)`, `newton_second(cert, known, tol)`,
`krasnoselskii_probe` and `residual_strong(result, cert)` take that
report and recompute none of it.

The minimal branch is the monotone limit of Picard iteration from zero.
Picard is capped, as near the fold it would need up to 1e5 steps; a
capped last iterate lies below the branch, and Newton finishes from it.
Everything Newton does runs through one dense routine, `_newton`, fed a
callback that returns the residual and Jacobian of its system.  The
second branch is Newton deflated away from the minimal solution
(Farrell, Birkisson & Funke, SIAM J. Sci. Comput. 37, 2015), started at
the amplitude the scalar model predicts for the larger root, then at
multiples of it.  `picard_minimal` and `newton_second` run the sweep's
two branch routines.  `fold_sweep` scales the forcing by lambda, counts
branches on a coarse lambda grid, and locates the fold where the two
branches merge by one Newton solve of the Moore-Spence extended system
(Moore & Spence, SIAM J. Numer. Anal. 17, 1980), warm-started from the
last two-branch point of the scan.

The branches are even, so both branches, the sweep and the fold are
solved on the (n+1)/2 even unknowns (`_half`) and expanded to the full
grid only for cone checks, residuals and reports.

`residual_strong` checks the equation pointwise on both branches in one
principal-value pass: `frac_laplacian_pv` takes the branches together,
over a quadrature plan that does not depend on alpha and is kept per
grid size, so neither the plan nor the interpolant's reciprocals are
built twice.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .cone import ConeSpec, _sample_blocks, check_membership
from .greenop import GridFunction, apply_green, coercivity_a, get_operator, operator_norm_b
from .kernels import KernelParams, frac_laplacian_pv, interpolate
from .scalar import (
    CertificateFailure,
    Radii,
    ScalarProblem,
    critical_constant,
    radii_certificate,
    scalar_roots,
    tangency_amplitude,
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

# step caps: the minimal branch's Picard phase, a Newton run, a newton_second start
_PICARD_MAX, _NEWTON_MAX, _SECOND_MAX = 300, 100, 80

_PROBES = (0.0, 0.25, -0.25, 0.5, -0.5)  # where residual_strong checks the equation


def _pow(u, p):
    # solutions of interest are nonnegative; clipping the base removes the
    # spurious sign-flipped fixed points an odd extension would admit
    return np.maximum(u, 0.0) ** p


def _dpow(u, p):
    return p * np.maximum(u, 0.0) ** (p - 1.0)


@dataclass(frozen=True)
class CertificateReport:
    """The run's problem u = G(u^p) + G h, posed once, and its certificate.

    The branch solvers and the probe read h, u0 = G h and the constants
    from it; `to_dict` writes the constants and the verdict only.  A
    forcing that is not finite or lacks the cone shape raises ValueError.
    """

    h: GridFunction = field(repr=False)
    p: float
    kp: KernelParams
    spec: ConeSpec
    u0: GridFunction = field(repr=False)
    b: float
    a_coerc: float
    c_p: float
    u0_sup: float
    lhs: float
    passed: bool
    margin: float
    radii: Radii | None = None
    failure: CertificateFailure | None = None

    def __post_init__(self):
        _require_forcing_shape(self.h)

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
            out["radii"] = asdict(self.radii)
        if self.failure is not None:
            out["failure"] = self.failure.kind
        return out


def _require_forcing_shape(h: GridFunction):
    """Raise ValueError unless h is finite with the cone shape; it need not meet the ratio floor."""
    need = "forcing must be finite, nonnegative, even and unimodal"
    if not np.isfinite(h.sup_norm):
        raise ValueError(f"{need}: it has non-finite values")
    rep = check_membership(h, ConeSpec(gamma=0.0))
    if not rep.member:
        raise ValueError(f"{need}: {rep.violations}")


def certify(h: GridFunction, p: float, kp: KernelParams, a_half: float = 0.5) -> CertificateReport:
    """Pose the problem for the forcing h and run the radii certificate on it.

    a comes from the kernel's cone, ConeSpec.for_kernel(kp, a_half).  A
    forcing that is not finite or lacks the cone shape raises ValueError.
    """
    if not np.isfinite(h.sup_norm):  # raise before nan reaches the radii; the report checks the shape
        _require_forcing_shape(h)
    spec = ConeSpec.for_kernel(kp, a_half)
    u0 = apply_green(h, kp)
    b = operator_norm_b(kp, p)
    a = coercivity_a(spec, p, kp)
    c_p = critical_constant(p)
    lhs = b * u0.sup_norm ** (p - 1.0)
    res = radii_certificate(a, b, u0.sup_norm, p)
    passed = isinstance(res, Radii)
    return CertificateReport(
        h=h, p=p, kp=kp, spec=spec, u0=u0, b=b, a_coerc=a, c_p=c_p,
        u0_sup=u0.sup_norm, lhs=lhs, passed=passed, margin=(c_p - lhs) / c_p,
        radii=res if passed else None, failure=None if passed else res,
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


def _half(M):
    """M folded onto the even unknowns: _half(M) @ u[:m] == (M @ u)[:m] for even u.

    Column j < mid gains its mirror n-1-j and the centre column stays; the
    rows past the centre drop out because GreenOperator keeps M = M[::-1, ::-1].
    """
    mid = M.shape[0] // 2
    Mh = M[: mid + 1, : mid + 1].copy()
    Mh[:, :mid] += M[: mid + 1, : mid : -1]
    return Mh


def _expand(v):
    """The even grid vector whose first half (centre included) is v."""
    return np.concatenate([v, v[-2::-1]])


def _even_weight(m):
    """Weights that make the squared norm of an even half that of its expansion."""
    return np.append(np.full(m - 1, 2.0), 1.0)


def _newton(system, x, tol, max_iter, known=None, weight=1.0):
    """Dense Newton for F(x) = 0, where system(x) returns (F, J).

    Returns (x, iterations, status): "converged" once a step is below tol
    in the max norm, "diverged" on a non-finite step, "singular" when J
    cannot be factored, else "max_iter".  Steps are capped at
    50 max(1, |x|) so no jump overflows the power.  Given `known`, F is
    deflated by 1 + 1/|x - known|^2, which repels the iteration from it;
    the squared norm weighs entry i by weight[i], the full-grid norm.
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
            wdiff = weight * diff
            nrm2 = float(wdiff @ diff)
            if nrm2 > 0.0:
                # the rank-one update of the deflated Jacobian reduces to
                # scaling the plain step (Sherman-Morrison)
                eta = 1.0 + 1.0 / nrm2
                tau = float(-2.0 * (wdiff @ d) / nrm2**2)
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


def _minimal_branch(M, u0vec, p, b, tol, newton_tol):
    """(u, iterations, status) for the minimal solution of u = M u^p + u0vec.

    Picard from zero increases, so an iterate past four times the scalar
    tangency amplitude means "diverged".  Capped at _PICARD_MAX steps, its
    last iterate is a subsolution below the minimal branch, from which
    Newton on this convex map climbs to it.  Counts the steps of both.
    """
    guard = 4.0 * tangency_amplitude(b, p)
    u = np.zeros_like(u0vec)
    for it in range(1, _PICARD_MAX + 1):
        un = M @ _pow(u, p) + u0vec
        step = float(np.abs(un - u).max())
        u = un
        if np.abs(u).max() > guard:
            return u, it, "diverged"
        if step < tol:
            return u, it, "converged"
    u, it, status = _newton(_branch_system(M, u0vec, p), u, newton_tol, _NEWTON_MAX)
    return u, _PICARD_MAX + it, status


def _second_branch(system, known, profile, scalar, tol, max_iter, accept=None, weight=1.0):
    """Newton deflated off the solution `known`, from rescaled `profile`.

    Starts are `profile` scaled to the _SECOND_STARTS multiples of the
    larger root of the ScalarProblem `scalar` (of twice its tangency
    amplitude past the fold).  Returns (u, iterations, "converged") for
    the first start that reaches a nonnegative solution distinct from
    `known` which `accept`, if given, takes; else the last start's
    outcome, with "not_found" for a rejected converged one.
    """
    base = max(scalar_roots(scalar), default=2.0 * tangency_amplitude(scalar.b, scalar.p))
    psup = float(np.abs(profile).max())
    for factor in _SECOND_STARTS:
        u, it, status = _newton(system, profile * (factor * base / psup), tol, max_iter, known, weight)
        if (
            status == "converged"
            and float(np.abs(u - known).max()) > 1e-7
            and u.min() >= -1e-10 * max(1.0, float(np.abs(u).max()))
            and (accept is None or accept(u))
        ):
            return u, it, status
    return u, it, "not_found" if status == "converged" else status


def _branch_result(cert, M, half, iterations, branch, status, known_in_cone=False):
    """The SolveResult of a branch solved on the even half of M: expanded to
    the full grid, where its fixed-point residual and cone check are taken."""
    vals = _expand(half)
    u = cert.h.with_values(vals)
    fp = float(np.abs(vals - M @ _pow(vals, cert.p) - cert.u0.values).max())
    in_cone = known_in_cone or check_membership(u, cert.spec).member
    return SolveResult(u=u, fixed_point_residual=fp, iterations=iterations, branch=branch,
                       in_cone=in_cone, converged=status == "converged", status=status)


def picard_minimal(cert: CertificateReport, tol: float = 1e-12) -> SolveResult:
    """Minimal-branch solution of the problem `cert` poses, by monotone iteration from zero.

    Picard runs on the even half, guarded at four times the scalar
    tangency amplitude ("diverged" past it), for at most _PICARD_MAX steps;
    if none moves the iterate by less than tol, Newton finishes from the
    last one (see _minimal_branch).  `iterations` counts both kinds of
    step, and is 0 for a zero forcing, whose solution is zero.
    """
    M, m = get_operator(cert.h.grid, cert.kp).matrix, cert.h.grid.n // 2 + 1
    if cert.u0_sup == 0.0:
        return _branch_result(cert, M, np.zeros(m), 0, "minimal", "converged")
    half, iters, status = _minimal_branch(_half(M), cert.u0.values[:m], cert.p, cert.b, tol, tol)
    return _branch_result(cert, M, half, iters, "minimal", status)


def newton_second(cert: CertificateReport, known: GridFunction, tol: float = 1e-12) -> SolveResult:
    """Second-branch solution by Newton iteration deflated off the known solution.

    Newton runs for up to _SECOND_MAX steps from the known profile rescaled
    to each _SECOND_STARTS multiple of the scalar model's larger root,
    which predicts the second branch sup well.  A candidate is accepted
    only if it converged to something genuinely distinct, nonnegative and
    inside the cone, beyond rho2 when the certificate passed.  The search,
    which the fold sweep runs too, works on the even half, which `cert`'s
    forcing is guaranteed to fit.
    """
    h, p, spec, radii = cert.h, cert.p, cert.spec, cert.radii
    M, m = get_operator(h.grid, cert.kp).matrix, h.grid.n // 2 + 1
    sep_floor = max(1e-7, 10.0 * tol, (radii.rho2 - radii.rho1) / 2.0 if radii else 0.0)

    def accept(half):
        vals = _expand(half)
        return (
            float(np.abs(vals - known.values).max()) > sep_floor
            and check_membership(h.with_values(vals), spec).member
            and (radii is None or float(np.abs(vals).max()) > radii.rho2)
        )

    # a zero known solution gives no shape; start from the torsion profile
    profile = known.values if known.sup_norm > 0.0 else (1.0 - h.grid.nodes**2) ** (cert.kp.alpha / 2.0)
    half, iters, status = _second_branch(
        _branch_system(_half(M), cert.u0.values[:m], p), known.values[:m], profile[:m],
        ScalarProblem(b=cert.b, u0=cert.u0_sup, p=p), tol, _SECOND_MAX, accept, _even_weight(m),
    )
    # a converged second branch passed `accept`, cone check included
    return _branch_result(cert, M, half, iters, "second", status, known_in_cone=status == "converged")


@dataclass(frozen=True)
class ProbeReport:
    rho: float
    min_T: float
    max_T: float
    count: int


def krasnoselskii_probe(rho: float, cert: CertificateReport, count: int, seed: int = 0) -> ProbeReport:
    """Range of sup|T(u)| over random cone members with sup|u| = rho.

    T(u) = G(u^p) + G(h) for the problem `cert` poses.  On the certified
    radii the range must land strictly inside (rho1 side) or outside (rho2
    side) of rho, which is the compression/expansion picture behind the
    two-solution count.
    """
    grid = cert.h.grid
    op = get_operator(grid, cert.kp)
    sups = np.concatenate([
        np.abs(op.apply_rows(_pow(block, cert.p)) + cert.u0.values).max(axis=1)
        for block in _sample_blocks(rho, count, seed, grid, cert.kp, cert.spec)
    ])
    return ProbeReport(rho=rho, min_T=float(sups.min()), max_T=float(sups.max()), count=count)


def residual_strong(
    result: SolveResult | Sequence[SolveResult], cert: CertificateReport
) -> float | list[float]:
    """Pointwise residual of the differential equation at x = 0, +-0.25, +-0.5 (_PROBES).

    Evaluates the fractional Laplacian of the computed solution by the
    principal-value quadrature, on its weighted interpolant, and compares
    with u^p + h for the problem `cert` poses; h is interpolated plainly.
    Given a sequence of results, one quadrature pass serves them all (see
    `frac_laplacian_pv`).  The residual is stored on each SolveResult and
    returned, as a float for one result and as a list for a sequence.
    """
    single = isinstance(result, SolveResult)
    results = [result] if single else list(result)
    probes = np.asarray(_PROBES)
    laps = frac_laplacian_pv([res.u for res in results], probes, cert.kp)
    h_at = interpolate(cert.h, probes)
    for res, lap in zip(results, laps):
        rhs = interpolate(res.u, probes, cert.kp) ** cert.p + h_at
        res.strong_residual = float(np.abs(lap - rhs).max())
    worst = [res.strong_residual for res in results]
    return worst[0] if single else worst


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


def _solve_pair(M, u0vec, p, b, weight=1.0, tol=1e-11):
    """(count, minimal, second) for u = M u^p + u0vec; absent branches are None.

    The minimal branch is solved as picard_minimal solves it, with Picard
    to tol, and the second is sought by the search newton_second runs.
    M is the full operator, or its even half with the half's `weight`.
    """
    umin, _, st = _minimal_branch(M, u0vec, p, b, tol, 1e-12)
    if st != "converged":
        return 0, None, None
    scalar = ScalarProblem(b=b, u0=float(np.abs(u0vec).max()), p=p)
    system = _branch_system(M, u0vec, p)
    usec, _, st = _second_branch(system, umin, umin, scalar, 1e-12, _NEWTON_MAX, weight=weight)
    return (2, umin, usec) if st == "converged" else (1, umin, None)


def _fold_newton(M, base, p, u, v, lam, tol=1e-12, max_iter=30):
    """Moore-Spence Newton for the fold of u = M u^p + lam * base.

    Unknowns u, v and lam; equations u - M u^p - lam base = 0,
    (I - M diag(p u^(p-1))) v = 0 and v[c] = 1, c = argmax |v| at the
    start: the bordered (2m+1) system handed to _newton.  A quadratic
    fold is a regular solution, so Newton converges quadratically near
    it.  u must be positive: callers drop the zero endpoint values, where
    p (p-1) u^(p-2) is infinite for p < 2.  M is the full operator or its
    even half.  Returns lam, or None.
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

    Counts branches on a coarse lambda grid.  The minimal branch exists
    only at or below the fold, so the last two-branch point lam_lo and
    lam_hi, the first later point with no branch (else the last point),
    bracket it; from lam_lo the fold is located by one Newton solve of
    the Moore-Spence system, started at u = (u_minimal + u_second)/2 with
    null vector u_second - u_minimal.  The scalar model is the same solve
    with n = 1.  fold_estimate is NaN, and fold_status says why, when the
    scan never went from two branches to fewer ("not_bracketed"), or when
    Newton failed or left (lam_lo, lam_hi] by more than its tolerance
    ("newton_failed").  h_base must have the cone shape, as for certify.
    """
    if not (0.0 < lambda_lo < lambda_hi):
        raise ValueError(f"need 0 < lambda_lo < lambda_hi, got [{lambda_lo}, {lambda_hi}]")
    if steps < 2:
        raise ValueError(f"need at least 2 sweep steps, got {steps}")
    _require_forcing_shape(h_base)
    b = operator_norm_b(kp, p)
    u0_base = apply_green(h_base, kp)
    u0_base_sup = u0_base.sup_norm
    if u0_base_sup == 0.0:
        raise ValueError("base forcing is identically zero; nothing to sweep")
    if scalar_model:
        M = np.array([[b]])
        base = np.array([u0_base_sup])
        inner, weight = slice(None), 1.0
    else:
        M = _half(get_operator(h_base.grid, kp).matrix)
        base = u0_base.values[: M.shape[0]]
        inner, weight = slice(1, None), _even_weight(M.shape[0])  # u vanishes at the endpoint
    lam_cert = (critical_constant(p) / b) ** (1.0 / (p - 1.0)) / u0_base_sup

    sup = lambda u: float(np.abs(u).max()) if u is not None else np.nan
    points, pairs = [], []
    for lam in np.linspace(lambda_lo, lambda_hi, steps):
        nf, umin, usec = _solve_pair(M, lam * base, p, b, weight)
        points.append(SweepPoint(lam=float(lam), n_found=nf, sup_minimal=sup(umin), sup_second=sup(usec)))
        pairs.append((umin, usec))

    fold, status = np.nan, "not_bracketed"
    two = [i for i, pt in enumerate(points) if pt.n_found == 2]
    if two and two[-1] + 1 < len(points):
        lo = points[two[-1]].lam
        hi = next((pt.lam for pt in points[two[-1] + 1 :] if pt.n_found == 0), points[-1].lam)
        umin, usec = pairs[two[-1]]
        lam = _fold_newton(
            M[inner, inner], base[inner], p,
            0.5 * (umin + usec)[inner], (usec - umin)[inner], lo,
        )
        # a fold on the last scan point is a double root counted as one
        # branch there; Newton then lands within its tolerance of it
        if lam is not None and lo < lam <= hi * (1.0 + 1e-12):
            fold, status = lam, "converged"
        else:
            status = "newton_failed"
    return SweepResult(
        points=points, fold_estimate=float(fold), lambda_cert=float(lam_cert), fold_status=status
    )
