"""Monotone Picard iteration from zero on the full grid: a test oracle.

This was bifrac's `picard_minimal` before the minimal branch moved to the
even half with a capped Picard phase and a Newton finish.  It runs plain
Picard to `max_iter` steps and shares only the operator and the cone
check with the solver.  Its iterates increase toward the minimal
solution, so it converges below the fold and diverges above it; the
guard is rho2 (1 + 1e-9) when the certificate passed, else four times
the scalar tangency amplitude.
"""

import numpy as np

from bifrac.cone import check_membership
from bifrac.greenop import get_operator
from bifrac.scalar import tangency_amplitude
from bifrac.solver import CertificateReport, SolveResult, _pow


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


def full_grid_picard(cert: CertificateReport, tol: float = 1e-12, max_iter: int = 5000) -> SolveResult:
    """Minimal-branch solution of the problem `cert` poses, by monotone iteration from zero.

    The iterates increase toward the smallest fixed point.  While the
    certificate holds they stay under rho2, so crossing that radius (or
    four times the scalar tangency amplitude when the certificate fails)
    is reported as divergence.
    """
    h, p = cert.h, cert.p
    if cert.u0_sup == 0.0:
        u = h.with_values(np.zeros(h.grid.n))
        return SolveResult(
            u=u, fixed_point_residual=0.0, iterations=0, branch="minimal",
            in_cone=check_membership(u, cert.spec).member, converged=True, status="converged",
        )
    guard = cert.radii.rho2 * (1.0 + 1e-9) if cert.passed else 4.0 * tangency_amplitude(cert.b, p)
    M, u0vec = get_operator(h.grid, cert.kp).matrix, cert.u0.values
    vals, iters, status = _picard(M=M, u0vec=u0vec, p=p, tol=tol, max_iter=max_iter, guard=guard)
    u = h.with_values(vals)
    fp = float(np.abs(vals - M @ _pow(vals, p) - u0vec).max())
    return SolveResult(
        u=u, fixed_point_residual=fp, iterations=iters, branch="minimal",
        in_cone=check_membership(u, cert.spec).member, converged=(status == "converged"),
        status=status,
    )
