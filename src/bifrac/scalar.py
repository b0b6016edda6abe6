"""Real-line model equation u = b*u^p + u0 and the radii certificate.

The scalar equation captures the sup-norm behaviour of the full fixed-point
problem: the number of nonnegative roots flips from two to zero as
b*u0^(p-1) crosses the critical constant c_p, and the three radii built
from its roots drive the compression/expansion argument of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ScalarProblem",
    "Radii",
    "CertificateFailure",
    "critical_constant",
    "tangency_amplitude",
    "scalar_roots",
    "radii_certificate",
]

# Relative window around c_p treated as exact tangency.  The two-solution
# guarantee needs strict inequality, so the boundary case is reported as
# its own failure kind instead of success or failure.
_TANGENT_RTOL = 1e-10


@dataclass(frozen=True)
class ScalarProblem:
    """Coefficients of u = b*u^p + u0 with b > 0, u0 >= 0, p > 1."""

    b: float
    u0: float
    p: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if not self.u0 >= 0:
            raise ValueError(f"u0 must be nonnegative, got {self.u0}")
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")


@dataclass(frozen=True)
class Radii:
    """Nested radii 0 < rho1 < rho2 < rho3 for the two fixed-point annuli."""

    rho1: float
    rho2: float
    rho3: float

    def __post_init__(self):
        if not 0 < self.rho1 < self.rho2 < self.rho3:
            raise ValueError(
                f"radii must satisfy 0 < rho1 < rho2 < rho3, got "
                f"{self.rho1}, {self.rho2}, {self.rho3}"
            )


@dataclass(frozen=True)
class CertificateFailure:
    """Outcome of radii_certificate when no admissible radii exist.

    kind is one of:
      "supercritical"  b*u0^(p-1) > c_p, the smallness condition fails
      "threshold"      b*u0^(p-1) = c_p to within rounding (tangency; the
                       strict inequality the guarantee needs does not hold)
      "degenerate"     u0 = 0, where u = 0 is itself a solution and rho1
                       is undefined
    """

    kind: str
    lhs: float
    c_p: float


def critical_constant(p: float) -> float:
    """Threshold constant c_p = ((p-1)^((1-p)/p) + (p-1)^(1/p))^(-p).

    For b*u0^(p-1) < c_p the scalar equation has two nonnegative roots;
    beyond it, none.  c_2 = 1/4 and c_3 = 4/27.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    q = p - 1.0
    return (q ** ((1.0 - p) / p) + q ** (1.0 / p)) ** (-p)


def tangency_amplitude(b: float, p: float) -> float:
    """u_t = (1/(p*b))^(1/(p-1)), where b*u^p - u is smallest on u >= 0."""
    return (1.0 / (p * b)) ** (1.0 / (p - 1.0))


def _convex_root(f, df, x):
    """Root of a convex f by Newton's method from x with f(x) >= 0.

    From that side of a root of a convex function each Newton step moves
    toward the root and never past it, so the iterates stay in the
    bracket; the loop ends when rounding stops f from decreasing.
    """
    fx = f(x)
    for _ in range(100):  # a near-double root needs about 30 steps
        if not fx > 0.0:
            break
        nx = x - fx / df(x)
        fn = f(nx)
        if not fn < fx:
            break
        x, fx = nx, fn
    return x


def scalar_roots(prob: ScalarProblem) -> list[float]:
    """All nonnegative roots of u = b*u^p + u0, sorted.

    g(u) = b*u^p + u0 - u is convex on u >= 0 with a unique minimizer
    u_t = (1/(p*b))^(1/(p-1)), so there are at most two sign changes:
    one in [0, u_t], one in [u_t, inf).  Newton's method from 0 climbs to
    the left root and from a point where g > 0 beyond u_t descends to the
    right one; neither overshoots, so both roots are real and nonnegative.
    """
    b, u0, p = prob.b, prob.u0, prob.p
    g = lambda u: b * u**p + u0 - u
    dg = lambda u: p * b * u ** (p - 1.0) - 1.0

    u_t = tangency_amplitude(b, p)
    g_min = g(u_t)

    if g_min > 0.0:
        return []
    if g_min == 0.0:
        return [u_t]

    # left root in [0, u_t): g(0) = u0 >= 0
    left = _convex_root(g, dg, 0.0)
    # right root in (u_t, inf): expand the bracket until g turns positive
    hi = 2.0 * u_t
    while g(hi) <= 0.0:
        hi *= 2.0
    return [left, _convex_root(g, dg, hi)]


def radii_certificate(
    a_coef: float, b_coef: float, u0_norm: float, p: float
) -> Radii | CertificateFailure:
    """Deterministic radii for the compression/expansion argument.

    Given the coercivity coefficient a_coef and growth coefficient b_coef
    of the nonlinear operator (a_coef <= b_coef), and the sup norm of the
    inhomogeneity, returns radii satisfying

        b_coef*rho1^p + rho1 < u0_norm,
        u0_norm + b_coef*rho2^p < rho2,
        a_coef*rho3^p - rho3 > u0_norm.

    The choices are pinned for reproducibility: rho2 is the minimizer of
    b_coef*rho^(p-1) + u0_norm/rho, rho1 is half the positive root of
    b_coef*rho^p + rho = u0_norm, and rho3 is twice the larger of rho2 and
    the largest root of a_coef*rho^p - rho = u0_norm.
    """
    if not (0 < a_coef <= b_coef):
        raise ValueError(f"need 0 < a_coef <= b_coef, got {a_coef}, {b_coef}")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if u0_norm < 0:
        raise ValueError(f"u0_norm must be nonnegative, got {u0_norm}")

    c_p = critical_constant(p)
    lhs = b_coef * u0_norm ** (p - 1.0)

    if u0_norm == 0.0:
        return CertificateFailure("degenerate", lhs, c_p)
    if abs(lhs - c_p) <= _TANGENT_RTOL * c_p:
        return CertificateFailure("threshold", lhs, c_p)
    if lhs > c_p:
        return CertificateFailure("supercritical", lhs, c_p)

    rho2 = (u0_norm / (b_coef * (p - 1.0))) ** (1.0 / p)

    # both functions are convex with one positive root; f1(u0) = b*u0^p > 0
    f1 = lambda r: b_coef * r**p + r - u0_norm
    r1 = _convex_root(f1, lambda r: p * b_coef * r ** (p - 1.0) + 1.0, u0_norm)
    rho1 = 0.5 * r1

    f3 = lambda r: a_coef * r**p - r - u0_norm
    hi = max(2.0 * rho2, 2.0 / a_coef)
    while f3(hi) <= 0.0:
        hi *= 2.0
    r3 = _convex_root(f3, lambda r: p * a_coef * r ** (p - 1.0) - 1.0, hi)
    rho3 = max(2.0 * rho2, 2.0 * r3)

    return Radii(rho1, rho2, rho3)
