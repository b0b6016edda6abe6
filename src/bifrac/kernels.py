"""Explicit kernels of the fractional Laplacian on the interval (-1, 1).

Provides the Green function and Poisson kernel of (-Delta)^(alpha/2) with
zero exterior condition, the normalization constants, and a principal-value
evaluator of the operator for grid functions on [-1,1].  Everything is
one-dimensional.

The Green function is

    G(x,y) = c_alpha |x-y|^(alpha-1) * I(w(x,y)),
    I(w) = int_0^w r^(s-1) (1+r)^(-1/2) dr,    s = alpha/2,
    w(x,y) = (1-x^2)(1-y^2) / (x-y)^2,

zero as soon as either argument leaves the open interval.  I is a Gauss
hypergeometric function (DLMF 15.8.2); for w > 1 its connection formula
splits off the term that diverges as w -> inf when alpha > 1.  That split
is what makes the diagonal, where the product form is 0*inf, and the
near-diagonal values exact without special-casing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import hyp2f1, roots_jacobi

__all__ = [
    "KernelParams",
    "norm_const",
    "green_const",
    "poisson_const",
    "w_factor",
    "green_ball",
    "green_interval",
    "distance_product_bound",
    "poisson_ball",
    "poisson_total_mass",
    "frac_laplacian_pv",
]

_GL_NODES, _GL_WEIGHTS = leggauss(16)

# Solver-grade window for the order: the quadrature, the principal-value
# correction and the two-solution machinery are tuned and tested here.
SOLVER_ALPHA_MIN = 1.05
SOLVER_ALPHA_MAX = 1.95


@dataclass(frozen=True)
class KernelParams:
    """Operator order alpha in (0, 2)."""

    alpha: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")

    def require_solver_window(self):
        """The solve path needs alpha in [1.05, 1.95]."""
        if not SOLVER_ALPHA_MIN <= self.alpha <= SOLVER_ALPHA_MAX:
            raise ValueError(
                f"solver supports alpha in [{SOLVER_ALPHA_MIN}, "
                f"{SOLVER_ALPHA_MAX}], got {self.alpha}"
            )


def norm_const(d: int, gamma: float) -> float:
    """c_{d,gamma} = Gamma((d-gamma)/2) / (2^gamma pi^(d/2) |Gamma(gamma/2)|).

    With d = 1 and gamma = -alpha this is the constant in front of the
    principal-value definition of (-Delta)^(alpha/2).
    """
    num = math.gamma((d - gamma) / 2.0)
    den = 2.0**gamma * math.pi ** (d / 2.0) * abs(math.gamma(gamma / 2.0))
    return num / den


def green_const(kp: KernelParams) -> float:
    """Prefactor c_alpha = 1 / (2^alpha Gamma(alpha/2)^2)."""
    return 1.0 / (2.0**kp.alpha * math.gamma(kp.alpha / 2.0) ** 2)


def poisson_const(kp: KernelParams) -> float:
    """Prefactor C_alpha = sin(pi alpha / 2) / pi."""
    return math.sin(math.pi * kp.alpha / 2.0) / math.pi


def w_factor(x, y):
    """w(x,y) = (1-x^2)(1-y^2)/(x-y)^2, +inf on the diagonal, vectorized.

    Symmetric in its arguments and zero whenever either point sits at +-1.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    num = (1.0 - x * x) * (1.0 - y * y)
    den = (x - y) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(den == 0.0, np.inf, num / den)
    return w if w.shape else float(w)


def _connection(w, s):
    """B(s, 1/2-s) and 2F1(1/2, 1/2-s; 3/2-s; -1/w) for w >= 1, s != 1/2.

    The two pieces of the connection formula
    I(w) = B + w^(s-1/2)/(s-1/2) * 2F1(1/2, 1/2-s; 3/2-s; -1/w).
    """
    beta = math.gamma(s) * math.gamma(0.5 - s) / math.sqrt(math.pi)
    return beta, hyp2f1(0.5, 0.5 - s, 1.5 - s, -1.0 / w)


def inner_integral(w, kp: KernelParams):
    """I(w) for w in [0, inf], vectorized.

    For w <= 1, I = (w^s/s) 2F1(1/2, s; s+1; -w).  For w > 1 the connection
    formula I = B(s, 1/2-s) + w^(s-1/2)/(s-1/2) 2F1(1/2, 1/2-s; 3/2-s; -1/w),
    except at alpha = 1 exactly, where B has a pole and I = 2 asinh(sqrt(w)).
    Within about 1e-3 of alpha = 1 the two terms nearly cancel and about
    three digits are lost.
    """
    w = np.asarray(w, dtype=float)
    s = kp.alpha / 2.0
    out = np.empty_like(w)
    small = w <= 1.0
    out[small] = w[small] ** s / s * hyp2f1(0.5, s, s + 1.0, -w[small])
    big = ~small
    if big.any():
        if kp.alpha == 1.0:
            out[big] = 2.0 * np.arcsinh(np.sqrt(w[big]))
        else:
            beta, far = _connection(w[big], s)
            out[big] = beta + w[big] ** (s - 0.5) / (s - 0.5) * far
    return out if out.shape else float(out)


def green_ball(x, y, kp: KernelParams):
    """Green function of (-1, 1), zero outside, vectorized.

    For alpha > 1 the value is finite on the diagonal; whenever w(x,y) > 1
    the evaluation multiplies the connection formula for I through by
    |x-y|^(alpha-1), using |x-y|^(alpha-1) w^(s-1/2) = ((1-x^2)(1-y^2))^(s-1/2):

        G = c * [ 2/(alpha-1) ((1-x^2)(1-y^2))^((alpha-1)/2) 2F1(...; -1/w)
                  + |x-y|^(alpha-1) B(s, 1/2-s) ],

    which stays finite as |x-y| -> 0 and equals the diagonal value there.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    alpha = kp.alpha
    c = green_const(kp)
    out = np.zeros(x.shape)
    inside = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
    if inside.any():
        xi, yi = x[inside], y[inside]
        r = np.abs(xi - yi)
        w = np.asarray(w_factor(xi, yi))
        vals = np.empty_like(xi)

        direct = (w <= 1.0) | (alpha <= 1.0)
        if direct.any():
            # r = 0 with alpha <= 1 diverges; inf is the correct value there
            with np.errstate(divide="ignore"):
                vals[direct] = c * r[direct] ** (alpha - 1.0) * np.asarray(
                    inner_integral(w[direct], kp)
                )
        split = ~direct
        if split.any():
            beta, far = _connection(w[split], alpha / 2.0)
            prod = ((1.0 - xi[split] ** 2) * (1.0 - yi[split] ** 2)) ** (
                (alpha - 1.0) / 2.0
            )
            vals[split] = c * (
                2.0 / (alpha - 1.0) * prod * far + r[split] ** (alpha - 1.0) * beta
            )
        out[inside] = vals
    return out if out.shape else float(out)


def green_interval(x, y, center: float, radius: float, kp: KernelParams):
    """Green function of the interval (center-radius, center+radius).

    Scaling of the operator gives G_W(x,y) = radius^(alpha-1) *
    G_ball((x-c)/radius, (y-c)/radius).
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    xs = (np.asarray(x, dtype=float) - center) / radius
    ys = (np.asarray(y, dtype=float) - center) / radius
    return radius ** (kp.alpha - 1.0) * green_ball(xs, ys, kp)


def distance_product_bound(x, y, kp: KernelParams):
    """Boundary-distance comparator for the interval Green function.

    min(d(x)^(a/2) d(y)^(a/2) / |x-y|, d(x)^((a-1)/2) d(y)^((a-1)/2)) with
    d(x) = 1-|x|.  The Green function is sandwiched between constant
    multiples of this expression for alpha in (1,2); only the ratio being
    bounded on both sides matters, the constants carry no meaning.
    """
    if not kp.alpha > 1.0:
        raise ValueError("the comparator needs alpha > 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = np.clip(1.0 - np.abs(x), 0.0, None)
    dy = np.clip(1.0 - np.abs(y), 0.0, None)
    a = kp.alpha
    with np.errstate(divide="ignore"):
        near = (dx * dy) ** (a / 2.0) / np.abs(x - y)
    far = (dx * dy) ** ((a - 1.0) / 2.0)
    return np.minimum(near, far)


def poisson_ball(x, y, r: float, kp: KernelParams):
    """Poisson kernel of the interval (-r, r): needs |x| < r < |y|.

    P(x,y) = C_alpha (r^2-x^2)^(alpha/2) / ((y^2-r^2)^(alpha/2) |x-y|).
    """
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) >= r):
        raise ValueError("base point must satisfy |x| < r")
    if np.any(np.abs(y) <= r):
        raise ValueError("exterior point must satisfy |y| > r")
    x, y = np.broadcast_arrays(x, y)
    val = (
        poisson_const(kp)
        * (r * r - x * x) ** (kp.alpha / 2.0)
        / ((y * y - r * r) ** (kp.alpha / 2.0) * np.abs(x - y))
    )
    return val if val.shape else float(val)


def poisson_total_mass(x: float, r: float, kp: KernelParams) -> float:
    """int_{|y| > r} P(x, y) dy; equals 1 for any |x| < r.

    The integrand has an algebraic singularity (y-r)^(-alpha/2) at the
    sphere and decays like y^(-1-alpha); each tail is split at 2r and both
    pieces use Gauss-Jacobi rules whose weight absorbs the singular factor
    exactly, so the rules see only analytic functions.
    """
    if abs(x) >= r:
        raise ValueError("base point must satisfy |x| < r")

    alpha = kp.alpha
    amp = poisson_const(kp) * (r * r - x * x) ** (alpha / 2.0)

    def one_tail(xb):
        # near piece int_r^{2r}: weight (y-r)^(-alpha/2)
        xi, wi = roots_jacobi(24, 0.0, -alpha / 2.0)
        yv = r + 0.5 * r * (1.0 + xi)
        g = (yv + r) ** (-alpha / 2.0) / np.abs(yv - xb)
        near = (0.5 * r) ** (1.0 - alpha / 2.0) * float((wi * g).sum())
        # far piece int_{2r}^inf with y = 2r/t: weight t^(alpha-1)
        xj, wj = roots_jacobi(24, 0.0, alpha - 1.0)
        t = 0.5 * (1.0 + xj)
        phi = 2.0 * r ** (1.0 - alpha) * (4.0 - t * t) ** (-alpha / 2.0) / (
            2.0 * r - xb * t
        )
        far = 2.0 ** (-alpha) * float((wj * phi).sum())
        return near + far

    # left tail of x equals right tail of -x by symmetry of the kernel
    return amp * (one_tail(x) + one_tail(-x))


def frac_laplacian_pv(u, x: float, kp: KernelParams) -> float:
    """(-Delta)^(alpha/2) of a grid function at an interior point x.

    u is a GridFunction (extends by zero outside [-1,1]).  The cutoff eps
    is a quarter of the minimum node spacing, so the ball |y-x| < eps never
    holds a node.  The integral is split three ways: the ball contributes
    the even Taylor correction -u''(x) eps^(2-alpha)/(2-alpha) (odd orders
    cancel in the principal value), the exterior |y| > 1 contributes exactly
    u(x) [(1-x)^(-alpha) + (1+x)^(-alpha)]/alpha, and the rest is graded
    Gauss-Legendre on a cubic spline of the node values.

    Points too close to the endpoints are rejected: solutions carry a
    boundary singularity there and the interpolant cannot be trusted.
    """
    from scipy.interpolate import CubicSpline

    alpha = kp.alpha
    nodes = u.grid.nodes
    values = u.values
    gaps = np.diff(nodes)
    eps = 0.25 * float(gaps.min())

    x = float(x)
    if not -1.0 < x < 1.0:
        raise ValueError(f"evaluation point {x} outside (-1, 1)")
    i = int(np.searchsorted(nodes, x))
    local = float(gaps[max(i - 1, 0) : min(i + 1, len(gaps))].max())
    if 1.0 - abs(x) < 2.0 * local:
        raise ValueError(
            f"point {x} too close to the boundary for the node spacing here"
        )

    spline = CubicSpline(nodes, values)
    ux = float(spline(x))

    exterior = ux * ((1.0 - x) ** (-alpha) + (1.0 + x) ** (-alpha)) / alpha
    correction = -float(spline(x, 2)) * eps ** (2.0 - alpha) / (2.0 - alpha)

    # knot-aligned panels with dyadic refinement toward the cutoff
    edges = set(nodes.tolist()) | {x - eps, x + eps}
    for k in range(1, 42):
        for sgn in (-1.0, 1.0):
            t = x + sgn * eps * 2.0**k
            if -1.0 < t < 1.0:
                edges.add(t)
    es = np.array(sorted(e for e in edges if -1.0 <= e <= 1.0))
    lo, hi = es[:-1], es[1:]
    keep = ~((lo >= x - eps) & (hi <= x + eps))
    lo, hi = lo[keep], hi[keep]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    y = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    wq = (half[:, None] * _GL_WEIGHTS).ravel()
    quad = float((wq * ((ux - spline(y)) / np.abs(x - y) ** (1.0 + alpha))).sum())

    return norm_const(1, -alpha) * (quad + exterior + correction)
