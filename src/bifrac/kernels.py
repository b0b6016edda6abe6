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
near-diagonal values exact without special-casing.  Pfaff's transformation
(DLMF 15.8.1) turns both hypergeometric values into F(1/2, 1; c; x) with
0 <= x <= 1/2, a power series of positive terms that numpy sums to
rounding level in at most 54 terms.  Nothing here needs SciPy.

The term count is fixed once per call from the largest argument of the
batch, so a point's last bit can depend on the points evaluated with
it.  green_ball hands it two batches, the points with w <= 1 and those
with w > 1, and a `_GreenPlan` kept for fixed points hands it the same
two, so it gives what a green_ball call on those points gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    "interpolate",
]

# The principal-value quadrature: Gauss-Legendre panels of 8 points
# (_PV_RULE), graded toward +-1 over 20 halvings of the end node gaps, and
# a ball around the point whose Taylor correction takes the coefficients
# of u from 16 points on a circle (see frac_laplacian_pv).
_PV_EDGE_LEVELS = 20
_PV_CIRCLE = 16

# The orders the solve path admits: certify, solve, sweep and the lemma
# battery are tested on this window only.  Near alpha = 1 the connection
# formula for I loses digits to cancellation (see inner_integral), and
# for alpha <= 1 G(0,0) is infinite, so gamma_U and the certificate's
# coercivity constant vanish.  The kernels themselves take all of (0, 2).
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


@functools.lru_cache(maxsize=256)
def _series_coefficients(a: float, b: float, c: float, terms: int) -> tuple:
    """The first `terms` coefficients of F(a, b; c; x), highest first, for Horner's rule."""
    coef = [1.0]
    for k in range(terms - 1):
        coef.append(coef[-1] * (k + a) * (k + b) / ((k + c) * (k + 1.0)))
    return tuple(coef[::-1])


def _hyp2f1_series(a: float, b: float, c: float, x):
    """Gauss hypergeometric F(a, b; c; x) for 0 <= x <= 1/2, vectorized.

    Valid when every term ratio (k+a)(k+b)/((k+c)(k+1)) x lies in [0, x]:
    the terms are then positive and the tail after K terms is below
    x^K/(1-x), so K is fixed up front from the largest x and the sum is
    taken by Horner's rule.  One or two points are summed in Python
    floats, which is far cheaper than numpy on tiny arrays.
    """
    x = np.asarray(x, dtype=float)
    few = x.ravel().tolist() if x.size <= 2 else None
    top = max(few, default=0.0) if few is not None else float(x.max())
    if not 0.0 <= top <= 0.5:
        raise ValueError(f"series needs 0 <= x <= 1/2, got max {top}")
    # the smallest K with top^K / (1 - top) <= 2^-53: 54 at top = 1/2
    terms = 1 if top == 0.0 else math.ceil(math.log(2.0**-53 * (1.0 - top)) / math.log(top))
    coef = _series_coefficients(a, b, c, terms)
    if few is not None:
        out = []
        for xi in few:
            acc = 0.0
            for ck in coef:
                acc = acc * xi + ck
            out.append(acc)
        return np.array(out).reshape(x.shape)
    acc = np.zeros_like(x)
    for ck in coef:
        acc *= x
        acc += ck
    return acc


def _connection(w, s):
    """B(s, 1/2-s) and 2F1(1/2, 1/2-s; 3/2-s; -1/w) for w >= 1, s != 1/2.

    The two pieces of the connection formula
    I(w) = B + w^(s-1/2)/(s-1/2) * 2F1(1/2, 1/2-s; 3/2-s; -1/w).
    By Pfaff the hypergeometric value is (1-t)^(1/2) F(1/2, 1; 3/2-s; t)
    with t = 1/(1+w) <= 1/2.
    """
    beta = math.gamma(s) * math.gamma(0.5 - s) / math.sqrt(math.pi)
    t = 1.0 / (1.0 + w)
    return beta, _hyp2f1_series(0.5, 1.0, 1.5 - s, t) * np.sqrt(1.0 - t)


def inner_integral(w, kp: KernelParams):
    """I(w) for w in [0, inf], vectorized.

    For w <= 1, I = (w^s/s) 2F1(1/2, s; s+1; -w), which Pfaff turns into
    (w^s/s) (1-t)^(1/2) F(1/2, 1; s+1; t) with t = w/(1+w) <= 1/2.  For
    w > 1 the connection formula
    I = B(s, 1/2-s) + w^(s-1/2)/(s-1/2) 2F1(1/2, 1/2-s; 3/2-s; -1/w),
    except at alpha = 1 exactly, where B has a pole and I = 2 asinh(sqrt(w)).
    Within about 1e-3 of alpha = 1 the two terms nearly cancel and about
    three digits are lost.
    """
    w = np.asarray(w, dtype=float)
    s = kp.alpha / 2.0
    out = np.empty_like(w)
    small = w <= 1.0
    ws = w[small]
    t = ws / (1.0 + ws)
    out[small] = ws**s / s * _hyp2f1_series(0.5, 1.0, s + 1.0, t) * np.sqrt(1.0 - t)
    big = ~small
    if big.any():
        if kp.alpha == 1.0:
            out[big] = 2.0 * np.arcsinh(np.sqrt(w[big]))
        else:
            beta, far = _connection(w[big], s)
            out[big] = beta + w[big] ** (s - 0.5) / (s - 0.5) * far
    return out if out.shape else float(out)


class _GreenPlan:
    """The alpha-free geometry of green_ball at fixed points x, y.

    Holds the broadcast shape, which points are inside (None when all
    are), and the inside points in row-major order, split at w = 1:
    where w <= 1 (`small`) their w and r = |x-y|, elsewhere their w, r
    and num = (1-x^2)(1-y^2).  `evaluate(kp)` does only the work that
    depends on alpha.  The series behind each value fixes its term count
    from the largest argument of its batch, so a value depends on the
    other points of its plan, never on what was evaluated before.
    """

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        self.shape = x.shape
        inside = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
        self.inside = None if inside.all() else inside
        xi, yi = x[inside], y[inside]
        r = np.abs(xi - yi)
        # w = num / r^2 as w_factor computes it, +inf where r^2 is 0
        num, r2 = (1.0 - xi * xi) * (1.0 - yi * yi), r * r
        w = np.divide(num, r2, out=np.full_like(num, np.inf), where=r2 > 0.0)
        self.small = w <= 1.0
        big = ~self.small
        self.w_small, self.r_small = w[self.small], r[self.small]
        self.w_big, self.r_big, self.num_big = w[big], r[big], num[big]

    def evaluate(self, kp: KernelParams):
        """G at the plan's points: an array of its shape, a float for scalar points."""
        alpha = kp.alpha
        c = green_const(kp)
        vals = np.empty(self.small.shape)
        # r = 0 with alpha <= 1 diverges; inf is the correct value there
        with np.errstate(divide="ignore"):
            if self.w_small.size:
                vals[self.small] = c * self.r_small ** (alpha - 1.0) * inner_integral(self.w_small, kp)
            if self.w_big.size:
                if alpha <= 1.0:
                    big = c * self.r_big ** (alpha - 1.0) * inner_integral(self.w_big, kp)
                else:
                    beta, far = _connection(self.w_big, alpha / 2.0)
                    prod = self.num_big ** ((alpha - 1.0) / 2.0)
                    big = c * (2.0 / (alpha - 1.0) * prod * far + self.r_big ** (alpha - 1.0) * beta)
                vals[~self.small] = big
        if self.inside is None:
            out = vals.reshape(self.shape)
        else:
            out = np.zeros(self.shape)
            out[self.inside] = vals
        return out if out.shape else float(out)


def green_ball(x, y, kp: KernelParams):
    """Green function of (-1, 1), zero outside, vectorized.

    For alpha > 1 the value is finite on the diagonal; whenever w(x,y) > 1
    the evaluation multiplies the connection formula for I through by
    |x-y|^(alpha-1), using |x-y|^(alpha-1) w^(s-1/2) = ((1-x^2)(1-y^2))^(s-1/2):

        G = c * [ 2/(alpha-1) ((1-x^2)(1-y^2))^((alpha-1)/2) 2F1(...; -1/w)
                  + |x-y|^(alpha-1) B(s, 1/2-s) ],

    which stays finite as |x-y| -> 0 and equals the diagonal value there.
    A caller that evaluates the same points at several alpha keeps their
    `_GreenPlan` instead.
    """
    return _GreenPlan(x, y).evaluate(kp)


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


def _gauss_jacobi(n: int, a: float, b: float):
    """Nodes and weights of the n-point Gauss rule for (1-x)^a (1+x)^b on [-1, 1].

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of the monic recurrence, and
    each weight is the total mass times the squared first component of
    its eigenvector.
    """
    k = np.arange(n, dtype=float)
    t = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (t[1:] * (t[1:] + 2.0))
    k, t = k[1:], t[1:]
    # k = 1 cancels the factor a + b + 1 by hand, in case it is zero
    num = 4.0 * k * (k + a) * (k + b) * np.where(k == 1.0, 1.0, k + a + b)
    den = t * t * (t + 1.0) * np.where(k == 1.0, 1.0, t - 1.0)
    off = np.sqrt(num / den)
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mass = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    mass /= math.gamma(a + b + 2.0)
    return nodes, mass * vecs[0] ** 2


_PV_RULE = _gauss_jacobi(8, 0.0, 0.0)


def poisson_total_mass(x, r: float, kp: KernelParams):
    """int_{|y| > r} P(x, y) dy; equals 1 for any |x| < r.  Vectorized in x.

    The integrand has an algebraic singularity (y-r)^(-alpha/2) at the
    sphere and decays like y^(-1-alpha); each tail is split at 2r and both
    pieces use Gauss-Jacobi rules whose weight absorbs the singular factor
    exactly, so the rules see only analytic functions.  Each rule is built
    once per call, whatever the number of base points.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= r):
        raise ValueError("base point must satisfy |x| < r")

    alpha = kp.alpha
    # near piece int_r^{2r}: weight (y-r)^(-alpha/2)
    xi, wi = _gauss_jacobi(24, 0.0, -alpha / 2.0)
    yv = r + 0.5 * r * (1.0 + xi)
    # far piece int_{2r}^inf with y = 2r/t: weight t^(alpha-1)
    xj, wj = _gauss_jacobi(24, 0.0, alpha - 1.0)
    t = 0.5 * (1.0 + xj)

    def one_tail(xb):
        xb = xb[..., None]
        g = (yv + r) ** (-alpha / 2.0) / np.abs(yv - xb)
        near = (0.5 * r) ** (1.0 - alpha / 2.0) * (wi * g).sum(axis=-1)
        phi = 2.0 * r ** (1.0 - alpha) * (4.0 - t * t) ** (-alpha / 2.0) / (
            2.0 * r - xb * t
        )
        far = 2.0 ** (-alpha) * (wj * phi).sum(axis=-1)
        return near + far

    # Python's pow per point, as scalar calls always used: numpy's array pow
    # differs from it in the last bit for ~6 % of arguments on an AVX-512 host
    amp = np.reshape([(r * r - xb * xb) ** (alpha / 2.0) for xb in x.ravel().tolist()], x.shape)
    # left tail of x equals right tail of -x by symmetry of the kernel
    mass = poisson_const(kp) * amp * (one_tail(x) + one_tail(-x))
    return mass if mass.shape else float(mass)


class _Barycentric:
    """Polynomials through (nodes, values), in barycentric form with the given weights.

    values is one vector of node values or a stack of them, one polynomial
    per row, all evaluated over the same reciprocals 1/(y - nodes).
    """

    # largest temporary, in doubles, of one chunk of points
    CHUNK = 1 << 16

    def __init__(self, nodes, weights, values):
        self.nodes, self.weights, self.values = nodes, weights, values

    def __call__(self, y):
        """Values at real or complex points y: shape y.shape, or (rows,) + y.shape for a stack."""
        y = np.asarray(y)
        flat = y.ravel()
        nodes = self.nodes
        stack = self.values.reshape(-1, nodes.size)
        at = np.minimum(np.searchsorted(nodes, flat), nodes.size - 1)
        hit = np.flatnonzero(nodes[at] == flat)
        out = np.empty((len(stack), flat.size), dtype=np.result_type(flat, float))
        # one product of the same shape per polynomial, so its values do not
        # depend on how many polynomials are evaluated together
        rhs = [np.stack([self.weights * v, self.weights], axis=1) for v in stack]
        rows = max(1, self.CHUNK // nodes.size)
        buf = np.empty((min(rows, flat.size), nodes.size), dtype=out.dtype)
        # a point on a node gives inf/inf here and takes the node's value below
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, flat.size, rows):
                C = buf[: flat.size - lo]
                np.subtract(flat[lo : lo + rows, None], nodes, out=C)
                np.reciprocal(C, out=C)
                for o, r in zip(out, rhs):
                    num, den = (C @ r).T
                    o[lo : lo + rows] = num / den
        out[:, hit] = stack[:, at[hit]]
        return out.reshape(self.values.shape[:-1] + y.shape)


def _interpolant(nodes, values, kp: KernelParams | None) -> _Barycentric:
    """Plain (kp None): the polynomial through all node values.
    Weighted: the polynomial q through u/w at the interior nodes.
    values is one vector of node values or a stack of them."""
    # barycentric weights of the Chebyshev extrema, and of the interior ones,
    # which are the roots of U_(n-2)
    sign = (-1.0) ** np.arange(nodes.size)
    if kp is None:
        weights = sign.copy()
        weights[[0, -1]] *= 0.5
        return _Barycentric(nodes, weights, values)
    inner = slice(1, -1)
    x = nodes[inner]
    r = 1.0 - x * x
    return _Barycentric(x, sign[inner] * r, values[..., inner] / r ** (kp.alpha / 2.0))


def interpolate(u, x, kp: KernelParams | None = None):
    """The interpolant of the grid function u at points x in [-1, 1].

    Without kp, the polynomial through all n node values: right for a
    smooth function such as a forcing.  With kp, u = w q with
    w = (1-x^2)^(alpha/2) and q the polynomial through u/w at the interior
    nodes.  That is the form of every G f: (1-x^2)^(alpha/2) P_k^(s,s) is
    the Jacobi eigenbasis of the operator, so the weighted interpolant
    carries the boundary singularity no polynomial can.
    """
    x = np.asarray(x, dtype=float)
    out = _interpolant(u.grid.nodes, u.values, kp)(x)
    if kp is not None:
        out *= (1.0 - x * x) ** (kp.alpha / 2.0)
    return out if out.shape else float(out)


def _gauss_panels(edges):
    """Points and weights of the quadrature rule on each panel between edges."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = _PV_RULE
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


class _PVPlan:
    """The alpha-free quadrature geometry of frac_laplacian_pv on one grid at one tuple of points.

    Holds the shared far Gauss points `y_far` on every node gap (the end
    gaps graded toward +-1), each point's near dyadic panels (`y_near`,
    point after point), its ball radius `eps` and circle points `z`, and,
    flat and point after point, the quadrature rule of each point:
    indices `take` into y_far followed by y_near, weights `wq` and
    distances `dist` = |x - y|, in the order the sum runs; point i has
    `counts[i]` entries, at `bounds[i]`.  Building one validates the
    points.
    """

    def __init__(self, nodes, points: tuple):
        self.points = points
        gaps = np.diff(nodes)
        n = nodes.size
        x = np.array(points, dtype=float)
        inside = (-1.0 < x) & (x < 1.0)
        i = np.clip(np.searchsorted(nodes, x), 1, n - 1)
        local = np.maximum(gaps[i - 1], gaps[np.minimum(i, n - 2)])
        bad = ~inside | (1.0 - np.abs(x) < 2.0 * local)
        if bad.any():
            k = int(np.argmax(bad))
            if not inside[k]:
                raise ValueError(f"evaluation point {points[k]} outside (-1, 1)")
            raise ValueError(f"point {points[k]} too close to the boundary for the node spacing here")

        halvings = 0.5 ** np.arange(_PV_EDGE_LEVELS, 0, -1)
        edges = np.concatenate(
            [[-1.0], -1.0 + gaps[0] * halvings, nodes[1:-1], 1.0 - gaps[-1] * halvings[::-1], [1.0]]
        )
        y_far, wq_far = _gauss_panels(edges)
        # the gaps lo..hi around each point, and the ball radius
        j = np.searchsorted(edges, x, side="right") - 1
        lo, hi = edges[np.maximum(j - 1, 0)], edges[np.minimum(j + 2, edges.size - 1)]
        eps = np.minimum(0.5 * np.minimum(x - lo, hi - x), (1.0 - np.abs(x)) / 32.0)
        self.x, self.eps, self.y_far = x, eps, y_far
        self.z = x[:, None] + eps[:, None] * np.exp(2j * np.pi * np.arange(_PV_CIRCLE) / _PV_CIRCLE)

        y_near, take, wq, dist, self.counts = [], [], [], [], []
        for xi, a, b, e in zip(points, lo, hi, eps):
            # panels graded dyadically from the ends of the three gaps down
            # to the ball; the ball's own panel is left out
            dyadic = e * 2.0 ** np.arange(60)
            left, right = xi - dyadic[xi - dyadic > a], xi + dyadic[xi + dyadic < b]
            y, w = _gauss_panels(np.concatenate([[a], left[::-1], right, [b]]))
            outside = np.abs(y - xi) > e
            y, w = y[outside], w[outside]
            far = np.flatnonzero((y_far < a) | (y_far > b))
            take += [far, y_far.size + sum(map(len, y_near)) + np.arange(y.size)]
            y_near.append(y)
            wq += [wq_far[far], w]
            dist.append(np.abs(xi - np.concatenate([y_far[far], y])))
            self.counts.append(far.size + y.size)
        ends = np.cumsum(self.counts).tolist()
        self.bounds = list(zip([0, *ends[:-1]], ends))
        self.y_near, self.take = np.concatenate(y_near), np.concatenate(take)
        self.wq, self.dist = np.concatenate(wq), np.concatenate(dist)


_PV_PLANS = {}  # grid size -> _PVPlan of the last points frac_laplacian_pv evaluated at that size


def frac_laplacian_pv(u, x, kp: KernelParams):
    """(-Delta)^(alpha/2) of a grid function at interior points x, vectorized.

    u is a GridFunction (extends by zero outside [-1,1]), or a sequence of
    GridFunctions on one grid, for which a list of results comes back, one
    per function, each equal to a call with that function alone.  Each is
    read as its weighted interpolant u = w q (see `interpolate`), built
    once per call however many points x holds.  The integral is split
    three ways:

    - the ball |y-x| < eps gives -sum_k u_k 2 eps^(k-alpha)/(k-alpha) over
      even k = 2..6, u_k the Taylor coefficients of u at x (odd orders
      cancel in the principal value).  By Cauchy's formula u_k eps^k is
      the k-th DFT coefficient of u at 16 points of the circle
      |z-x| = eps, where the weighted interpolant is evaluated in complex
      arithmetic; no derivative is formed, so the coefficients keep their
      accuracy however close x lies to a node;
    - the exterior |y| > 1 gives exactly
      u(x) [(1-x)^(-alpha) + (1+x)^(-alpha)]/alpha;
    - the rest is Gauss-Legendre on every node gap, the end gaps graded
      toward +-1 where w is singular.  The three gaps around x are left
      out of that shared set; panels graded dyadically from their ends
      down to the ball replace them.

    eps is at most half the distance from x to either end of those three
    gaps, and at most (1-|x|)/32: the Taylor series of w at x converges
    within 1-|x|, so the terms past order 6, and the aliasing of the DFT,
    stay below rounding.  Rounding in u(x) - u(y) is amplified by
    eps^(-alpha); a ball this size, rather than one tied to the smallest
    node gap, keeps that near 1e-11 up to n = 513.

    None of that geometry depends on alpha or on u: it is a plan
    (`_PVPlan`), kept per grid size for the last points, so a call builds
    it only for new points.  Every function of a call is evaluated over
    the same reciprocals 1/(y - x_j) of its interpolant.

    Points too close to the endpoints are rejected: solutions carry a
    boundary singularity there and the quadrature cannot be trusted.
    """
    single = hasattr(u, "grid")
    funcs = [u] if single else list(u)
    if not funcs:
        return []
    grid = funcs[0].grid
    if any(f.grid.n != grid.n for f in funcs):
        raise ValueError("the functions must share one grid")
    alpha, s = kp.alpha, kp.alpha / 2.0
    xs = np.asarray(x, dtype=float)
    points = tuple(xs.ravel().tolist())
    plan = _PV_PLANS.get(grid.n)
    if plan is None or plan.points != points:
        plan = _PV_PLANS[grid.n] = _PVPlan(grid.nodes, points)

    q = _interpolant(grid.nodes, np.array([f.values for f in funcs]), kp)
    weight = lambda y: (1.0 - y * y) ** s
    # u on the shared far points, then on every point's near panels, and on
    # the circles, one row per function
    u_y = np.concatenate(
        [weight(plan.y_far) * q(plan.y_far), weight(plan.y_near) * q(plan.y_near)], axis=1
    )
    u_z = weight(plan.z) * q(plan.z)
    xv, eps = plan.x, plan.eps
    even = np.arange(2, _PV_CIRCLE // 2, 2)
    ball_scale, taylor = -2.0 * eps**-alpha, 1.0 / (even - alpha)
    edge = (1.0 - xv) ** (-alpha) + (1.0 + xv) ** (-alpha)
    kernel = plan.dist ** (1.0 + alpha)
    c = norm_const(1, -alpha)
    out = []
    for uy, uz in zip(u_y, u_z):
        # u_k eps^k, u_k the Taylor coefficients of u = w q at x, by Cauchy's
        # formula on the circle |z - x| = eps: the DFT of u there
        scaled = (np.fft.fft(uz, axis=1) / _PV_CIRCLE).real
        ux = scaled[:, 0]  # the mean of u on the circle
        ball = ball_scale * (scaled[:, even] @ taylor)
        exterior = ux * edge / alpha
        terms = (np.repeat(ux, plan.counts) - uy[plan.take]) / kernel
        quad = np.array([plan.wq[a:b] @ terms[a:b] for a, b in plan.bounds])
        vals = c * (quad + ball + exterior)
        out.append(vals.reshape(xs.shape) if xs.shape else float(vals[0]))
    return out[0] if single else out
