"""The principal-value evaluator one function at a time: a test oracle.

This was `bifrac.kernels.frac_laplacian_pv` before it took a sequence of
functions and kept its alpha-free geometry on the grid.  Every call
rebuilds the far and near panels, the circle points and the boundary
checks, walks the points in Python, and evaluates the weighted
interpolant of its one function on its own.  The stacked evaluator must
reproduce it to rounding on both branches of the solve.
"""

from __future__ import annotations

import numpy as np

from bifrac.kernels import _PV_CIRCLE, _PV_EDGE_LEVELS, _PV_RULE, KernelParams, norm_const


class _Barycentric:
    """Polynomial through (nodes, values), in barycentric form with the given weights."""

    # largest temporary, in doubles, of one chunk of points
    CHUNK = 1 << 16

    def __init__(self, nodes, weights, values):
        self.nodes, self.weights, self.values = nodes, weights, values

    def __call__(self, y):
        """Values at real or complex points y."""
        y = np.asarray(y)
        flat = y.ravel()
        nodes = self.nodes
        at = np.minimum(np.searchsorted(nodes, flat), nodes.size - 1)
        hit = np.flatnonzero(nodes[at] == flat)
        out = np.empty(flat.size, dtype=np.result_type(flat, float))
        rhs = np.stack([self.weights * self.values, self.weights], axis=1)
        rows = max(1, self.CHUNK // nodes.size)
        buf = np.empty((min(rows, flat.size), nodes.size), dtype=out.dtype)
        # a point on a node gives inf/inf here and takes the node's value below
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, flat.size, rows):
                C = buf[: flat.size - lo]
                np.subtract(flat[lo : lo + rows, None], nodes, out=C)
                np.reciprocal(C, out=C)
                num, den = (C @ rhs).T
                out[lo : lo + rows] = num / den
        out[hit] = self.values[at[hit]]
        return out.reshape(y.shape)


def _interpolant(u, kp: KernelParams | None) -> _Barycentric:
    """Plain (kp None): the polynomial through all node values of u.
    Weighted: the polynomial q through u/w at the interior nodes."""
    nodes = u.grid.nodes
    # barycentric weights of the Chebyshev extrema, and of the interior ones,
    # which are the roots of U_(n-2)
    sign = (-1.0) ** np.arange(nodes.size)
    if kp is None:
        weights = sign.copy()
        weights[[0, -1]] *= 0.5
        return _Barycentric(nodes, weights, u.values)
    inner = slice(1, -1)
    x = nodes[inner]
    r = 1.0 - x * x
    return _Barycentric(x, sign[inner] * r, u.values[inner] / r ** (kp.alpha / 2.0))


def _gauss_panels(edges):
    """Points and weights of the quadrature rule on each panel between edges."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = _PV_RULE
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def frac_laplacian_pv(u, x, kp: KernelParams):
    """(-Delta)^(alpha/2) of a grid function at interior points x, vectorized.

    u is a GridFunction (extends by zero outside [-1,1]), read as its
    weighted interpolant u = w q (see `interpolate`), built once per call
    however many points x holds.  The integral is split three ways:

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

    Points too close to the endpoints are rejected: solutions carry a
    boundary singularity there and the quadrature cannot be trusted.
    """
    alpha, s = kp.alpha, kp.alpha / 2.0
    nodes = u.grid.nodes
    gaps = np.diff(nodes)
    xs = np.asarray(x, dtype=float)
    points = xs.ravel().tolist()
    for xi in points:
        if not -1.0 < xi < 1.0:
            raise ValueError(f"evaluation point {xi} outside (-1, 1)")
        i = int(np.searchsorted(nodes, xi))
        local = float(gaps[max(i - 1, 0) : min(i + 1, len(gaps))].max())
        if 1.0 - abs(xi) < 2.0 * local:
            raise ValueError(f"point {xi} too close to the boundary for the node spacing here")

    q = _interpolant(u, kp)
    weight = lambda y: (1.0 - y * y) ** s
    halvings = 0.5 ** np.arange(_PV_EDGE_LEVELS, 0, -1)
    edges = np.concatenate(
        [[-1.0], -1.0 + gaps[0] * halvings, nodes[1:-1], 1.0 - gaps[-1] * halvings[::-1], [1.0]]
    )
    y_far, wq_far = _gauss_panels(edges)
    u_far = weight(y_far) * q(y_far)
    # the gaps lo..hi around each point, and the ball radius
    xv = np.array(points)
    j = np.searchsorted(edges, xv, side="right") - 1
    lo, hi = edges[np.maximum(j - 1, 0)], edges[np.minimum(j + 2, edges.size - 1)]
    eps = np.minimum(0.5 * np.minimum(xv - lo, hi - xv), (1.0 - np.abs(xv)) / 32.0)
    # u_k eps^k, u_k the Taylor coefficients of u = w q at x, by Cauchy's
    # formula on the circle |z - x| = eps: the DFT of u there
    z = xv[:, None] + eps[:, None] * np.exp(2j * np.pi * np.arange(_PV_CIRCLE) / _PV_CIRCLE)
    scaled = (np.fft.fft(weight(z) * q(z), axis=1) / _PV_CIRCLE).real
    even = np.arange(2, _PV_CIRCLE // 2, 2)
    ux = scaled[:, 0]  # the mean of u on the circle
    ball = -2.0 * eps**-alpha * (scaled[:, even] @ (1.0 / (even - alpha)))
    exterior = ux * ((1.0 - xv) ** (-alpha) + (1.0 + xv) ** (-alpha)) / alpha

    near = []
    for xi, a, b, e in zip(points, lo, hi, eps):
        dyadic = e * 2.0 ** np.arange(60)
        left, right = xi - dyadic[xi - dyadic > a], xi + dyadic[xi + dyadic < b]
        y, wq = _gauss_panels(np.concatenate([[a], left[::-1], right, [b]]))
        outside = np.abs(y - xi) > e  # the ball's own panel is left out
        near.append((y[outside], wq[outside]))
    y_near = np.concatenate([y for y, _ in near])
    u_near = np.split(weight(y_near) * q(y_near), np.cumsum([y.size for y, _ in near])[:-1])
    out = []
    for i, xi in enumerate(points):
        far = (y_far < lo[i]) | (y_far > hi[i])
        y = np.concatenate([y_far[far], near[i][0]])
        wq = np.concatenate([wq_far[far], near[i][1]])
        uy = np.concatenate([u_far[far], u_near[i]])
        quad = float(wq @ ((ux[i] - uy) / np.abs(xi - y) ** (1.0 + alpha)))
        out.append(norm_const(1, -alpha) * (quad + ball[i] + exterior[i]))
    return np.array(out).reshape(xs.shape) if xs.shape else float(out[0])
