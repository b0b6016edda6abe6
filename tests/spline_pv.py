"""The principal-value evaluator on a cubic spline of the node values: a test oracle.

This was bifrac's evaluator before the weighted interpolant u = w q
replaced it; it needs SciPy.  The spline ignores the (1-x^2)^(alpha/2)
edge singularity, so it is accurate to about 1e-4 at n = 65, not to
rounding, but it shares no code with the current evaluator beyond the
normalising constant.  The cutoff eps is a quarter of the minimum node
spacing, so the ball |y-x| < eps never holds a node; the ball gives
-u''(x) eps^(2-alpha)/(2-alpha), the exterior |y| > 1 gives
u(x) [(1-x)^(-alpha) + (1+x)^(-alpha)]/alpha, and the rest is graded
16-point Gauss-Legendre on the spline.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from bifrac.kernels import norm_const

_NODES, _WEIGHTS = leggauss(16)


def spline_pv(u, x, kp):
    """(-Delta)^(alpha/2) of the cubic spline through u's node values, at one point x."""
    alpha = kp.alpha
    nodes = u.grid.nodes
    eps = 0.25 * float(np.diff(nodes).min())
    spline = CubicSpline(nodes, u.values)
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
    es = np.array(sorted(edges))
    lo, hi = es[:-1], es[1:]
    keep = ~((lo >= x - eps) & (hi <= x + eps))
    lo, hi = lo[keep], hi[keep]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    y = (mid[:, None] + half[:, None] * _NODES).ravel()
    wq = (half[:, None] * _WEIGHTS).ravel()
    quad = float((wq * ((ux - spline(y)) / np.abs(x - y) ** (1.0 + alpha))).sum())
    return norm_const(1, -alpha) * (quad + exterior + correction)
