"""Graded Gauss-Legendre panels for rows of the Green operator: a test oracle.

Independent of the closed forms in bifrac.greenop: each integral of
G(x, .) is taken by 16-point Gauss-Legendre panels refined dyadically
toward the singular points y = x and y = +-1.  For matrix rows `split`
cuts every panel into that many equal pieces.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from bifrac.kernels import green_ball

_NODES, _WEIGHTS = leggauss(16)
# grading depths: the untreated remainder near a singular point is below 1e-16
_DEPTH_TARGET = 45
_DEPTH_BOUNDARY = 30
_CHUNK = 4096


def _graded_edges(target, lo, hi):
    edges = {lo, hi, target}
    dl, dr = target - lo, hi - target
    for k in range(1, _DEPTH_TARGET):
        if dl * 0.5**k > 1e-16:
            edges.add(target - dl * 0.5**k)
        if dr * 0.5**k > 1e-16:
            edges.add(target + dr * 0.5**k)
    for k in range(1, _DEPTH_BOUNDARY):
        if dl * 0.5**k > 1e-16:
            edges.add(lo + dl * 0.5**k)
        if dr * 0.5**k > 1e-16:
            edges.add(hi - dr * 0.5**k)
    return np.array(sorted(edges))


def _panel_points(x, lo, hi, split):
    edges = _graded_edges(x, lo, hi)
    left, width = edges[:-1], np.diff(edges) / split
    left = (left[:, None] + width[:, None] * np.arange(split)).ravel()
    half = np.repeat(width, split) / 2.0
    pts = ((left + half)[:, None] + half[:, None] * _NODES).ravel()
    wts = (half[:, None] * _WEIGHTS).ravel()
    return pts, wts


def green_row_integral(x, kp, lo=-1.0, hi=1.0):
    """int_lo^hi G(x,y) dy."""
    pts, wts = _panel_points(x, lo, hi, 1)
    return float(wts @ green_ball(np.full_like(pts, x), pts, kp))


def green_matrix_row(nodes, i, kp, split=16):
    """Row i of the collocation matrix: int G(x_i,y) L_j(y) dy for each j.

    L_j is the Lagrange cardinal function of the Chebyshev-extrema nodes,
    evaluated in barycentric form.
    """
    n = nodes.size
    bw = np.ones(n)
    bw[1::2] = -1.0
    bw[[0, -1]] *= 0.5
    pts, wts = _panel_points(nodes[i], -1.0, 1.0, split)
    gw = wts * green_ball(np.full_like(pts, nodes[i]), pts, kp)
    row = np.zeros(n)
    for k in range(0, pts.size, _CHUNK):
        p = pts[k : k + _CHUNK]
        diff = p[:, None] - nodes[None, :]
        exact = diff == 0.0
        with np.errstate(divide="ignore"):
            terms = bw / diff
        hit = exact.any(axis=1)
        terms[hit] = exact[hit]
        row += (gw[k : k + _CHUNK] / terms.sum(axis=1)) @ terms
    return row
