"""The Green function of (-1, 1) as one self-contained call: a test oracle.

This was `bifrac.kernels.green_ball` before its alpha-free geometry moved
into a plan (`kernels._GreenPlan`) that the lemma battery keeps per core
width.  Every call recomputes which points are inside, w, |x - y| and
(1 - x^2)(1 - y^2), and splits at w = 1 itself.  The plan-based kernel
must reproduce it bit for bit: the hypergeometric series fixes its term
count per batch, so the two must also hand the series the same batches.
"""

import numpy as np

from bifrac.kernels import KernelParams, _connection, green_const, inner_integral


def green_ball(x, y, kp: KernelParams):
    """Green function of (-1, 1), zero outside, vectorized."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    alpha = kp.alpha
    c = green_const(kp)
    out = np.zeros(x.shape)
    inside = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
    if inside.any():
        xi, yi = x[inside], y[inside]
        r = np.abs(xi - yi)
        # w = num / r^2 as w_factor computes it, +inf where r^2 is 0
        num, r2 = (1.0 - xi * xi) * (1.0 - yi * yi), r * r
        w = np.divide(num, r2, out=np.full_like(num, np.inf), where=r2 > 0.0)
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
            prod = num[split] ** ((alpha - 1.0) / 2.0)
            vals[split] = c * (
                2.0 / (alpha - 1.0) * prod * far + r[split] ** (alpha - 1.0) * beta
            )
        out[inside] = vals
    return out if out.shape else float(out)


def green_interval(x, y, center, radius, kp: KernelParams):
    """Green function of (center - radius, center + radius), by scaling green_ball."""
    xs = (np.asarray(x, dtype=float) - center) / radius
    ys = (np.asarray(y, dtype=float) - center) / radius
    return radius ** (kp.alpha - 1.0) * green_ball(xs, ys, kp)
