"""Discretized Green operator versus two independent yardsticks.

First yardstick: applying the operator to the constant 1 has a closed
form, so the collocation error is directly measurable.  Second: the
weighted Jacobi polynomials (1-x^2)^(alpha/2) P_k are eigenfunctions of
the fractional Laplacian with eigenvalue Gamma(alpha+k+1)/k!, so the
matrix must map P_k at the nodes to (1-x^2)^(alpha/2) P_k / lambda_k.
Last, pushing the image back through the principal-value form of the
operator should recover the constant we started from.

The Jacobi polynomials come from `scipy.special.eval_jacobi`, an
independent route, so this demo needs SciPy: install the test extra
(`pip install -e .[test]`).  bifrac itself runs on numpy alone.
"""

from math import exp, gamma, lgamma, pi, sqrt

import numpy as np
from scipy.special import eval_jacobi

from bifrac import GridFunction, KernelParams, apply_green, frac_laplacian_pv, get_operator, make_grid, operator_norm_b

alpha = 1.5
s = alpha / 2
kp = KernelParams(alpha=alpha)
grid = make_grid(65)

u = apply_green(GridFunction(grid, np.ones(grid.n)), kp)

# closed form for the image of the constant 1
c = 2.0 ** (-alpha) * sqrt(pi) / (gamma((1 + alpha) / 2) * gamma(1 + alpha / 2))
exact = c * (1 - grid.nodes**2) ** (alpha / 2)
print(f"nodes: {grid.n}, worst error against the closed form: {np.abs(u.values - exact).max():.3e}")

b = operator_norm_b(kp, p=2.0)
print(f"growth constant b = 1/Gamma(1+alpha) = {b:.15f}")
print(f"operator image peak                   {u.sup_norm:.15f}  (same number, other route)")

print("\nJacobi eigenfunctions, worst relative error over degrees 0, 10, n/2, n-1:")
for n in (65, 129):
    x = make_grid(n).nodes
    M = get_operator(make_grid(n), kp).matrix
    worst = 0.0
    for k in (0, 10, n // 2, n - 1):
        P = eval_jacobi(k, s, s, x)
        want = (1 - x**2) ** s * P / exp(lgamma(alpha + k + 1) - lgamma(k + 1))
        worst = max(worst, np.abs(M @ P - want).max() / np.abs(want).max())
    print(f"  n = {n:3d}: {worst:.2e}")

print("\nround trip through the pointwise operator, target value 1:")
for x in (0.0, 0.3, -0.6):
    val = frac_laplacian_pv(u, x, kp)
    print(f"  at x = {x:5.2f}: {val:.6f}")
