"""The Green operator matrix from a column-built Vandermonde: a test oracle.

This was `greenop.GreenOperator._build` before the Jacobi Vandermonde was
built one contiguous row per degree.  Column k of V holds P_k^(s,s) at
every node, filled by the three-term recurrence; the row-built matrix and
the operator must equal these bit for bit.
"""

import math

import numpy as np


def jacobi_vandermonde(x, n, s):
    """V_jk = P_k^(s,s)(x_j) for k < n, by the three-term recurrence."""
    V = np.empty((x.size, n))
    V[:, 0] = 1.0
    V[:, 1] = (s + 1.0) * x
    for k in range(2, n):
        c = 2.0 * (k + s)
        V[:, k] = (
            (c - 1.0) * c * (c - 2.0) * x * V[:, k - 1]
            - 2.0 * (k + s - 1.0) ** 2 * c * V[:, k - 2]
        ) / (2.0 * k * (k + 2.0 * s) * (c - 2.0))
    return V


def operator_matrix(nodes, alpha):
    n = nodes.size
    s = alpha / 2.0
    V = jacobi_vandermonde(nodes, n, s)
    lam = np.exp([math.lgamma(alpha + k + 1.0) - math.lgamma(k + 1.0) for k in range(n)])
    mid = (n - 1) // 2
    rows = np.linalg.solve(V.T, (V[1 : mid + 1] / lam).T).T
    M = np.zeros((n, n))
    M[1 : mid + 1] = (1.0 - nodes[1 : mid + 1] ** 2)[:, None] ** s * rows
    M[mid, mid + 1 :] = M[mid, :mid][::-1]
    M[mid + 1 : n - 1] = M[1:mid][::-1, ::-1]
    return M
