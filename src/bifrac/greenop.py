"""Discrete Green operator on (-1,1) and the constants it induces.

The operator u(x) = int G(x,y) f(y) dy is discretized by collocation at
Chebyshev extrema: applying the matrix to node values of f gives G applied
to the polynomial interpolant of f, at the nodes.  No quadrature is
involved.  The weighted Jacobi polynomials are eigenfunctions of the
operator (Dyda 2012; Acosta, Borthagaray, Bruno & Maas 2018):

    (-Delta)^(alpha/2) [(1-x^2)^s P_k^(s,s)] = lambda_k P_k^(s,s),
    s = alpha/2,  lambda_k = Gamma(alpha+k+1) / k!,

so with V_jk = P_k^(s,s)(x_j) the matrix is
diag((1-x^2)^s) V diag(1/lambda) V^-1.

Also computes the three constants the existence argument runs on: the
growth constant b = (G1)(0) = 1/Gamma(1+alpha), the kernel ratio gamma_U,
and the coercivity constant a = gamma_U^p int_U G(0,y) dy.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .kernels import KernelParams, green_ball, green_const

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
    "require_chebyshev",
    "GreenOperator",
    "get_operator",
    "apply_green",
    "operator_norm_b",
    "gamma_U",
    "coercivity_a",
]

MIN_GRID = 33


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing symmetric nodes on [-1,1] with both endpoints."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs a 1-d array of at least 3 nodes")
        if not (np.diff(nodes) > 0).all():
            raise ValueError("grid nodes must be strictly increasing")
        if nodes[0] != -1.0 or nodes[-1] != 1.0:
            raise ValueError("grid must include both endpoints -1 and 1")
        if np.abs(nodes + nodes[::-1]).max() > 1e-15:
            raise ValueError("grid must be symmetric about 0")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def min_spacing(self) -> float:
        return float(np.diff(self.nodes).min())

    def refine(self) -> "Grid":
        """Next nested grid, 2n-1 nodes; even indices recover this grid."""
        return make_grid(2 * self.n - 1)


_GRIDS: dict = {}


def make_grid(n: int) -> Grid:
    """Chebyshev-extrema grid with n nodes, n odd and >= 33.

    Uses the sine form x_k = sin(pi (2k-(n-1)) / (2(n-1))), which is
    exactly antisymmetric in k so the grid is symmetric to the last bit
    and contains 0.  Grids are immutable, so each size is built once and
    the same object is returned on every call.
    """
    grid = _GRIDS.get(n)
    if grid is not None:
        return grid
    if n < MIN_GRID:
        raise ValueError(f"grid needs at least {MIN_GRID} nodes, got {n}")
    if n % 2 == 0:
        raise ValueError(f"grid size must be odd so 0 is a node, got {n}")
    k = np.arange(n)
    nodes = np.sin(np.pi * (2 * k - (n - 1)) / (2 * (n - 1)))
    nodes[0] = -1.0
    nodes[-1] = 1.0
    return _GRIDS.setdefault(n, Grid(nodes))


def require_chebyshev(grid: Grid) -> None:
    """Raise ValueError unless grid holds the nodes of make_grid(grid.n).

    The Green operator is built on Chebyshev nodes and cached by size, so
    any other node set of that size would silently get the wrong matrix.
    """
    ref = make_grid(grid.n)
    if grid is not ref and np.abs(grid.nodes - ref.nodes).max() > 1e-15:
        raise ValueError(f"grid nodes must be the Chebyshev nodes of make_grid({grid.n})")


@dataclass(eq=False)
class GridFunction:
    """Node values of a function on [-1,1], implicitly zero outside."""

    grid: Grid
    values: np.ndarray
    _sup: float = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid size {self.grid.n}"
            )
        values.flags.writeable = False
        self.values = values
        self._sup = float(np.abs(values).max())

    @property
    def sup_norm(self) -> float:
        return self._sup

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "value"])
            for x, v in zip(self.grid.nodes, self.values):
                writer.writerow([f"{x:.17g}", f"{v:.17g}"])

    @classmethod
    def read_csv(cls, path) -> "GridFunction":
        xs, vs = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["x", "value"]:
                raise ValueError(f"expected header x,value, got {header}")
            for row in reader:
                xs.append(float(row[0]))
                vs.append(float(row[1]))
        return cls(Grid(np.asarray(xs)), np.asarray(vs))


def _jacobi_vandermonde(x: np.ndarray, n: int, s: float) -> np.ndarray:
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


class GreenOperator:
    """Collocation matrix of the Green operator on a fixed grid."""

    def __init__(self, grid: Grid, kp: KernelParams):
        kp.require_solver_window()
        self.grid = grid
        self.kp = kp
        self.matrix = self._build()

    def _build(self):
        nodes = self.grid.nodes
        n = nodes.size
        alpha, s = self.kp.alpha, self.kp.alpha / 2.0
        V = _jacobi_vandermonde(nodes, n, s)
        lam = np.exp([math.lgamma(alpha + k + 1.0) - math.lgamma(k + 1.0) for k in range(n)])
        mid = (n - 1) // 2
        # rows 1..mid of V diag(1/lam) V^-1, as the solution X of V^T X^T = rows^T
        rows = np.linalg.solve(V.T, (V[1 : mid + 1] / lam).T).T
        M = np.zeros((n, n))
        M[1 : mid + 1] = (1.0 - nodes[1 : mid + 1] ** 2)[:, None] ** s * rows
        # the center row is palindromic exactly; mirror the computed left
        # half so rounding noise cannot break M = M[::-1, ::-1]
        M[mid, mid + 1 :] = M[mid, :mid][::-1]
        # kernel symmetry G(-x,-y) = G(x,y) and basis reflection make the
        # upper half the mirror of the lower
        M[mid + 1 : n - 1] = M[1:mid][::-1, ::-1]
        # rows at the endpoints vanish: G(+-1, .) = 0
        return M

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values


@functools.lru_cache(maxsize=16)
def _build_operator(n: int, kp: KernelParams) -> GreenOperator:
    return GreenOperator(make_grid(n), kp)


def get_operator(grid: Grid, kp: KernelParams) -> GreenOperator:
    """Cached operator per (grid size, order); construction is deterministic.

    The grid must be make_grid(n) or carry its nodes (ValueError otherwise).
    The cache keeps the 16 most recently used operators.
    """
    require_chebyshev(grid)
    return _build_operator(grid.n, kp)


def apply_green(f: GridFunction, kp: KernelParams) -> GridFunction:
    """u = G f on the grid of f; vanishes at the endpoints."""
    op = get_operator(f.grid, kp)
    return f.with_values(op.apply(f.values))


def operator_norm_b(kp: KernelParams, p: float) -> float:
    """Best constant b with |G(u^p)| <= b |u|^p over the cone: 1/Gamma(1+alpha).

    Equals (G1)(0): for cone members with sup norm 1 the power is at most
    1 pointwise, and u = 1 attains the bound; G1 = (1-x^2)^(alpha/2) /
    Gamma(1+alpha), the k = 0 case of the Jacobi eigenrelation, is largest
    at 0.  The exponent p does not move the value, only the reasoning above.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    kp.require_solver_window()
    return 1.0 / math.gamma(1.0 + kp.alpha)


def gamma_U(a_half: float, kp: KernelParams) -> float:
    """Kernel ratio inf over y and x in U of G(x,y) / G(0,y): G(a_half,0) / G(0,0).

    U = (-a_half, a_half).  The infimum sits at x = +-a_half, y = 0.
    That is a measured fact, not a proof: dense tables of the ratio over
    x in U and y in (-1,1), with y graded to within 1e-9 of the ends,
    attain their minimum there for every alpha and a_half tested (the
    tests compare with such a table).
    """
    if not 0.0 < a_half < 1.0:
        raise ValueError(f"a_half must lie in (0,1), got {a_half}")
    kp.require_solver_window()
    return green_ball(a_half, 0.0, kp) / green_ball(0.0, 0.0, kp)


def _core_mass(a_half: float, kp: KernelParams) -> float:
    """int_{-a_half}^{a_half} G(0,y) dy: a closed form plus one Gauss rule.

    For |y| <= 1/sqrt(2), w(0,y) >= 1 and green_ball's split gives
    G(0,y) = c [S(y) + B(s, 1/2-s) |y|^(alpha-1)] with S analytic: the cusp
    term integrates exactly and S by 32-point Gauss-Legendre.  For a wider
    core the mass is b minus the two tails, int_{a_half}^1 G(0,y) dy with
    G(0,y) = (c/s) (1-y^2)^s / y 2F1(1/2, s; s+1; -(1-y^2)/y^2) there: a
    32-point Gauss-Jacobi rule with weight (1-y)^s absorbs the edge.
    """
    alpha, s = kp.alpha, kp.alpha / 2.0
    if a_half <= math.sqrt(0.5):
        cusp = green_const(kp) * math.gamma(s) * math.gamma(0.5 - s) / math.sqrt(math.pi)
        t, wt = leggauss(32)
        y = a_half * t
        smooth = green_ball(0.0, y, kp) - cusp * np.abs(y) ** (alpha - 1.0)
        return a_half * float(wt @ smooth) + 2.0 * cusp * a_half**alpha / alpha
    t, wt = roots_jacobi(32, s, 0.0)
    half = 0.5 * (1.0 - a_half)
    y = a_half + half * (1.0 + t)
    edge = (half * (1.0 - t)) ** s  # (1-y)^s
    tail = half ** (s + 1.0) * float(wt @ (green_ball(0.0, y, kp) / edge))
    return 1.0 / math.gamma(1.0 + alpha) - 2.0 * tail


def coercivity_a(a_half: float, p: float, kp: KernelParams) -> float:
    """Coercivity constant a = gamma_U^p int_{-a_half}^{a_half} G(0,y) dy.

    Bounds G(u^p)(0) from below by a |u|^p for cone members: on U the
    values of u are at least gamma_U |u|.  Never exceeds operator_norm_b.
    The core mass is computed in closed form up to one 32-point Gauss
    rule on an analytic integrand (see _core_mass).
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    g = gamma_U(a_half, kp)
    return g**p * _core_mass(a_half, kp)
