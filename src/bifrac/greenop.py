"""Discrete Green operator on (-1,1) and the constants it induces.

The operator u(x) = int G(x,y) f(y) dy is discretized by collocation at
the n Chebyshev extrema, so a grid is fixed by its size and the operator
is cached by (n, alpha).  Applying the matrix to node values of f gives G
applied to the polynomial interpolant of f, at the nodes.  No quadrature
is involved.  The weighted Jacobi polynomials are eigenfunctions of the
operator (Dyda 2012; Acosta, Borthagaray, Bruno & Maas 2018):

    (-Delta)^(alpha/2) [(1-x^2)^s P_k^(s,s)] = lambda_k P_k^(s,s),
    s = alpha/2,  lambda_k = Gamma(alpha+k+1) / k!,

so with V_jk = P_k^(s,s)(x_j) the matrix is
diag((1-x^2)^s) V diag(1/lambda) V^-1.

Also computes, each in closed form, the three constants the existence
argument runs on: the growth constant b = (G1)(0) = 1/Gamma(1+alpha), the
kernel ratio gamma_U and the coercivity constant a = gamma_U^p int_U G(0,y) dy.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelParams, _hyp2f1_series, green_ball, green_const

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
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
    """Chebyshev-extrema grid with n nodes, n odd and >= 33.

    The size fixes the nodes: x_k = sin(pi (2k-(n-1)) / (2(n-1))).  The
    sine form is exactly antisymmetric in k, so the grid is symmetric to
    the last bit and contains 0.  Build grids with make_grid(n).
    """

    n: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < MIN_GRID:
            raise ValueError(f"grid needs at least {MIN_GRID} nodes, got {n}")
        if n % 2 == 0:
            raise ValueError(f"grid size must be odd so 0 is a node, got {n}")
        k = np.arange(n)
        nodes = np.sin(np.pi * (2 * k - (n - 1)) / (2 * (n - 1)))
        nodes[0] = -1.0
        nodes[-1] = 1.0
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    def refine(self) -> "Grid":
        """Next nested grid, 2n-1 nodes; even indices recover this grid."""
        return make_grid(2 * self.n - 1)


@functools.cache
def make_grid(n: int) -> Grid:
    """The grid of size n; grids are immutable, so each size is built once."""
    return Grid(n)


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
        """x,value rows with 17 significant digits, as csv.writer would write them."""
        rows = zip(self.grid.nodes.tolist(), self.values.tolist())
        _write_csv_lines(path, ["x,value", *(f"{x:.17g},{v:.17g}" for x, v in rows)])

    @classmethod
    def read_csv(cls, path) -> "GridFunction":
        """Read an x,value file whose x column holds the nodes of make_grid(rows).

        The operator is cached by grid size, so any other nodes would
        silently get the Chebyshev matrix: they raise ValueError instead.
        """
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        if header[:2] != ["x", "value"]:
            raise ValueError(f"{path}: expected header x,value, got {header}")
        if any(len(row) < 2 for row in rows):
            raise ValueError(f"{path}: every row needs an x and a value")
        grid = make_grid(len(rows))
        xs = np.array([float(row[0]) for row in rows])
        if not np.abs(xs - grid.nodes).max() <= 1e-15:
            raise ValueError(f"{path}: nodes must be the Chebyshev nodes of make_grid({grid.n})")
        return cls(grid, [float(row[1]) for row in rows])


def _write_csv_lines(path, lines):
    """Write comma-separated lines in one go, with the \\r\\n endings of csv.writer.

    The bytes are csv.writer's as long as no field needs quoting, which
    numbers and plain words never do.
    """
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{line}\r\n" for line in lines))


def _jacobi_vandermonde(x: np.ndarray, n: int, s: float) -> np.ndarray:
    """W[k] = P_k^(s,s)(x) for k < n, one contiguous row per degree, by the
    three-term recurrence: the transpose of V_jk = P_k^(s,s)(x_j)."""
    W = np.empty((n, x.size))
    W[0] = 1.0
    W[1] = (s + 1.0) * x
    for k in range(2, n):
        c = 2.0 * (k + s)
        W[k] = (
            (c - 1.0) * c * (c - 2.0) * x * W[k - 1]
            - 2.0 * (k + s - 1.0) ** 2 * c * W[k - 2]
        ) / (2.0 * k * (k + 2.0 * s) * (c - 2.0))
    return W


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
        W = _jacobi_vandermonde(nodes, n, s)  # V^T
        lam = np.exp([math.lgamma(alpha + k + 1.0) - math.lgamma(k + 1.0) for k in range(n)])
        mid = (n - 1) // 2
        # rows 1..mid of V diag(1/lam) V^-1, as the solution X of V^T X^T = rows^T
        rows = np.linalg.solve(W, W[:, 1 : mid + 1] / lam[:, None]).T
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

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """apply to each row of a 2-D array, one product per row: a single
        rows @ matrix.T rounds differently from apply."""
        return np.array([self.matrix @ row for row in rows]).reshape(rows.shape)


@functools.lru_cache(maxsize=16)
def _build_operator(n: int, kp: KernelParams) -> GreenOperator:
    return GreenOperator(make_grid(n), kp)


def get_operator(grid: Grid, kp: KernelParams) -> GreenOperator:
    """Cached operator per (grid size, order); construction is deterministic.

    A grid is fixed by its size, so the size is the key.  The cache keeps
    the 16 most recently used operators.
    """
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
    edge, centre = green_ball(np.array([a_half, 0.0]), 0.0, kp)
    return float(edge / centre)


def _core_mass(a_half: float, kp: KernelParams) -> float:
    """int_{-a_half}^{a_half} G(0,y) dy in closed form.

    With w = (1-y^2)/y^2, G(0,y) = c y^(alpha-1) I(w) for y > 0, and
    d/dy I(w) = -2 (1-y^2)^(s-1) y^(-alpha).  Integrating by parts
    against y^(alpha-1) = d/dy (y^alpha/alpha), the boundary term at 0
    vanishes (alpha > 1), J = int_0^a (1-y^2)^(s-1) dy is what remains, and

        int_{-a}^{a} G(0,y) dy = (2a/alpha) G(a,0) + (4c/alpha) J,

    s = alpha/2, c = green_const.  J is half the incomplete beta function
    B(a^2; 1/2, s), summed as a series of positive terms in a variable at
    most 1/2: J = a 2F1(1/2, 1-s; 3/2; a^2) for a^2 <= 1/2, else
    J = B(1/2, s)/2 - z^s/(2s) 2F1(s, 1/2; s+1; z) with z = 1 - a^2.
    Check at a -> 1: G(1,0) = 0 and J -> B(1/2, s)/2, which with the
    duplication formula gives b = 1/Gamma(1+alpha), the mass of the whole
    interval.
    """
    alpha, s = kp.alpha, kp.alpha / 2.0
    a2 = a_half * a_half
    if a2 <= 0.5:
        inner = a_half * float(_hyp2f1_series(0.5, 1.0 - s, 1.5, a2))
    else:
        z = 1.0 - a2
        beta = math.gamma(0.5) * math.gamma(s) / math.gamma(0.5 + s)
        inner = 0.5 * beta - 0.5 * z**s / s * float(_hyp2f1_series(s, 0.5, s + 1.0, z))
    edge = green_ball(a_half, 0.0, kp)
    return float(2.0 / alpha * (a_half * edge + 2.0 * green_const(kp) * inner))


def coercivity_a(spec, p: float, kp: KernelParams) -> float:
    """Coercivity constant a = gamma^p int_U G(0,y) dy of the cone `spec`.

    Members are at least gamma |u| on its core U = (-a_half, a_half), so
    G(u^p)(0) >= a |u|^p holds for a floor 0 < gamma <= gamma_U, which G
    preserves; an unset floor (gamma = 0) raises ValueError.  Never
    exceeds operator_norm_b.  The core mass is a closed form (_core_mass).
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if not spec.gamma > 0:
        raise ValueError("coercivity_a needs a cone floor 0 < gamma <= gamma_U; this cone's is unset")
    return spec.gamma**p * _core_mass(spec.a_half, kp)
