"""Discrete Green operator on (-1,1) and the constants it induces.

The operator u(x) = int G(x,y) f(y) dy is discretized by collocation at
Chebyshev extrema: row i of the matrix holds the exact integrals (to
quadrature tolerance) of G(x_i, .) against the polynomial cardinal basis
of the grid, so applying the matrix to node values of f integrates the
kernel against the interpolant of f.  The kernel's derivative blow-ups at
y = x_i and y = +-1 are absorbed by dyadic panel grading.

Also computes the three constants the existence argument runs on: the
growth constant b = (G1)(0), the kernel ratio gamma_U, and the coercivity
constant a = gamma_U^p int_U G(0,y) dy.
"""

from __future__ import annotations

import csv
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kernels import KernelParams, green_ball

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

_GL_NODES, _GL_WEIGHTS = leggauss(16)

# Dyadic grading depths: enough levels that the untreated remainder near a
# singular point is far below the 1e-9 operator tolerance.
_DEPTH_TARGET = 45
_DEPTH_BOUNDARY = 30

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


def _barycentric_weights(n: int) -> np.ndarray:
    # closed form for Chebyshev extrema: alternating signs, halved at ends
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _lagrange_matrix(nodes, bw, pts):
    """Cardinal basis values L_j(pts): shape (len(pts), n)."""
    pts = np.asarray(pts, dtype=float)
    diff = pts[:, None] - nodes[None, :]
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bw[None, :] / diff
        terms[exact] = 0.0
        L = terms / terms.sum(axis=1)[:, None]
    hit = exact.any(axis=1)
    if hit.any():
        L[hit] = exact[hit].astype(float)
    return L


def _graded_edges(target: float, lo=-1.0, hi=1.0):
    """Panel edges on [lo,hi] refined dyadically toward target and both ends."""
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


def _panel_points(edges):
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    pts = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    wts = (half[:, None] * _GL_WEIGHTS).ravel()
    return pts, wts


def integrate_green_row(x: float, kp: KernelParams, lo=-1.0, hi=1.0) -> float:
    """int_lo^hi G(x,y) dy by graded panels; independent of any grid."""
    pts, wts = _panel_points(_graded_edges(x, lo, hi))
    return float(wts @ green_ball(np.full_like(pts, x), pts, kp))


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
        bw = _barycentric_weights(n)
        M = np.zeros((n, n))
        for i in range(1, (n + 1) // 2):
            pts, wts = _panel_points(_graded_edges(nodes[i]))
            gv = green_ball(np.full_like(pts, nodes[i]), pts, self.kp)
            M[i] = (wts * gv) @ _lagrange_matrix(nodes, bw, pts)
        # the center row is palindromic exactly; mirror the computed left
        # half so summation-order noise cannot break M = M[::-1, ::-1]
        mid = (n - 1) // 2
        M[mid, mid + 1 :] = M[mid, :mid][::-1]
        # kernel symmetry G(-x,-y) = G(x,y) and basis reflection
        # L_j(-y) = L_{n-1-j}(y) make the upper half the mirror of the lower
        for i in range((n + 1) // 2, n - 1):
            M[i] = M[n - 1 - i][::-1]
        # rows at the endpoints vanish: G(+-1, .) = 0
        return M

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values


_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def get_operator(grid: Grid, kp: KernelParams) -> GreenOperator:
    """Cached operator per (grid size, order); construction is deterministic.

    The grid must be make_grid(n) or carry its nodes (ValueError otherwise).
    """
    require_chebyshev(grid)
    key = (grid.n, kp.alpha)
    op = _CACHE.get(key)
    if op is None:
        with _CACHE_LOCK:
            op = _CACHE.get(key)
            if op is None:
                op = GreenOperator(grid, kp)
                _CACHE[key] = op
    return op


def apply_green(f: GridFunction, kp: KernelParams) -> GridFunction:
    """u = G f on the grid of f; vanishes at the endpoints."""
    op = get_operator(f.grid, kp)
    return f.with_values(op.apply(f.values))


_B_CACHE: dict = {}


def operator_norm_b(kp: KernelParams, p: float) -> float:
    """Best constant b with |G(u^p)| <= b |u|^p over the cone.

    Equals int G(0,y) dy: for cone members with sup norm 1 the power is
    at most 1 pointwise, and u = 1 attains the bound; the maximum of G1
    over x sits at 0 since G1 is symmetric and unimodal.  The exponent p
    does not move the value, only the reasoning above.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    key = kp.alpha
    if key not in _B_CACHE:
        kp.require_solver_window()
        _B_CACHE[key] = integrate_green_row(0.0, kp)
    return _B_CACHE[key]


_GAMMA_CACHE: dict = {}


def gamma_U(
    a_half: float,
    kp: KernelParams,
    x_count: int = 81,
    y_count: int = 60,
    y_lin: int = 201,
) -> float:
    """Empirical kernel ratio: min over y of inf_{x in U} G(x,y) / G(0,y).

    U = (-a_half, a_half).  The y sweep mixes a uniform interior grid
    with points graded toward +-1 where the ratio approaches its boundary
    limit; the returned grid minimum is a lower-bound estimate of the
    true infimum and stabilizes under refinement (the tests pin this).
    """
    if not 0.0 < a_half < 1.0:
        raise ValueError(f"a_half must lie in (0,1), got {a_half}")
    kp.require_solver_window()
    key = (a_half, kp.alpha, x_count, y_count, y_lin)
    if key in _GAMMA_CACHE:
        return _GAMMA_CACHE[key]
    graded = 1.0 - np.geomspace(1e-9, 1.0, y_count)
    ys = np.unique(np.concatenate([-graded, graded, np.linspace(-0.999, 0.999, y_lin)]))
    xs = np.linspace(-a_half, a_half, x_count)
    G = green_ball(xs[:, None], ys[None, :], kp)
    G0 = green_ball(np.zeros_like(ys), ys, kp)
    val = float((G.min(axis=0) / G0).min())
    _GAMMA_CACHE[key] = val
    return val


_COERC_CACHE: dict = {}


def coercivity_a(a_half: float, p: float, kp: KernelParams) -> float:
    """Coercivity constant a = gamma_U^p int_{-a_half}^{a_half} G(0,y) dy.

    Bounds G(u^p)(0) from below by a |u|^p for cone members: on U the
    values of u are at least gamma_U |u|.  Never exceeds operator_norm_b.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    key = (a_half, p, kp.alpha)
    if key in _COERC_CACHE:
        return _COERC_CACHE[key]
    g = gamma_U(a_half, kp)
    val = g**p * integrate_green_row(0.0, kp, lo=-a_half, hi=a_half)
    _COERC_CACHE[key] = val
    return val
