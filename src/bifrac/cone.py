"""The shape cone the two-solution argument works inside.

Members are nonnegative, even, unimodal grid functions whose values on
the core interval U = (-a_half, a_half) stay above gamma times the sup
norm.  The Green operator maps the cone into itself, which is what makes
the fixed-point index machinery applicable; `verify_invariance` samples
that claim numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greenop import Grid, GridFunction, gamma_U, get_operator, make_grid
from .kernels import KernelParams

__all__ = [
    "ConeSpec",
    "MembershipReport",
    "InvarianceReport",
    "check_membership",
    "sample_cone",
    "verify_invariance",
]

SLACK = 1e-12  # a constraint holds when its violation is at most SLACK * sup|u|


@dataclass(frozen=True)
class ConeSpec:
    """Parameters of the cone: core half-width and ratio floor."""

    a_half: float = 0.5
    gamma: float = 0.0  # 0 marks the ratio constraint as unset

    def __post_init__(self):
        if not 0.0 < self.a_half < 1.0:
            raise ValueError(f"a_half must lie in (0,1), got {self.a_half}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0,1), got {self.gamma}")

    @classmethod
    def for_kernel(cls, kp: KernelParams, a_half: float = 0.5):
        """Spec whose ratio floor is the kernel constant gamma_U."""
        return cls(a_half=a_half, gamma=gamma_U(a_half, kp))


@dataclass(frozen=True)
class MembershipReport:
    """check_membership's verdict and the four violations it was decided from."""

    member: bool
    violations: dict


def _violations(values: np.ndarray, sup, grid: Grid, spec: ConeSpec) -> dict:
    """The four constraint violations of one function's node values, or of
    each row of a stack, given the sup norms.  Absolute units; positive
    exactly where the constraint fails; check_membership clamps at 0."""
    neg = -values.min(axis=-1)
    asym = np.abs(values - values[..., ::-1]).max(axis=-1)
    # nondecreasing up to the center node, nonincreasing after
    mid = grid.n // 2
    step = values[..., 1:] - values[..., :-1]
    uni = np.maximum(-step[..., :mid].min(axis=-1), step[..., mid:].max(axis=-1))
    if spec.gamma > 0:
        core = np.abs(grid.nodes) <= spec.a_half
        ratio_gap = spec.gamma * sup - values[..., core].min(axis=-1)
    else:
        ratio_gap = np.zeros_like(sup)
    return {"negative": neg, "asymmetry": asym, "unimodality": uni, "ratio": ratio_gap}


def check_membership(u: GridFunction, spec: ConeSpec) -> MembershipReport:
    """Test the four cone constraints with a slack of SLACK times sup|u|.

    Violation magnitudes are reported in absolute units so callers can
    apply their own thresholds.  The zero function is a member.
    """
    sup = u.sup_norm
    v = {kind: max(0.0, float(val)) for kind, val in _violations(u.values, sup, u.grid, spec).items()}
    return MembershipReport(all(val <= SLACK * sup for val in v.values()), v)


# cone members a battery draws, pushes and checks at once; bounds its memory
SAMPLE_BLOCK = 256


def _sample_blocks(rho, count, seed, grid: Grid, kp, spec):
    """sample_cone's members in order, as node values SAMPLE_BLOCK rows at a time."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    beta_lo = kp.alpha / 2 if kp is not None else 0.5
    beta_hi = 3.0
    if spec is not None and spec.gamma > 0:
        # (1-x^2)^beta >= gamma on |x| <= a_half forces beta below this cap
        cap = np.log(spec.gamma) / np.log1p(-spec.a_half**2)
        beta_hi = min(beta_hi, cap)
        if beta_hi <= beta_lo:
            # strict ratio floor: shift the whole range under the cap
            beta_lo, beta_hi = cap / 2, cap
    rng = np.random.default_rng(seed)
    bump = 1.0 - grid.nodes**2
    for lo in range(0, count, SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, count - lo)
        betas, weights = np.empty((size, 3)), np.empty((size, 3))
        # one member at a time: the stream interleaves the two draws
        for i in range(size):
            betas[i] = rng.uniform(beta_lo, beta_hi, size=3)
            weights[i] = rng.dirichlet(np.ones(3))
        values = rho * (weights[:, :, None] * bump ** betas[:, :, None]).sum(axis=1)
        values[:, grid.n // 2] = rho  # mixture weights sum to 1; pin the sup exactly
        yield values


def sample_cone(rho, count, seed, *, grid=None, kp=None, spec=None):
    """Random cone members with sup norm exactly rho.

    Each sample is a convex mixture of bump powers (1-x^2)^beta, so the
    shape constraints hold by construction and the value at the center
    node is exactly rho.  beta runs from alpha/2 (the boundary growth of
    the torsion function) up to 3, capped when a spec with a ratio floor
    is supplied so that steep bumps cannot dip under gamma on the core.
    verify_invariance and krasnoselskii_probe draw the same members as arrays.
    """
    if grid is None:
        grid = make_grid(65)
    blocks = _sample_blocks(rho, count, seed, grid, kp, spec)
    return [GridFunction(grid, values) for block in blocks for values in block]


@dataclass(frozen=True)
class InvarianceReport:
    """Membership of u -> G(u^p) over the samples; linear_shape is the worst
    asymmetry or unimodality defect of G u itself, relative to sup|G u|."""

    count: int
    failures: int
    worst_violation: float
    by_kind: dict
    linear_shape: float


def _relative(val, sup):
    return np.divide(val, sup, out=np.zeros_like(val), where=sup > 0)


def verify_invariance(p, spec: ConeSpec, kp: KernelParams, count, *, grid=None, seed=0):
    """Push random cone members through u -> G(u^p) and recheck membership.

    Sample amplitudes vary over two decades so the nonlinearity is probed
    both in its shallow and steep regimes.  Violations are measured
    relative to the sup of the image, with check_membership's slack.
    The same members also go through G alone, for linear_shape.  Members
    are drawn, pushed and checked SAMPLE_BLOCK at a time, so memory does
    not grow with count.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if grid is None:
        grid = make_grid(65)
    op = get_operator(grid, kp)
    rng = np.random.default_rng(seed + 1)
    failures = 0
    linear_shape = 0.0
    by_kind = {"negative": 0.0, "asymmetry": 0.0, "unimodality": 0.0, "ratio": 0.0}
    # the running maxima start at 0, which clamps the violations as
    # MembershipReport does
    for block in _sample_blocks(1.0, count, seed, grid, kp, spec):
        image = op.apply_rows(block)
        sup = np.abs(image).max(axis=1)
        rows = _violations(image, sup, grid, spec)
        defect = _relative(np.maximum(rows["asymmetry"], rows["unimodality"]), sup)
        linear_shape = max(linear_shape, float(defect.max()))
        scales = 10.0 ** rng.uniform(-1.0, 1.0, size=len(block))
        image = op.apply_rows(scales[:, None] * block**p)
        sup = np.abs(image).max(axis=1)
        member = np.ones(len(block), dtype=bool)
        for kind, val in _violations(image, sup, grid, spec).items():
            by_kind[kind] = max(by_kind[kind], float(_relative(val, sup).max()))
            member &= val <= SLACK * sup
        failures += int(np.count_nonzero(~member))
    return InvarianceReport(count, failures, max(by_kind.values()), by_kind, linear_shape)
