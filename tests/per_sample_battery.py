"""The lemma battery one sample and one small kernel call at a time: a test oracle.

This was `bifrac lemmas` before the battery went to whole-array work.
Each cone member is drawn, pushed through apply_green and checked as its
own GridFunction, the unimodality and invariance items draw their
samples separately, the gamma_U table covers y < 0 as well as y > 0, and
every reflection and kul argument set and every Poisson base point gets
its own kernel call, on the Green function as it was before its plans
(green_reference.py), and each tail of the Poisson mass rebuilds both of
its Gauss-Jacobi rules.  The batched battery must reproduce every
`worst`, `refined` and `failures` value of this one bit for bit, and the
batched Krasnoselskii probe the range of `probe_sups`.
"""

import numpy as np

from bifrac.cone import ConeSpec
from bifrac.greenop import GridFunction, apply_green, gamma_U, get_operator, make_grid
from bifrac.kernels import _gauss_jacobi, poisson_const
from green_reference import green_ball, green_interval


def sample_cone(rho, count, seed, *, grid, kp, spec):
    """Cone members with sup norm rho, one profile per draw."""
    beta_lo, beta_hi = kp.alpha / 2, 3.0
    if spec.gamma > 0:
        cap = np.log(spec.gamma) / np.log1p(-spec.a_half**2)
        beta_hi = min(beta_hi, cap)
        if beta_hi <= beta_lo:
            beta_lo, beta_hi = cap / 2, cap
    rng = np.random.default_rng(seed)
    bump = 1.0 - grid.nodes**2
    out = []
    for _ in range(count):
        betas = rng.uniform(beta_lo, beta_hi, size=3)
        weights = rng.dirichlet(np.ones(3))
        profile = (weights[:, None] * bump[None, :] ** betas[:, None]).sum(axis=0)
        values = rho * profile
        values[grid.n // 2] = rho
        out.append(GridFunction(grid, values))
    return out


def violations(u, spec):
    """The four cone violations of one grid function, in absolute units."""
    v = u.values
    neg = max(0.0, float(-v.min()))
    asym = float(np.abs(v - v[::-1]).max())
    mid = u.grid.n // 2
    rise = np.diff(v[: mid + 1])
    fall = np.diff(v[mid:])
    uni = max(0.0, float(-rise.min()) if rise.size else 0.0, float(fall.max()) if fall.size else 0.0)
    core = np.abs(u.grid.nodes) <= spec.a_half
    ratio_gap = max(0.0, float(spec.gamma * u.sup_norm - v[core].min())) if spec.gamma > 0 else 0.0
    return {"negative": neg, "asymmetry": asym, "unimodality": uni, "ratio": ratio_gap}


def invariance(p, spec, kp, count, grid, seed):
    """(worst relative violation, failures) of u -> s G(u^p) over the samples."""
    samples = sample_cone(1.0, count, seed, grid=grid, kp=kp, spec=spec)
    rng = np.random.default_rng(seed + 1)
    scales = 10.0 ** rng.uniform(-1.0, 1.0, size=count)
    failures, worst = 0, 0.0
    for u, s in zip(samples, scales):
        image = apply_green(u.with_values(s * u.values**p), kp)
        viol = violations(image, spec)
        sup = image.sup_norm
        for val in viol.values():
            worst = max(worst, val / sup if sup > 0 else 0.0)
        if not all(val <= spec.tol * sup for val in viol.values()):
            failures += 1
    return worst, failures


def probe_sups(rho, h, p, kp, spec, count, seed):
    """sup|G(u^p) + G h| of each cone member with sup norm rho."""
    op = get_operator(h.grid, kp)
    u0vec = op.apply(h.values)
    return [
        float(np.abs(op.apply(np.maximum(u.values, 0.0) ** p) + u0vec).max())
        for u in sample_cone(rho, count, seed, grid=h.grid, kp=kp, spec=spec)
    ]


def poisson_total_mass(x, r, kp):
    """int_{|y| > r} P(x, y) dy, both 24-point rules rebuilt for each tail."""
    alpha = kp.alpha
    amp = poisson_const(kp) * (r * r - x * x) ** (alpha / 2.0)

    def one_tail(xb):
        xi, wi = _gauss_jacobi(24, 0.0, -alpha / 2.0)
        yv = r + 0.5 * r * (1.0 + xi)
        g = (yv + r) ** (-alpha / 2.0) / np.abs(yv - xb)
        near = (0.5 * r) ** (1.0 - alpha / 2.0) * float((wi * g).sum())
        xj, wj = _gauss_jacobi(24, 0.0, alpha - 1.0)
        t = 0.5 * (1.0 + xj)
        phi = 2.0 * r ** (1.0 - alpha) * (4.0 - t * t) ** (-alpha / 2.0) / (2.0 * r - xb * t)
        far = 2.0 ** (-alpha) * float((wj * phi).sum())
        return near + far

    return amp * (one_tail(x) + one_tail(-x))


def green_ratio_table(a_half, kp):
    """Minimum of G(x,y)/G(0,y) over 161 x in U and 641 y in (-1, 1)."""
    graded = 1.0 - np.geomspace(1e-9, 1.0, 120)
    ys = np.unique(np.concatenate([-graded, graded, np.linspace(-0.999, 0.999, 401)]))
    xs = np.linspace(-a_half, a_half, 161)
    G = green_ball(xs[:, None], ys[None, :], kp)
    return float((G.min(axis=0) / green_ball(np.zeros_like(ys), ys, kp)).min())


def battery(cfg):
    """Every `worst`, `refined` and `failures` value of the battery, keyed by item."""
    kp = cfg.kernel_params()
    grid = make_grid(cfg.grid_n)
    spec = ConeSpec.for_kernel(kp, a_half=cfg.a_half)
    out = {}

    g1 = gamma_U(cfg.a_half, kp)
    g2 = green_ratio_table(cfg.a_half, kp)
    out["green_ratio"] = {"worst": abs(g2 - g1) / g1, "refined": g2}

    worst_shape = 0.0
    for u in sample_cone(1.0, cfg.samples, cfg.seed, grid=grid, kp=kp, spec=spec):
        image = apply_green(u, kp)
        viol = violations(image, spec)
        sup = image.sup_norm
        defect = max(viol["asymmetry"], viol["unimodality"])
        worst_shape = max(worst_shape, defect / sup if sup > 0 else 0.0)
    out["unimodality"] = {"worst": worst_shape}

    worst_refl = 0.0
    half = np.arange(1, 11) * 0.095
    st = np.concatenate([-half[::-1], [0.0], half])
    S, T = np.meshgrid(st, st, indexing="ij")
    for z in (0.1, 0.3, 0.55):
        r = 1.0 - z
        gw = lambda s, t: green_interval(z + s * r, z + t * r, z, r, kp)
        both = np.abs(gw(-S, -T) - gw(S, T)).max()
        single = np.abs(gw(-S, T) - gw(S, -T)).max()
        worst_refl = max(worst_refl, float(both), float(single))
    out["reflection"] = {"worst": worst_refl}

    s = np.linspace(0.025, 0.975, 39)
    S, T = np.meshgrid(s, s, indexing="ij")
    worst_kul = 0.0
    for z in (0.1, 0.3, 0.55):
        r = 1.0 - z
        same = green_interval(z + S * r, z + T * r, z, r, kp)
        opposite = green_interval(z - S * r, z + T * r, z, r, kp)
        worst_kul = max(worst_kul, float((opposite - same).max()))
    out["kul"] = {"worst": worst_kul}

    worst_mass = max(abs(poisson_total_mass(x, 1.0, kp) - 1.0) for x in (0.0, 0.35, -0.6))
    out["poisson"] = {"worst": worst_mass}

    worst, failures = invariance(cfg.p, spec, kp, cfg.samples, grid, cfg.seed)
    out["invariance"] = {"worst": worst, "failures": failures}
    return out
