"""End-to-end checks, one test per shipped guarantee.

Each test prints a PASS/FAIL line through the hook in conftest so a full
run reads as a checklist.  Tolerances here are contractual; do not widen
them to make a regression go away.
"""

import json

import numpy as np
import pytest

from bifrac.cli import RunConfig, build_forcing, lemma_battery, main
from bifrac.cone import ConeSpec, verify_invariance
from bifrac.greenop import GridFunction, apply_green, make_grid, operator_norm_b
from bifrac.kernels import (
    KernelParams,
    distance_product_bound,
    frac_laplacian_pv,
    green_ball,
    poisson_total_mass,
)
from bifrac.scalar import ScalarProblem, critical_constant, scalar_roots
from bifrac.solver import certify, fold_sweep, krasnoselskii_probe, newton_second, picard_minimal, residual_strong


def test_guarantee_1_scalar_threshold_flip():
    # multiplicity flips at b u0^(p-1) = c_p within 1e-10 relative margin
    assert critical_constant(2.0) == pytest.approx(0.25, abs=1e-14)
    assert critical_constant(3.0) == pytest.approx(4.0 / 27.0, abs=1e-14)
    rng = np.random.default_rng(20260816)
    for p in (1.5, 2.0, 3.0):
        c_p = critical_constant(p)
        for _ in range(1000):
            b = 10.0 ** rng.uniform(-3, 3)
            above = rng.random() < 0.5
            factor = 1.0 / (1.0 - 1e-10) if above else 1.0 - 1e-10
            u0 = (factor * c_p / b) ** (1.0 / (p - 1.0))
            n = len(scalar_roots(ScalarProblem(b=b, u0=u0, p=p)))
            assert n == (0 if above else 2), (p, b, above)


def test_guarantee_2_kernel_correctness():
    rng = np.random.default_rng(5)
    for alpha in (1.2, 1.5, 1.8):
        kp = KernelParams(alpha=alpha)
        x = rng.uniform(-1, 1, 400)
        y = rng.uniform(-1, 1, 400)
        sym = np.abs(green_ball(x, y, kp) - green_ball(y, x, kp))
        assert sym.max() <= 1e-10
        # exterior points carry exactly zero, no tolerance
        assert np.all(green_ball(np.array([0.0, 0.5, -0.2]), np.array([1.0, -1.3, 2.0]), kp) == 0.0)
        for x0 in (0.0, 0.35, -0.6):
            assert poisson_total_mass(x0, 1.0, kp) == pytest.approx(1.0, abs=1e-6)
        # ratio of the Green function to its distance-product envelope
        pts = np.linspace(-0.995, 0.995, 100)
        X, Y = np.meshgrid(pts, pts)
        off = np.abs(X - Y) > 1e-12
        ratio = green_ball(X[off], Y[off], kp) / distance_product_bound(X[off], Y[off], kp)
        assert np.all(np.isfinite(ratio)) and ratio.min() > 0.0
        assert ratio.max() / ratio.min() < 1e3


def test_guarantee_3_pv_operator_consistency():
    kp = KernelParams(alpha=1.5)
    points = (0.0, 0.3, -0.3, 0.6, -0.6)
    errs = []
    for grid in (make_grid(65), make_grid(129)):
        u = apply_green(GridFunction(grid, np.ones(grid.n)), kp)
        errs.append(max(abs(frac_laplacian_pv(u, x, kp) - 1.0) for x in points))
    assert errs[0] <= 5e-3
    assert errs[1] < errs[0] / 3.0


def test_guarantee_3_pv_error_bound():
    # on the weighted interpolant the round trip is exact to 1e-8 from
    # n = 65 on; a cubic spline of the node values reached 6.1e-5 at n = 65
    kp = KernelParams(alpha=1.5)
    points = np.array([0.0, 0.3, -0.3, 0.6, -0.6])
    for n in (65, 129, 257):
        u = apply_green(GridFunction(make_grid(n), np.ones(n)), kp)
        assert np.abs(frac_laplacian_pv(u, points, kp) - 1.0).max() <= 1e-8, n


def test_guarantee_4_lemma_battery_defaults():
    rep = lemma_battery(RunConfig())
    assert rep["pass"], rep
    items = rep["items"]
    assert items["green_ratio"]["worst"] <= 0.02
    assert items["unimodality"]["worst"] <= 1e-9
    assert items["reflection"]["worst"] <= 1e-10
    assert items["kul"]["worst"] <= 1e-10
    for name, item in items.items():
        assert item["pass"], name


def test_guarantee_5_cone_invariance():
    for alpha in (1.2, 1.5, 1.8):
        kp = KernelParams(alpha=alpha)
        spec = ConeSpec.for_kernel(kp)
        for p in (2.0, 3.0):
            rep = verify_invariance(p, spec, kp, count=100, seed=0)
            assert rep.failures == 0, (alpha, p, rep.by_kind)
            assert rep.worst_violation <= 1e-8, (alpha, p)


def test_guarantee_6_two_solutions(h_certified, kp):
    rep = certify(h_certified, 2.0, kp)
    assert rep.passed
    low = picard_minimal(rep)
    high = newton_second(rep, low.u)
    assert low.converged and high.converged
    assert low.fixed_point_residual < 1e-9 and high.fixed_point_residual < 1e-9
    assert residual_strong(low, rep) < 1e-2
    assert residual_strong(high, rep) < 1e-2
    assert low.in_cone and high.in_cone
    separation = float(np.abs(high.u.values - low.u.values).max())
    assert separation > rep.radii.rho2 - rep.radii.rho1


def test_guarantee_7_krasnoselskii_probes(h_certified, kp):
    rep = certify(h_certified, 2.0, kp)
    radii = rep.radii
    probe = lambda rho: krasnoselskii_probe(rho, rep, count=200, seed=7)
    assert probe(radii.rho1).min_T > radii.rho1
    assert probe(radii.rho2).max_T < radii.rho2
    assert probe(radii.rho3).min_T > radii.rho3


def test_guarantee_8_fold_sufficiency(h_certified, kp):
    # scalar mode reduces to one equation whose fold has a closed form
    for p in (2.0, 3.0):
        b = operator_norm_b(kp, p)
        u0_sup = apply_green(h_certified, kp).sup_norm
        exact = (critical_constant(p) / b) ** (1.0 / (p - 1.0)) / u0_sup
        sw = fold_sweep(h_certified, p, kp, 0.5 * exact, 2.5 * exact, 7, scalar_model=True)
        assert sw.bracketed
        assert sw.fold_estimate == pytest.approx(exact, rel=1e-6), p
    # full problem: the certificate threshold never overshoots the fold
    for alpha, p in ((1.2, 2.0), (1.5, 2.0), (1.8, 3.0)):
        cfg = RunConfig(alpha=alpha, p=p)
        kp_a = cfg.kernel_params()
        h = build_forcing(cfg, kp_a)
        lam = (critical_constant(p) / operator_norm_b(kp_a, p)) ** (1.0 / (p - 1.0)) / apply_green(h, kp_a).sup_norm
        sw = fold_sweep(h, p, kp_a, 0.8 * lam, 4.0 * lam, 9)
        assert sw.bracketed, (alpha, p)
        assert sw.fold_estimate >= sw.lambda_cert, (alpha, p)


def test_guarantee_9_cli_determinism(tmp_path):
    for argv, names in (
        (["solve", "--seed", "3"], ("report.json", "minimal.csv", "second.csv")),
        (["lemmas", "--samples", "40"], ("lemmas.json",)),
    ):
        outdir = tmp_path / argv[0]
        outdir.mkdir()
        full = [*argv, "--outdir", str(outdir)]
        assert main(full) == 0
        before = {n: (outdir / n).read_bytes() for n in names}
        assert main(full) == 0
        for n in names:
            assert (outdir / n).read_bytes() == before[n], n
        with open(outdir / names[0]) as fh:
            assert json.load(fh)["schema"] == 1
