import math

import numpy as np
import pytest

from bifrac.cli import RunConfig, build_forcing
from bifrac.cone import ConeSpec
from bifrac.greenop import GridFunction, apply_green, get_operator, operator_norm_b
from bifrac.kernels import KernelParams
from bifrac.scalar import critical_constant
from bifrac.solver import (
    certify,
    fold_sweep,
    krasnoselskii_probe,
    newton_second,
    picard_minimal,
    residual_strong,
)


def scaled(h, factor):
    return h.with_values(h.values * factor)


class TestCertify:
    def test_certified_case(self, h_certified, kp, spec):
        rep = certify(h_certified, 2.0, spec, kp)
        assert rep.passed
        # the forcing amplitude puts the problem at half threshold
        assert rep.margin == pytest.approx(0.5, abs=1e-12)
        assert rep.lhs == pytest.approx(rep.c_p / 2, abs=1e-12)
        assert rep.radii.rho1 == pytest.approx(0.07469060864424198, rel=1e-10)
        assert rep.radii.rho2 == pytest.approx(0.46999280149331274, rel=1e-10)
        assert rep.radii.rho3 == pytest.approx(25.309261380991646, rel=1e-10)
        assert rep.radii.rho1 < rep.radii.rho2 < rep.radii.rho3

    def test_to_dict_shape(self, h_certified, kp, spec):
        d = certify(h_certified, 2.0, spec, kp).to_dict()
        assert d["pass"] is True
        assert set(d["radii"]) == {"rho1", "rho2", "rho3"}
        assert "failure" not in d

    def test_supercritical_forcing(self, h_certified, kp, spec):
        rep = certify(scaled(h_certified, 3.0), 2.0, spec, kp)
        assert not rep.passed
        assert rep.failure.kind == "supercritical"
        assert rep.to_dict()["failure"] == "supercritical"

    def test_zero_forcing_degenerate(self, grid65, kp, spec):
        rep = certify(GridFunction(grid65, np.zeros(65)), 2.0, spec, kp)
        assert not rep.passed
        assert rep.failure.kind == "degenerate"

    def test_asymmetric_forcing_rejected(self, grid65, kp, spec):
        vals = (1 - grid65.nodes**2) * (1 + 0.1 * grid65.nodes)
        with pytest.raises(ValueError):
            certify(GridFunction(grid65, vals), 2.0, spec, kp)


class TestMinimalBranch:
    def test_converges_inside_small_ball(self, h_certified, kp, spec):
        rep = certify(h_certified, 2.0, spec, kp)
        res = picard_minimal(h_certified, 2.0, kp, spec=spec)
        assert res.converged and res.status == "converged"
        assert res.branch == "minimal"
        assert res.fixed_point_residual < 1e-9
        assert res.in_cone
        assert res.u.sup_norm == pytest.approx(0.18490, rel=1e-4)
        assert res.u.sup_norm < rep.radii.rho2

    def test_iterates_dominate_forced_term(self, h_certified, kp, spec):
        # u = G(u^p) + G(h) with G positivity-preserving forces u >= G(h)
        u0 = apply_green(h_certified, kp)
        res = picard_minimal(h_certified, 2.0, kp, spec=spec)
        assert (res.u.values - u0.values).min() >= -1e-13

    def test_zero_forcing_returns_zero(self, grid65, kp, spec):
        h = GridFunction(grid65, np.zeros(65))
        res = picard_minimal(h, 2.0, kp, spec=spec)
        assert res.converged and res.u.sup_norm == 0.0 and res.iterations == 0

    def test_divergence_past_threshold(self, h_certified, kp, spec):
        res = picard_minimal(scaled(h_certified, 10.0), 2.0, kp, spec=spec)
        assert not res.converged
        assert res.status == "diverged"


class TestSecondBranch:
    def test_finds_distinct_solution(self, h_certified, kp, spec):
        rep = certify(h_certified, 2.0, spec, kp)
        low = picard_minimal(h_certified, 2.0, kp, spec=spec)
        res = newton_second(h_certified, 2.0, kp, low.u, spec=spec)
        assert res.converged and res.branch == "second"
        assert res.fixed_point_residual < 1e-11
        assert res.in_cone
        assert res.u.sup_norm == pytest.approx(1.71984, rel=1e-4)
        sep = float(np.abs(res.u.values - low.u.values).max())
        assert sep > rep.radii.rho2 - rep.radii.rho1

    def test_strong_residuals_both_branches(self, h_certified, kp, spec):
        low = picard_minimal(h_certified, 2.0, kp, spec=spec)
        high = newton_second(h_certified, 2.0, kp, low.u, spec=spec)
        for res in (low, high):
            worst = residual_strong(res, h_certified, 2.0, kp)
            assert worst < 1e-2
            assert res.strong_residual == worst

    def test_jacobian_matches_finite_differences(self, h_certified, kp, spec):
        # the Newton model linearizes u - M u^p - u0 as I - M diag(p u^{p-1})
        low = picard_minimal(h_certified, 2.0, kp, spec=spec)
        res = newton_second(h_certified, 2.0, kp, low.u, spec=spec)
        M = get_operator(h_certified.grid, kp).matrix
        u0vec = M @ h_certified.values
        u = res.u.values
        F = lambda v: v - M @ (np.clip(v, 0, None) ** 2) - u0vec
        J = np.eye(u.size) - M @ np.diag(2.0 * np.clip(u, 0, None))
        rng = np.random.default_rng(0)
        for _ in range(3):
            d = rng.standard_normal(u.size)
            eps = 1e-6
            fd = (F(u + eps * d) - F(u - eps * d)) / (2 * eps)
            assert np.abs(fd - J @ d).max() <= 1e-6 * np.abs(J @ d).max()


class TestProbes:
    def test_compression_expansion_margins(self, h_certified, kp, spec):
        rep = certify(h_certified, 2.0, spec, kp)
        r = rep.radii
        at = lambda rho: krasnoselskii_probe(
            rho, h_certified, 2.0, kp, spec, count=60, seed=7
        )
        inner, middle, outer = at(r.rho1), at(r.rho2), at(r.rho3)
        assert inner.min_T > r.rho1  # expansion on the small sphere
        assert middle.max_T < r.rho2  # compression at the middle radius
        assert outer.min_T > r.rho3  # expansion again far out
        assert inner.count == 60


class TestFoldSweep:
    def test_scalar_fold_matches_closed_form(self, h_certified, kp):
        for p in (2.0, 3.0):
            b = operator_norm_b(kp, p)
            u0_sup = apply_green(h_certified, kp).sup_norm
            exact = (critical_constant(p) / b) ** (1.0 / (p - 1.0)) / u0_sup
            sw = fold_sweep(h_certified, p, kp, 0.25 * exact, 2.0 * exact, 7,
                            scalar_model=True)
            assert sw.bracketed and sw.fold_status == "converged"
            assert sw.fold_estimate == pytest.approx(exact, rel=1e-12)
            assert sw.lambda_cert == pytest.approx(exact, rel=1e-12)

    def test_bvp_fold_above_certificate(self, h_certified, kp):
        sw = fold_sweep(h_certified, 2.0, kp, 2.0, 4.0, 5)
        assert sw.bracketed
        assert sw.lambda_cert == pytest.approx(2.0, rel=1e-12)
        assert sw.fold_estimate >= sw.lambda_cert
        assert 2.5 <= sw.fold_estimate <= 3.0

    def test_minimal_branch_grows_with_lambda(self, h_certified, kp):
        sw = fold_sweep(h_certified, 2.0, kp, 0.5, 2.5, 5, scalar_model=True)
        found = [pt for pt in sw.points if pt.n_found == 2]
        sups = [pt.sup_minimal for pt in found]
        assert len(found) >= 2
        assert all(a < b for a, b in zip(sups, sups[1:]))

    @pytest.mark.parametrize("alpha, p", [(1.2, 2.0), (1.5, 2.0), (1.8, 3.0)])
    def test_fold_brackets_picard_oracle(self, alpha, p):
        # monotone Picard from zero converges below the fold and diverges
        # above it; this oracle shares no code with the extended system
        cfg = RunConfig(alpha=alpha, p=p)
        kp_a = cfg.kernel_params()
        h = build_forcing(cfg, kp_a)
        lam = 2.0 ** (1.0 / (p - 1.0))  # lambda_cert of the auto amplitude
        sw = fold_sweep(h, p, kp_a, 0.8 * lam, 4.0 * lam, 9)
        assert sw.fold_status == "converged"
        below = picard_minimal(scaled(h, sw.fold_estimate * (1 - 1e-5)), p, kp_a, max_iter=50_000)
        above = picard_minimal(scaled(h, sw.fold_estimate * (1 + 1e-5)), p, kp_a, max_iter=50_000)
        assert below.status == "converged"
        assert above.status == "diverged"

    @pytest.mark.parametrize("profile", ["torsion", "plateau"])
    def test_scan_counts_two_branches_below_the_fold(self, profile):
        # at lambda = 3.2 the scalar-predicted second-branch start falls
        # outside the deflated Newton basin; a later start must catch it
        cfg = RunConfig(alpha=1.5, p=1.5, h_profile=profile, grid_n=129)
        kp_a = cfg.kernel_params()
        sw = fold_sweep(build_forcing(cfg, kp_a), 1.5, kp_a, 3.2, 16.0, 9)
        assert sw.fold_status == "converged"
        for pt in sw.points:
            assert pt.n_found == (2 if pt.lam < sw.fold_estimate else 0), pt.lam

    def test_scan_and_newton_second_find_the_same_branch(self, h_certified, kp, spec):
        # the scan's second-branch search is the one newton_second runs
        sw = fold_sweep(h_certified, 2.0, kp, 0.5, 1.5, 3)
        pt = sw.points[1]
        assert pt.lam == 1.0 and pt.n_found == 2
        low = picard_minimal(h_certified, 2.0, kp, spec=spec)
        high = newton_second(h_certified, 2.0, kp, low.u, spec=spec)
        assert pt.sup_second == pytest.approx(high.u.sup_norm, rel=1e-12, abs=0.0)

    def test_unbracketed_fold_is_nan(self, h_certified, kp):
        sw = fold_sweep(h_certified, 2.0, kp, 0.1, 0.5, 3, scalar_model=True)
        assert not sw.bracketed
        assert sw.fold_status == "not_bracketed"
        assert math.isnan(sw.fold_estimate)

    def test_input_validation(self, h_certified, grid65, kp):
        with pytest.raises(ValueError):
            fold_sweep(h_certified, 2.0, kp, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            fold_sweep(h_certified, 2.0, kp, 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            fold_sweep(h_certified, 2.0, kp, 0.5, 1.0, 1)
        with pytest.raises(ValueError):
            fold_sweep(GridFunction(grid65, np.zeros(65)), 2.0, kp, 0.5, 1.0, 3)
