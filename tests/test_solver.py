import dataclasses
import math

import numpy as np
import pytest

from bifrac.cli import RunConfig, build_forcing
from bifrac.cone import sample_cone
from bifrac.greenop import GridFunction, apply_green, get_operator, make_grid, operator_norm_b
from bifrac.kernels import KernelParams
from bifrac.scalar import ScalarProblem, critical_constant
from bifrac.solver import (
    _branch_system,
    _even_weight,
    _expand,
    _fold_newton,
    _half,
    _second_branch,
    _solve_pair,
    certify,
    fold_sweep,
    krasnoselskii_probe,
    newton_second,
    picard_minimal,
    residual_strong,
)

from full_grid_picard import full_grid_picard


def scaled(h, factor):
    return h.with_values(h.values * factor)


class TestCertify:
    def test_certified_case(self, h_certified, kp):
        rep = certify(h_certified, 2.0, kp)
        assert rep.passed
        # the forcing amplitude puts the problem at half threshold
        assert rep.margin == pytest.approx(0.5, abs=1e-12)
        assert rep.lhs == pytest.approx(rep.c_p / 2, abs=1e-12)
        assert rep.radii.rho1 == pytest.approx(0.07469060864424198, rel=1e-10)
        assert rep.radii.rho2 == pytest.approx(0.46999280149331274, rel=1e-10)
        assert rep.radii.rho3 == pytest.approx(25.309261380991646, rel=1e-10)
        assert rep.radii.rho1 < rep.radii.rho2 < rep.radii.rho3

    def test_to_dict_shape(self, h_certified, kp):
        d = certify(h_certified, 2.0, kp).to_dict()
        assert d["pass"] is True
        assert set(d["radii"]) == {"rho1", "rho2", "rho3"}
        assert "failure" not in d

    def test_supercritical_forcing(self, h_certified, kp):
        rep = certify(scaled(h_certified, 3.0), 2.0, kp)
        assert not rep.passed
        assert rep.failure.kind == "supercritical"
        assert rep.to_dict()["failure"] == "supercritical"

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_failing_margin_is_relative(self, h_certified, kp, p):
        # the margin keeps the passing certificate's unit, relative to c_p
        rep = certify(scaled(h_certified, 3.0), p, kp)
        assert not rep.passed
        assert rep.margin == (rep.c_p - rep.lhs) / rep.c_p

    def test_zero_forcing_degenerate(self, grid65, kp):
        rep = certify(GridFunction(grid65, np.zeros(65)), 2.0, kp)
        assert not rep.passed
        assert rep.failure.kind == "degenerate"

    def test_asymmetric_forcing_rejected(self, grid65, kp):
        vals = (1 - grid65.nodes**2) * (1 + 0.1 * grid65.nodes)
        with pytest.raises(ValueError):
            certify(GridFunction(grid65, vals), 2.0, kp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_forcing_rejected(self, h_certified, kp, bad):
        # an infinite value once passed the shape check, whose slack scales
        # with the sup norm, and a NaN hid behind max(0.0, nan) == 0.0
        vals = h_certified.values.copy()
        vals[10] = bad
        h = h_certified.with_values(vals)
        with pytest.raises(ValueError, match="finite"):
            certify(h, 2.0, kp)
        with pytest.raises(ValueError, match="finite"):
            fold_sweep(h, 2.0, kp, 0.5, 2.0, 3)

    def test_problem_object_rejects_asymmetric_forcing(self, h_certified, grid65, kp):
        # the second branch is solved on the even half, which needs an even
        # forcing: the report the solvers take cannot be built without one
        vals = (1 - grid65.nodes**2) * (1 + 0.1 * grid65.nodes)
        rep = certify(h_certified, 2.0, kp)
        with pytest.raises(ValueError, match="even"):
            dataclasses.replace(rep, h=GridFunction(grid65, vals))

    def test_report_poses_the_problem(self, h_certified, kp, spec):
        rep = certify(h_certified, 2.0, kp)
        assert rep.h is h_certified and rep.p == 2.0 and rep.kp is kp and rep.spec == spec
        assert np.array_equal(rep.u0.values, apply_green(h_certified, kp).values)
        assert rep.u0_sup == rep.u0.sup_norm
        assert set(rep.to_dict()) == {"b", "a_coerc", "c_p", "u0_sup", "lhs", "pass", "margin", "radii"}


class TestMinimalBranch:
    def test_converges_inside_small_ball(self, h_certified, kp):
        rep = certify(h_certified, 2.0, kp)
        res = picard_minimal(rep)
        assert res.converged and res.status == "converged"
        assert res.branch == "minimal"
        assert res.fixed_point_residual < 1e-9
        assert res.in_cone
        assert res.u.sup_norm == pytest.approx(0.18490, rel=1e-4)
        assert res.u.sup_norm < rep.radii.rho2

    def test_iterates_dominate_forced_term(self, h_certified, kp):
        # u = G(u^p) + G(h) with G positivity-preserving forces u >= G(h)
        u0 = apply_green(h_certified, kp)
        res = picard_minimal(certify(h_certified, 2.0, kp))
        assert (res.u.values - u0.values).min() >= -1e-13

    def test_zero_forcing_returns_zero(self, grid65, kp):
        h = GridFunction(grid65, np.zeros(65))
        res = picard_minimal(certify(h, 2.0, kp))
        assert res.converged and res.u.sup_norm == 0.0 and res.iterations == 0

    def test_divergence_past_threshold(self, h_certified, kp):
        res = picard_minimal(certify(scaled(h_certified, 10.0), 2.0, kp))
        assert not res.converged
        assert res.status == "diverged"


class TestSecondBranch:
    def test_finds_distinct_solution(self, h_certified, kp):
        rep = certify(h_certified, 2.0, kp)
        low = picard_minimal(rep)
        res = newton_second(rep, low.u)
        assert res.converged and res.branch == "second"
        assert res.fixed_point_residual < 1e-11
        assert res.in_cone
        assert res.u.sup_norm == pytest.approx(1.71984, rel=1e-4)
        sep = float(np.abs(res.u.values - low.u.values).max())
        assert sep > rep.radii.rho2 - rep.radii.rho1

    def test_strong_residuals_both_branches(self, h_certified, kp):
        rep = certify(h_certified, 2.0, kp)
        low = picard_minimal(rep)
        high = newton_second(rep, low.u)
        for res in (low, high):
            worst = residual_strong(res, rep)
            assert worst < 1e-2
            assert res.strong_residual == worst

    def test_jacobian_matches_finite_differences(self, h_certified, kp):
        # the Newton model linearizes u - M u^p - u0 as I - M diag(p u^{p-1})
        rep = certify(h_certified, 2.0, kp)
        low = picard_minimal(rep)
        res = newton_second(rep, low.u)
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
    def test_compression_expansion_margins(self, h_certified, kp):
        rep = certify(h_certified, 2.0, kp)
        r = rep.radii
        at = lambda rho: krasnoselskii_probe(rho, rep, count=60, seed=7)
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
        posed = lambda lam: certify(scaled(h, lam), p, kp_a)
        below = full_grid_picard(posed(sw.fold_estimate * (1 - 1e-5)), max_iter=50_000)
        above = full_grid_picard(posed(sw.fold_estimate * (1 + 1e-5)), max_iter=50_000)
        assert below.status == "converged"
        assert above.status == "diverged"

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_minimal_branch_reaches_the_fold(self, alpha):
        # within 1e-5 of the fold full-grid Picard needs up to 1.3e4 steps;
        # capped Picard and the Newton finish land on its limit, and still
        # converge at 1e-7
        for p in (1.5, 2.0, 3.0):
            cfg = RunConfig(alpha=alpha, p=p)
            kp_a = cfg.kernel_params()
            h = build_forcing(cfg, kp_a)
            lam = 2.0 ** (1.0 / (p - 1.0))
            sw = fold_sweep(h, p, kp_a, 0.8 * lam, 4.0 * lam, 9)
            assert sw.fold_status == "converged"
            for rel in (1e-3, 1e-5, 1e-7):
                rep = certify(scaled(h, sw.fold_estimate * (1 - rel)), p, kp_a)
                res = picard_minimal(rep)
                assert res.status == "converged", (p, rel)
                if rel < 1e-6:
                    continue
                oracle = full_grid_picard(rep, tol=1e-15, max_iter=50_000)
                assert oracle.status == "converged", (p, rel)
                err = np.abs(res.u.values - oracle.u.values).max()
                assert err <= 1e-11 * oracle.u.sup_norm, (p, rel)

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

    def test_scan_and_newton_second_find_the_same_branch(self, h_certified, kp):
        # the scan's second-branch search is the one newton_second runs
        sw = fold_sweep(h_certified, 2.0, kp, 0.5, 1.5, 3)
        pt = sw.points[1]
        assert pt.lam == 1.0 and pt.n_found == 2
        rep = certify(h_certified, 2.0, kp)
        low = picard_minimal(rep)
        high = newton_second(rep, low.u)
        assert pt.sup_second == pytest.approx(high.u.sup_norm, rel=1e-12, abs=0.0)

    def test_fold_past_a_one_branch_point(self):
        # the second-branch search misses at lambda = 1.697, just below the
        # fold, but the minimal branch exists there, so the fold lies above
        # it; a finer scan, where the search succeeds, finds the same fold
        cfg = RunConfig(alpha=1.05, p=3.0, h_profile="plateau", grid_n=33)
        kp_a = cfg.kernel_params()
        h = build_forcing(cfg, kp_a)
        sw = fold_sweep(h, 3.0, kp_a, 1.1313708498984762, 5.656854249492381, 9)
        assert [pt.n_found for pt in sw.points[:3]] == [2, 1, 0]
        assert sw.fold_status == "converged"
        assert sw.points[1].lam < sw.fold_estimate < sw.points[2].lam
        fine = fold_sweep(h, 3.0, kp_a, 1.6, 2.3, 15)
        assert fine.fold_estimate == pytest.approx(sw.fold_estimate, rel=1e-12, abs=0.0)
        posed = lambda lam: certify(scaled(h, lam), 3.0, kp_a)
        below = full_grid_picard(posed(sw.fold_estimate * (1 - 1e-5)), max_iter=50_000)
        above = full_grid_picard(posed(sw.fold_estimate * (1 + 1e-5)), max_iter=50_000)
        assert below.status == "converged"
        assert above.status == "diverged"

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


def _full_grid_scan(M, base, p, b, lams):
    """The sweep's scan and fold on the full grid: the oracle of the even half."""
    pairs = [_solve_pair(M, lam * base, p, b) for lam in lams]
    last = max(i for i, (nf, _, _) in enumerate(pairs) if nf == 2)
    _, umin, usec = pairs[last]
    fold = _fold_newton(
        M[1:-1, 1:-1], base[1:-1], p, 0.5 * (umin + usec)[1:-1], (usec - umin)[1:-1], lams[last]
    )
    return pairs, fold


class TestEvenHalf:
    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_sweep_follows_the_full_grid(self, alpha, n):
        # the fold-warm grid: counts, sups and folds of the even half agree
        # with the full-grid solves to rounding
        sup = lambda u: float(np.abs(u).max()) if u is not None else np.nan
        for p in (1.5, 2.0, 3.0):
            lam_cert = 2.0 ** (1.0 / (p - 1.0))
            for profile in ("bump", "torsion", "plateau"):
                cfg = RunConfig(alpha=alpha, p=p, h_profile=profile, grid_n=n)
                kp_a = cfg.kernel_params()
                h = build_forcing(cfg, kp_a)
                sw = fold_sweep(h, p, kp_a, 0.8 * lam_cert, 4.0 * lam_cert, 9)
                M = get_operator(h.grid, kp_a).matrix
                pairs, fold = _full_grid_scan(
                    M, M @ h.values, p, operator_norm_b(kp_a, p), [pt.lam for pt in sw.points]
                )
                case = (p, profile)
                for pt, (nf, umin, usec) in zip(sw.points, pairs):
                    assert pt.n_found == nf, case
                    np.testing.assert_allclose(
                        [pt.sup_minimal, pt.sup_second], [sup(umin), sup(usec)], rtol=1e-12, atol=0.0
                    )
                assert sw.fold_status == "converged", case
                assert fold == pytest.approx(sw.fold_estimate, rel=1e-12, abs=0.0), case

    @pytest.mark.parametrize("n", [33, 65, 257])
    def test_half_operator_applies_the_full_one(self, n, kp, spec):
        M = get_operator(make_grid(n), kp).matrix
        Mh, m = _half(M), n // 2 + 1
        members = [u.values[:m] for u in sample_cone(1.0, 5, 3, grid=make_grid(n), kp=kp, spec=spec)]
        for uh in members + [np.random.default_rng(n).random(m)]:
            full = M @ _expand(uh)
            assert np.abs(Mh @ uh - full[:m]).max() <= 1e-14 * np.abs(full).max()

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_deflation_measures_the_full_grid(self, alpha):
        # weighted by the full-grid norm, the deflated Newton on the half
        # takes the steps of the full-grid search
        for p in (1.5, 2.0, 3.0):
            cfg = RunConfig(alpha=alpha, p=p)
            kp_a = cfg.kernel_params()
            h = build_forcing(cfg, kp_a)
            rep = certify(h, p, kp_a)
            low = picard_minimal(rep)
            high = newton_second(rep, low.u)
            M = get_operator(h.grid, kp_a).matrix
            u0vec = M @ h.values
            scalar = ScalarProblem(b=operator_norm_b(kp_a, p), u0=float(np.abs(u0vec).max()), p=p)
            full, iters, status = _second_branch(
                _branch_system(M, u0vec, p), low.u.values, low.u.values, scalar, 1e-12, 80
            )
            assert status == high.status == "converged"
            assert high.iterations == iters, p
            assert np.abs(high.u.values - full).max() <= 1e-14 * np.abs(full).max()

    def test_branches_are_palindromes(self, h_certified, kp):
        rep = certify(h_certified, 2.0, kp)
        high = newton_second(rep, picard_minimal(rep).u).u.values
        assert np.array_equal(high, high[::-1])
        # the sweep's branches, expanded, are palindromes that follow the
        # full-grid ones to rounding
        M = get_operator(h_certified.grid, kp).matrix
        u0vec, m, b = M @ h_certified.values, h_certified.grid.n // 2 + 1, operator_norm_b(kp, 2.0)
        nf, *halves = _solve_pair(_half(M), u0vec[:m], 2.0, b, _even_weight(m))
        nf_full, *fulls = _solve_pair(M, u0vec, 2.0, b)
        assert nf == nf_full == 2
        for half, full in zip(halves, fulls):
            u = _expand(half)
            assert np.array_equal(u, u[::-1])
            assert np.abs(u - full).max() <= 1e-14 * np.abs(full).max()
