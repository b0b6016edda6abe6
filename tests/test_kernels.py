import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import hyp2f1, roots_jacobi

from bifrac import kernels
from bifrac.kernels import (
    KernelParams,
    distance_product_bound,
    frac_laplacian_pv,
    green_ball,
    green_const,
    green_interval,
    inner_integral,
    interpolate,
    norm_const,
    poisson_ball,
    poisson_const,
    poisson_total_mass,
    w_factor,
)
from bifrac.cone import ConeSpec
from bifrac.greenop import GridFunction, apply_green, make_grid
from bifrac.solver import certify, newton_second, picard_minimal
from bifrac.cli import RunConfig, build_forcing

from conftest import torsion_exact
from spline_pv import spline_pv

SOLVER_ORDERS = np.linspace(1.05, 1.95, 19)


class TestConstants:
    def test_operator_constant_table(self):
        # c_{1,-alpha} drives the principal value evaluator
        table = {
            1.05: 0.32436682695905622,
            1.2: 0.33354942991224811,
            1.5: 0.29920671030107451,
            1.8: 0.16490493881830272,
            1.95: 0.047720086172791604,
        }
        for alpha, want in table.items():
            assert norm_const(1, -alpha) == pytest.approx(want, rel=1e-13)

    def test_norm_const_positive_gamma(self):
        assert norm_const(2, 0.5) == pytest.approx(0.076074279862467708, rel=1e-13)

    def test_green_const_table(self):
        table = {
            0.5: 0.053792639164634132,
            1.05: 0.169084180968799,
            1.5: 0.23544388511093724,
            1.95: 0.25119177039750788,
        }
        for alpha, want in table.items():
            assert green_const(KernelParams(alpha=alpha)) == pytest.approx(want, rel=1e-13)

    def test_kernel_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(alpha=2.0)
        with pytest.raises(ValueError):
            KernelParams(alpha=0.0)
        KernelParams(alpha=1.99)  # fine for kernel evaluation
        with pytest.raises(ValueError):
            KernelParams(alpha=1.99).require_solver_window()


class TestWFactor:
    def test_known_value(self):
        # (1-0)(1-0.25)/0.25 = 3
        assert w_factor(0.0, 0.5) == pytest.approx(3.0, rel=1e-15)

    def test_diagonal_is_infinite(self):
        assert w_factor(0.3, 0.3) == np.inf

    def test_boundary_is_zero(self):
        assert w_factor(1.0, 0.2) == 0.0


class TestInnerIntegral:
    def test_reference_values(self):
        cases = [
            (3.0, 1.5, 2.1411482689141798),
            (0.5, 1.05, 1.2298312829025848),
            (1e8, 1.95, 13281.274912893189),
            (1e-6, 1.2, 0.00041864766008851526),
        ]
        for w, alpha, want in cases:
            got = inner_integral(np.array([w]), KernelParams(alpha=alpha))[0]
            assert got == pytest.approx(want, rel=1e-13)

    def test_matches_mpmath_quad(self):
        # 30-digit reference; r = t^2 removes the r^(s-1) endpoint singularity,
        # without which the reference itself is off by 3e-9 at alpha = 0.5
        def reference(w, alpha):
            with mpmath.workdps(30):
                s = mpmath.mpf(alpha) / 2
                top = mpmath.sqrt(w)
                cuts = [mpmath.mpf(10) ** k for k in range(-3, 8) if 10.0**k < top]
                f = lambda t: 2 * t ** (2 * s - 1) / mpmath.sqrt(1 + t * t)
                return float(mpmath.quad(f, [0, *cuts, top]))

        ws = np.concatenate([np.geomspace(1e-8, 1e14, 12), [1.0, 1.0 + 1e-12, 2.0]])
        for alpha in (0.5, 0.99, 0.9999, 1.0, 1.0001, 1.01, 1.05, 1.5, 1.95):
            got = inner_integral(ws, KernelParams(alpha=alpha))
            want = np.array([reference(w, alpha) for w in ws])
            # within 1e-3 of alpha = 1 the connection formula cancels two
            # terms of size 1/(alpha-1) and loses about three digits
            bound = 1e-11 if 0 < abs(alpha - 1) < 1e-3 else 1e-13
            assert np.max(np.abs(got - want) / want) <= bound, alpha

    @settings(max_examples=60, deadline=None)
    @given(
        logw=st.floats(min_value=-10, max_value=10),
        alpha=st.floats(min_value=0.5, max_value=1.95),
    )
    def test_monotone_in_w(self, logw, alpha):
        kp = KernelParams(alpha=alpha)
        w = 10.0**logw
        lo, hi = inner_integral(np.array([w, w * 1.01]), kp)
        assert hi > lo > 0


class TestSciPyOracles:
    """The series and rules that replaced SciPy, against SciPy itself."""

    def test_kernel_series_against_hyp2f1(self):
        # both sides of the Pfaff switch at w = 1, where the series variable
        # is 1/2 on each side, out to the diagonal w = inf
        near_one = [1.0 - 1e-12, 1.0 - 1e-16, 1.0]
        small = np.concatenate([np.geomspace(1e-12, 1.0, 40), near_one])
        big = np.concatenate([[1.0, 1.0 + 1e-16, 1.0 + 1e-12], np.geomspace(1.0, 1e16, 40), [np.inf]])
        for alpha in SOLVER_ORDERS:
            s = alpha / 2.0
            got = kernels._hyp2f1_series(0.5, 1.0, s + 1.0, small / (1.0 + small)) / np.sqrt(1.0 + small)
            want = hyp2f1(0.5, s, s + 1.0, -small)
            assert np.abs(got / want - 1.0).max() <= 2e-15, alpha
            got = kernels._connection(big, s)[1]
            want = hyp2f1(0.5, 0.5 - s, 1.5 - s, -1.0 / big)
            assert np.abs(got / want - 1.0).max() <= 2e-15, alpha

    def test_core_mass_series_against_hyp2f1(self):
        x = np.linspace(0.0, 0.5, 41)
        for alpha in SOLVER_ORDERS:
            s = alpha / 2.0
            for a, b, c in ((0.5, 1.0 - s, 1.5), (s, 0.5, s + 1.0)):
                got = kernels._hyp2f1_series(a, b, c, x)
                assert np.abs(got / hyp2f1(a, b, c, x) - 1.0).max() <= 2e-15, (alpha, a)

    def test_series_rejects_points_past_one_half(self):
        with pytest.raises(ValueError):
            kernels._hyp2f1_series(0.5, 1.0, 1.5, np.array([0.2, 0.6]))

    def test_golub_welsch_against_roots_jacobi(self):
        # the two 24-point rules of poisson_total_mass; a 40-digit
        # Golub-Welsch puts SciPy's weights up to 1.4e-11 off and these
        # within 7e-14, so the weight bound is SciPy's error
        for alpha in SOLVER_ORDERS:
            for a, b in ((0.0, -alpha / 2.0), (0.0, alpha - 1.0)):
                nodes, weights = kernels._gauss_jacobi(24, a, b)
                want_nodes, want_weights = roots_jacobi(24, a, b)
                assert np.abs(nodes - want_nodes).max() <= 2e-15, (alpha, b)
                assert np.abs(weights / want_weights - 1.0).max() <= 3e-11, (alpha, b)

    def test_golub_welsch_at_a_plus_b_zero(self):
        # alpha = 1 makes the far rule Gauss-Legendre
        nodes, weights = kernels._gauss_jacobi(24, 0.0, 0.0)
        want_nodes, want_weights = leggauss(24)
        assert np.abs(nodes - want_nodes).max() <= 2e-15
        assert np.abs(weights / want_weights - 1.0).max() <= 3e-13


class TestGreenBall:
    def test_golden_values(self):
        cases = [
            (0.0, 0.5, 1.5, 0.3564668593516969),
            (0.3, 0.3, 1.5, 0.89839660696492227),
            (0.2, 0.2 + 1e-9, 1.5, 0.92272257910707909),
            (0.0, 0.5, 0.5, 0.33977935243559008),
            (-0.9, 0.85, 1.05, 0.039145817897857522),
            (0.7, 0.7, 1.95, 0.27893529078425038),
            (0.5, 0.6, 1.2, 0.71403640294723494),
        ]
        for x, y, alpha, want in cases:
            got = float(green_ball(x, y, KernelParams(alpha=alpha)))
            assert got == pytest.approx(want, rel=5e-13), (x, y, alpha)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.999, 0.999, 400)
        y = rng.uniform(-0.999, 0.999, 400)
        for alpha in (1.2, 1.5, 1.8):
            kp = KernelParams(alpha=alpha)
            a = green_ball(x, y, kp)
            b = green_ball(y, x, kp)
            assert np.abs(a - b).max() <= 1e-10

    def test_zero_outside_exactly(self):
        kp = KernelParams(alpha=1.5)
        assert float(green_ball(1.2, 0.0, kp)) == 0.0
        assert float(green_ball(0.0, -1.0, kp)) == 0.0
        assert float(green_ball(-3.0, 5.0, kp)) == 0.0

    def test_diagonal_matches_limit(self):
        # sliding y toward x must approach the closed-form diagonal value
        kp = KernelParams(alpha=1.5)
        d = float(green_ball(0.2, 0.2, kp))
        near = float(green_ball(0.2, 0.2 + 1e-12, kp))
        assert near == pytest.approx(d, rel=1e-5)

    def test_diagonal_divergence_at_low_alpha(self):
        # for alpha <= 1 the kernel blows up on the diagonal
        kp = KernelParams(alpha=0.8)
        assert float(green_ball(0.1, 0.1, kp)) == np.inf

    def test_interval_scaling(self):
        kp = KernelParams(alpha=1.4)
        # W = (-1,1) with center 0 radius 1 is the ball itself
        assert float(green_interval(0.3, -0.2, 0.0, 1.0, kp)) == pytest.approx(
            float(green_ball(0.3, -0.2, kp)), rel=1e-15
        )
        # scaling: G_W for W = (0,1) at midpoints
        got = float(green_interval(0.5, 0.7, 0.5, 0.5, kp))
        want = 0.5 ** (kp.alpha - 1) * float(green_ball(0.0, 0.4, kp))
        assert got == pytest.approx(want, rel=1e-14)

    def test_two_sided_distance_bound(self):
        # ratio G / comparator bounded away from 0 and infinity
        t = np.linspace(-0.995, 0.995, 100)
        X, Y = np.meshgrid(t, t, indexing="ij")
        for alpha in (1.2, 1.5, 1.8):
            kp = KernelParams(alpha=alpha)
            G = green_ball(X, Y, kp)
            H = distance_product_bound(X, Y, kp)
            ratio = G / H
            assert np.isfinite(ratio).all()
            assert ratio.min() > 0
            assert ratio.max() / ratio.min() < 1e3


class TestPoisson:
    def test_golden_values(self):
        cases = [
            (0.0, 1.5, 1.0, 1.5, 0.12692914676149248),
            (0.3, 2.0, 1.0, 1.2, 0.087048163704070031),
            (-0.5, -1.25, 1.0, 1.8, 0.16990888540661295),
        ]
        for x, y, r, alpha, want in cases:
            got = float(poisson_ball(x, y, r, KernelParams(alpha=alpha)))
            assert got == pytest.approx(want, rel=1e-13)

    def test_domain_validation(self):
        kp = KernelParams(alpha=1.5)
        with pytest.raises(ValueError):
            poisson_ball(1.5, 2.0, 1.0, kp)  # x outside the ball
        with pytest.raises(ValueError):
            poisson_ball(0.0, 0.5, 1.0, kp)  # y inside the ball
        with pytest.raises(ValueError):
            poisson_ball(0.0, 2.0, -1.0, kp)

    def test_total_mass_is_one(self):
        for alpha in (1.2, 1.5, 1.8):
            kp = KernelParams(alpha=alpha)
            for x in (0.0, 0.35, -0.6):
                assert poisson_total_mass(x, 1.0, kp) == pytest.approx(1.0, abs=1e-6)

    def test_total_mass_other_radius(self):
        kp = KernelParams(alpha=1.5)
        assert poisson_total_mass(0.2, 0.7, kp) == pytest.approx(1.0, abs=1e-6)

    def test_decay_in_y(self):
        kp = KernelParams(alpha=1.5)
        ys = np.array([1.5, 2.0, 3.0, 5.0, 10.0])
        vals = poisson_ball(np.zeros_like(ys), ys, 1.0, kp)
        assert (np.diff(vals) < 0).all()


class TestInterpolate:
    def test_plain_reproduces_polynomials(self, grid65):
        p = lambda x: 3.0 * x**64 - x**7 + 0.5
        u = GridFunction(grid65, p(grid65.nodes))
        x = np.array([-1.0, -0.77, 0.0, 0.123, grid65.nodes[40], 1.0])
        assert np.abs(interpolate(u, x) - p(x)).max() <= 1e-13

    def test_weighted_reproduces_weighted_polynomials(self, grid65, kp):
        # w q with q of degree n-3 is exact; the endpoint values are 0
        q = lambda x: 2.0 * x**62 + x**3 - 4.0
        f = lambda x: (1.0 - x * x) ** (kp.alpha / 2.0) * q(x)
        u = GridFunction(grid65, f(grid65.nodes))
        x = np.array([-1.0, -0.999, -0.31, 0.0, grid65.nodes[7], 0.5, 1.0])
        assert np.abs(interpolate(u, x, kp) - f(x)).max() <= 1e-13
        assert interpolate(u, 0.5, kp) == pytest.approx(f(0.5), rel=1e-14)


class TestPrincipalValue:
    def test_zero_function(self, grid65, kp):
        u = GridFunction(grid65, np.zeros(65))
        assert frac_laplacian_pv(u, 0.3, kp) == 0.0

    def test_linearity(self, grid65, kp):
        rng = np.random.default_rng(11)
        f = GridFunction(grid65, rng.standard_normal(65))
        g = GridFunction(grid65, rng.standard_normal(65))
        comb = GridFunction(grid65, 2.0 * f.values - 0.5 * g.values)
        for x in (0.0, 0.4, -0.55):
            lhs = frac_laplacian_pv(comb, x, kp)
            rhs = 2.0 * frac_laplacian_pv(f, x, kp) - 0.5 * frac_laplacian_pv(g, x, kp)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))

    def test_recovers_one_from_green_image(self, grid65, kp):
        ones = GridFunction(grid65, np.ones(65))
        u = apply_green(ones, kp)
        for x in (0.0, 0.3, -0.3, 0.6, -0.6):
            assert frac_laplacian_pv(u, x, kp) == pytest.approx(1.0, abs=5e-3)

    def test_improves_under_refinement(self, grid65, kp):
        errs = []
        for grid in (grid65, grid65.refine()):
            ones = GridFunction(grid, np.ones(grid.n))
            u = apply_green(ones, kp)
            errs.append(
                max(abs(frac_laplacian_pv(u, x, kp) - 1.0) for x in (0.0, 0.3, -0.3, 0.6, -0.6))
            )
        assert errs[1] < errs[0] / 3.0

    def test_torsion_profile_constant(self, grid65):
        # the closed-form torsion function maps to the constant 1
        for alpha in (1.2, 1.8):
            kp_a = KernelParams(alpha=alpha)
            u = GridFunction(grid65, torsion_exact(grid65.nodes, alpha))
            for x in (0.0, 0.45, -0.45):
                assert frac_laplacian_pv(u, x, kp_a) == pytest.approx(1.0, abs=1e-2)

    def test_stable_next_to_a_node(self, grid65, kp):
        # divided differences at x would lose every digit as x nears a node
        u = apply_green(GridFunction(grid65, np.ones(65)), kp)
        node = grid65.nodes[40]
        for gap in (0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            assert frac_laplacian_pv(u, node + gap, kp) == pytest.approx(1.0, abs=1e-10), gap

    def test_vectorized_matches_pointwise(self, grid65, kp):
        u = apply_green(GridFunction(grid65, 1.0 - grid65.nodes**2), kp)
        pts = np.array([[0.0, 0.4], [-0.55, 0.1]])
        got = frac_laplacian_pv(u, pts, kp)
        assert got.shape == pts.shape
        for i, j in np.ndindex(pts.shape):
            assert got[i, j] == frac_laplacian_pv(u, pts[i, j], kp)

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_spline_route_oracle(self, alpha):
        # the old cubic spline route and the weighted interpolant agree to
        # the spline's own error, which falls with n, on the image of 1 and
        # on both branches of the default problem
        kp_a = KernelParams(alpha=alpha)
        pts = (0.0, 0.25, -0.25, 0.5, -0.5)
        gaps = []
        for n in (65, 129):
            grid = make_grid(n)
            h = build_forcing(RunConfig(alpha=alpha, grid_n=n), kp_a)
            rep = certify(h, 2.0, ConeSpec.for_kernel(kp_a), kp_a)
            low = picard_minimal(rep)
            high = newton_second(rep, low)
            ones = apply_green(GridFunction(grid, np.ones(n)), kp_a)
            worst = 0.0
            for u in (ones, low.u, high.u):
                new = frac_laplacian_pv(u, np.array(pts), kp_a)
                old = np.array([spline_pv(u, x, kp_a) for x in pts])
                worst = max(worst, float(np.abs(new - old).max() / np.abs(new).max()))
            gaps.append(worst)
            assert np.abs(frac_laplacian_pv(ones, np.array(pts), kp_a) - 1.0).max() <= 1e-10
        assert gaps[0] <= 2e-3
        assert gaps[1] < gaps[0] / 3.0

    def test_boundary_rejection(self, grid65, kp):
        u = GridFunction(grid65, np.ones(65))
        with pytest.raises(ValueError):
            frac_laplacian_pv(u, 0.9999, kp)
        with pytest.raises(ValueError):
            frac_laplacian_pv(u, -1.0, kp)
