import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import eval_jacobi

from bifrac import greenop
from bifrac.greenop import (
    GridFunction,
    apply_green,
    coercivity_a,
    gamma_U,
    get_operator,
    make_grid,
    operator_norm_b,
)
from bifrac.kernels import KernelParams, green_ball
from bifrac.solver import certify, newton_second, picard_minimal

from column_vandermonde import jacobi_vandermonde, operator_matrix
from conftest import torsion_exact
from csv_reference import write_grid_function
from panel_quadrature import green_matrix_row, green_row_integral

ORDERS = (1.05, 1.5, 1.95)


def write_nodes(path, nodes):
    path.write_text("x,value\n" + "".join(f"{x!r},{1 - x * x!r}\n" for x in nodes.tolist()))


class TestGrid:
    def test_basic_shape(self):
        g = make_grid(65)
        assert g.n == 65
        assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
        assert g.nodes[32] == 0.0
        assert (np.diff(g.nodes) > 0).all()

    def test_exact_symmetry(self):
        g = make_grid(129)
        assert np.abs(g.nodes + g.nodes[::-1]).max() == 0.0

    def test_refinement_nests(self):
        g = make_grid(65)
        fine = g.refine()
        assert fine.n == 129
        assert np.array_equal(fine.nodes[::2], g.nodes)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            make_grid(64)
        with pytest.raises(ValueError):
            make_grid(31)

    def test_grid_rejects_asymmetric_nodes(self, tmp_path):
        # outside nodes arrive only through read_csv, which maps them onto
        # make_grid(rows) and rejects any that differ
        nodes = np.concatenate([[-1.0], np.linspace(-0.9, 0.95, 31), [1.0]])
        write_nodes(tmp_path / "h.csv", nodes)
        with pytest.raises(ValueError, match=r"make_grid\(33\)"):
            GridFunction.read_csv(tmp_path / "h.csv")

    def test_values_are_frozen(self):
        g = make_grid(65)
        u = GridFunction(g, np.ones(65))
        with pytest.raises(ValueError):
            u.values[0] = 2.0
        with pytest.raises(ValueError):
            g.nodes[0] = 0.5

    def test_csv_round_trip(self, tmp_path):
        g = make_grid(65)
        u = GridFunction(g, np.sin(np.pi * g.nodes) * (1 - g.nodes**2))
        path = tmp_path / "u.csv"
        u.write_csv(path)
        back = GridFunction.read_csv(path)
        assert back.grid is make_grid(65)
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("n", [33, 65, 257])
    def test_csv_bytes_match_csv_writer(self, tmp_path, n):
        g = make_grid(n)
        values = np.sin(np.pi * g.nodes) * (1 - g.nodes**2)
        values[[1, 2, 3, 4, 5]] = [np.nan, -0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0]
        u = GridFunction(g, values)
        u.write_csv(tmp_path / "new.csv")
        write_grid_function(u, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        back = GridFunction.read_csv(tmp_path / "new.csv")
        assert back.grid is g
        assert np.array_equal(back.values, u.values, equal_nan=True)
        assert np.array_equal(np.signbit(back.values), np.signbit(u.values))


class TestOperator:
    @pytest.mark.parametrize("n", [65, 129, 257])
    @pytest.mark.parametrize("alpha", ORDERS)
    def test_row_built_vandermonde_is_bit_identical(self, alpha, n):
        # one contiguous row per degree does the same arithmetic per entry
        # as the strided columns it replaced, down to the operator matrix
        nodes = make_grid(n).nodes
        V = jacobi_vandermonde(nodes, n, alpha / 2.0)
        assert np.array_equal(greenop._jacobi_vandermonde(nodes, n, alpha / 2.0), V.T)
        op = greenop.GreenOperator(make_grid(n), KernelParams(alpha=alpha))
        assert np.array_equal(op.matrix, operator_matrix(nodes, alpha))

    def test_torsion_oracle_across_orders(self):
        # G applied to 1 has a closed form; nail it at every interior node
        for alpha in (1.05, 1.2, 1.5, 1.8, 1.95):
            kp = KernelParams(alpha=alpha)
            g = make_grid(65)
            u = apply_green(GridFunction(g, np.ones(65)), kp)
            want = torsion_exact(g.nodes, alpha)
            assert np.abs(u.values - want).max() < 1e-12, alpha

    def test_torsion_midpoint_value(self):
        kp = KernelParams(alpha=1.5)
        g = make_grid(65)
        u = apply_green(GridFunction(g, np.ones(65)), kp)
        i = np.argmin(np.abs(g.nodes - 0.5))
        # node closest to 0.5 is not exactly 0.5; compare to the closed form there
        assert u.values[i] == pytest.approx(
            float(torsion_exact(g.nodes[i], 1.5)), rel=1e-13
        )

    def test_boundary_rows_vanish(self, grid65, kp):
        op = get_operator(grid65, kp)
        assert np.all(op.matrix[0] == 0.0)
        assert np.all(op.matrix[-1] == 0.0)

    def test_mirror_symmetry_exact(self, grid65, kp):
        M = get_operator(grid65, kp).matrix
        assert np.array_equal(M, M[::-1, ::-1])

    def test_reflection_commutes_on_symmetric_input(self, grid65, kp):
        f = GridFunction(grid65, (1 - grid65.nodes**2) ** 1.3)
        u = apply_green(f, kp).values
        assert np.abs(u - u[::-1]).max() <= 1e-14 * np.abs(u).max()

    def test_operator_cache_identity(self, grid65, kp):
        assert get_operator(grid65, kp) is get_operator(make_grid(65), kp)

    def test_non_chebyshev_grid_rejected(self, grid65, tmp_path):
        # the operator is cached by size; uniform nodes of that size would
        # get the Chebyshev matrix, 18 % off on 1 - x^2
        write_nodes(tmp_path / "uniform.csv", np.linspace(-1.0, 1.0, 65))
        with pytest.raises(ValueError, match=r"make_grid\(65\)"):
            GridFunction.read_csv(tmp_path / "uniform.csv")
        # a NaN node fails every comparison, so it must not pass as within tolerance
        nodes = grid65.nodes.copy()
        nodes[3] = np.nan
        write_nodes(tmp_path / "nan.csv", nodes)
        with pytest.raises(ValueError, match=r"make_grid\(65\)"):
            GridFunction.read_csv(tmp_path / "nan.csv")
        # nodes within 1e-15 of the Chebyshev nodes are accepted
        write_nodes(tmp_path / "near.csv", grid65.nodes + 5e-16 * np.sign(grid65.nodes))
        assert GridFunction.read_csv(tmp_path / "near.csv").grid is grid65

    def test_positivity(self, grid65, kp):
        f = GridFunction(grid65, np.abs(np.sin(7 * grid65.nodes)))
        assert apply_green(f, kp).values.min() >= 0.0

    def test_convergence_under_refinement(self, kp):
        f = lambda x: np.cos(1.5 * x) * (1 - x**2)
        coarse = apply_green(GridFunction.from_callable(make_grid(65), f), kp)
        fine = apply_green(GridFunction.from_callable(make_grid(129), f), kp)
        diff = np.abs(fine.values[::2] - coarse.values).max()
        assert diff <= 1e-6

    def test_alpha_window_enforced(self, grid65):
        with pytest.raises(ValueError):
            get_operator(grid65, KernelParams(alpha=1.99))

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("alpha", ORDERS)
    def test_jacobi_eigenfunctions(self, n, alpha):
        # G[P_k] = (1-x^2)^s P_k / lambda_k for polynomials of degree < n
        s = alpha / 2.0
        x = make_grid(n).nodes
        M = get_operator(make_grid(n), KernelParams(alpha=alpha)).matrix
        for k in (0, 10, n // 2, n - 1):
            P = eval_jacobi(k, s, s, x)
            lam = math.exp(math.lgamma(alpha + k + 1.0) - math.lgamma(k + 1.0))
            want = (1.0 - x**2) ** s * P / lam
            assert np.abs(M @ P - want).max() <= 1e-10 * np.abs(want).max(), k

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("alpha", ORDERS)
    def test_rows_match_refined_panel_quadrature(self, n, alpha):
        kp = KernelParams(alpha=alpha)
        grid = make_grid(n)
        M = get_operator(grid, kp).matrix
        for i in (1, n // 5, n // 2):
            want = green_matrix_row(grid.nodes, i, kp)
            assert np.abs(M[i] - want).max() <= 1e-12 * np.abs(want).max(), i

    def test_matrix_is_c_contiguous(self, grid65, kp):
        assert get_operator(grid65, kp).matrix.flags.c_contiguous

    def test_cache_is_bounded(self):
        for alpha in np.linspace(1.1, 1.9, 20):
            get_operator(make_grid(65), KernelParams(alpha=float(alpha)))
        assert greenop._build_operator.cache_info().currsize <= 16

    def test_build_needs_no_quadrature(self):
        # panel quadrature took over a second at n = 257; the closed form
        # builds n = 513 in a few tens of milliseconds
        grid = make_grid(513)
        t0 = time.perf_counter()
        greenop.GreenOperator(grid, KernelParams(alpha=1.37))
        assert time.perf_counter() - t0 < 0.5

    def test_second_branch_converges_under_refinement(self, h_certified, kp, spec):
        # bump forcing at half the certificate threshold, resolved on three
        # nested grids; the change 129 -> 257 must shrink, not stall
        amp = float(h_certified.values.max())
        second = {}
        for n in (65, 129, 257):
            h = GridFunction.from_callable(make_grid(n), lambda x: amp * (1 - x**2))
            rep = certify(h, 2.0, spec, kp)
            second[n] = newton_second(rep, picard_minimal(rep).u).u.values
        step1 = np.abs(second[129][::2] - second[65]).max()
        step2 = np.abs(second[257][::2] - second[129]).max()
        assert step2 <= 0.1 * step1


class TestConstants:
    def test_growth_constant_dual_routes(self):
        # direct quadrature of the kernel row at 0 versus the closed form
        table = {
            1.05: 0.97830177644921563,
            1.2: 0.90760368421528026,
            1.5: 0.75225277806367505,
            1.8: 0.59648404112824129,
            1.95: 0.52334997344269203,
        }
        for alpha, want in table.items():
            got = operator_norm_b(KernelParams(alpha=alpha), 2.0)
            assert got == pytest.approx(want, rel=1e-13), alpha

    def test_growth_constant_independent_of_p(self, kp):
        assert operator_norm_b(kp, 2.0) == operator_norm_b(kp, 3.5)

    def test_growth_constant_attained_by_flat_input(self, grid65, kp):
        u = apply_green(GridFunction(grid65, np.ones(65)), kp)
        assert u.sup_norm == pytest.approx(operator_norm_b(kp, 2.0), rel=1e-13)
        assert np.argmax(u.values) == 32  # the maximum sits at the center

    def test_gamma_positive_and_below_one(self):
        for alpha in (1.2, 1.5, 1.8):
            g = gamma_U(0.5, KernelParams(alpha=alpha))
            assert 0.0 < g < 1.0

    def test_gamma_reference_values(self):
        # pinned from a finer independent sweep; guards silent regressions
        assert gamma_U(0.5, KernelParams(alpha=1.2)) == pytest.approx(0.206202, rel=1e-4)
        assert gamma_U(0.5, KernelParams(alpha=1.5)) == pytest.approx(0.378505, rel=1e-4)
        assert gamma_U(0.5, KernelParams(alpha=1.8)) == pytest.approx(0.466688, rel=1e-4)

    def test_gamma_shrinks_with_wider_core(self, kp):
        # larger core interval means an infimum over more points
        assert gamma_U(0.3, kp) > gamma_U(0.5, kp) > gamma_U(0.7, kp)

    @pytest.mark.parametrize("alpha", ORDERS)
    @pytest.mark.parametrize("a_half", [0.3, 0.5, 0.7])
    def test_gamma_closed_form_matches_dense_table(self, alpha, a_half):
        # oracle: the minimum of G(x,y)/G(0,y) over 201 x in U and 1199 y,
        # graded to within 1e-12 of +-1; the closed form claims it sits at
        # x = +-a_half, y = 0, so the table can only match it, not undercut it
        kp_a = KernelParams(alpha=alpha)
        graded = 1.0 - np.geomspace(1e-12, 0.5, 100)
        ys = np.concatenate([-graded, np.linspace(-1.0, 1.0, 1001)[1:-1], graded])
        xs = np.linspace(-a_half, a_half, 201)
        table = green_ball(xs[:, None], ys[None, :], kp_a) / green_ball(0.0, ys, kp_a)
        assert gamma_U(a_half, kp_a) == pytest.approx(table.min(), rel=1e-12, abs=0.0)

    def test_gamma_input_validation(self, kp):
        with pytest.raises(ValueError):
            gamma_U(0.0, kp)
        with pytest.raises(ValueError):
            gamma_U(1.0, kp)

    def test_coercivity_below_growth(self):
        for alpha in (1.2, 1.5, 1.8):
            for p in (2.0, 3.0):
                kp_a = KernelParams(alpha=alpha)
                assert 0 < coercivity_a(0.5, p, kp_a) < operator_norm_b(kp_a, p)

    def test_coercivity_reference_value(self, kp):
        # gamma_U^2 * int_{-1/2}^{1/2} G(0,y) dy at alpha = 1.5
        assert coercivity_a(0.5, 2.0, kp) == pytest.approx(0.08006, rel=1e-3)
        assert green_row_integral(0.0, kp, -0.5, 0.5) == pytest.approx(
            0.55882086, rel=1e-6
        )

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_core_mass_oracles(self, alpha):
        # the closed form against two independent quadratures, from a thin
        # core (0.05) through the benchmark battery's half-widths to
        # a_half -> 1, where the mass approaches b
        kp = KernelParams(alpha=alpha)
        with mpmath.workdps(20):
            s = mpmath.mpf(alpha) / 2
            c = 1 / (2 ** (2 * s) * mpmath.gamma(s) ** 2)

            def g0(y):
                # G(0,y) = c y^(alpha-1) I(w), I(w) = (w^s/s) 2F1(1/2, s; s+1; -w)
                w = (1 - y * y) / (y * y)
                return c / s * (1 - y * y) ** s / y * mpmath.hyp2f1(0.5, s, s + 1, -w)

            want = {
                0.05: float(2 * mpmath.quad(g0, [0, 0.05])),
                0.3: float(2 * mpmath.quad(g0, [0, 0.3])),
                0.5: float(2 * mpmath.quad(g0, [0, 0.5])),
                0.9999: float(2 * mpmath.quad(g0, [0, mpmath.sqrt(0.5), 0.9999])),
            }
        for a_half, mass in want.items():
            assert greenop._core_mass(a_half, kp) == pytest.approx(mass, rel=1e-13), a_half
        for a_half in (0.5, 0.7, 0.71, 0.9999):
            want = green_row_integral(0.0, kp, -a_half, a_half)
            assert greenop._core_mass(a_half, kp) == pytest.approx(want, rel=1e-13), a_half
