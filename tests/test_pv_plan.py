"""The principal-value evaluator over several functions, on a plan kept per grid."""

import itertools
import weakref

import numpy as np
import pytest

from bifrac.cli import RunConfig, build_forcing
from bifrac.cone import ConeSpec
from bifrac.greenop import Grid, GridFunction, apply_green, make_grid
from bifrac.kernels import KernelParams, frac_laplacian_pv
from bifrac.solver import certify, newton_second, picard_minimal, residual_strong

import pv_reference

PROBES = np.array([0.0, 0.25, -0.25, 0.5, -0.5])


def branches(alpha, p, n, profile):
    kp = KernelParams(alpha=alpha)
    h = build_forcing(RunConfig(alpha=alpha, p=p, grid_n=n, h_profile=profile), kp)
    cert = certify(h, p, ConeSpec.for_kernel(kp), kp)
    low = picard_minimal(cert)
    return cert, [res for res in (low, newton_second(cert, low)) if res.converged]


@pytest.mark.parametrize("n", [65, 129, 257])
@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
def test_stacked_matches_one_function_oracle(alpha, n):
    kp = KernelParams(alpha=alpha)
    for p, profile in itertools.product((1.5, 2.0, 3.0), ("bump", "torsion", "plateau")):
        _, found = branches(alpha, p, n, profile)
        assert len(found) == 2, (p, profile)
        us = [res.u for res in found]
        stacked = frac_laplacian_pv(us, PROBES, kp)
        assert len(stacked) == 2
        for u, got in zip(us, stacked):
            want = pv_reference.frac_laplacian_pv(u, PROBES, kp)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (p, profile)
            # a function's values do not depend on what it is stacked with
            assert np.array_equal(got, frac_laplacian_pv(u, PROBES, kp))


def test_scalar_point_and_shapes():
    kp = KernelParams(alpha=1.5)
    grid = make_grid(65)
    u = apply_green(GridFunction(grid, np.ones(65)), kp)
    v = u.with_values(2.0 * u.values)
    one, _ = frac_laplacian_pv([u, v], 0.3, kp)
    assert isinstance(one, float) and one == frac_laplacian_pv(u, 0.3, kp)
    pts = PROBES[:4].reshape(2, 2)
    a, b = frac_laplacian_pv((u, v), pts, kp)
    assert a.shape == b.shape == pts.shape
    assert frac_laplacian_pv([], PROBES, kp) == []


def test_functions_must_share_a_grid():
    kp = KernelParams(alpha=1.5)
    u = GridFunction(make_grid(65), np.zeros(65))
    with pytest.raises(ValueError, match="one grid"):
        frac_laplacian_pv([u, GridFunction(make_grid(129), np.zeros(129))], PROBES, kp)


class TestPlanMemo:
    def test_alpha_does_not_leak_into_the_plan(self):
        grid = make_grid(129)
        ones = np.ones(grid.n)
        plan = None
        for alpha in (1.05, 1.95, 1.05):
            kp = KernelParams(alpha=alpha)
            u = apply_green(GridFunction(grid, ones), kp)
            got = frac_laplacian_pv(u, PROBES, kp)
            assert plan is None or grid.pv_plan is plan
            plan = grid.pv_plan
            # a fresh grid of the same size has an empty slot and builds its own plan
            fresh = Grid(grid.n)
            assert fresh.pv_plan is None
            assert np.array_equal(got, frac_laplacian_pv(GridFunction(fresh, u.values), PROBES, kp))

    def test_new_points_replace_the_slot(self):
        kp = KernelParams(alpha=1.5)
        grid = Grid(65)
        u = apply_green(GridFunction(grid, np.ones(65)), kp)
        frac_laplacian_pv(u, PROBES, kp)
        old = weakref.ref(grid.pv_plan)
        other = np.array([0.1, -0.7])
        want = frac_laplacian_pv(u, other, kp)
        assert grid.pv_plan.points == tuple(other.tolist())
        assert old() is None  # the one slot let go of the previous plan
        assert np.array_equal(frac_laplacian_pv(u, other, kp), want)

    def test_rejected_points_leave_the_slot(self):
        kp = KernelParams(alpha=1.5)
        grid = Grid(65)
        u = GridFunction(grid, np.ones(65))
        frac_laplacian_pv(u, PROBES, kp)
        plan = grid.pv_plan
        for bad in ([0.0, 0.9999], [-1.0], [np.nan]):
            with pytest.raises(ValueError):
                frac_laplacian_pv(u, np.array(bad), kp)
            assert grid.pv_plan is plan
        # the first offending point is named, whichever check it fails
        with pytest.raises(ValueError, match="0.9999 too close"):
            frac_laplacian_pv(u, np.array([0.2, 0.9999, 1.5]), kp)
        with pytest.raises(ValueError, match="1.5 outside"):
            frac_laplacian_pv(u, np.array([0.2, 1.5, 0.9999]), kp)


def test_residual_strong_one_or_many():
    cert, (low, high) = branches(1.5, 2.0, 65, "bump")
    worst = residual_strong([low, high], cert)
    assert worst == [low.strong_residual, high.strong_residual]
    for res, want in zip((low, high), worst):
        res.strong_residual = None
        assert residual_strong([res], cert) == [want] and res.strong_residual == want
        res.strong_residual = None
        got = residual_strong(res, cert)
        assert isinstance(got, float) and got == want == res.strong_residual
    assert residual_strong([], cert) == []
