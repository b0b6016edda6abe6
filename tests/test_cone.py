import numpy as np
import pytest

from bifrac.cone import ConeSpec, check_membership, sample_cone, verify_invariance
from bifrac.greenop import GridFunction, make_grid
from bifrac.kernels import KernelParams


def bump_fn(grid, power=1.0, amp=1.0):
    return GridFunction(grid, amp * (1 - grid.nodes**2) ** power)


class TestSpec:
    def test_defaults(self):
        spec = ConeSpec()
        assert spec.a_half == 0.5 and spec.gamma == 0.0

    def test_for_kernel_pins_gamma(self, kp):
        spec = ConeSpec.for_kernel(kp)
        assert spec.gamma == pytest.approx(0.378505, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConeSpec(a_half=1.0)
        with pytest.raises(ValueError):
            ConeSpec(gamma=1.0)
        with pytest.raises(ValueError):
            ConeSpec(gamma=-0.1)


class TestMembership:
    def test_bump_is_member(self, grid65, spec):
        rep = check_membership(bump_fn(grid65), spec)
        assert rep.member
        assert max(rep.violations.values()) == 0.0

    def test_zero_function_is_member(self, grid65, spec):
        assert check_membership(GridFunction(grid65, np.zeros(65)), spec).member

    def test_scaling_invariance(self, grid65, spec):
        for amp in (1e-6, 1.0, 1e6):
            assert check_membership(bump_fn(grid65, 1.2, amp), spec).member

    def test_asymmetric_rejected(self, grid65, spec):
        vals = (1 - grid65.nodes**2) * (1 + 0.05 * grid65.nodes)
        rep = check_membership(GridFunction(grid65, vals), spec)
        assert not rep.member
        assert rep.violations["asymmetry"] > 0

    def test_negative_dip_rejected(self, grid65, spec):
        vals = (1 - grid65.nodes**2) - 0.2
        rep = check_membership(GridFunction(grid65, vals), spec)
        assert not rep.member
        assert rep.violations["negative"] > 0.1

    def test_double_hump_rejected(self, grid65, spec):
        vals = (1 - grid65.nodes**2) * (0.3 + grid65.nodes**2)
        rep = check_membership(GridFunction(grid65, vals), spec)
        assert not rep.member
        assert rep.violations["unimodality"] > 0

    def test_steep_bump_fails_ratio_floor(self, grid65, spec):
        # (1-x^2)^6 drops to 0.75^6 = 0.178 at x = 1/2, below gamma = 0.3785
        rep = check_membership(bump_fn(grid65, 6.0), spec)
        assert not rep.member
        assert rep.violations["ratio"] > 0.1

    def test_steep_bump_fine_without_floor(self, grid65):
        assert check_membership(bump_fn(grid65, 6.0), ConeSpec()).member


class TestSampling:
    def test_deterministic(self, grid65, kp, spec):
        a = sample_cone(1.0, 5, seed=3, grid=grid65, kp=kp, spec=spec)
        b = sample_cone(1.0, 5, seed=3, grid=grid65, kp=kp, spec=spec)
        for u, v in zip(a, b):
            assert np.array_equal(u.values, v.values)

    def test_sup_pinned_exactly(self, grid65, kp, spec):
        for u in sample_cone(0.37, 20, seed=1, grid=grid65, kp=kp, spec=spec):
            assert u.sup_norm == 0.37
            assert u.values[32] == 0.37

    def test_all_samples_are_members(self, grid65, kp, spec):
        for u in sample_cone(2.5, 50, seed=9, grid=grid65, kp=kp, spec=spec):
            assert check_membership(u, spec).member

    def test_strict_ratio_floor_still_members(self, grid65, kp):
        # cap on the bump exponent falls below alpha/2 here
        tight = ConeSpec(a_half=0.5, gamma=0.99)
        for u in sample_cone(1.0, 30, seed=4, grid=grid65, kp=kp, spec=tight):
            assert check_membership(u, tight).member

    def test_rho_validation(self, grid65):
        with pytest.raises(ValueError):
            sample_cone(0.0, 3, seed=0, grid=grid65)


class TestInvariance:
    def test_clean_at_reference_order(self, kp, spec):
        rep = verify_invariance(2.0, spec, kp, count=40, seed=0)
        assert rep.failures == 0
        assert rep.worst_violation <= 1e-8

    def test_cubic_growth_also_clean(self, kp, spec):
        rep = verify_invariance(3.0, spec, kp, count=40, seed=1)
        assert rep.failures == 0

    def test_report_counts(self, kp, spec):
        rep = verify_invariance(2.0, spec, kp, count=12, seed=2)
        assert rep.count == 12
        assert set(rep.by_kind) <= {"negative", "asymmetry", "unimodality", "ratio"}
