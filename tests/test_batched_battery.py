"""The batched lemma battery against its per-sample oracle, per_sample_battery.py.

Figures are compared as reprs, so they must agree bit for bit, sign of
zero included.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import per_sample_battery as oracle
from bifrac import cone, kernels
from bifrac.cli import RunConfig, _green_ratio_points, lemma_battery
from bifrac.cone import check_membership, sample_cone
from bifrac.greenop import GridFunction
from bifrac.kernels import KernelParams, green_ball, poisson_total_mass
from bifrac.solver import certify, krasnoselskii_probe


def assert_matches_oracle(cfg):
    got = lemma_battery(cfg)["items"]
    want = oracle.battery(cfg)
    assert list(got) == list(want)
    for item in want:
        assert repr(got[item]) == repr(want[item]), item


@pytest.mark.parametrize(
    "alpha,a_half,p,seed",
    list(itertools.product((1.05, 1.5, 1.95), (0.3, 0.5, 0.7), (1.5, 2.0, 3.0), (0, 7))),
)
def test_battery_matches_per_sample_oracle(alpha, a_half, p, seed):
    assert_matches_oracle(RunConfig(alpha=alpha, a_half=a_half, p=p, seed=seed))


@pytest.mark.parametrize("tolerances", [{"all": 0.1, "kul": 0.0}, {"all": 0.0}], ids=["kul0", "all0"])
def test_verdicts_follow_the_tolerances(tolerances):
    # an item's own tolerance beats "all"; kul's worst is 0 and passes a zero
    # tolerance, which fails every positive worst
    assert_matches_oracle(RunConfig(tolerances=tolerances))


def test_blocks_keep_the_draws(monkeypatch, grid65, kp, spec):
    # 37 samples in blocks of 16: two full blocks and a partial one
    monkeypatch.setattr(cone, "SAMPLE_BLOCK", 16)
    assert_matches_oracle(RunConfig(alpha=1.37, samples=37, seed=3))
    got = sample_cone(0.8, 37, 5, grid=grid65, kp=kp, spec=spec)
    want = oracle.sample_cone(0.8, 37, 5, grid=grid65, kp=kp, spec=spec)
    assert all(np.array_equal(u.values, v.values) for u, v in zip(got, want))
    assert len(got) == 37


@pytest.mark.parametrize("alpha", (1.05, 1.3, 1.5, 1.7, 1.95))
def test_half_ratio_table_repeats_the_other_half(alpha):
    kp = KernelParams(alpha=alpha)
    for a_half in (0.01, 0.3, 0.5, 0.7, 0.99):
        xs, ys = _green_ratio_points(a_half)
        assert np.array_equal(xs, -xs[::-1]), a_half
        assert ys.min() == 0.0 and ys.max() < 1.0
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        assert np.array_equal(green_ball(-X, -Y, kp), green_ball(X, Y, kp)), a_half


def test_battery_memory_is_flat_in_samples():
    lemma_battery(RunConfig(samples=10))  # operators and caches built outside the count
    tracemalloc.start()
    try:
        lemma_battery(RunConfig(samples=8000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unbatched battery peaked at 10.5 MB, set by its full ratio table
    assert peak <= 10.5e6, peak


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_probe_matches_per_sample_loop(monkeypatch, h_certified, kp, spec, p):
    monkeypatch.setattr(cone, "SAMPLE_BLOCK", 64)
    cert = certify(h_certified, p, kp)
    for rho in (0.1, 1.0, 3.0):
        sups = oracle.probe_sups(rho, h_certified, p, kp, spec, 200, 7)
        rep = krasnoselskii_probe(rho, cert, count=200, seed=7)
        assert (repr(rep.min_T), repr(rep.max_T)) == (repr(min(sups)), repr(max(sups)))


def test_check_membership_matches_per_function_check(grid65, spec):
    rng = np.random.default_rng(4)
    bump = 1.0 - grid65.nodes**2
    cases = [np.zeros(65), bump, bump**6, -bump, bump + 1e-3 * rng.standard_normal(65)]
    cases += [u.values for u in sample_cone(1.0, 5, 2, grid=grid65, spec=spec)]
    for values in cases:
        u = GridFunction(grid65, values)
        assert repr(check_membership(u, spec).violations) == repr(oracle.violations(u, spec))


def test_poisson_mass_builds_each_rule_once(monkeypatch):
    built = []
    rule = kernels._gauss_jacobi
    monkeypatch.setattr(kernels, "_gauss_jacobi", lambda *args: built.append(args) or rule(*args))
    for alpha in (1.05, 1.5, 1.95):
        kp = KernelParams(alpha=alpha)
        for xs, r in (([0.0, 0.35, -0.6], 1.0), ([0.2, -0.69, 0.0, 0.5], 0.7)):
            built.clear()
            got = poisson_total_mass(np.array(xs), r, kp)
            assert len(built) == 2
            want = [oracle.poisson_total_mass(x, r, kp) for x in xs]
            assert [repr(float(m)) for m in got] == [repr(m) for m in want]
            assert [repr(poisson_total_mass(x, r, kp)) for x in xs] == [repr(m) for m in want]
