"""The Green function on alpha-free plans, against its frozen one-call form.

green_reference.py is green_ball before the plan split; the plan-based
kernel must match it bit for bit, NaN included, and the lemma battery's
cached plans must give the tables a fresh build gives.
"""

import numpy as np
import pytest

import green_reference
from bifrac import cli
from bifrac.kernels import KernelParams, _GreenPlan, green_ball

ALPHAS = (0.3, 0.7, 1.0, 1.05, 1.37, 1.5, 1.95, 1.999)


def point_sets():
    """Named (x, y) arguments: inside, outside, on and near the diagonal, scalar, broadcast."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.999, 0.999, 500)
    y = rng.uniform(-0.999, 0.999, 500)
    wide = rng.uniform(-1.5, 1.5, 500)
    edge = np.array([-1.0, 1.0, np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 0.0, np.nan, np.inf])
    t = np.linspace(-0.99, 0.99, 41)
    return {
        "inside": (x, y),
        "outside": (wide, wide[::-1]),
        "diagonal": (x, x),
        "near diagonal": (x, x + 1e-9),
        "boundary and non-finite": (edge, edge[::-1]),
        "scalar inside": (0.3, -0.2),
        "scalar on diagonal": (0.2, 0.2),
        "scalar outside": (1.2, 0.0),
        "scalar and array": (0.25, t),
        "column and row": (t[:, None], t[None, :]),
        "row against matrix": (t, np.tile(t[:, None], (1, 41))),
        "empty": (np.array([]), np.array([])),
    }


@pytest.mark.parametrize("alpha", ALPHAS)
def test_plan_matches_one_call_kernel(alpha):
    kp = KernelParams(alpha=alpha)
    with np.errstate(invalid="ignore"):
        for name, (x, y) in point_sets().items():
            want = green_reference.green_ball(x, y, kp)
            got = green_ball(x, y, kp)
            assert type(got) is type(want), name
            assert np.array_equal(got, want, equal_nan=True), name
            # a kept plan gives the same values at every call
            plan = _GreenPlan(x, y)
            assert np.array_equal(plan.evaluate(kp), want, equal_nan=True), name
            assert np.array_equal(plan.evaluate(kp), want, equal_nan=True), name


def test_cached_table_equals_fresh_build():
    a_half = 0.5
    xs, ys = cli._green_ratio_points(a_half)
    cli._green_ratio_plans.cache_clear()
    for alpha in (1.05, 1.95, 1.05):
        kp = KernelParams(alpha=alpha)
        table, zero_row = cli._green_ratio_plans(a_half)
        assert np.array_equal(table.evaluate(kp), _GreenPlan(xs[:, None], ys[None, :]).evaluate(kp))
        assert np.array_equal(zero_row.evaluate(kp), green_ball(np.zeros_like(ys), ys, kp))
        G = green_reference.green_ball(xs[:, None], ys[None, :], kp)
        fresh = (G.min(axis=0) / green_reference.green_ball(np.zeros_like(ys), ys, kp)).min()
        assert repr(cli._green_ratio_table(a_half, kp)) == repr(float(fresh))


def test_ratio_plans_are_kept_per_core_width(monkeypatch):
    built = []
    plan = cli._GreenPlan
    monkeypatch.setattr(cli, "_GreenPlan", lambda x, y: built.append(np.shape(x)) or plan(x, y))
    cli._green_ratio_plans.cache_clear()
    kp = KernelParams(alpha=1.5)
    for a_half in (0.3, 0.5, 0.7):
        cli._green_ratio_table(a_half, kp)
    assert cli._green_ratio_plans.cache_info().misses == 3
    assert len(built) == 6  # the table and its zero row for each width
    cli._green_ratio_table(0.3, kp)
    info = cli._green_ratio_plans.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    assert len(built) == 6


def test_table_plan_memory():
    table, zero_row = cli._green_ratio_plans(0.5)
    held = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
    assert held <= 1.2e6, held
    # every point of the table lies inside, so no inside mask is kept
    assert table.inside is None and zero_row.inside is None


def test_reflection_plans_are_built_once():
    # their values are checked bit for bit through the battery oracle
    size, plans = cli._reflection_plans()
    assert cli._reflection_plans() is cli._reflection_plans()
    assert size == 21 * 21
    assert [r for r, _ in plans] == [1.0 - z for z in (0.1, 0.3, 0.55)]
