import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifrac.scalar import (
    CertificateFailure,
    Radii,
    ScalarProblem,
    critical_constant,
    radii_certificate,
    scalar_roots,
)


def test_critical_constant_closed_forms():
    assert critical_constant(2.0) == pytest.approx(0.25, abs=1e-14)
    assert critical_constant(3.0) == pytest.approx(4.0 / 27.0, abs=1e-14)
    # independent evaluations of ((p-1)^((1-p)/p) + (p-1)^(1/p))^(-p)
    assert critical_constant(1.5) == pytest.approx(0.38490017945975051, rel=1e-14)
    assert critical_constant(2.5) == pytest.approx(0.18590320061795601, rel=1e-14)


def test_critical_constant_rejects_bad_p():
    with pytest.raises(ValueError):
        critical_constant(1.0)
    with pytest.raises(ValueError):
        critical_constant(0.5)


def test_problem_validation():
    with pytest.raises(ValueError):
        ScalarProblem(b=-1.0, u0=0.1, p=2.0)
    with pytest.raises(ValueError):
        ScalarProblem(b=1.0, u0=-0.1, p=2.0)
    with pytest.raises(ValueError):
        ScalarProblem(b=1.0, u0=0.1, p=1.0)


def test_roots_satisfy_equation():
    prob = ScalarProblem(b=0.75, u0=0.1, p=2.0)
    roots = scalar_roots(prob)
    assert len(roots) == 2
    for s in roots:
        assert 0.75 * s**2 + 0.1 == pytest.approx(s, abs=1e-12)
    assert roots[0] < roots[1]


def test_roots_zero_forcing():
    # u0 = 0: the trivial root and the nontrivial one at (1/b)^(1/(p-1))
    roots = scalar_roots(ScalarProblem(b=0.5, u0=0.0, p=2.0))
    assert roots[0] == 0.0
    assert roots[1] == pytest.approx(2.0, rel=1e-12)


def test_roots_above_threshold_empty():
    # b u0^(p-1) > c_p leaves no real fixed point
    assert scalar_roots(ScalarProblem(b=1.0, u0=0.3, p=2.0)) == []


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0]),
    b=st.floats(min_value=1e-3, max_value=1e3),
    margin=st.floats(min_value=1e-8, max_value=0.999),
    above=st.booleans(),
)
def test_multiplicity_flips_at_threshold(p, b, margin, above):
    """Root count is 2 strictly below b*u0^(p-1) = c_p and 0 strictly above."""
    c_p = critical_constant(p)
    factor = 1.0 / (1.0 - margin) if above else (1.0 - margin)
    u0 = (factor * c_p / b) ** (1.0 / (p - 1.0))
    roots = scalar_roots(ScalarProblem(b=b, u0=u0, p=p))
    assert len(roots) == (0 if above else 2)


def test_roots_real_for_tiny_forcing_near_tangency():
    # a Newton polish from outside the bracket used to step below 0 here
    # and return complex numbers; the roots are a near-double pair around
    # u_t ~ 1.2e-13 (references: 50-digit mpmath.findroot)
    prob = ScalarProblem(b=17.80379321606776, u0=1.0953553858082335e-14, p=1.1)
    roots = scalar_roots(prob)
    assert all(type(r) is float for r in roots)
    u_t = (1.0 / (prob.p * prob.b)) ** (1.0 / (prob.p - 1.0))
    assert 0.0 < roots[0] <= u_t <= roots[1]
    assert roots[0] == pytest.approx(1.2048395491687406e-13, rel=1e-9, abs=0.0)
    assert roots[1] == pytest.approx(1.2049423026763701e-13, rel=1e-9, abs=0.0)


def test_radii_inner_root_to_rounding():
    # p = 2: r^2 + r = u0 has the root 2 u0 / (1 + sqrt(1 + 4 u0))
    for u0 in (1e-9, 1e-6, 1e-3):
        r = radii_certificate(1.0, 1.0, u0, 2.0)
        assert r.rho1 == pytest.approx(u0 / (1.0 + math.sqrt(1.0 + 4.0 * u0)), rel=1e-14, abs=0.0)


def test_tangency_single_root():
    p, b = 2.0, 1.0
    u0 = critical_constant(p) / b  # exactly at the threshold
    roots = scalar_roots(ScalarProblem(b=b, u0=u0, p=p))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.5, rel=1e-10)


def test_radii_example_p2():
    r = radii_certificate(1.0, 1.0, 0.2, 2.0)
    assert isinstance(r, Radii)
    assert r.rho2 == pytest.approx(math.sqrt(0.2), rel=1e-12)
    # rho1: half the positive root of r^2 + r = 0.2
    assert r.rho1 == pytest.approx((math.sqrt(1.8) - 1.0) / 4.0, rel=1e-10)
    # rho3: twice the positive root of r^2 - r = 0.2
    assert r.rho3 == pytest.approx(1.0 + math.sqrt(1.8), rel=1e-10)


def test_radii_ordering_random():
    import random

    rng = random.Random(4)
    for _ in range(200):
        p = rng.choice([1.5, 2.0, 3.0])
        b = 10.0 ** rng.uniform(-2, 2)
        a = b * rng.uniform(0.01, 1.0)  # coercivity never beats the growth bound
        u0 = 0.9 * (critical_constant(p) / b) ** (1.0 / (p - 1.0)) * rng.random()
        res = radii_certificate(a, b, u0, p)
        if u0 == 0.0:
            assert isinstance(res, CertificateFailure)
            continue
        assert isinstance(res, Radii)
        assert 0 < res.rho1 < res.rho2 < res.rho3


def test_certificate_failure_kinds():
    over = radii_certificate(0.5, 1.0, 0.6, 2.0)
    assert isinstance(over, CertificateFailure)
    assert over.kind == "supercritical"
    assert over.margin < 0

    degenerate = radii_certificate(0.5, 1.0, 0.0, 2.0)
    assert isinstance(degenerate, CertificateFailure)
    assert degenerate.kind == "degenerate"

    tangent = radii_certificate(0.5, 1.0, 0.25, 2.0)
    assert isinstance(tangent, CertificateFailure)
    assert tangent.kind == "threshold"


def test_radii_input_validation():
    with pytest.raises(ValueError):
        radii_certificate(-0.1, 1.0, 0.1, 2.0)
    with pytest.raises(ValueError):
        radii_certificate(0.5, 0.0, 0.1, 2.0)
    with pytest.raises(ValueError):
        radii_certificate(0.5, 1.0, 0.1, 1.0)
