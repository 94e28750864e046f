"""Growth profiles, Legendre machinery, conjugate balls, support functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_conc.conjugacy as cj
import orlicz_conc.psi as psi_mod
from orlicz_conc import (BobkovLedouxCap, InputError, NumericalError, PhiSpec,
                         PowerNorm, SeparableFromPhi, SeparableTwoLevel,
                         UserSeparable, conjugate_ray_radius, lam, legendre_1d,
                         omega, omega_inv, omega_profile, omega_star,
                         profile_table, psi_star, support_argmax,
                         support_function)

POWER2 = PowerNorm(dim=4, norm=2.0, a=2.0)
POWER15 = PowerNorm(dim=4, norm=2.0, a=1.5)
TWOLEVEL3 = SeparableTwoLevel(dim=4, r=3.0)
SFP1 = SeparableFromPhi(dim=4, phi=PhiSpec(s=1.0))
SFP3 = SeparableFromPhi(dim=4, phi=PhiSpec(s=3.0))
SFP15 = SeparableFromPhi(dim=4, phi=PhiSpec(s=1.5))
BL1 = BobkovLedouxCap(dim=4, threshold=1.0)

ALL = (POWER2, POWER15, TWOLEVEL3, SFP1, SFP3, BL1)


# ---------------------------------------------------------------------------
# omega and its transforms

def test_omega_closed_forms():
    for t in (0.25, 1.0, 3.0, 40.0):
        assert omega(POWER2, t) == pytest.approx(t ** 2, rel=1e-12)
        assert omega(POWER15, t) == pytest.approx(t ** 1.5, rel=1e-12)
        assert omega(TWOLEVEL3, t) == pytest.approx(max(t ** 2, t ** 3), rel=1e-12)
        # s = 3 energy components grow like t^{s*} past 1
        assert omega(SFP3, t) == pytest.approx(max(t ** 2, t ** 1.5), rel=1e-12)
    assert omega(BL1, 0.5) == pytest.approx(0.25, rel=1e-12)
    assert math.isinf(omega(BL1, 2.0))


def test_omega_matches_ray_supremum_oracle():
    rng = np.random.default_rng(5)
    for spec in (TWOLEVEL3, SFP1, SFP3, BL1, SFP15):
        for t in [*rng.uniform(0.1, 8.0, size=6), 0.3, 0.9]:
            closed = omega(spec, float(t))
            numeric = cj.omega_ray_sup(spec, float(t))
            assert numeric == pytest.approx(closed, rel=1e-6)


def test_omega_star_power_closed_forms():
    # omega = t^2  ->  omega*(t) = t^2;  omega = t^1.5  ->  omega*(t) = t^3
    assert omega_star(POWER2, 2.0) == pytest.approx(4.0, rel=1e-9)
    assert omega_star(POWER15, 2.0) == pytest.approx(8.0, rel=1e-9)
    assert omega_star(POWER15, 0.5) == pytest.approx(0.125, rel=1e-9)


def test_omega_star_with_capped_growth():
    # omega(u)/u = u below the cap, infinite above: omega*(t) = t min(t, 1)
    assert omega_star(BL1, 0.5) == pytest.approx(0.25, rel=1e-9)
    assert omega_star(BL1, 3.0) == pytest.approx(3.0, rel=1e-9)


def test_omega_inv_inverts_omega():
    for spec in (POWER2, TWOLEVEL3, SFP3):
        for t in (0.3, 1.7, 9.0):
            s = omega(spec, t)
            assert omega_inv(spec, s) == pytest.approx(t, rel=1e-9)


def test_lambda_is_the_legendre_transform():
    # for omega = t^2 the transform is t^2/4
    for t in (0.4, 1.0, 6.0):
        assert lam(POWER2, t) == pytest.approx(t * t / 4.0, rel=1e-6)


def test_sandwich_on_representative_grid():
    for spec in ALL:
        for t in np.geomspace(1e-2, 1e2, 25):
            lo, mid, hi = lam(spec, t), omega_star(spec, t), lam(spec, 2.0 * t)
            assert lo <= mid * (1 + 1e-6) + 1e-12
            assert mid <= hi * (1 + 1e-6) + 1e-12


@given(t=st.floats(1e-3, 1e3))
@settings(max_examples=50, deadline=None)
def test_omega_star_monotone(t):
    assert omega_star(TWOLEVEL3, t) <= omega_star(TWOLEVEL3, 2.0 * t) * (1 + 1e-9)


def test_profile_table_columns():
    ts = np.geomspace(0.1, 10.0, 7)
    tab = profile_table(POWER2, ts)
    assert tab.shape == (7, 5)
    np.testing.assert_allclose(tab[:, 0], ts)
    np.testing.assert_allclose(tab[:, 1], ts ** 2, rtol=1e-12)
    prof = omega_profile(POWER2)
    assert prof.omega(2.0) == pytest.approx(4.0, rel=1e-12)
    assert prof.omega_star(2.0) == pytest.approx(4.0, rel=1e-9)
    assert prof.omega_inv(4.0) == pytest.approx(2.0, rel=1e-9)
    assert prof.lam(2.0) == pytest.approx(1.0, rel=1e-6)


def test_legendre_1d_of_quadratic():
    phi = cj.ScalarConvexFn(fn=lambda y: np.square(y), name="quad")
    for t in (0.5, 2.0, 11.0):
        assert legendre_1d(phi, t) == pytest.approx(t * t / 4.0, rel=1e-6)


def test_bracket_sup_reports_bracket_failure():
    with pytest.raises(NumericalError):
        psi_mod._bracket_sup(lambda d, c: np.ones_like(c), np.zeros(1), np.ones(1),
                             "nothing is feasible")


# ---------------------------------------------------------------------------
# conjugates

def test_psi_star_power_norm_closed_form():
    # Psi = |y|^2 has conjugate |y|^2 / 4
    assert psi_star(POWER2, np.array([3.0, 4.0, 0.0, 0.0])) == pytest.approx(6.25, rel=1e-12)


def test_psi_star_norm_case_is_ball_indicator():
    spec = PowerNorm(dim=2, norm=2.0, a=1.0)
    assert psi_star(spec, np.array([0.5, 0.0])) == 0.0
    assert math.isinf(psi_star(spec, np.array([2.0, 0.0])))


def test_psi_star_linear_component_value():
    # h(v) = v^2/4 on [0, 1]: conjugate w^2 below 1/2, w - 1/4 above
    assert psi_star(SFP1, np.array([0.5, 0.0, 0.0, 0.0])) == pytest.approx(0.25, rel=1e-9)
    assert psi_star(SFP1, np.array([0.25, 0.0, 0.0, 0.0])) == pytest.approx(0.0625, rel=1e-9)
    assert psi_star(SFP1, np.array([2.0, 0.0, 0.0, 0.0])) == pytest.approx(1.75, rel=1e-9)


def test_separable_conjugate_matches_numeric_legendre():
    rng = np.random.default_rng(9)
    for spec in (TWOLEVEL3, SFP3, BL1):
        comp = cj.ScalarConvexFn(
            fn=lambda v, s=spec: s._component(np.abs(np.asarray(v, dtype=float))),
            name="component",
            domain_bound=getattr(spec, "threshold", math.inf))
        y = rng.uniform(-3.0, 3.0, size=4)
        want = sum(legendre_1d(comp, abs(v)) for v in y)
        assert psi_star(spec, y) == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_conjugate_ray_radius_closed_forms():
    # quarter-square conjugate: radius 2 sqrt(u)
    for u in (0.25, 1.0, 4.0):
        assert conjugate_ray_radius(POWER2, u) == pytest.approx(2.0 * math.sqrt(u), rel=1e-9)
    # capped component: linear conjugate branch past the cap
    assert conjugate_ray_radius(BL1, 4.0) == pytest.approx(5.0, rel=1e-9)


def test_conjugate_ray_radius_is_monotone_in_u():
    rads = [conjugate_ray_radius(TWOLEVEL3, u) for u in (0.1, 0.5, 2.0, 10.0)]
    assert all(a < b for a, b in zip(rads, rads[1:]))


# ---------------------------------------------------------------------------
# support functions of the conjugate ball

def test_support_function_power_norm_closed_form():
    spec = PowerNorm(dim=3, norm=2.0, a=2.0)
    theta = np.array([1.0, 2.0, 2.0])
    # conjugate ball radius (p / c_a)^{1/a*} = 2 sqrt(p)
    assert support_function(spec, 4.0, theta) == pytest.approx(12.0, rel=1e-9)
    spec1 = PowerNorm(dim=3, norm=2.0, a=1.0)
    assert support_function(spec1, 4.0, theta) == pytest.approx(3.0, rel=1e-9)


def test_support_function_duality_certificate():
    # achieved value from the argmax vs an independent weak-duality cap
    rng = np.random.default_rng(17)
    for spec in (TWOLEVEL3, SFP3):
        for p in (2.0, 7.0):
            theta = rng.standard_normal(4)
            val = support_function(spec, p, theta)
            got, y = support_argmax(spec, p, theta)
            assert psi_star(spec, y) <= p * (1 + 1e-6)
            achieved = float(np.dot(theta, y))
            assert achieved == pytest.approx(val, rel=1e-6)
            assert got == pytest.approx(val, rel=1e-6)
            dual = min(l * (p + float(np.sum(spec._component(np.abs(theta / l)))))
                       for l in np.geomspace(1e-4, 1e4, 4001))
            assert val <= dual * (1 + 1e-6)
            assert val >= dual * (1 - 1e-3)


def test_support_argmax_hits_dual_witness_for_power_norms():
    for q, a in ((1.0, 2.0), (2.0, 2.0), (math.inf, 1.5)):
        spec = PowerNorm(dim=3, norm=q, a=a)
        theta = np.array([0.5, -2.0, 1.0])
        _, y = support_argmax(spec, 5.0, theta)
        assert float(np.dot(theta, y)) == pytest.approx(
            support_function(spec, 5.0, theta), rel=1e-9)


def test_support_function_rejects_nonconvex_gauges():
    with pytest.raises(InputError):
        support_function(UserSeparable(dim=2, fn=lambda u: np.square(u)), 2.0,
                         np.array([1.0, 0.0]))
