"""Growth profiles, Legendre machinery, conjugate balls, support functions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_closed_forms as frozen

import orlicz_conc.conjugacy as cj
import orlicz_conc.psi as psi_mod
import orlicz_conc.solvers as solvers
from orlicz_conc import (BobkovLedouxCap, GrowthEnvelope, InputError, NumericalError,
                         PhiSpec, PowerNorm, SeparableFromPhi, SeparableTwoLevel,
                         UserSeparable, conjugate_ray_radius, eval_psi, lam, legendre_1d,
                         lipschitz_profile, omega, omega_inv, omega_star, profile_table,
                         psi_star, support_argmax, support_function)

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


@pytest.mark.parametrize("spec", [*ALL, SFP15, UserSeparable(dim=2, fn=np.square)],
                         ids=["power2", "power15", "twolevel3", "sfp1", "sfp3", "bl1", "sfp15",
                              "user_square"])
def test_omega_of_an_array_is_the_scalar_calls(spec):
    ts = np.array([[0.25, 1.0, 3.0], [0.5, 2.0, 40.0]])
    got = omega(spec, ts)
    assert got.shape == ts.shape
    want = [omega(spec, float(t)) for t in ts.ravel()]
    assert got.ravel().tobytes() == np.array(want).tobytes()
    assert isinstance(omega(spec, 2.0), float)


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


@pytest.mark.xfail(strict=True, reason="the maximiser y* = (2t/3)^2 = 4.4e-7 lies below "
                   "GRID_LO = 1e-6; the fix moves pinned profile tables, so it waits for "
                   "the re-record of ROADMAP item 0")
@pytest.mark.parametrize("spec", [POWER15, SFP3], ids=["power_a15", "from_phi_s3"])
def test_lambda_below_the_grid_floor(spec):
    # omega(y) = y^{3/2}, so lambda(t) = (4/27) t^3
    assert lam(spec, 1e-3) == pytest.approx(4.0 / 27.0 * 1e-9, rel=1e-9)


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
    assert omega(POWER2, 2.0) == pytest.approx(4.0, rel=1e-12)
    assert omega_star(POWER2, 2.0) == pytest.approx(4.0, rel=1e-9)
    assert omega_inv(POWER2, 4.0) == pytest.approx(2.0, rel=1e-9)
    assert lam(POWER2, 2.0) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("call, ts, message", [
    (lambda v: omega(TWOLEVEL3, v), -1.0, "omega requires t > 0, got -1.0"),
    (lambda v: omega(UserSeparable(dim=2, fn=np.square), v), [[2.0, math.nan]],
     "omega requires t > 0, got nan"),
    (lambda v: omega_inv(TWOLEVEL3, v), [[1.0, -2.5], [math.nan, 0.0]],
     "omega_inv requires s > 0, got -2.5"),
    (lambda v: omega_star(TWOLEVEL3, v), [[1.0, 0.0], [-2.5, 2.0]],
     "omega_star requires t > 0, got 0.0"),
    (lambda v: profile_table(TWOLEVEL3, v), [1.0, -math.inf, 0.0],
     "profile_table requires t > 0, got -inf"),
    (lambda v: conjugate_ray_radius(TWOLEVEL3, v), [[2.0, math.nan]],
     "requires u > 0, got nan"),
    (lambda v: legendre_1d(np.square, v), [[0.0, 1.0], [-2.5, math.nan]],
     "legendre_1d requires t >= 0, got -2.5"),
    # t > 0, but t / (C L b) underflows to the 0 that omega_star refuses
    (lambda v: lipschitz_profile(1.0, 1e4, GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0),
                                 TWOLEVEL3, 1.0, v), [1.0, 1e-320],
     "omega_star requires t > 0, got 0.0"),
], ids=["omega_scalar", "omega_user", "omega_inv", "omega_star", "profile_table",
        "conjugate_ray_radius", "legendre_1d", "lipschitz_profile"])
def test_positive_domain_errors_name_the_first_bad_entry(call, ts, message):
    with pytest.raises(InputError) as info:
        call(np.array(ts))
    assert str(info.value) == message


def test_legendre_1d_of_quadratic():
    for t in (0.5, 2.0, 11.0):
        assert legendre_1d(np.square, t) == pytest.approx(t * t / 4.0, rel=1e-6)


def test_bracket_sup_reports_bracket_failure():
    with pytest.raises(NumericalError):
        solvers._bracket_sup(lambda d, c: np.ones_like(c), np.zeros(1), np.ones(1),
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
        def comp(v, s=spec):
            return s._component(np.abs(np.asarray(v, dtype=float)))

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


@pytest.mark.parametrize("spec", [
    *(PowerNorm(dim=3, norm=q, a=a) for q in (1.0, 2.0, 3.0, math.inf) for a in (1.0, 1.5, 3.0)),
    SeparableTwoLevel(dim=3, r=1.5), SeparableTwoLevel(dim=3, r=3.0),
    *(SeparableFromPhi(dim=3, phi=PhiSpec(s=s)) for s in (1.0, 1.5, 3.0)),
    BobkovLedouxCap(dim=3, threshold=0.5),
    UserSeparable(dim=3, fn=lambda u: np.abs(u) ** 3, name="cube"),
], ids=lambda s: s.name if isinstance(s, UserSeparable) else repr(s))
def test_conjugate_1d_is_psi_star_along_each_axis(spec):
    # the premise of conjugate_ray_radius: Psi*(c e_j) is the 1-D conjugate at c
    cs = np.array([0.0, 0.1, 0.7, 1.0, 1.0 + 5e-13, 1.3, 2.0, 4.5])
    got = cj._conjugate_1d(spec, cs)
    for j in range(spec.dim):
        for c, g in zip(cs, got):
            want = psi_star(spec, c * np.eye(spec.dim)[j])
            assert g == pytest.approx(want, rel=1e-12, abs=0.0), (j, c)


def test_conjugate_ray_radius_array_equals_per_u_solves():
    # one bracketing solve over a u grid, each row stopping on its own
    us = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 40.0])
    for spec in (PowerNorm(dim=4, norm=2.0, a=1.0), POWER2, TWOLEVEL3, SFP1, SFP15, BL1):
        got = conjugate_ray_radius(spec, us.reshape(2, 3))
        want = [conjugate_ray_radius(spec, float(u)) for u in us]
        assert np.array_equal(got, np.reshape(want, (2, 3)))
    with pytest.raises(InputError):
        conjugate_ray_radius(POWER2, np.array([1.0, 0.0]))


def test_separable_from_phi_s1_support_matches_the_numeric_dual():
    # s = 1 takes half of BobkovLedouxCap(1/2)'s closed support; the Lagrange
    # dual min_lam lam (p + Psi(theta/lam)) is the independent oracle
    rng = np.random.default_rng(14)
    cases = [(4.0, np.array([1.0, -0.5, 0.3, 2.0]))]
    cases += [(float(rng.uniform(0.2, 60.0)), rng.standard_normal(4) * math.exp(rng.uniform(-3, 3)))
              for _ in range(60)]
    for p, theta in cases:
        value, y = support_argmax(SFP1, p, theta)
        assert value == pytest.approx(cj._support_multiplier(SFP1, p, theta)[1],
                                      rel=1e-9, abs=0.0)
        assert psi_star(SFP1, y) <= p * (1.0 + 1e-12)
        assert value == pytest.approx(float(np.dot(theta, y)), rel=1e-12)
        assert support_function(SFP1, p, theta) == value


@pytest.mark.parametrize("spec", [BobkovLedouxCap(dim=4, threshold=0.5), SFP1, POWER2,
                                  PowerNorm(dim=4, norm=3.0, a=1.5)],
                         ids=["blcap", "sfp1", "power2", "power3"])
def test_support_function_is_the_closed_argmax_value_bit_for_bit(spec):
    # every family has one support hook: the value is its closed argmax's
    rng = np.random.default_rng(18)
    for _ in range(50):
        p = float(rng.uniform(0.2, 60.0))
        theta = rng.standard_normal(4) * math.exp(rng.uniform(-3, 3))
        assert support_function(spec, p, theta) == support_argmax(spec, p, theta)[0]


# ---------------------------------------------------------------------------
# support functions of the conjugate ball

def test_support_function_power_norm_closed_form():
    spec = PowerNorm(dim=3, norm=2.0, a=2.0)
    theta = np.array([1.0, 2.0, 2.0])
    # conjugate ball radius (p / c_a)^{1/a*} = 2 sqrt(p)
    assert support_function(spec, 4.0, theta) == pytest.approx(12.0, rel=1e-9)
    spec1 = PowerNorm(dim=3, norm=2.0, a=1.0)
    assert support_function(spec1, 4.0, theta) == pytest.approx(3.0, rel=1e-9)


def test_power_norm_support_is_the_frozen_closed_form_bit_for_bit():
    # R ||theta||_q, now the witness's norm times R, over q, a, n and
    # |theta| from e^-20 to e^20: 1,440 cases
    scales = np.exp(np.linspace(-20.0, 20.0, 20))
    for q, a, n in itertools.product((1.0, 1.5, 2.0, 3.0, 4.0, math.inf),
                                     (1.0, 1.5, 2.0), (1, 3, 16, 64)):
        spec = PowerNorm(dim=n, norm=q, a=a)
        rng = np.random.default_rng(n)
        for i, scale in enumerate(scales):
            p = (0.5, 4.0, 37.0)[i % 3]
            theta = rng.standard_normal(n) * scale
            assert support_function(spec, p, theta) == frozen.power_norm_support(spec, p, theta)


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


def test_support_function_of_capped_component_matches_closed_form():
    # BobkovLedouxCap: Psi(theta/lam) = |theta|_2^2/lam^2 for lam >= max|theta|/thr and
    # +inf below, so the dual min_lam lam (p + Psi(theta/lam)) sits at
    # lam = max(|theta|_2/sqrt(p), max|theta|/thr); when the cap binds, the dual
    # objective is +inf just below its minimizer
    spec = BobkovLedouxCap(dim=4, threshold=0.5)
    for p, theta in ((4.0, np.array([1.0, 0.1, -0.1, 0.1])),
                     (2.0, np.array([-0.3, 0.2, 0.05, 0.1])),
                     (0.5, np.array([0.7, -0.6, 0.3, 0.2]))):
        norm2 = float(np.linalg.norm(theta))
        lam_ = max(norm2 / math.sqrt(p), float(np.max(np.abs(theta))) / spec.threshold)
        want = lam_ * p + norm2 ** 2 / lam_
        assert support_function(spec, p, theta) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("thr", [0.5, 2.0])
def test_capped_support_closed_form_matches_the_numeric_dual(thr):
    # the numeric dual min_lam lam (p + Psi(theta/lam)) is the oracle
    rng = np.random.default_rng(17)
    for n in (1, 4, 16):
        spec = BobkovLedouxCap(dim=n, threshold=thr)
        for p in (0.5, 4.0, 16.0):
            for scale in (0.1, 1.0, 10.0):
                theta = scale * rng.standard_normal(n)
                theta[1::3] = -theta[0]  # ties of the top magnitude
                value, y = support_argmax(spec, p, theta)
                assert value == support_function(spec, p, theta) == float(np.dot(theta, y))
                want = cj._support_multiplier(spec, p, theta)[1]
                assert value == pytest.approx(want, rel=1e-11)
                assert psi_star(spec, y) <= p * (1.0 + 4 * np.finfo(float).eps)


@pytest.mark.parametrize("theta, p, binding", [
    ([1.0] * 16, 0.5, False),
    ([1.0, 0.1, -0.1, 0.1], 4.0, True),
    ([1.0, -1.0, 0.2, 0.0], 4.0, True),
], ids=["off_cap", "cap_binds", "tied_cap"])
def test_capped_support_argmax_is_feasible_and_tight(theta, p, binding):
    theta = np.array(theta)
    spec = BobkovLedouxCap(dim=theta.size, threshold=0.5)
    value, y = support_argmax(spec, p, theta)
    # complementary slackness: the maximizer sits on the boundary Psi*(y) = p
    assert psi_star(spec, y) == pytest.approx(p, rel=1e-14)
    assert psi_star(spec, y) <= p * (1.0 + 4 * np.finfo(float).eps)
    top = np.abs(theta) == np.max(np.abs(theta))
    # on the cap the top coordinates lie on h*'s linear piece, beyond 2 thr
    assert np.all(np.abs(y[top]) > 1.0) == binding
    assert np.array_equal(np.sign(y), np.sign(theta))
    norm2 = float(np.linalg.norm(theta))
    lam_ = max(norm2 / math.sqrt(p), float(np.max(np.abs(theta))) / spec.threshold)
    assert value == pytest.approx(lam_ * p + norm2 ** 2 / lam_, rel=1e-14)


# ---------------------------------------------------------------------------
# the array-valued suprema against the per-point routines they replaced

def _golden_max_oracle(fn, a, b, iters=80):
    x1 = b - cj._GOLDEN * (b - a)
    x2 = a + cj._GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + cj._GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - cj._GOLDEN * (b - a)
            f1 = fn(x1)
        if b - a <= 1e-12 * max(abs(b), 1.0):
            break
    return max(f1, f2)


def _legendre_oracle(phi, t, lo=cj.GRID_LO, hi=cj.GRID_HI, points=cj.GRID_POINTS):
    ys = np.geomspace(lo, hi, points)
    with np.errstate(over="ignore", invalid="ignore"):
        obj = t * ys - np.asarray(phi(ys), dtype=float)
    obj = np.where(np.isnan(obj), -np.inf, obj)
    i = int(np.argmax(obj))
    if i == points - 1:
        per_decade = max(2, int(points / math.log10(hi / lo)))
        if obj[-1] > obj[-per_decade] + 1e-12 * max(1.0, abs(obj[-1])):
            return math.inf

    def g(y):
        return t * y - float(np.asarray(phi(np.asarray([y])), dtype=float).ravel()[0])

    best = _golden_max_oracle(g, ys[max(i - 1, 0)], ys[min(i + 1, points - 1)])
    return max(0.0, max(best, float(obj[i])))


def _omega_ray_sup_oracle(spec, t, points=cj.GRID_POINTS):
    us = np.geomspace(cj.GRID_LO, cj.GRID_HI, points)
    with np.errstate(over="ignore", invalid="ignore"):
        h_u = spec._component(us)
        h_tu = spec._component(t * us)
    valid = (h_u > 0.0) & np.isfinite(h_u)
    if np.any(np.isinf(h_tu[valid])):
        return math.inf
    ratio = h_tu[valid] / h_u[valid]
    us_v = us[valid]
    i = int(np.argmax(ratio))

    def g(logu):
        u = math.exp(logu)
        hu = float(spec._component(np.asarray([u]))[0])
        with np.errstate(over="ignore"):
            htu = float(spec._component(np.asarray([t * u]))[0])
        if hu <= 0.0 or not math.isfinite(hu):
            return -math.inf
        return htu / hu

    a = math.log(us_v[max(i - 1, 0)])
    b = math.log(us_v[min(i + 1, len(us_v) - 1)])
    return max(float(ratio[i]), _golden_max_oracle(g, a, b, iters=60))


CUBE = UserSeparable(dim=2, fn=lambda u: np.abs(u) ** 3, name="cube")


@pytest.mark.parametrize("rows", [40, 5000, 0])
def test_golden_max_rows_equal_the_scalar_search(rows):
    rng = np.random.default_rng(21)
    c = rng.uniform(-3.0, 3.0, size=rows)
    a, b = c - rng.uniform(0.01, 2.0, size=rows), c + rng.uniform(0.01, 2.0, size=rows)
    got = solvers._golden_max(lambda cc, x: -(x - cc) * (x - cc), c, a, b, 80)
    assert got.shape == (rows,)
    for k in range(c.size):
        want = _golden_max_oracle(lambda x: -(x - c[k]) * (x - c[k]), a[k], b[k])
        assert got[k] == want


def test_golden_max_raises_at_its_step_cap():
    c = np.array([0.3])
    with pytest.raises(NumericalError, match="golden-section search did not converge"):
        solvers._golden_max(lambda cc, x: -(x - cc) * (x - cc), c, c - 100.0, c + 100.0, 1)


def test_suprema_of_no_values_are_empty():
    empty = np.array([])
    assert legendre_1d(np.square, empty).shape == (0,)
    assert cj.omega_ray_sup(CUBE, empty).shape == (0,)


def test_suprema_of_only_unbounded_values_are_all_infinite():
    # phi(y) = y is outgrown by every t > 1; the capped component jumps to
    # +inf, so every ray ratio at t > 1 is unbounded
    assert np.all(np.isposinf(legendre_1d(lambda y: y, np.array([2.0, 5.0, 1e3]))))
    assert np.all(np.isposinf(cj.omega_ray_sup(BL1, np.array([1.5, 2.0, 40.0]))))


V_UP_TO_1E3 = np.concatenate(([0.0], np.geomspace(1e-9, 1e3, 300), np.linspace(0.0, 1e3, 301)))


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_custom_power_tilde_star_equals_the_closed_form(s):
    custom = PhiSpec(fn=lambda t: np.abs(t) ** s)
    np.testing.assert_allclose(custom.tilde_star(V_UP_TO_1E3),
                               PhiSpec(s=s).tilde_star(V_UP_TO_1E3), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("s", [1.5, 3.0])
def test_custom_phi_component_is_exact_below_one(s):
    # Phi(u) >= u from 1 on, so tilde-Phi* is v^2/4 on [0, 1], also below the
    # numeric transform's grid: the built-in's value bit for bit, and
    # positive for v > 0, as condition (C2) asks
    v = np.geomspace(1e-9, 1.0, 10001)
    assert np.array_equal(PhiSpec(fn=lambda t: np.abs(t) ** s).tilde_star(v),
                          PhiSpec(s=s).tilde_star(v))
    custom = SeparableFromPhi(dim=1, phi=PhiSpec(fn=lambda t: np.abs(t) ** s))
    builtin = SeparableFromPhi(dim=1, phi=PhiSpec(s=s))
    assert eval_psi(custom, [1e-7]) == eval_psi(builtin, [1e-7]) > 0.0


def test_custom_phi_with_a_bounded_domain_needs_no_domain_bound():
    # Phi = t^2 on [0, 2], +inf beyond: tilde-Phi* is v^2/4 up to v = 4, then 2v - 4
    capped = PhiSpec(fn=lambda t: np.where(np.abs(t) <= 2.0, np.square(t), np.inf))
    v = V_UP_TO_1E3
    want = np.where(v <= 4.0, 0.25 * v * v, 2.0 * v - 4.0)
    np.testing.assert_allclose(capped.tilde_star(v), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spec", [TWOLEVEL3, SFP1, SFP3, SFP15, BL1, CUBE],
                         ids=["two_level", "sfp1", "sfp3", "sfp15", "blcap", "cube"])
def test_legendre_1d_array_equals_per_point_oracle(spec):
    # 0 and the far end cover the clamp at 0 and the +inf (still climbing) rows
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 1e7, 45)))
    got = legendre_1d(spec._component, ts)
    want = np.array([_legendre_oracle(spec._component, float(t)) for t in ts])
    assert np.array_equal(got, want)
    assert legendre_1d(spec._component, float(ts[7])) == want[7]
    if spec._closed_conjugate(ts) is None:  # the 1-D conjugate is this transform
        assert np.array_equal(cj._conjugate_1d(spec, -ts.reshape(2, -1)), got.reshape(2, -1))


@pytest.mark.parametrize("spec", [TWOLEVEL3, SFP1, SFP15, BL1, CUBE],
                         ids=["two_level", "sfp1", "sfp15", "blcap", "cube"])
def test_omega_ray_sup_array_matches_per_point_oracle(spec):
    ts = np.geomspace(0.05, 20.0, 23)
    got = cj.omega_ray_sup(spec, ts)
    want = np.array([_omega_ray_sup_oracle(spec, float(t)) for t in ts])
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-15, atol=0.0)
    assert cj.omega_ray_sup(spec, float(ts[3])) == got[3]


def test_lambda_of_a_user_component_equals_per_point_transform():
    ts = np.array([0.5, 3.0])
    tab = profile_table(CUBE, ts)
    np.testing.assert_array_equal(tab[:, 1], omega(CUBE, ts))
    for k, t in enumerate(ts):
        assert tab[k, 4] == _legendre_oracle(lambda ys: omega(CUBE, ys), float(t))
        assert tab[k, 4] == lam(CUBE, float(t))


def _support_multiplier_oracle(spec, p, theta):
    lams = np.geomspace(1e-9, 1e9, 512)

    def obj(lam_):
        with np.errstate(over="ignore"):
            return lam_ * (p + psi_mod.eval_psi(spec, theta / lam_))

    vals = np.array([obj(l) for l in lams])
    i = int(np.argmin(vals))
    lo = math.log(lams[max(i - 1, 0)])
    hi = math.log(lams[min(i + 1, len(lams) - 1)])
    for _ in range(200):
        m1 = lo + (hi - lo) * (1 - cj._GOLDEN)
        m2 = lo + (hi - lo) * cj._GOLDEN
        if obj(math.exp(m1)) <= obj(math.exp(m2)):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-12:
            break
    return math.exp(0.5 * (lo + hi)), min(float(vals[i]), obj(math.exp(lo)), obj(math.exp(hi)))


def test_support_argmax_unchanged_by_the_array_dual_and_transform(monkeypatch):
    rng = np.random.default_rng(33)
    cases = [(spec, p, rng.standard_normal(4)) for spec in (TWOLEVEL3, SFP3) for p in (2.0, 7.0)]
    cases.append((SFP15, 4.0, rng.standard_normal(4)))
    got = [support_argmax(spec, p, theta) for spec, p, theta in cases]
    monkeypatch.setattr(cj, "_support_multiplier", _support_multiplier_oracle)
    monkeypatch.setattr(cj, "legendre_1d", lambda phi, t: np.array(
        [_legendre_oracle(phi, float(x)) for x in np.ravel(t)]).reshape(np.shape(t)))
    for (spec, p, theta), (value, y) in zip(cases, got):
        want_value, want_y = support_argmax(spec, p, theta)
        assert value == want_value
        assert np.array_equal(y, want_y)


def _coordinate_argmax_oracle(spec, theta, lam_star):
    def one(tj):
        if tj == 0.0 or lam_star <= 0.0:
            return 0.0
        mag = abs(tj)

        def val(y):
            hstar = float(cj._conjugate_1d(spec, np.asarray([y]))[0])
            return mag * y - lam_star * hstar

        hi = 1.0
        for _ in range(200):
            if val(hi * 2.0) <= val(hi):
                break
            hi *= 2.0
        else:
            raise NumericalError("coordinate argmax bracket failed")
        a, b = 0.0, hi * 2.0
        for _ in range(120):
            m1 = b - cj._GOLDEN * (b - a)
            m2 = a + cj._GOLDEN * (b - a)
            if val(m1) < val(m2):
                a = m1
            else:
                b = m2
            if b - a <= 1e-12 * max(1.0, b):
                break
        y = 0.5 * (a + b)
        if val(y) <= 0.0:
            y = 0.0
        return math.copysign(y, tj)

    return np.array([one(float(tj)) for tj in theta])


def _support_outcomes(spec, p, theta):
    """(support_argmax, support_function), each a NumericalError's message
    where it raises one."""
    out = []
    for call in (support_argmax, support_function):
        try:
            out.append(call(spec, p, theta))
        except NumericalError as exc:
            out.append(str(exc))
    return out


FULL = ((1, 0.5), (4, 4.0), (16, 16.0))


@pytest.mark.parametrize("make, sizes", [
    (lambda n: SeparableTwoLevel(dim=n, r=2.0), FULL),
    (lambda n: SeparableTwoLevel(dim=n, r=3.0), FULL),
    (lambda n: SeparableTwoLevel(dim=n, r=5.0), FULL),
    (lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(s=1.0)), FULL),
    (lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(s=1.5)), FULL),
    (lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(s=3.0)), FULL),
    # the capped family and sfp1, a rescaled cap, take their closed forms on
    # both sides
    (lambda n: BobkovLedouxCap(dim=n, threshold=0.5), FULL),
    (lambda n: BobkovLedouxCap(dim=n, threshold=2.0), FULL),
    # a user-supplied Phi nests two numeric transforms, so the scalar searches
    # take about 3 s per coordinate; its batched path is sfp15's
    (lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(fn=lambda t: np.abs(t) ** 3)), FULL[:1]),
], ids=["two_level2", "two_level3", "two_level5", "sfp1", "sfp15", "sfp3",
        "blcap05", "blcap2", "user_cube"])
def test_support_argmax_equals_the_scalar_searches_bit_for_bit(monkeypatch, make, sizes):
    rng = np.random.default_rng(41)
    cases = []
    for n, p in sizes:
        theta = rng.standard_normal(n)
        cases.append((make(n), p, theta))
        theta = theta.copy()
        theta[::4], theta[1::4], theta[2::4] = 0.0, -0.0, -1e-300  # the last argmax is -0.0
        cases.append((make(n), p, theta))
    got = [_support_outcomes(*case) for case in cases]
    monkeypatch.setattr(cj, "_coordinate_argmax", _coordinate_argmax_oracle)
    monkeypatch.setattr(cj, "_support_multiplier", _support_multiplier_oracle)
    for case, (argmax, value) in zip(cases, got):
        want_argmax, want_value = _support_outcomes(*case)
        assert value == want_value
        if isinstance(want_argmax, str):
            assert argmax == want_argmax
            continue
        assert argmax[0] == want_argmax[0]
        assert np.array_equal(argmax[1], want_argmax[1])
        assert np.array_equal(np.signbit(argmax[1]), np.signbit(want_argmax[1]))


@pytest.mark.parametrize("cap, what", [("_ARGMAX_GOLDEN_MAX", "coordinate argmax"),
                                       ("_MULTIPLIER_GOLDEN_MAX", "support multiplier")])
def test_support_searches_raise_at_their_golden_cap(monkeypatch, cap, what):
    theta = np.array([1.5, -0.4, 0.0, 2.0])
    assert support_argmax(TWOLEVEL3, 4.0, theta)[0] > 0.0
    monkeypatch.setattr(cj, cap, 1)
    with pytest.raises(NumericalError, match=f"^{what} golden search did not converge"):
        support_argmax(TWOLEVEL3, 4.0, theta)
