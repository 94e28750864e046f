"""Closed-form bound evaluators against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_conc import (GrowthEnvelope, InputError, PartitionNorms,
                         PhiSpec, PowerNorm,
                         alpha1_moment_bound, bcg_derivative_chain,
                         bcg_first_line, bcg_moment_bound, bcg_tail,
                         centered_moment_bound, chebyshev_level,
                         defective_moment_bound, defective_moment_bound_q,
                         enlargement_bound, enlargement_rate, gk_moment,
                         hanson_wright_tail, l_constant, lipschitz_profile,
                         moment_interpolation_factor, poincare_beta_bound,
                         quadratic_chaos_moment, two_level_tail)

E = math.e
ENV22 = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0, d=0.0)
ENV24 = GrowthEnvelope(K=1.0, alpha=2.0, beta=4.0, D=1.0, d=0.0)


# ---------------------------------------------------------------------------
# moment-side evaluators

def test_l_constant_values():
    assert l_constant(ENV22) == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)
    assert l_constant(ENV24) == pytest.approx(4.0, rel=1e-12)
    # generic: (KD)^{1/beta}/(alpha-1) + (1/(alpha-1) + beta^{1/alpha})(KD)^{1/alpha}
    env = GrowthEnvelope(K=2.0, alpha=1.5, beta=3.0, D=4.0)
    kd = 8.0
    want = 2.0 * kd ** (1.0 / 3.0) + (2.0 + 3.0 ** (1.0 / 1.5)) * kd ** (1.0 / 1.5)
    assert l_constant(env) == pytest.approx(want, rel=1e-12)


def test_defective_moment_bound_unit_case():
    got = defective_moment_bound(env=ENV22, p=2.0, lower_moment=1.0, grad_moment=1.0)
    assert got == pytest.approx(1.0 + 2.0 * E, rel=1e-12)


def test_defective_moment_bound_defect_prefactor():
    env = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0, d=1.0)
    got = defective_moment_bound(env=env, p=2.0, lower_moment=1.0, grad_moment=0.0)
    assert got == pytest.approx(E, rel=1e-12)


def test_defective_moment_bound_q_prefactor():
    env = GrowthEnvelope(K=1.0, alpha=2.0, beta=3.0, D=1.0, d=0.0)
    inp = dict(env=env, p=6.0, lower_moment=1.0, grad_moment=0.0)
    # 2^{(p-q) beta / ((p-beta) q)} = 2^2
    assert defective_moment_bound_q(**inp, q=2.0) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(InputError):
        defective_moment_bound_q(**inp, q=3.5)


def test_alpha1_moment_bound_log_factor():
    assert alpha1_moment_bound(1.0, 1.0, ENV22, E ** 2) == pytest.approx(13.0, rel=1e-12)


def test_centered_moment_bound_is_c_l_g():
    assert centered_moment_bound(1.0, ENV22, 2.0) == pytest.approx(
        2.0 + math.sqrt(2.0), rel=1e-12)
    assert centered_moment_bound(3.0, ENV22, 5.0, C=2.0) == pytest.approx(
        6.0 * (2.0 + math.sqrt(2.0)), rel=1e-12)
    with pytest.raises(InputError):
        centered_moment_bound(1.0, ENV24, 3.0)  # p below beta


def test_poincare_beta_bound_value():
    env = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0)
    assert poincare_beta_bound(1.0, env) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)


def test_moment_interpolation_factor():
    assert moment_interpolation_factor(2.0, 4.0, 2.0, 1.0) == pytest.approx(8.0, rel=1e-12)
    assert moment_interpolation_factor(3.0, 9.0, 3.0, 1.0) == pytest.approx(81.0, rel=1e-12)
    with pytest.raises(InputError):
        moment_interpolation_factor(2.0, 4.0, 2.0, 2.0)  # needs r < q strictly


def test_gk_moment_quadratic_component():
    # phi(t) = t^2 gives the energy gauge sqrt(p) |x|_2 / 2
    got = gk_moment(np.array([3.0, 4.0]), PhiSpec(s=2.0), 4.0)
    assert got == pytest.approx(5.0, rel=1e-8)


def test_gk_moment_of_a_custom_phi_equals_the_built_in():
    # a custom Phi's component is the numeric Legendre transform, exact to
    # the gauge's own tolerance
    x = np.array([3.0, -0.2, 1.5, 0.0, 40.0])
    for s in (1.5, 3.0):
        custom = PhiSpec(fn=lambda t, s=s: np.abs(t) ** s)
        for p in (2.0, 9.0):
            assert gk_moment(x, custom, p) == pytest.approx(
                gk_moment(x, PhiSpec(s=s), p), rel=1e-10, abs=0.0)


def test_quadratic_chaos_moment_identity_shape():
    norms = PartitionNorms(hs=4.0, op=1.0, entry_lr=2.0, mixed_2_rstar=1.0,
                           rstar_rstar=1.0, r=4.0)
    # sqrt(p) hs + p op + p^{1/r*} lr + p^{1/2+1/r*} mixed + p^{2/r*} rstar at p=4
    want = 8.0 + 4.0 + 4.0 ** 0.75 * 2.0 + 4.0 ** 1.25 + 4.0 ** 1.5
    assert quadratic_chaos_moment(norms, 4.0) == pytest.approx(want, rel=1e-12)


def test_moment_inputs_validate():
    for bound in (defective_moment_bound, lambda **kw: defective_moment_bound_q(**kw, q=1.0)):
        with pytest.raises(InputError):
            bound(env=ENV22, p=-1.0, lower_moment=1.0, grad_moment=1.0)
        with pytest.raises(InputError):
            bound(env=ENV22, p=3.0, lower_moment=-1.0, grad_moment=1.0)
        with pytest.raises(InputError):
            bound(env=ENV22, p=3.0, lower_moment=1.0, grad_moment=math.inf)
        with pytest.raises(InputError):
            bound(env=ENV22, p=1.5, lower_moment=1.0, grad_moment=1.0)


@pytest.mark.parametrize("bound", [
    lambda p: defective_moment_bound(env=ENV22, p=p, lower_moment=1.0, grad_moment=1.0),
    lambda p: defective_moment_bound_q(env=ENV22, p=p, lower_moment=1.0, grad_moment=1.0,
                                       q=1.0),
    lambda p: alpha1_moment_bound(1.0, 1.0, ENV22, p),
    lambda p: centered_moment_bound(1.0, ENV22, p),
], ids=["defective", "defective_q", "alpha1", "centered"])
def test_moment_bounds_refuse_nan_p(bound):
    assert math.isfinite(bound(4.0))
    with pytest.raises(InputError):
        bound(math.nan)


# ---------------------------------------------------------------------------
# tail-side evaluators

def test_two_level_tail_values():
    assert two_level_tail(1.0, 1.0, 3.0, 1.0, 2.0) == pytest.approx(
        2.0 * math.exp(-2.0 ** 1.5), rel=1e-12)
    assert two_level_tail(1.0, 1.0, 2.0, 1.0, 0.1) == 1.0  # clipped


def test_hanson_wright_tail_values():
    # q = 2: min((t/A)^2, t/B)
    assert hanson_wright_tail(2.0, 1.0, 2.0, 1.3, 7.0) == pytest.approx(
        2.0 * math.exp(-1.3 * 7.0), rel=1e-12)
    assert hanson_wright_tail(1.0, 1.0, 1.5, 1.0, 2.0) == pytest.approx(
        2.0 * math.exp(-min(2.0 ** 3.0, 2.0 ** 1.5)), rel=1e-12)
    with pytest.raises(InputError):
        hanson_wright_tail(1.0, 1.0, 2.5, 1.0, 1.0)  # q must lie in (1, 2]


def test_tail_coincidence_on_the_gaussian_branch():
    # r = q = 2 with a = A, b = B: both bounds reduce to 2 exp(-c t^2/a^2)
    # whenever the Gaussian branch is active for both, i.e. t <= a^2/b, a >= b
    rng = np.random.default_rng(21)
    for _ in range(200):
        b = float(rng.uniform(0.2, 2.0))
        a = b * float(rng.uniform(1.0, 4.0))
        t = float(rng.uniform(0.0, a * a / b))
        c = float(rng.uniform(0.2, 3.0))
        tl = two_level_tail(a, b, 2.0, c, t)
        hw = hanson_wright_tail(a, b, 2.0, c, t)
        assert hw == pytest.approx(tl, rel=1e-12)


def test_tails_differ_past_the_gaussian_branch():
    # second branches scale differently: (t/b)^2 vs t/b
    a, b, c, t = 1.0, 1.0, 1.0, 9.0
    assert two_level_tail(a, b, 2.0, c, t) < hanson_wright_tail(a, b, 2.0, c, t)


def test_bcg_tail_shape():
    L, h, g, op = 2.0, 1.0, 1.0, 1.0
    a = 2.0 * E * (math.sqrt(2.0) * L * L * h + L * g)
    b = 2.0 * E * L * L * op
    assert bcg_tail(L, h, g, op, a) == 1.0  # e^2 e^{-1} > 1 clips
    t = 3.0 * a
    want = min(1.0, E ** 2 * math.exp(-min(9.0, t / b)))
    assert bcg_tail(L, h, g, op, t) == pytest.approx(want, rel=1e-12)


def test_chebyshev_level_inverts_the_moment_curve():
    # G(p) = sqrt(p) and C L = 1: largest feasible p is t^2
    C = 1.0 / l_constant(ENV22)
    got = chebyshev_level(lambda p: math.sqrt(p), ENV22, C, 4.0)
    assert got == pytest.approx(math.exp(-16.0), rel=1e-6)
    # infeasible even at p = beta
    assert chebyshev_level(lambda p: math.sqrt(p), ENV22, C, 1.0) == 1.0
    # bounded G floors at the p cap
    assert chebyshev_level(lambda p: 0.0, ENV22, C, 1.0) == pytest.approx(
        math.exp(-1e6), abs=0.0, rel=1e-9)


def test_lipschitz_profile_values():
    spec = PowerNorm(dim=2, norm=2.0, a=2.0)
    C = 1.0 / l_constant(ENV22)
    # omega*(t) = t^2: exp(beta - t^2) past the clip point
    assert lipschitz_profile(1.0, 1.0, ENV22, spec, C, 2.0) == pytest.approx(
        math.exp(-2.0), rel=1e-9)
    assert lipschitz_profile(1.0, 1.0, ENV22, spec, C, 0.5) == 1.0
    assert lipschitz_profile(1.0, 1.0, ENV22, spec, C, 0.0) == 1.0


def test_enlargement_rate_and_bound():
    rho = enlargement_rate(ENV22)
    assert rho == pytest.approx(1.0 / (2.0 + math.sqrt(2.0)) ** 2, rel=1e-12)
    u0 = (ENV22.beta + math.log(2.0)) / rho
    assert enlargement_bound(0.9 * u0, ENV22) == 0.0
    want = 1.0 - 2.0 * math.exp(2.0 - 2.0 * u0 * rho)
    assert enlargement_bound(2.0 * u0, ENV22) == pytest.approx(want, rel=1e-12)
    # rho switches to 1/L once L < 1
    rho_small = enlargement_rate(ENV22, C_impl=0.2)
    L = 0.2 * l_constant(ENV22)
    assert rho_small == pytest.approx(1.0 / L, rel=1e-12)


@given(u1=st.floats(0.01, 50.0), u2=st.floats(0.01, 50.0))
@settings(max_examples=60, deadline=None)
def test_enlargement_bound_monotone_and_clipped(u1, u2):
    lo, hi = sorted((u1, u2))
    b_lo, b_hi = enlargement_bound(lo, ENV22), enlargement_bound(hi, ENV22)
    assert 0.0 <= b_lo <= b_hi < 1.0


# ---------------------------------------------------------------------------
# derivative-chain composites

def test_bcg_derivative_chain_and_composite_identity():
    L, p, dk, hop = 2.0, 4.0, 0.5, 0.25
    higher = [(1, 1.0), (2, 0.5)]
    chain = bcg_derivative_chain(L, higher, dk)
    s = math.sqrt(2.0) * L
    want = 1.0 + s * 0.5 + s ** 2 * 0.5
    assert chain == pytest.approx(want, rel=1e-12)
    assert bcg_moment_bound(L, p, higher, dk, hop) == pytest.approx(
        bcg_first_line(L, p, chain, hop), rel=1e-12)


def test_bcg_first_line_value():
    # L sqrt(p) g + L^2 p h
    assert bcg_first_line(2.0, 9.0, 1.0, 0.5) == pytest.approx(24.0, rel=1e-12)


def test_bcg_derivative_chain_rejects_duplicate_orders():
    with pytest.raises(InputError):
        bcg_derivative_chain(2.0, [(1, 1.0), (1, 2.0)], 0.5)
    with pytest.raises(InputError):
        bcg_derivative_chain(2.0, [], 0.5)


# ---------------------------------------------------------------------------
# evaluators over a whole t (or u) column

def test_profiles_are_clipped_and_nonincreasing():
    spec = PowerNorm(dim=2, norm=2.0, a=2.0)
    C = 1.0 / l_constant(ENV22)
    profiles = [
        lambda t: two_level_tail(1.0, 1.0, 3.0, 1.0, t),
        lambda t: hanson_wright_tail(1.0, 0.5, 2.0, 1.0, t),
        lambda t: bcg_tail(2.0, 1.0, 1.0, 1.0, t),
        lambda t: lipschitz_profile(1.0, 1.0, ENV22, spec, C, t),
        lambda t: chebyshev_level(lambda p: math.sqrt(p), ENV22, C, t),
    ]
    ts = np.geomspace(1e-2, 1e2, 40)
    for prof in profiles:
        vals = prof(ts)
        assert isinstance(vals, np.ndarray) and vals.shape == ts.shape
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-12)
        scalar = prof(float(ts[3]))
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(vals[3], rel=1e-12)
        np.testing.assert_array_equal(prof(ts.reshape(5, 8)), vals.reshape(5, 8))


def test_enlargement_profile_carries_rho():
    rho = enlargement_rate(ENV22, 0.2)
    assert rho == pytest.approx(1.0 / (0.2 * l_constant(ENV22)), rel=1e-12)
    u0 = (ENV22.beta + math.log(2.0)) / rho
    vals = enlargement_bound(np.array([0.5 * u0, 3.0 * u0]), ENV22, C_impl=0.2)
    assert vals[0] == 0.0
    assert vals[1] > 0.0
    assert vals[1] == pytest.approx(1.0 - 2.0 * math.exp(ENV22.beta - 3.0 * u0 * rho), rel=1e-12)
    assert enlargement_bound(3.0 * u0, ENV22, C_impl=0.2) == vals[1]


def test_swept_evaluators_check_every_entry():
    spec = PowerNorm(dim=2, norm=2.0, a=2.0)
    calls = [
        (lambda t: two_level_tail(1.0, 1.0, 3.0, 1.0, t), [1.0, math.nan]),
        (lambda t: hanson_wright_tail(1.0, 0.5, 2.0, 1.0, t), [1.0, math.inf]),
        (lambda t: bcg_tail(2.0, 1.0, 1.0, 1.0, t), [1.0, -1.0]),
        (lambda t: lipschitz_profile(1.0, 1.0, ENV22, spec, 1.0, t), [1.0, -1.0]),
        (lambda t: chebyshev_level(math.sqrt, ENV22, 1.0, t), [1.0, 0.0]),
        (lambda u: enlargement_bound(u, ENV22), [1.0, 0.0]),
    ]
    for call, ts in calls:
        with pytest.raises(InputError):
            call(np.array(ts))
