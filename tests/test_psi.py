"""Gauge family: construction, closed forms, serialization, diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_conc import (BobkovLedouxCap, GrowthEnvelope, InputError, PhiSpec,
                         PowerNorm, SeparableFromPhi, SeparableTwoLevel,
                         UserSeparable, check_condition_C, check_growth,
                         empirical_triangle_constant, env_from_dict,
                         env_to_dict, eval_psi, eval_psi_p, eval_psi_rows,
                         psi_from_dict, psi_from_json, psi_p_norm,
                         psi_p_norm_rows, psi_to_dict, psi_to_json,
                         rearranged_two_level_norm, two_level_equiv_norm)
from orlicz_conc import psi as psi_mod


def _power(a, q=2.0, dim=20):
    return PowerNorm(dim=dim, norm=q, a=a)


# ---------------------------------------------------------------------------
# closed-form gauge values

def test_power_norm_gauge_matches_closed_form():
    rng = np.random.default_rng(0)
    for a in (1.5, 2.0, 3.0):
        for q in (1.0, 2.0, math.inf):
            spec = PowerNorm(dim=6, norm=q, a=a)
            for _ in range(20):
                p = float(rng.uniform(1.0, 128.0))
                x = rng.standard_normal(6)
                base = float(np.linalg.norm(x, ord=np.inf if math.isinf(q) else q))
                want = p ** (1.0 - 1.0 / a) * base
                assert psi_p_norm(spec, p, x) == pytest.approx(want, rel=1e-8)


def test_power_norm_spec_example():
    spec = _power(2.0, dim=2)
    assert psi_p_norm(spec, 4.0, [3.0, 4.0]) == pytest.approx(10.0, rel=1e-12)


def test_a_equal_one_gauge_is_p_free():
    spec = PowerNorm(dim=3, norm=2.0, a=1.0)
    x = np.array([1.0, -2.0, 2.0])
    for p in (1.0, 2.0, 17.0, 128.0):
        assert psi_p_norm(spec, p, x) == pytest.approx(3.0, rel=1e-10)


def test_bobkov_ledoux_gauge_closed_form():
    # constraint set {a : all p|x_i|/a <= thr and sum (p x_i / a)^2 <= p}
    # gives a = max(p |x|_inf / thr, sqrt(p) |x|_2)
    spec = BobkovLedouxCap(dim=2, threshold=1.0)
    x = np.array([3.0, 4.0])
    assert psi_p_norm(spec, 4.0, x) == pytest.approx(16.0, rel=1e-9)
    assert psi_p_norm(spec, 1.0, x) == pytest.approx(5.0, rel=1e-9)


def test_gauge_constraint_is_active_for_strictly_increasing_families():
    rng = np.random.default_rng(3)
    for spec in (SeparableTwoLevel(dim=5, r=3.0),
                 SeparableFromPhi(dim=5, phi=PhiSpec(s=2.0))):
        for p in (1.5, 4.0, 33.0):
            x = rng.standard_normal(5)
            a = psi_p_norm(spec, p, x)
            assert eval_psi(spec, p * x / a) == pytest.approx(p, rel=1e-7)


def test_gauge_of_zero_vector_is_zero():
    for spec in (_power(2.0, dim=4), SeparableTwoLevel(dim=4, r=2.5)):
        assert psi_p_norm(spec, 3.0, np.zeros(4)) == 0.0


@given(p1=st.floats(1.0, 128.0), p2=st.floats(1.0, 128.0),
       scale=st.floats(0.05, 20.0), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_gauge_monotone_in_p_and_homogeneous(p1, p2, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(5)
    spec = SeparableTwoLevel(dim=5, r=2.5)
    lo, hi = sorted((p1, p2))
    g_lo, g_hi = psi_p_norm(spec, lo, x), psi_p_norm(spec, hi, x)
    assert g_lo <= g_hi * (1 + 1e-8)
    assert psi_p_norm(spec, lo, scale * x) == pytest.approx(scale * g_lo, rel=1e-7)


def test_power_norm_triangle_inequality_is_exact():
    # a true norm up to the p-dependent scale factor
    spec = _power(2.0, dim=6)
    c = empirical_triangle_constant(spec, 8.0, pairs=128, seed=1)
    assert c <= 1.0 + 1e-9


def test_two_level_triangle_constant_is_bounded():
    spec = SeparableTwoLevel(dim=6, r=4.0)
    c = empirical_triangle_constant(spec, 8.0, pairs=128, seed=2)
    assert 0.0 < c <= 4.0


# ---------------------------------------------------------------------------
# two-level equivalents

def test_two_level_equivalence_band():
    rng = np.random.default_rng(7)
    for r in (2.0, 3.0, 4.0):
        spec = SeparableTwoLevel(dim=12, r=r)
        for _ in range(40):
            p = float(rng.uniform(1.0, 128.0))
            x = rng.standard_normal(12) * math.exp(rng.uniform(-2, 2))
            ratio = psi_p_norm(spec, p, x) / two_level_equiv_norm(x, p, r)
            assert 0.25 <= ratio <= 4.0


def test_rearranged_norm_sparse_vectors_reduce_to_lr_block():
    # support within the top-floor(p) block leaves no l2 tail
    x = np.array([3.0, -1.0, 0.0, 0.0, 0.0])
    p, r = 4.0, 1.5
    want = p ** (1.0 - 1.0 / r) * np.sum(np.abs(x) ** r) ** (1.0 / r)
    assert rearranged_two_level_norm(x, p, r) == pytest.approx(want, rel=1e-12)


def test_rearranged_norm_validates_r_range():
    with pytest.raises(InputError):
        rearranged_two_level_norm([1.0, 2.0], 4.0, 3.0)
    with pytest.raises(InputError):
        two_level_equiv_norm([1.0], 4.0, 1.5)


@given(p=st.floats(1.0, 60.0), r=st.floats(1.0, 2.0), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_rearranged_norm_homogeneous(p, r, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(9)
    v = rearranged_two_level_norm(x, p, r)
    assert rearranged_two_level_norm(2.5 * x, p, r) == pytest.approx(2.5 * v, rel=1e-10)


# ---------------------------------------------------------------------------
# rows/vectorization

def test_eval_psi_rows_matches_scalar_loop():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((32, 4))
    for spec in (_power(1.5, dim=4), SeparableTwoLevel(dim=4, r=3.0),
                 SeparableFromPhi(dim=4, phi=PhiSpec(s=1.0)),
                 BobkovLedouxCap(dim=4, threshold=2.0)):
        rows = eval_psi_rows(spec, X)
        for i in range(len(X)):
            one = eval_psi(spec, X[i])
            if math.isinf(one):
                assert math.isinf(rows[i])
            else:
                assert rows[i] == pytest.approx(one, rel=1e-12)


def test_psi_p_norm_rows_matches_scalar_loop():
    # bit for bit, for closed forms and the iterative solve alike, with zero
    # rows and more rows than one internal block
    rng = np.random.default_rng(12)
    m = psi_mod._BLOCK + 300
    X = rng.standard_normal((m, 5)) * np.exp(rng.uniform(-3.0, 3.0, (m, 1)))
    X[::97] = 0.0
    picks = np.r_[0:8, psi_mod._BLOCK - 4:psi_mod._BLOCK + 4, m - 8:m,
                  rng.integers(0, m, 24)]
    for spec in (_power(1.5, q=3.0, dim=5), BobkovLedouxCap(dim=5, threshold=0.5),
                 SeparableTwoLevel(dim=5, r=3.0),
                 SeparableFromPhi(dim=5, phi=PhiSpec(s=1.5)),
                 UserSeparable(dim=5, fn=lambda u: np.abs(u) ** 3)):
        rows = psi_p_norm_rows(spec, 9.0, X)
        assert np.all(rows[::97] == 0.0)
        for i in picks:
            assert rows[i] == psi_p_norm(spec, 9.0, X[i])


def test_eval_psi_p_is_the_normalized_dilation():
    # Psi_p(x) = Psi(p x) / p, the integrand of the gauge constraint
    spec = _power(2.0, dim=3)
    x = np.array([1.0, 2.0, -2.0])
    assert eval_psi_p(spec, 5.0, x) == pytest.approx(
        eval_psi(spec, 5.0 * x) / 5.0, rel=1e-12)


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip_all_builtin_families():
    specs = [PowerNorm(dim=3, norm=1.0, a=1.5),
             PowerNorm(dim=2, norm=math.inf, a=2.0),
             SeparableTwoLevel(dim=4, r=2.5),
             SeparableFromPhi(dim=2, phi=PhiSpec(s=3.0)),
             BobkovLedouxCap(dim=5, threshold=0.75)]
    rng = np.random.default_rng(13)
    for spec in specs:
        back = psi_from_json(psi_to_json(spec))
        assert type(back) is type(spec)
        assert back.dim == spec.dim
        x = rng.standard_normal(spec.dim) * 0.3
        assert eval_psi(back, x) == pytest.approx(eval_psi(spec, x), rel=1e-12)


def test_json_rejects_unknown_and_missing_fields():
    with pytest.raises(InputError):
        psi_from_dict({"family": "PowerNorm", "params": {"norm": "l2", "a": 2},
                       "dim": 2, "extra": 1})
    with pytest.raises(InputError):
        psi_from_dict({"params": {}, "dim": 2})
    with pytest.raises(InputError):
        psi_from_dict({"family": "NoSuchFamily", "params": {}, "dim": 2})
    with pytest.raises(InputError):
        psi_from_json("not json at all {")


def test_user_separable_is_not_serializable():
    spec = UserSeparable(dim=2, fn=lambda u: np.abs(u) ** 3)
    with pytest.raises(InputError):
        psi_to_dict(spec)


def test_env_roundtrip_and_validation():
    env = GrowthEnvelope(K=2.0, alpha=1.5, beta=3.0, D=0.5, d=0.1)
    back = env_from_dict(env_to_dict(env))
    assert back == env
    for bad in (dict(K=0.5, alpha=2.0, beta=2.0),
                dict(K=1.0, alpha=2.5, beta=3.0),
                dict(K=1.0, alpha=2.0, beta=1.5),
                dict(K=1.0, alpha=2.0, beta=2.0, D=-1.0)):
        with pytest.raises(InputError):
            env_from_dict(bad)
    with pytest.raises(InputError):
        env_from_dict({"K": 1, "alpha": 2, "beta": 2, "bogus": 3})


# ---------------------------------------------------------------------------
# structural diagnostics

def test_condition_c_passes_on_builtins():
    for spec in (_power(1.5, dim=4), _power(2.0, dim=4),
                 SeparableTwoLevel(dim=4, r=3.0),
                 SeparableFromPhi(dim=4, phi=PhiSpec(s=2.0)),
                 BobkovLedouxCap(dim=4, threshold=1.0)):
        rep = check_condition_C(spec, ray_samples=8, seed=0)
        assert rep.passed, rep.violations


def test_condition_c_flags_a_decreasing_ratio_component():
    # sqrt growth makes Psi(tx)/t strictly decreasing
    bad = UserSeparable(dim=3, fn=lambda u: np.sqrt(np.abs(u)))
    rep = check_condition_C(bad, ray_samples=8, seed=0)
    assert not rep.passed
    assert any("C5" in v for v in rep.violations)


def test_check_growth_accepts_exact_power_envelope():
    spec = _power(2.0, dim=4)
    good = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0)
    assert check_growth(spec, good, ray_samples=8, seed=0).passed
    # beta = 2 cannot dominate a cubic component family
    cubic = SeparableFromPhi(dim=4, phi=PhiSpec(s=1.5))
    assert not check_growth(cubic, good, ray_samples=8, seed=0).passed


def test_power_norm_rejects_bad_exponents():
    with pytest.raises(InputError):
        PowerNorm(dim=2, norm=0.5, a=2.0)
    with pytest.raises(InputError):
        PowerNorm(dim=2, norm=2.0, a=0.9)
    with pytest.raises(InputError):
        SeparableTwoLevel(dim=2, r=1.0)
    with pytest.raises(InputError):
        BobkovLedouxCap(dim=2, threshold=0.0)


def test_vector_dimension_is_validated():
    spec = _power(2.0, dim=3)
    with pytest.raises(InputError):
        psi_p_norm(spec, 2.0, [1.0, 2.0])
