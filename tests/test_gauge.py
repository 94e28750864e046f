"""Gauge solve: closed forms and the Chandrupatla solve against the
bracketed-bisection oracle, exact feasibility, and the iteration cap."""

import math

import numpy as np
import pytest

import orlicz_conc.cli as cli
from orlicz_conc import (BobkovLedouxCap, NumericalError, PhiSpec, PowerNorm,
                         SeparableFromPhi, SeparableTwoLevel, UserSeparable,
                         eval_psi_rows, psi_p_norm, psi_p_norm_rows)
from orlicz_conc import psi as psi_mod


def bisect_gauge(spec, p, X, tol=1e-12):
    """Reference gauge: doubling/halving bracket, then plain bisection until
    every row's relative width is at most tol; returns the feasible ends."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(X.shape[0])
    l2 = np.linalg.norm(X, axis=1)
    act = l2 > 0.0
    PX = p * X[act]

    def feasible(rows, a):
        return spec._eval_rows(PX[rows] / a[:, None]) <= p

    hi = l2[act].copy()
    every = np.arange(hi.size)
    need = ~feasible(every, hi)
    while np.any(need):
        hi[need] *= 2.0
        need[need] = ~feasible(every[need], hi[need])
    lo = 0.5 * hi
    still = feasible(every, lo)
    while np.any(still):
        hi[still] = lo[still]
        lo[still] *= 0.5
        still[still] = feasible(every[still], lo[still])
    for _ in range(200):
        if np.max((hi - lo) / hi, initial=0.0) <= tol:
            break
        mid = 0.5 * (lo + hi)
        feas = feasible(every, mid)
        hi[feas] = mid[feas]
        lo[~feas] = mid[~feas]
    else:
        raise AssertionError("oracle bisection did not converge")
    out[act] = hi
    return out


def _capped_square(u):
    # +inf beyond |u| = 2, the case the interpolation must bisect through
    with np.errstate(over="ignore"):
        return np.where(np.abs(u) <= 2.0, u * u, np.inf)


GAUGE_SPECS = (
    [PowerNorm(dim=6, norm=q, a=a) for q in (1.0, 2.0, math.inf) for a in (1.0, 1.5, 3.0)]
    + [BobkovLedouxCap(dim=6, threshold=0.5), BobkovLedouxCap(dim=6, threshold=2.0),
       SeparableTwoLevel(dim=6, r=1.5), SeparableTwoLevel(dim=6, r=3.0),
       SeparableFromPhi(dim=6, phi=PhiSpec(s=1.5)), SeparableFromPhi(dim=6, phi=PhiSpec(s=3.0)),
       UserSeparable(dim=6, fn=_capped_square, domain_bound=2.0, name="capped")])


def _rows(seed, m=400, dim=6):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, dim)) * np.exp(rng.uniform(-4.0, 4.0, (m, 1)))
    X[::37] = 0.0
    return X


@pytest.mark.parametrize("spec", GAUGE_SPECS, ids=lambda s: getattr(s, "name", None) or repr(s))
def test_gauge_matches_bisection_oracle_and_is_feasible(spec):
    for seed, p in enumerate((1.0, 4.0, 33.0)):
        X = _rows(seed)
        got = psi_p_norm_rows(spec, p, X)
        want = bisect_gauge(spec, p, X)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        nz = want > 0.0
        np.testing.assert_allclose(got[nz], want[nz], rtol=1e-9, atol=0.0)
        assert np.all(eval_psi_rows(spec, p * X[nz] / got[nz, None]) <= p)


def test_bobkov_ledoux_rows_on_the_cap_are_feasible():
    # one dominant coordinate puts the gauge on the cap term p|x|_inf/thr;
    # with thr = sqrt(p) a coordinate vector is on both terms at once
    rng = np.random.default_rng(4)
    m = 4000
    X = np.zeros((m, 5))
    X[:, 0] = np.exp(rng.uniform(-20.0, 20.0, m))
    X[m // 2:, 1:] = 1e-3 * X[m // 2:, :1] * rng.standard_normal((m - m // 2, 4))
    for thr, p in ((2.0, 4.0), (0.5, 4.0), (1.7, 3.3)):
        spec = BobkovLedouxCap(dim=5, threshold=thr)
        raw = spec._closed_gauge(p, X)
        got = psi_p_norm_rows(spec, p, X)
        assert np.all(eval_psi_rows(spec, p * X / got[:, None]) <= p)
        np.testing.assert_allclose(got, raw, rtol=1e-14, atol=0.0)
    # the rounding repair is exercised, not vacuous
    assert np.any(~(eval_psi_rows(spec, p * X / raw[:, None]) <= p))


def test_power_norm_rounding_repair_keeps_every_row_feasible():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5000, 16)) * np.exp(rng.uniform(-20.0, 20.0, (5000, 1)))
    for q in (1.0, 3.0, 7.5, math.inf):
        for a in (1.0, 1.5, 9.0):
            spec = PowerNorm(dim=16, norm=q, a=a)
            got = psi_p_norm_rows(spec, 5.7, X)
            assert np.all(eval_psi_rows(spec, 5.7 * X / got[:, None]) <= 5.7)
            np.testing.assert_allclose(got, spec._closed_gauge(5.7, X), rtol=1e-13, atol=0.0)


def test_iteration_cap_raises_numerical_error(monkeypatch, capsys):
    monkeypatch.setattr(psi_mod, "_SOLVE_MAX", 2)
    spec = SeparableTwoLevel(dim=3, r=3.0)
    with pytest.raises(NumericalError, match="did not converge"):
        psi_p_norm(spec, 4.0, np.array([1.0, -2.0, 0.5]))
    rc = cli.main(["norm", "--psi", '{"family":"SeparableTwoLevel","params":{"r":3},"dim":3}',
                   "--p", "4", "--x", "1,-2,0.5"])
    assert rc == 3
    assert '"numerical"' in capsys.readouterr().err


def test_tol_below_float_resolution_still_converges():
    spec = SeparableTwoLevel(dim=3, r=3.0)
    x = np.array([1.0, -2.0, 0.5])
    a = psi_p_norm(spec, 4.0, x, tol=1e-300)
    assert eval_psi_rows(spec, 4.0 * x[None, :] / a)[0] <= 4.0
    assert a == pytest.approx(bisect_gauge(spec, 4.0, x)[0], rel=1e-12)
