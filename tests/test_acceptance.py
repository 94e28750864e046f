"""Acceptance suite: ten criteria, one test and one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion verdict
lines, or add -s to stream the measured quantities. Seeds are fixed; each
criterion re-derives its expected values from independent closed forms or
distributional oracles, never from the code under test.
"""

import math
import time

import numpy as np
from scipy import optimize, stats

import orlicz_conc as oc

P_GRID = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _report(k, text):
    print(f"[PASS] criterion {k}: {text}")


def test_criterion_01_closed_form_norm_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a = float(rng.choice([1.5, 2.0]))
        p = float(rng.uniform(1.0, 128.0))
        x = rng.standard_normal(20)
        spec = oc.PowerNorm(dim=20, norm=2.0, a=a)
        got = oc.psi_p_norm(spec, p, x)
        want = p ** (1.0 - 1.0 / a) * float(np.linalg.norm(x))
        worst = max(worst, abs(got - want) / want)
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    _report(1, f"1000 random gauges match p^(1/a*)|x|_2, worst rel err "
               f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_two_level_equivalence_band():
    rng = np.random.default_rng(202)
    lo, hi = math.inf, 0.0
    for i in range(1000):
        r = (2.0, 3.0, 4.0)[i % 3]
        p = float(rng.uniform(1.0, 128.0))
        n = int(rng.integers(2, 30))
        x = rng.standard_normal(n) * float(np.exp(rng.uniform(-2.0, 2.0)))
        spec = oc.SeparableTwoLevel(dim=n, r=r)
        equiv = math.sqrt(p) * np.linalg.norm(x) + p ** (1.0 - 1.0 / r) * np.linalg.norm(x, ord=r)
        ratio = oc.psi_p_norm(spec, p, x) / equiv
        lo, hi = min(lo, ratio), max(hi, ratio)
    assert 0.25 <= lo and hi <= 4.0
    _report(2, f"1000 random gauge/equivalent ratios in [{lo:.3f}, {hi:.3f}] "
               f"within [1/4, 4]")


def test_criterion_03_conjugacy_sandwich():
    start = time.monotonic()
    families = [
        oc.PowerNorm(dim=4, norm=2.0, a=1.5),
        oc.PowerNorm(dim=4, norm=2.0, a=2.0),
        oc.PowerNorm(dim=4, norm=3.0, a=2.0),
        oc.SeparableTwoLevel(dim=4, r=2.0),
        oc.SeparableTwoLevel(dim=4, r=3.0),
        oc.SeparableFromPhi(dim=4, phi=oc.PhiSpec(s=1.0)),
        oc.SeparableFromPhi(dim=4, phi=oc.PhiSpec(s=2.0)),
        oc.SeparableFromPhi(dim=4, phi=oc.PhiSpec(s=3.0)),
        oc.BobkovLedouxCap(dim=4, threshold=1.0),
    ]
    ts = np.geomspace(1e-3, 1e3, 200)
    checked = 0
    for spec in families:
        for t in ts:
            lo = oc.lam(spec, float(t))
            mid = oc.omega_star(spec, float(t))
            hi = oc.lam(spec, 2.0 * float(t))
            assert lo <= mid * (1.0 + 1e-6) + 1e-12
            assert mid <= hi * (1.0 + 1e-6) + 1e-12
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"lambda(t) <= omega*(t) <= lambda(2t) at {checked} points over "
               f"{len(families)} built-in instances, {elapsed:.1f}s")


def test_criterion_04_nu_measure_suite():
    start = time.monotonic()
    p_grid = np.array([2.0, math.e ** 2, 16.0, math.e ** 4])
    rep = oc.verify_nu_logp(p_grid, 1_000_000, 404)
    assert bool(np.all(rep.passed_lower)), rep.to_json_dict()
    assert bool(np.all(rep.passed_upper)), rep.to_json_dict()
    ts = np.linspace(1e-4, 0.5, 1000)
    prof = oc.isoperimetric_profile_nu(ts)
    assert bool(np.all(prof >= ts * np.log(1.0 / ts)))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, f"N=1e6 moments inside [log(p)/2e, |x|_1 + log p] bands at "
               f"p={np.round(p_grid, 2).tolist()}, profile dominates t log(1/t) "
               f"on 1000 points, {elapsed:.1f}s")


def test_criterion_05_gaussian_sobolev_ratio():
    fam = oc.StandardGaussian(n=20)
    X = oc.sample(oc.SamplerSpec(family=fam, seed=505, count=100_000))
    theta = np.zeros(20)
    theta[0] = 1.0
    vals = X @ theta
    centered = vals - vals.mean()
    # |grad f|_2 = 1 everywhere, so the denominator is sqrt(p) exactly
    ratios = [oc.empirical_moment(centered, p) / math.sqrt(p) for p in P_GRID]
    fitted = max(ratios)
    assert 0.5 <= fitted <= 1.2
    _report(5, f"fitted Sobolev constant {fitted:.4f} in [0.5, 1.2] "
               f"(per-p ratios {np.round(ratios, 3).tolist()})")


def test_criterion_06_quadratic_chaos_envelope():
    rng = np.random.default_rng(606)
    lo, hi = math.inf, 0.0
    for i in range(20):
        G = rng.standard_normal((10, 10))
        A = 0.5 * (G + G.T)
        M = oc.MultiIndexMatrix(2, 10, A, symmetric=True)
        pn = oc.partition_norms(M, 2.0, restarts=8, seed=606 + i)
        X = oc.sample(oc.SamplerSpec(family=oc.StandardGaussian(n=10),
                                     seed=6000 + i, count=100_000))
        Z = np.einsum("ni,ij,nj->n", X, A, X)
        Zc = Z - Z.mean()
        for p in P_GRID:
            ratio = oc.empirical_moment(Zc, p) / (math.sqrt(p) * pn.hs + p * pn.op)
            lo, hi = min(lo, ratio), max(hi, ratio)
    assert 0.05 <= lo and hi <= 10.0
    _report(6, f"120 chaos moment ratios across 20 matrices in "
               f"[{lo:.3f}, {hi:.3f}] within [0.05, 10]")


def test_criterion_07_partition_norm_closed_forms():
    for n in (4, 16, 64):
        for r in (2.0, 4.0):
            A = oc.MultiIndexMatrix(2, n, np.eye(n), symmetric=True)
            pn = oc.partition_norms(A, r, restarts=32, seed=7)
            for got, want in ((pn.hs, math.sqrt(n)), (pn.op, 1.0),
                              (pn.entry_lr, n ** (1.0 / r)),
                              (pn.mixed_2_rstar, 1.0), (pn.rstar_rstar, 1.0)):
                assert abs(got - want) <= 1e-8 * want, (n, r, got, want)
    rng = np.random.default_rng(77)
    worst = 0.0
    for r in (2.0, 4.0):
        u, v = rng.standard_normal(12), rng.standard_normal(12)
        A = oc.MultiIndexMatrix(2, 12, np.outer(u, v))
        pn = oc.partition_norms(A, r, restarts=32, seed=8)
        want = float(np.linalg.norm(u) * np.linalg.norm(v, ord=r))
        worst = max(worst, abs(pn.mixed_2_rstar - want) / want)
    assert worst <= 1e-6
    _report(7, f"identity closed forms exact to 1e-8 for n in (4,16,64), "
               f"r in (2,4); rank-1 mixed norm rel err {worst:.2e}")


def test_criterion_08_gaussian_halfspace_enlargement():
    fam = oc.StandardGaussian(n=2)
    spec = oc.PowerNorm(dim=2, norm=2.0, a=2.0)
    env = oc.GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0, d=0.0)
    c_impl = 0.2
    u_grid = np.array([0.25, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0])
    curve = oc.enlargement_mc(fam, 0.0, spec, u_grid, 1_000_000, 808,
                              env=env, C_impl=c_impl)
    # quarter-square conjugate: the enlargement is the halfspace {x1 < 2 sqrt(u)}
    for u in (0.25, 1.0, 4.0):
        i = int(np.searchsorted(curve.u_grid, u))
        exact = float(stats.norm.cdf(2.0 * math.sqrt(u)))
        assert abs(curve.emp[i] - exact) <= 3.0 * curve.se[i], (u, curve.emp[i], exact)
    assert bool(np.all(curve.emp >= curve.bound - 3.0 * curve.se))
    rho = oc.enlargement_rate(env, c_impl)
    u0 = (env.beta + math.log(2.0)) / rho
    beyond = curve.u_grid > u0
    assert int(np.sum(beyond)) >= 4
    slope = float(np.polyfit(curve.u_grid[beyond],
                             np.log(1.0 - curve.emp[beyond]), 1)[0])
    assert slope <= -1.0
    _report(8, f"halfspace mass matches Phi(2 sqrt(u)) within 3 SE at "
               f"u=(0.25,1,4); complement log-slope {slope:.2f} beyond the "
               f"zero-crossing u0={u0:.2f}")


def test_criterion_09_mlsi_residuals():
    spec2 = oc.PowerNorm(dim=2, norm=2.0, a=2.0)
    gauss = oc.mlsi_report(oc.StandardGaussian(n=2),
                           oc.exp_tilt(np.array([0.5, 0.0])), spec2, 2.0,
                           1_000_000, 9)
    assert not gauss.infinite
    assert gauss.residual >= -3.0 * gauss.se
    spec_abs = oc.PowerNorm(dim=1, norm=2.0, a=1.0)
    nu = oc.mlsi_report(oc.NuMeasure(), oc.exp_tilt(np.array([1.0])), spec_abs,
                        2.0, 1_000_000, 11)
    assert not nu.infinite
    assert nu.residual >= -3.0 * nu.se
    _report(9, f"tilt residuals: gaussian z={gauss.residual / gauss.se:+.2f}, "
               f"nu z={nu.residual / nu.se:+.2f}, both above -3")


def _chernoff_log_tail(lam, t):
    """log of the Chernoff bound on P(|Q - E Q| >= t) for the Gaussian chaos
    Q - E Q = sum_i lam_i (g_i^2 - 1): exp(-sup_s [s t - K(s)]) with the exact
    cumulant generating function K(s) = sum_i (-log(1 - 2 s lam_i)/2 - s lam_i),
    one term per sign of Q - E Q. Any s in (0, 1/(2 max lam)) gives an upper
    bound on the true tail, so a loose numeric sup only loosens it."""
    terms = []
    for signed in (lam, -lam):
        s_max = 0.5 / float(np.max(signed))

        def neg_rate(s):
            return -(s * t - float(np.sum(-0.5 * np.log1p(-2.0 * s * signed) - s * signed)))

        res = optimize.minimize_scalar(neg_rate, bounds=(0.0, s_max * (1.0 - 1e-9)),
                                       method="bounded", options={"xatol": 1e-12 * s_max})
        terms.append(float(res.fun))
    return float(np.logaddexp(*terms))


def test_criterion_10_bcg_tail_dominates_empirics():
    # Q(x) = x^T A x under the standard Gaussian, against the exact chaos law:
    # Q - tr A = sum_i lam_i (g_i^2 - 1) with lam = eigvalsh(A).  L = 2 is
    # Gross's log-Sobolev normalisation for the standard Gaussian,
    # Ent(f^2) <= 2 E|grad f|^2.
    rng = np.random.default_rng(707)
    G = rng.standard_normal((10, 10))
    A = 0.5 * (G + G.T)
    lam = np.linalg.eigvalsh(A)
    hess_hs, hess_op = 2.0 * float(np.linalg.norm(lam)), 2.0 * float(np.max(np.abs(lam)))
    f = oc.quadratic_form(oc.MultiIndexMatrix(2, 10, A, symmetric=True))
    X = oc.sample(oc.SamplerSpec(family=oc.StandardGaussian(n=10), seed=707,
                                 count=100_000))
    mean_grad = float(np.mean(np.linalg.norm(f.grad(X), axis=1)))
    L = 2.0

    # the oracle against the sampled law at 1-4 standard deviations of Q
    Zc = np.abs(f.f(X) - float(np.sum(lam)))
    sd = math.sqrt(2.0) * float(np.linalg.norm(lam))
    sampled = []
    for k in (1.0, 2.0, 3.0, 4.0):
        emp, chern = float(np.mean(Zc >= k * sd)), math.exp(_chernoff_log_tail(lam, k * sd))
        assert emp <= chern, (k, emp, chern)
        sampled.append(f"{k:g}sd {emp:.3g}<={chern:.3g}")

    # bcg_tail above the Chernoff bound certifies bcg_tail above the truth
    a = 2.0 * math.e * (math.sqrt(2.0) * L * L * hess_hs + L * mean_grad)
    ts = a * np.geomspace(1.0, 16.0, 65)
    bound = oc.bcg_tail(L, hess_hs, mean_grad, hess_op, ts)
    grid = (bound >= 1e-12) & (bound <= 0.5)
    assert np.count_nonzero(grid) >= 20
    ratios = []
    for t, b in zip(ts[grid], bound[grid]):
        log_chern = _chernoff_log_tail(lam, t)
        assert math.log(b) >= log_chern, (t / a, b, log_chern)
        ratios.append(math.log(b) / log_chern)
    _report(10, f"Chernoff above the sampled tail ({'; '.join(sampled)}); bcg_tail above "
                f"Chernoff on t = {ts[grid][0] / a:.2f}a..{ts[grid][-1] / a:.2f}a, "
                f"log(bound)/log(Chernoff) {min(ratios):.3f}..{max(ratios):.3f}")
