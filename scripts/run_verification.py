#!/usr/bin/env python3
"""Run the Monte Carlo verification battery at a configurable sample size and
print a one-line verdict per scenario.

The defaults (N = 2e5) keep the whole battery under ~10 s; the acceptance
suite re-runs the same scenarios at N = 1e6 with pinned seeds.
"""

import argparse
import math

import numpy as np

import orlicz_conc as oc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    N, seed = args.N, args.seed

    spec2 = oc.PowerNorm(dim=2, norm=2.0, a=2.0)
    env = oc.GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=2.0, d=0.0)
    ok = True

    rep = oc.verify_centered(oc.StandardGaussian(n=2),
                             oc.linear(np.array([1.0, 0.0])), spec2, env,
                             np.array([2.0, 4.0, 8.0, 16.0]), N, seed)
    good = math.isfinite(rep.fitted) and rep.fitted < 1.2
    ok &= good
    print(f"centered   gaussian/linear  fitted={rep.fitted:.4f} "
          f"ratios={np.round(rep.ratio, 3).tolist()} -> {'ok' if good else 'FAIL'}")

    nu = oc.verify_nu_logp(np.array([2.0, math.e ** 2, 16.0]), N, seed + 1)
    ok &= nu.passed
    print(f"nu-logp    moments in bands   emp={np.round(nu.emp, 3).tolist()} "
          f"-> {'ok' if nu.passed else 'FAIL'}")

    curve = oc.enlargement_mc(oc.StandardGaussian(n=2), 0.0, spec2,
                              np.array([0.25, 1.0, 4.0]), N, seed + 2,
                              env=oc.GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0,
                                                    D=1.0, d=0.0),
                              C_impl=0.2)
    # the Gaussian halfspace {x_1 < s(u)} with s(u) = 2 sqrt(u) has mass Phi(s(u))
    exact = np.array([0.5 * math.erfc(-z / math.sqrt(2.0))
                      for z in 2.0 * np.sqrt(curve.u_grid)])
    # band from the exact law's binomial SE: at u = 4 the expected number of
    # rows beyond s(u) is below one for N ~ 2e4, and the batch-means SE is 0
    se = np.sqrt(exact * (1.0 - exact) / N)
    good = bool(np.all(np.abs(curve.emp - exact) <= 3.0 * se))
    ok &= good
    print(f"enlarge    halfspace vs Phi   max|diff|={np.max(np.abs(curve.emp - exact)):.2e} "
          f"-> {'ok' if good else 'FAIL'}")

    for label, sampler, g, spc in (
            ("gaussian", oc.StandardGaussian(n=2),
             oc.exp_tilt(np.array([0.5, 0.0])), spec2),
            ("nu", oc.NuMeasure(), oc.exp_tilt(np.array([1.0])),
             oc.PowerNorm(dim=1, norm=2.0, a=1.0))):
        rep = oc.mlsi_report(sampler, g, spc, 2.0, N, seed + 3)
        ok &= rep.passed
        z = rep.residual / rep.se if rep.se > 0 else math.inf
        print(f"mlsi       {label:8s} tilt     z={z:+8.2f} -> {'ok' if rep.passed else 'FAIL'}")

    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
