#!/usr/bin/env python3
"""Empirical-to-predicted moment ratios for Gaussian quadratic forms.

For A symmetric and Z standard Gaussian, compares the empirical p-th moment of
Z^T A Z - E Z^T A Z against the five-term partition bound. Ratios should be
bounded and roughly flat in p; a ratio creeping past 1 would falsify the bound.
"""

import argparse

import numpy as np

import orlicz_conc as oc

BLOCK = 1024  # rows per X @ A product, bounding its temporary


def quadratic_forms(X, A):
    """x^T A x for each row x of X, one block of rows at a time."""
    out = np.empty(len(X))
    for i in range(0, len(X), BLOCK):
        rows = X[i:i + BLOCK]
        np.einsum("ij,ij->i", rows @ A, rows, out=out[i:i + BLOCK])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--N", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--r", type=float, default=4.0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(args.n)
    G = rng.standard_normal((args.n, args.n))
    mats = {
        "identity": np.eye(args.n),
        "rank-1": np.outer(u, u),
        "wigner": (G + G.T) / 2.0,
    }
    p_grid = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    family = oc.StandardGaussian(n=args.n)

    print(f"n={args.n} N={args.N} r={args.r}")
    print(f"{'matrix':>10s} " + " ".join(f"p={p:<5g}" for p in p_grid))
    for name, A in mats.items():
        M = oc.MultiIndexMatrix(k=2, n=args.n, data=A, symmetric=True)
        norms = oc.partition_norms(M, args.r, restarts=16, seed=args.seed)
        # all N rows of the stream, one chunk in memory at a time
        vals = oc.map_streams(args.N, [(family, args.seed + 1)],
                              lambda X: quadratic_forms(X, A)) - np.trace(A)
        ratios = [m / oc.quadratic_chaos_moment(norms, p)
                  for m, p in zip(oc.empirical_moment(vals, p_grid), p_grid)]
        print(f"{name:>10s} " + " ".join(f"{r:7.3f}" for r in ratios))


if __name__ == "__main__":
    main()
