#!/usr/bin/env python3
"""Dump omega / omega_inv / omega_star / lambda tables for the built-in gauge
families to CSV, one file per instance. Useful for eyeballing how the tail
exponent profile changes across the family zoo."""

import argparse
import os

import numpy as np

from orlicz_conc import (BobkovLedouxCap, PhiSpec, PowerNorm,
                         SeparableFromPhi, SeparableTwoLevel, profile_table,
                         psi_to_dict, write_table)

INSTANCES = {
    "power_l2_a15": PowerNorm(dim=4, norm=2.0, a=1.5),
    "power_l2_a2": PowerNorm(dim=4, norm=2.0, a=2.0),
    "power_l3_a2": PowerNorm(dim=4, norm=3.0, a=2.0),
    "two_level_r2": SeparableTwoLevel(dim=4, r=2.0),
    "two_level_r3": SeparableTwoLevel(dim=4, r=3.0),
    "energy_s1": SeparableFromPhi(dim=4, phi=PhiSpec(s=1.0)),
    "energy_s2": SeparableFromPhi(dim=4, phi=PhiSpec(s=2.0)),
    "energy_s3": SeparableFromPhi(dim=4, phi=PhiSpec(s=3.0)),
    "capped_thr1": BobkovLedouxCap(dim=4, threshold=1.0),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="profiles")
    ap.add_argument("--t-lo", type=float, default=1e-3)
    ap.add_argument("--t-hi", type=float, default=1e3)
    ap.add_argument("--points", type=int, default=200)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    ts = np.geomspace(args.t_lo, args.t_hi, args.points)
    for name, spec in INSTANCES.items():
        path = os.path.join(args.out_dir, f"{name}.csv")
        write_table(path, psi_to_dict(spec), profile_table(spec, ts),
                    ["t", "omega", "omega_inv", "omega_star", "lambda"])
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
