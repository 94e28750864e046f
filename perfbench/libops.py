"""Library ops: short calls for paths the CLI cannot reach.

    python3 perfbench/libops.py <op> <args...>

Each op prints its result at full precision (or writes a file), so its
output is checked like a CLI op's.
"""

import sys

import numpy as np

import orlicz_conc as oc


def _fmt(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in np.atleast_1d(values))


def phi_custom_sample(seed, rows, n):
    """ProductPhiTail with a custom Phi, which samples by bisection."""
    phi = oc.PhiSpec(fn=lambda t: 0.5 * (t * t + t * t * t))
    X = oc.sample(oc.SamplerSpec(oc.ProductPhiTail(phi, int(n)), int(seed), int(rows)))
    oc.save_samples(X, "phi_custom.bin", fmt="bin")


def profile_table_user(ts):
    """profile_table for a UserSeparable h(u) = |u|^3, which has no closed
    form omega and takes the numeric ray supremum at every grid point."""
    spec = oc.UserSeparable(dim=2, fn=lambda u: np.abs(u) ** 3, name="cube")
    for row in oc.profile_table(spec, [float(t) for t in ts.split(",")]):
        print(_fmt(row))


def support_argmax_from_phi(p, theta):
    """support_argmax over {Psi* <= p} for SeparableFromPhi s=1.5, the
    nested-Legendre path."""
    th = np.array([float(v) for v in theta.split(",")])
    spec = oc.SeparableFromPhi(dim=th.size, phi=oc.PhiSpec(s=1.5))
    value, y = oc.support_argmax(spec, float(p), th)
    print(_fmt(value))
    print(_fmt(y))


OPS = {"phi_custom_sample": phi_custom_sample,
       "profile_table_user": profile_table_user,
       "support_argmax_from_phi": support_argmax_from_phi}


def main(argv):
    OPS[argv[0]](*argv[1:])


if __name__ == "__main__":
    main(sys.argv[1:])
