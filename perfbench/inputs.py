"""Build one workload's input files from its seed.

    python3 perfbench/inputs.py <workload> <seed> <out-dir>

Writes the matrices and row files the ops read, plus params.json holding the
seeded vectors and per-op seeds. run.py runs it in a fresh interpreter and
times it as the benchmark's set-up. It uses numpy only, never orlicz_conc,
so the program under test sees nothing but the generated files and flags.
"""

import json
import os
import sys

import numpy as np

from workloads import GAUGE_XFILE_ROWS

def _vec(rng, n):
    return ",".join(f"{v:.17g}" for v in rng.standard_normal(n))


def _seeds(rng, names):
    return {name: int(rng.integers(0, 2 ** 32)) for name in names}


def _save_matrix(path, M):
    np.savetxt(path, M, fmt="%.17g")


def _wigner(rng, n):
    G = rng.standard_normal((n, n))
    return (G + G.T) / 2.0


def _fixed_spectrum(rng, n):
    """Symmetric matrix with eigenvalues linspace(-1, 2, n) in a seeded random
    eigenbasis. The fixed gap between the top two singular values lets the
    PowerNorm chaos term converge to its closed form R^2 ||M||_op."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    M = (Q * np.linspace(-1.0, 2.0, n)) @ Q.T
    return (M + M.T) / 2.0


def gauge_mc(rng, out):
    _save_matrix(os.path.join(out, "wigner8.txt"), _wigner(rng, 8))
    rows = rng.standard_normal((GAUGE_XFILE_ROWS, 8))
    np.savetxt(os.path.join(out, "rows8.csv"), rows, fmt="%.17g", delimiter=",")
    return {"theta2": _vec(rng, 2),
            "seeds": _seeds(rng, ["quadratic", "blcap", "phi_tail", "linear"])}


def sample_short(rng, out):
    _save_matrix(os.path.join(out, "wigner8.txt"), _wigner(rng, 8))
    # a tilt of norm 0.5 keeps the exp-tilt MLSI estimate well inside its band
    tilt = rng.standard_normal(2)
    tilt *= 0.5 / np.linalg.norm(tilt)
    return {"x8_norm": _vec(rng, 8), "y8": _vec(rng, 8), "x4_gk": _vec(rng, 4),
            "x8_form": _vec(rng, 8), "tilt2": ",".join(f"{v:.17g}" for v in tilt),
            "seeds": _seeds(rng, ["nu_logp", "comparison", "enlargement", "mlsi",
                                  "sample_bin", "sample_csv", "phi_custom"])}


def profiles(rng, out):
    # The profile ops read no seeded input: the conjugacy path is
    # deterministic in its grid, so one reference serves every seed.
    return {}


def chaos(rng, out):
    _save_matrix(os.path.join(out, "wigner16_fixed.txt"),
                 _wigner(np.random.default_rng([0, 5, 16]), 16))
    _save_matrix(os.path.join(out, "spectral16.txt"), _fixed_spectrum(rng, 16))
    _save_matrix(os.path.join(out, "wigner64.txt"), _wigner(rng, 64))
    return {"theta4_support": _vec(rng, 4), "theta4_argmax": _vec(rng, 4),
            "seeds": _seeds(rng, ["power", "partition", "ratio_study"])}


# workload -> (stream id, generator); one stream per workload, so adding an
# input to one workload leaves the inputs of the others unchanged
GENERATORS = {"gauge_mc": (1, gauge_mc), "sample_short": (2, sample_short),
            "profiles": (3, profiles), "chaos": (4, chaos)}


def main(argv):
    workload, seed, out = argv[0], int(argv[1]), argv[2]
    if workload not in GENERATORS:
        raise SystemExit(f"unknown workload {workload!r}")
    stream, build = GENERATORS[workload]
    os.makedirs(out, exist_ok=True)
    params = build(np.random.default_rng([seed % 2 ** 64, stream]), out)
    with open(os.path.join(out, "params.json"), "w") as fh:
        json.dump(params, fh, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
