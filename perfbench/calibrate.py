"""Fixed reference work that does not touch the program under test.

    python3 perfbench/calibrate.py

An interpreter start, the program's heavy third-party imports, a scalar
Python loop like the program's golden-section and bisection loops, and a
few small numpy kernels. run.py times it between ops and scales the
end-to-end times by REFERENCE_S / (its median time in the run): on a host
whose speed drifts by tens of percent over a minute, the ratio of op time
to reference time holds still where raw seconds do not.
"""

import math

import numpy as np
import scipy.special  # noqa: F401  (the import the program pays for)


def main():
    acc = 0.0
    for i in range(1, 150_000):
        acc += math.log(i) * math.exp(-1.0 / i)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    for _ in range(20):
        a = np.tanh(a @ a.T / 256.0)
    x = rng.standard_normal(1 << 18)
    for _ in range(20):
        x = np.sort(np.sqrt(np.abs(x) + 1.0))
    if not (math.isfinite(acc) and np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
