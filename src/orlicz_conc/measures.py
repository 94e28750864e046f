"""Reference measures: exact samplers (counter-based, chunk-keyed Philox
streams), closed-form CDF/density/quantile for the heavy-tailed measure nu,
and its isoperimetric-type profile.

Chunk j of a stream is generated from key (seed, j), so samples are
bit-identical however generation is scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InputError
from .psi import PhiSpec

CHUNK = 65536


@dataclass(frozen=True)
class StandardGaussian:
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InputError(f"n must be an integer >= 1, got {self.n!r}")


@dataclass(frozen=True)
class ProductPhiTail:
    """Product of n i.i.d. symmetric variables with P(|Z| >= t) = exp(-phi(t))."""

    phi: PhiSpec
    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InputError(f"n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.phi, PhiSpec):
            raise InputError("phi must be a PhiSpec")


@dataclass(frozen=True)
class NuMeasure:
    """The 1-D measure with CDF F(x) = (1/2) e^{-e^{-x}+1} for x < 0."""

    n: int = 1

    def __post_init__(self):
        if self.n != 1:
            raise InputError("NuMeasure is one-dimensional; n must be 1")


Family = Union[StandardGaussian, ProductPhiTail, NuMeasure]


@dataclass(frozen=True)
class SamplerSpec:
    family: Family
    seed: int
    count: int

    def __post_init__(self):
        if not isinstance(self.family, (StandardGaussian, ProductPhiTail, NuMeasure)):
            raise InputError(f"unknown sampler family {type(self.family).__name__}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise InputError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise InputError(f"count must be an integer >= 1, got {self.count!r}")


def _chunk_rng(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    # strictly inside (0,1): 53-bit integers offset by half an ulp
    return (rng.integers(0, 1 << 53, size=shape).astype(np.float64) + 0.5) * 2.0 ** -53


def _phi_inv_array(phi: PhiSpec, y: np.ndarray) -> np.ndarray:
    """Vectorized phi^{-1}: closed form for powers, array bisection otherwise."""
    y = np.asarray(y, dtype=float)
    if phi.fn is None:
        return y ** (1.0 / phi.s)
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(200):
        low = phi.phi(hi) < y
        if not np.any(low):
            break
        hi[low] *= 2.0
    else:
        raise InputError("phi^{-1} bracket failed; phi grows too slowly")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ge = phi.phi(mid) >= y
        hi[ge] = mid[ge]
        lo[~ge] = mid[~ge]
    return 0.5 * (lo + hi)


def sample_chunk(family: Family, seed: int, j: int, rows: int) -> np.ndarray:
    """First `rows` rows of chunk j of the (family, seed) stream.

    The full chunk is always generated before slicing so that a partial
    request is a bit-exact prefix of the full chunk; rows <= CHUNK.
    """
    if not 0 < rows <= CHUNK:
        raise InputError(f"rows must lie in (0, {CHUNK}], got {rows}")
    rng = _chunk_rng(seed, j)
    if isinstance(family, StandardGaussian):
        return rng.standard_normal((CHUNK, family.n))[:rows]
    if isinstance(family, ProductPhiTail):
        u = _uniform_open(rng, (CHUNK, family.n))
        mags = _phi_inv_array(family.phi, -np.log(u))
        signs = 2.0 * rng.integers(0, 2, size=(CHUNK, family.n)) - 1.0
        return (mags * signs)[:rows]
    if isinstance(family, NuMeasure):
        return nu_quantile(_uniform_open(rng, (CHUNK, 1)))[:rows]
    raise InputError(f"unknown sampler family {type(family).__name__}")


def sample(spec: SamplerSpec) -> np.ndarray:
    """Full (count x n) sample matrix, assembled chunk by chunk."""
    out = []
    done = 0
    j = 0
    while done < spec.count:
        rows = min(CHUNK, spec.count - done)
        out.append(sample_chunk(spec.family, spec.seed, j, rows))
        done += rows
        j += 1
    return np.vstack(out)


# ---------------------------------------------------------------------------
# the measure nu

def nu_cdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        neg = 0.5 * np.exp(-np.exp(-x) + 1.0)
        pos = 1.0 - 0.5 * np.exp(-np.exp(x) + 1.0)
    out = np.where(x < 0.0, neg, pos)
    return float(out) if out.ndim == 0 else out


def nu_pdf(x):
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    with np.errstate(over="ignore"):
        out = 0.5 * np.exp(-(np.exp(ax) - (1.0 + ax)))
    return float(out) if out.ndim == 0 else out


def nu_quantile(u):
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise InputError("quantile argument must lie strictly in (0, 1)")
    with np.errstate(divide="ignore"):
        upper = np.log1p(np.log(1.0 / (2.0 * (1.0 - u))))
        lower = -np.log1p(np.log(1.0 / (2.0 * u)))
    out = np.where(u > 0.5, upper, lower)
    return float(out) if out.ndim == 0 else out


def isoperimetric_profile_nu(t):
    """Boundary-mass profile t (1 + log(1/(2t))) of nu on (0, 1/2]."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t > 0.5):
        raise InputError("profile argument must lie in (0, 1/2]")
    out = t * (1.0 + np.log(1.0 / (2.0 * t)))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# export

def save_samples(X: np.ndarray, path: str, fmt: str = "bin",
                 header_lines=()) -> None:
    """bin: raw little-endian float64, row-major, no header.
    csv: comma-separated, 17 significant digits, optional '#' header lines."""
    X = np.asarray(X, dtype=float)
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(X, dtype="<f8").tobytes())
        return
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            for row in np.atleast_2d(X):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return
    raise InputError(f"unknown sample format {fmt!r} (expected 'bin' or 'csv')")
