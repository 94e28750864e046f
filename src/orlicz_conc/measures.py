"""Reference measures: exact samplers (counter-based, chunk-keyed Philox
streams), closed-form CDF/density/quantile for the heavy-tailed measure nu,
and its isoperimetric-type profile; `save_samples`, the sample writer.

Chunk j of a stream is generated from key (seed, j), so samples are
bit-identical however generation is scheduled across workers; its blocks
of solvers._BLOCK rows, drawn one after another, carry a whole-chunk draw's bits.
"""

from __future__ import annotations

import os
import sys
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .psi import PhiSpec
from .solvers import _BLOCK, _bracket_solve
from .tables import _out_stream, write_table

CHUNK = 65536  # rows keyed as one Philox stream
THREADS_ENV = "ORLICZ_CONC_THREADS"


class Family:
    """A reference measure on R^n with an exact chunked sampler. A subclass
    is a frozen dataclass with a field n; it owns `_draw`, which draws the
    next `rows` rows of a chunk from that chunk's Philox generator, and
    `meta`, its JSON form."""

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InputError(f"n must be an integer >= 1, got {self.n!r}")

    def _draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        raise NotImplementedError

    def _drawer(self, seed: int, j: int) -> Callable[[int], np.ndarray]:
        """draw(rows), which returns chunk j's next `rows` rows at each call."""
        rng = _chunk_rng(seed, j)
        return lambda rows: self._draw(rng, rows)

    def meta(self) -> dict:
        return {"family": type(self).__name__, "n": self.n}


@dataclass(frozen=True)
class StandardGaussian(Family):
    n: int

    def _draw(self, rng, rows):
        return rng.standard_normal((rows, self.n))


@dataclass(frozen=True)
class ProductPhiTail(Family):
    """Product of n i.i.d. symmetric variables with P(|Z| >= t) = exp(-phi(t))."""

    phi: PhiSpec
    n: int

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.phi, PhiSpec):
            raise InputError("phi must be a PhiSpec")

    def _drawer(self, seed, j):
        # the sign words follow the chunk's CHUNK * n uniforms, one 64-bit word
        # each: a second stream of the chunk, advanced past them in 4-word blocks
        rng, sign_rng = _chunk_rng(seed, j), _chunk_rng(seed, j)
        sign_rng.bit_generator.advance(CHUNK * self.n // 4)
        return lambda rows: self._draw(rng, rows, sign_rng)

    def _draw(self, rng, rows, sign_rng):
        size = rows * self.n
        z = _uniform_open(rng, (rows, self.n))
        z = _phi_inv_array(self.phi, np.negative(np.log(z, out=z), out=z))  # |Z|, in place
        # the sign draw rng.integers(0, 2) is bit 31 of each 32-bit half of a
        # 64-bit word, low half first; a draw of 0 sets the sign bit, in
        # place in the high half of each float (only a chunk's last draw may
        # have an odd size, whose last half word goes unread)
        signs = sign_rng.bit_generator.random_raw(-(-size // 2)).astype("<u8", copy=False).view("<u4")
        signs = np.bitwise_and(np.invert(signs, out=signs), 1 << 31, out=signs)[:size]
        high = z.reshape(-1).view(np.uint32)[int(sys.byteorder == "little")::2]
        np.bitwise_or(high, signs, out=high)
        return z

    def meta(self) -> dict:
        return {**super().meta(), "phi": {"s": self.phi.s, "custom": self.phi.fn is not None}}


@dataclass(frozen=True)
class NuMeasure(Family):
    """The 1-D measure with CDF F(x) = (1/2) e^{-e^{-x}+1} for x < 0."""

    n: int = 1

    def __post_init__(self):
        if self.n != 1:
            raise InputError("NuMeasure is one-dimensional; n must be 1")

    def _draw(self, rng, rows):
        return nu_quantile(_uniform_open(rng, (rows, 1)))


@dataclass(frozen=True)
class SamplerSpec:
    family: Family
    seed: int
    count: int

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise InputError(f"unknown sampler family {type(self.family).__name__}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise InputError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not (isinstance(self.count, int) and self.count >= 1):
            raise InputError(f"count must be an integer >= 1, got {self.count!r}")


def _chunk_rng(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


def _uniform_open(rng: np.random.Generator, shape) -> np.ndarray:
    # strictly inside (0,1): k 2^-53 for a 53-bit k, offset by half an ulp; the
    # top draw k = 2^53 - 1 rounds to 1, so it alone moves to the largest below 1
    u = rng.random(shape)
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def _phi_inv_array(phi: PhiSpec, y: np.ndarray) -> np.ndarray:
    """Vectorized phi^{-1}: closed form for powers, in place in a float y,
    otherwise the least a with Phi(a) >= y to float resolution, by the
    gauge's bracketing solve."""
    y = np.asarray(y, dtype=float)
    if phi.fn is None:
        return np.power(y, 1.0 / phi.s, out=y)
    flat = y.ravel()
    return _bracket_solve(lambda d, a: d - phi.phi(a), flat, np.ones_like(flat), 0.0,
                          "phi^{-1}").reshape(y.shape)


def map_streams(count: int, streams, fn: Callable, sink: Optional[Callable] = None):
    """fn(*blocks) over the first `count` rows of each (family, seed) stream
    in `streams`, in blocks of solvers._BLOCK rows: block i of every stream goes
    in together, and each result goes to sink(result), in block order on the
    calling thread.  Without a sink the results are returned: each lands at
    its block's rows of one array, or each entry of a tuple result at those
    rows of its own contiguous array.  Every chunk is keyed by (seed, j) and
    the block boundaries depend on `count` alone, so the ORLICZ_CONC_THREADS
    worker threads (default 1), each drawing one chunk's blocks at a time,
    change the schedule only, never the result.  A row's result may depend
    on how many rows its block has, as BLAS rounds a product by its shape."""
    specs = [SamplerSpec(family, seed, count) for family, seed in streams]
    if not specs:
        raise InputError("map_streams needs at least one (family, seed) stream")
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        workers = max(1, int(raw))
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    n_chunks = -(-count // CHUNK)

    def blocks(j):  # fn on each block of chunk j, drawn as the one before is taken
        rows = min(CHUNK, count - j * CHUNK)
        draws = [s.family._drawer(s.seed, j) for s in specs]
        for i in range(0, rows, _BLOCK):
            yield fn(*(draw(min(_BLOCK, rows - i)) for draw in draws))

    def parts():
        if workers == 1 or n_chunks == 1:
            for j in range(n_chunks):
                yield from blocks(j)
            return
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:  # closed on an error too
            # chunk j + 2 workers starts as chunk j is taken: at most that
            # many chunks' results wait, and no chunk waits for a slower one to start
            ahead = [pool.submit(list, blocks(j)) for j in range(min(2 * workers, n_chunks))]
            for j in range(len(ahead), n_chunks + len(ahead)):
                part = ahead.pop(0).result()
                if j < n_chunks:
                    ahead.append(pool.submit(list, blocks(j)))
                yield from part

    cols, filled, tupled = [], 0, False

    def collect(part):
        nonlocal filled, tupled
        tupled = isinstance(part, tuple)
        for i, e in enumerate(part if tupled else (part,)):
            if i == len(cols):  # the first block's entries size the arrays
                cols.append(np.empty((count, *e.shape[1:]), dtype=e.dtype))
            cols[i][filled:filled + len(e)] = e
        filled += len(e)

    with closing(parts()) as results:
        for part in results:
            (sink or collect)(part)
            del part  # no result is held while the next is drawn
    if sink is None:
        return tuple(cols) if tupled else cols[0]


def sample(spec: SamplerSpec) -> np.ndarray:
    """Full (count x n) sample matrix, filled block by block."""
    return map_streams(spec.count, [(spec.family, spec.seed)], lambda X: X)


def stream_samples(spec: SamplerSpec, path, fmt: str = "bin", header_lines=()) -> None:
    """save_samples(sample(spec), path, fmt, header_lines) byte for byte, with
    one block in memory at a time: the header, then each block as it is drawn."""
    with _out_stream(path, binary=fmt == "bin") as fh:
        save_samples(np.empty((0, spec.family.n)), fh, fmt, header_lines)  # the header alone
        map_streams(spec.count, [(spec.family, spec.seed)], lambda X: X,
                    sink=lambda X: save_samples(X, fh, fmt))


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

def save_samples(X: np.ndarray, path, fmt: str = "bin", header_lines=()) -> None:
    """bin: raw little-endian float64, row-major, no header.
    csv: comma-separated, 17 significant digits, optional '#' header lines.
    `path` may also be an open stream (binary for bin, text for csv), which
    is left open."""
    if fmt not in ("bin", "csv"):
        raise InputError(f"unknown sample format {fmt!r} (expected 'bin' or 'csv')")
    with _out_stream(path, binary=fmt == "bin") as fh:
        if fmt == "bin":
            fh.write(np.ascontiguousarray(X, dtype="<f8"))
        else:
            fh.writelines(f"# {line}\n" for line in header_lines)
            write_table(fh, None, X)
