"""The samplers as they drew a whole chunk at a time, before chunks were
drawn in blocks: chunk j's first `rows` rows in one call on its Philox
stream, the phi-tail sign words read after skipping the rest of the chunk's
uniforms.  The reference that blocked draws must equal byte for byte."""

import sys

import numpy as np

import orlicz_conc.measures as ms

CHUNK = 65536


def _draw(family, rng, rows):
    if isinstance(family, ms.StandardGaussian):
        return rng.standard_normal((rows, family.n))
    if isinstance(family, ms.NuMeasure):
        return ms.nu_quantile(ms._uniform_open(rng, (rows, 1)))
    assert isinstance(family, ms.ProductPhiTail)
    size = rows * family.n
    z = ms._uniform_open(rng, (rows, family.n))
    # the sign draws follow all CHUNK * n uniforms, one 64-bit word each;
    # Philox advances in blocks of four words, and a partly read block
    # counts whole, so the rest of the chunk is this many blocks
    rng.bit_generator.advance((CHUNK - rows) * family.n // 4)
    z = ms._phi_inv_array(family.phi, np.negative(np.log(z, out=z), out=z))
    signs = rng.bit_generator.random_raw(-(-size // 2)).astype("<u8", copy=False).view("<u4")
    signs = np.bitwise_and(np.invert(signs, out=signs), 1 << 31, out=signs)[:size]
    high = z.reshape(-1).view(np.uint32)[int(sys.byteorder == "little")::2]
    np.bitwise_or(high, signs, out=high)
    return z


def sample(family, seed: int, count: int) -> np.ndarray:
    """The (count x n) matrix, chunk j drawn whole from key (seed, j)."""
    chunks = []
    for j in range(-(-count // CHUNK)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
        chunks.append(_draw(family, rng, min(CHUNK, count - j * CHUNK)))
    return np.concatenate(chunks)
