"""Reference measures: exact samplers, densities, quantiles, reproducibility."""

import math
import pathlib
import runpy
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

import frozen_chunk_draw
import orlicz_conc as oc
import orlicz_conc.measures as ms
from orlicz_conc import (InputError, NuMeasure, PhiSpec, ProductPhiTail,
                         SamplerSpec, StandardGaussian,
                         isoperimetric_profile_nu, nu_cdf, nu_pdf,
                         nu_quantile, sample, save_samples)


SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _draw(family, seed, count):
    return sample(SamplerSpec(family=family, seed=seed, count=count))


# ---------------------------------------------------------------------------
# determinism

def test_streams_are_bit_identical():
    spec = SamplerSpec(family=StandardGaussian(n=3), seed=42, count=5000)
    np.testing.assert_array_equal(sample(spec), sample(spec))


def test_prefix_consistency_across_chunk_boundaries():
    fam = ProductPhiTail(PhiSpec(s=2.0), n=2)
    long = _draw(fam, 7, ms.CHUNK + 4500)
    short = _draw(fam, 7, ms.CHUNK + 100)
    np.testing.assert_array_equal(long[: ms.CHUNK + 100], short)


def test_sample_over_three_chunks_matches_one_worker(monkeypatch):
    spec = SamplerSpec(family=ProductPhiTail(PhiSpec(s=1.5), n=2), seed=3,
                       count=2 * ms.CHUNK + 17)
    monkeypatch.setenv(ms.THREADS_ENV, "1")
    one = sample(spec)
    monkeypatch.setenv(ms.THREADS_ENV, "4")
    four = sample(spec)
    assert one.tobytes() == four.tobytes()
    np.testing.assert_array_equal(one[2 * ms.CHUNK:], spec.family._drawer(3, 2)(17))


@pytest.mark.parametrize("family", [
    StandardGaussian(n=3), ProductPhiTail(PhiSpec(s=1.5), n=2), NuMeasure(),
    ProductPhiTail(PhiSpec(fn=lambda t: np.abs(t) ** 1.5), n=1),
], ids=["gaussian", "phi_tail", "nu", "custom_phi"])
def test_a_short_chunk_is_the_full_chunks_prefix(family):
    # only the requested rows are computed, yet they are the full chunk's
    full = family._drawer(5, 2)(ms.CHUNK)
    assert full.shape == (ms.CHUNK, family.n)
    for rows in (1, 777, ms.CHUNK - 1, ms.CHUNK):
        np.testing.assert_array_equal(family._drawer(5, 2)(rows), full[:rows])


@pytest.mark.parametrize("count, family, seed, match", [
    (0, StandardGaussian(n=1), 0, "count"),
    (10, "gaussian", 0, "family"),
    (10, StandardGaussian(n=1), -1, "seed"),
    (10, StandardGaussian(n=1), 2 ** 64, "seed"),
], ids=["zero_count", "not_a_family", "negative_seed", "seed_2_64"])
def test_map_streams_refuses_bad_streams(count, family, seed, match):
    with pytest.raises(InputError, match=match):
        ms.map_streams(count, [(StandardGaussian(n=1), 0), (family, seed)], lambda X, Z: X)


def test_map_streams_needs_a_stream():
    with pytest.raises(InputError, match="stream"):
        ms.map_streams(10, [], lambda: np.zeros(10))


def test_map_streams_rejects_a_malformed_thread_count(monkeypatch):
    monkeypatch.setenv(ms.THREADS_ENV, "two")
    with pytest.raises(InputError, match=ms.THREADS_ENV):
        ms.map_streams(10, [(StandardGaussian(n=1), 0)], lambda X: X)


def test_map_streams_raises_a_worker_error(monkeypatch):
    def fn(X):
        if X[0, 0] == first:
            raise InputError("chunk 1")
        return X

    first = StandardGaussian(n=1)._drawer(0, 1)(1)[0, 0]
    monkeypatch.setenv(ms.THREADS_ENV, "2")
    with pytest.raises(InputError, match="chunk 1"):
        ms.map_streams(2 * ms.CHUNK, [(StandardGaussian(n=1), 0)], fn)


@pytest.mark.parametrize("count", [1, ms.CHUNK + 1, 2 * ms.CHUNK + 17])
def test_a_tuple_job_fills_one_contiguous_column_per_entry(monkeypatch, count):
    # each entry of a tuple result is its own count-row array, bit for bit
    # the run of that entry alone, on one thread and on four
    streams = [(ProductPhiTail(PhiSpec(s=1.5), n=2), 3), (StandardGaussian(n=2), 4)]
    entries = (lambda X, Z: X[:, 0] * Z[:, 1], lambda X, Z: X + Z, lambda X, Z: np.sum(X, axis=1))
    for threads in ("1", "4"):
        monkeypatch.setenv(ms.THREADS_ENV, threads)
        cols = ms.map_streams(count, streams, lambda X, Z: tuple(e(X, Z) for e in entries))
        assert isinstance(cols, tuple) and len(cols) == len(entries)
        for col, entry in zip(cols, entries):
            assert col.flags.c_contiguous and len(col) == count
            assert col.tobytes() == ms.map_streams(count, streams, entry).tobytes()
        (only,) = ms.map_streams(count, streams, lambda X, Z: (entries[0](X, Z),))
        assert only.tobytes() == cols[0].tobytes()


def test_chunks_depend_only_on_seed_and_index():
    one = StandardGaussian(n=2)._drawer(9, 3)(100)
    two = StandardGaussian(n=2)._drawer(9, 3)(100)
    other = StandardGaussian(n=2)._drawer(9, 4)(100)
    np.testing.assert_array_equal(one, two)
    assert np.any(one != other)


def test_uniforms_are_strictly_inside_the_unit_interval():
    u = ms._uniform_open(np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64))), 200000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_extreme_uniform_draws_stay_inside_the_unit_interval():
    # k 2^-53 + 2^-54 rounds to 1 for the top draw k = 2^53 - 1
    class Stub:
        def random(self, size):
            k = np.array([0, 2 ** 52 + 1, 2 ** 53 - 1], dtype=np.float64)
            return (k * 2.0 ** -53).reshape(size)

    u = ms._uniform_open(Stub(), (3,))
    assert np.all((u > 0.0) & (u < 1.0))
    np.testing.assert_array_equal(u[:2], [0.5 * 2.0 ** -53, (2.0 ** 52 + 1.5) * 2.0 ** -53])
    assert u[2] == 1.0 - 2.0 ** -53


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _old_uniform_open(rng, shape):
    # the 53-bit integer formula the uniforms had before rng.random
    u = (rng.integers(0, 1 << 53, size=shape).astype(np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_uniforms_equal_the_53_bit_integer_formula(seed):
    # bit for bit, from the same 64-bit draws: the sign draws after them agree
    new, old = _philox(seed), _philox(seed)
    np.testing.assert_array_equal(ms._uniform_open(new, (5000, 3)), _old_uniform_open(old, (5000, 3)))
    np.testing.assert_array_equal(new.integers(0, 2, size=1000), old.integers(0, 2, size=1000))


def _old_phi_tail_draw(family, rng, rows):
    # ProductPhiTail._draw before its transforms were taken in place
    u = _old_uniform_open(rng, (ms.CHUNK, family.n))[:rows]
    y = -np.log(u)
    mags = y ** (1.0 / family.phi.s) if family.phi.fn is None else ms._phi_inv_array(family.phi, y)
    return mags * (2.0 * rng.integers(0, 2, size=(rows, family.n)) - 1.0)


@pytest.mark.parametrize("family", [
    ProductPhiTail(PhiSpec(s=1.5), n=3), ProductPhiTail(PhiSpec(s=2.0), n=2),
    ProductPhiTail(PhiSpec(fn=lambda t: 0.5 * (t * t + t)), n=1),
    ProductPhiTail(PhiSpec(s=1.5), n=8),
], ids=["power", "power_sqrt", "custom", "power_n8"])
def test_phi_tail_draw_equals_the_old_formula(family):
    # a short chunk draws only its own uniforms and skips the rest of the
    # chunk's Philox blocks; odd rows * n leaves half a word of sign draws
    for j, rows in enumerate((1, 3, 777, 5000, 16384, ms.CHUNK - 1, ms.CHUNK)):
        got = family._drawer(11, j)(rows)
        want = _old_phi_tail_draw(family, ms._chunk_rng(11, j), rows)
        assert got.tobytes() == want.tobytes(), rows


BLOCKED_FAMILIES = [
    StandardGaussian(n=1), StandardGaussian(n=3), StandardGaussian(n=8),
    ProductPhiTail(PhiSpec(s=1.0), n=3), ProductPhiTail(PhiSpec(s=1.5), n=3),
    ProductPhiTail(PhiSpec(s=3.0), n=1),
    ProductPhiTail(PhiSpec(fn=lambda t: 0.5 * (t * t + t)), n=1), NuMeasure(),
]


@pytest.mark.parametrize("count", [ms.CHUNK - 1, ms.CHUNK, ms.CHUNK + 1, 2 * ms.CHUNK + 777])
@pytest.mark.parametrize("family", BLOCKED_FAMILIES, ids=["gaussian1", "gaussian3", "gaussian8",
                                                     "phi_s1", "phi_s1.5", "phi_s3",
                                                     "phi_custom", "nu"])
def test_blocked_draws_equal_whole_chunk_draws(monkeypatch, tmp_path, family, count):
    # every block is the next rows of its chunk's stream: map_streams,
    # sample and stream_samples give the whole-chunk draws byte for byte,
    # an odd last rows * n included, on one thread and on two
    want = frozen_chunk_draw.sample(family, 7, count)
    other = frozen_chunk_draw.sample(StandardGaussian(n=2), 8, count)
    spec = SamplerSpec(family, 7, count)
    for threads in ("1", "2"):
        monkeypatch.setenv(ms.THREADS_ENV, threads)
        sizes = []
        X, Z = ms.map_streams(count, [(family, 7), (StandardGaussian(n=2), 8)],
                              lambda X, Z: sizes.append(len(X)) or (X, Z))
        assert X.tobytes() == want.tobytes() and Z.tobytes() == other.tobytes(), threads
        full, last = divmod(count, ms._BLOCK)
        assert sorted(sizes) == sorted([ms._BLOCK] * full + [last] * (last > 0))
        assert sample(spec).tobytes() == want.tobytes(), threads
        ms.stream_samples(spec, str(tmp_path / "s.bin"))
        assert (tmp_path / "s.bin").read_bytes() == want.tobytes(), threads


@pytest.mark.parametrize("count", [1, ms._BLOCK + 1, 2 * ms._BLOCK + 777])
def test_blocked_draws_at_n_512_equal_whole_chunk_draws(count):
    # within one chunk, as a chunk of 512 columns holds 268 MB
    want = frozen_chunk_draw.sample(StandardGaussian(n=512), 2, count)
    blocks = []
    ms.map_streams(count, [(StandardGaussian(n=512), 2)], lambda X: X, sink=blocks.append)
    assert [len(b) for b in blocks] == [ms._BLOCK] * (count // ms._BLOCK) + [count % ms._BLOCK]
    assert b"".join(b.tobytes() for b in blocks) == want.tobytes()


def test_chaos_ratio_study_reads_every_requested_row(monkeypatch, capsys):
    sizes = []
    moment = oc.empirical_moment
    monkeypatch.setattr(oc, "empirical_moment", lambda v, p: sizes.append(v.size) or moment(v, p))
    monkeypatch.setattr(sys, "argv", ["chaos_ratio_study.py", "--n", "4", "--N", "70000"])
    runpy.run_path(str(SCRIPTS / "chaos_ratio_study.py"), run_name="__main__")
    assert "N=70000" in capsys.readouterr().out
    assert sizes and set(sizes) == {70000}


# ---------------------------------------------------------------------------
# distributional checks

def test_gaussian_ks():
    x = _draw(StandardGaussian(n=1), 11, 20000).ravel()
    assert stats.kstest(x, "norm").pvalue > 1e-3


def test_nu_ks_against_its_cdf():
    x = _draw(NuMeasure(), 12, 20000).ravel()
    assert stats.kstest(x, nu_cdf).pvalue > 1e-3


def test_phi_tail_survival_and_moments():
    # P(|Z| > t) = exp(-t^s) by construction
    fam = ProductPhiTail(PhiSpec(s=2.0), n=1)
    x = _draw(fam, 13, 200000).ravel()
    absx = np.abs(x)
    for t in (0.3, 0.8, 1.5):
        emp = float(np.mean(absx > t))
        want = math.exp(-t * t)
        se = math.sqrt(want * (1.0 - want) / len(x))
        assert abs(emp - want) <= 4.0 * se
    # E|Z|^p = Gamma(p/s + 1) for the pure power tail
    for p in (1.0, 3.0):
        want = float(special.gamma(p / 2.0 + 1.0))
        emp = float(np.mean(absx ** p))
        se = float(np.std(absx ** p) / math.sqrt(len(x)))
        assert abs(emp - want) <= 4.0 * se
    # signs are symmetric and independent of magnitudes
    assert abs(float(np.mean(np.sign(x)))) <= 4.0 / math.sqrt(len(x))


def test_phi_tail_custom_component_quantile_bisect():
    # normalized phi(t) = (t^2 + t)/2 as a callable exercises the numeric inverse
    fam = ProductPhiTail(PhiSpec(s=2.0, fn=lambda t: (t * t + t) / 2.0), n=1)
    x = np.abs(_draw(fam, 14, 100000).ravel())
    for t in (0.25, 0.75):
        emp = float(np.mean(x > t))
        want = math.exp(-(t * t + t) / 2.0)
        se = math.sqrt(want * (1.0 - want) / len(x))
        assert abs(emp - want) <= 4.0 * se


# ---------------------------------------------------------------------------
# nu closed forms

def test_nu_cdf_pdf_consistency():
    total, _ = integrate.quad(nu_pdf, -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    for x in (-2.0, -0.5, 0.0, 0.7, 3.0):
        num, _ = integrate.quad(nu_pdf, -np.inf, x)
        assert nu_cdf(x) == pytest.approx(num, abs=1e-9)


def test_nu_quantile_roundtrip():
    qs = np.linspace(1e-6, 1.0 - 1e-6, 101)
    back = nu_cdf(nu_quantile(qs))
    np.testing.assert_allclose(back, qs, atol=1e-12)


def test_nu_median_and_symmetry():
    assert nu_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    xs = np.array([0.3, 1.1, 2.5])
    np.testing.assert_allclose(nu_cdf(-xs), 1.0 - nu_cdf(xs), atol=1e-14)
    np.testing.assert_allclose(nu_pdf(-xs), nu_pdf(xs), atol=1e-14)


def test_isoperimetric_profile_formula():
    ts = np.array([0.05, 0.2, 0.5])
    np.testing.assert_allclose(isoperimetric_profile_nu(ts),
                               ts * (1.0 + np.log(1.0 / (2.0 * ts))), rtol=1e-14)
    assert isoperimetric_profile_nu(0.5) == pytest.approx(0.5, rel=1e-14)


def test_nu_profile_lower_bounds_the_gaussian_like_target():
    ts = np.linspace(1e-4, 0.5, 500)
    assert np.all(isoperimetric_profile_nu(ts) >= ts * np.log(1.0 / ts))


# ---------------------------------------------------------------------------
# persistence and validation

def test_save_samples_roundtrip(tmp_path):
    X = _draw(StandardGaussian(n=3), 15, 64)
    b = str(tmp_path / "x.bin")
    save_samples(X, b, fmt="bin")
    back = np.fromfile(b, dtype=np.float64).reshape(64, 3)
    np.testing.assert_array_equal(back, X)
    c = str(tmp_path / "x.csv")
    save_samples(X, c, fmt="csv", header_lines=["config: {}"])
    with open(c) as fh:
        first = fh.readline()
    assert first.startswith("# config:")
    np.testing.assert_allclose(np.loadtxt(c, delimiter=",", comments="#"), X, rtol=1e-15)


@pytest.mark.parametrize("count", [1, ms.CHUNK, ms.CHUNK + 1, 2 * ms.CHUNK + 5])
def test_streamed_samples_equal_the_saved_matrix(monkeypatch, tmp_path, count):
    header = ["config: {}"]
    for fmt, family in (("bin", StandardGaussian(n=2)), ("csv", ProductPhiTail(PhiSpec(s=1.5), n=1))):
        spec = SamplerSpec(family=family, seed=6, count=count)
        want = tmp_path / f"want.{fmt}"
        save_samples(sample(spec), str(want), fmt=fmt, header_lines=header)
        for threads in ("1", "2"):
            monkeypatch.setenv(ms.THREADS_ENV, threads)
            got = tmp_path / f"got{threads}.{fmt}"
            ms.stream_samples(spec, str(got), fmt=fmt, header_lines=header)
            assert got.read_bytes() == want.read_bytes(), (fmt, threads)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_samples_hold_one_block(tmp_path):
    # the peak does not grow with the count: 8 chunks peak within one block
    # of 2 chunks, where the whole matrix would be 6 chunks more, and below
    # two blocks, where one chunk would be 8 blocks
    family = StandardGaussian(n=4)
    block = ms._BLOCK * family.n * 8
    peaks = [_peak_bytes(lambda: ms.stream_samples(SamplerSpec(family, 1, chunks * ms.CHUNK),
                                                   str(tmp_path / "s.bin")))
             for chunks in (2, 8)]
    assert peaks[1] - peaks[0] <= block
    assert peaks[1] <= 2 * block


def test_sampler_spec_validation():
    with pytest.raises(InputError):
        SamplerSpec(family=StandardGaussian(n=1), seed=0, count=0)
    with pytest.raises(InputError):
        StandardGaussian(n=0)
    with pytest.raises(InputError):
        save_samples(np.zeros((2, 2)), "/tmp/never.xyz", fmt="parquet")
