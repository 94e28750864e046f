"""Monte Carlo harness: estimators, test functions, verification reports."""

import json
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

import orlicz_conc.empirics as em
import orlicz_conc.measures as ms
from orlicz_conc import (CHUNK, BobkovLedouxCap, Family, GrowthEnvelope,
                         InputError, MultiIndexMatrix, PhiSpec,
                         PowerNorm, ProductPhiTail, SamplerSpec, SeparableFromPhi,
                         SeparableTwoLevel, StandardGaussian,
                         UserSeparable, batch_se, comparison_check,
                         empirical_entropy, empirical_moment, enlargement_mc,
                         euclidean_norm, exp_tilt, linear, max_coordinate,
                         mlsi_report, quadratic_form, sample,
                         top_mass_fraction, verify_centered, verify_nu_logp)

ENV22 = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=2.0, d=0.0)
SPEC2 = PowerNorm(dim=2, norm=2.0, a=2.0)


# ---------------------------------------------------------------------------
# estimators

def test_empirical_moment_exact_small_cases():
    assert empirical_moment(np.array([3.0, 4.0]), 2.0) == pytest.approx(
        math.sqrt(12.5), rel=1e-12)
    assert empirical_moment(np.array([-2.0, 2.0]), 5.0) == pytest.approx(2.0, rel=1e-12)


def test_empirical_moment_is_stable_at_high_p():
    vals = np.array([1.0, 2.0])
    want = ((1.0 + 2.0 ** 128) / 2.0) ** (1.0 / 128.0)
    assert empirical_moment(vals, 128.0) == pytest.approx(want, rel=1e-12)
    big = np.full(1000, 1e12)
    assert empirical_moment(big, 64.0) == pytest.approx(1e12, rel=1e-10)


def test_empirical_moment_monotone_in_p():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(500)
    ms = [empirical_moment(v, p) for p in (1.0, 2.0, 4.0, 16.0, 64.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(ms, ms[1:]))


def test_empirical_entropy_two_point_value():
    # Ent of {1, e} under the empirical measure, computed by hand
    want = math.e / 2.0 - (1.0 + math.e) / 2.0 * math.log((1.0 + math.e) / 2.0)
    assert empirical_entropy(np.array([1.0, math.e])) == pytest.approx(want, rel=1e-9)
    assert empirical_entropy(np.full(64, 3.7)) == pytest.approx(0.0, abs=1e-9)


def test_empirical_entropy_equals_the_copying_formula():
    # bit for bit on a strided column with zeros, which is no longer copied
    rows = np.abs(np.random.default_rng(3).standard_normal((5000, 2)))
    rows[::9, 0] = 0.0
    flat = rows[:, 0].copy()
    vlogv = np.log(flat, out=np.zeros_like(flat), where=flat > 0.0) * flat
    mean = float(np.mean(flat))
    assert empirical_entropy(rows[:, 0]) == float(np.mean(vlogv)) - mean * math.log(mean)


def test_batch_se_basics():
    assert batch_se(np.full(640, 2.0), np.mean) == 0.0
    rng = np.random.default_rng(1)
    v = rng.standard_normal(32000)
    se = batch_se(v, np.mean)
    ref = 1.0 / math.sqrt(32000)
    assert 0.5 * ref <= se <= 2.0 * ref


def test_top_mass_fraction_range():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(1000)
    f = top_mass_fraction(v, 32.0)
    assert 0.0 < f <= 1.0
    assert top_mass_fraction(v[:5], 8.0) == pytest.approx(1.0, rel=1e-12)


def _moment_oracle(values, p):
    # the per-p estimator before p grids, on scipy's logsumexp
    from scipy.special import logsumexp
    mags = np.abs(np.asarray(values, dtype=float).ravel())
    top = float(np.max(mags))
    if top == 0.0 or math.isinf(top):
        return top
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    return math.exp((float(logsumexp(p * logs)) - math.log(mags.size)) / p)


def _top_mass_oracle(values, p):
    from scipy.special import logsumexp
    mags = np.abs(np.asarray(values, dtype=float).ravel())
    if not np.any(mags > 0.0):
        return 0.0
    with np.errstate(divide="ignore"):
        logs = p * np.log(mags)
    with np.errstate(invalid="ignore"):
        return math.exp(float(logsumexp(np.sort(logs)[-em.TOP_K:])) - float(logsumexp(logs)))


def _batch_se_oracle(values, stat):
    # the scalar batch SE before vector-valued stats
    n_batches = min(em.BATCHES, values.shape[0])
    if n_batches < 2:
        return math.inf
    stats = np.array([stat(chunk) for chunk in np.array_split(values, n_batches)])
    return float(np.std(stats, ddof=1) / math.sqrt(n_batches))


def _moment_columns():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(3000)
    zeros = v.copy()
    zeros[::7] = 0.0
    return {"normal": v, "zeros": zeros, "pos_inf": np.r_[v[:40], np.inf, v[40:80]],
            "neg_inf": np.r_[-np.inf, v[:80]], "all_zero": np.zeros(64),
            "one_value": np.array([-3.5]), "heavy": rng.standard_cauchy(5000)}


GRID = np.array([1.0, 1.5, 2.0, 7.0, 64.0, 65.0, 128.0])


@pytest.mark.parametrize("name", list(_moment_columns()))
def test_grid_estimators_equal_the_per_p_oracles(name):
    # bit for bit: one log pass for the grid changes no value
    v = _moment_columns()[name]
    with np.errstate(invalid="ignore"):
        want = np.array([_moment_oracle(v, p) for p in GRID])
        want_se = np.array([_batch_se_oracle(v, lambda b, p=p: _moment_oracle(b, p))
                            for p in GRID])
        want_top = np.array([_top_mass_oracle(v, p) for p in GRID])
        got_se = np.broadcast_to(batch_se(v, lambda b: empirical_moment(b, GRID)), GRID.shape)
    got = empirical_moment(v, GRID)
    assert got.tobytes() == want.tobytes()
    assert [empirical_moment(v, p) for p in GRID] == want.tolist()
    assert np.array(got_se).tobytes() == want_se.tobytes()
    assert top_mass_fraction(v, GRID).tobytes() == want_top.tobytes()
    assert np.float64(empirical_moment(v, 2.0)).tobytes() == want[2].tobytes()


def _cut_columns():
    # around the TOP_K largest |v|: fewer, exactly as many, one more, and a
    # tie at the cut (the 10th and 11th largest equal), with the sign mixed
    rng = np.random.default_rng(9)
    v = rng.standard_normal(40)
    tied = np.abs(v)
    tied[np.argsort(tied)[-14:-6]] = 0.75 * tied.max()
    return {"below": v[: em.TOP_K - 3], "at": v[: em.TOP_K], "above": v[: em.TOP_K + 1],
            "tied": np.where(v < 0.0, -tied, tied)}


@pytest.mark.parametrize("name", list(_cut_columns()))
def test_top_mass_fraction_at_the_top_k_cut_equals_the_oracle(name):
    v = _cut_columns()[name]
    with np.errstate(invalid="ignore"):
        want = np.array([_top_mass_oracle(v, p) for p in GRID])
    assert top_mass_fraction(v, GRID).tobytes() == want.tobytes()
    if name == "tied":
        mags = np.sort(np.abs(v))
        assert mags[-em.TOP_K] == mags[-em.TOP_K - 1]


def test_verify_nu_logp_equals_the_per_p_oracles():
    p_grid = np.array([2.0, 4.0, 16.0])
    rep = verify_nu_logp(p_grid, 5000, 3)
    x = sample(SamplerSpec(ms.NuMeasure(), 3, 5000))[:, 0]
    assert rep.l1 == _moment_oracle(x, 1.0)
    assert rep.l1_se == _batch_se_oracle(x, lambda b: _moment_oracle(b, 1.0))
    assert rep.emp.tolist() == [_moment_oracle(x, p) for p in p_grid]
    assert rep.emp_se.tolist() == [_batch_se_oracle(x, lambda b, p=p: _moment_oracle(b, p))
                                   for p in p_grid]


def _peak_columns(run, N: int) -> float:
    """run()'s tracemalloc peak in N-row float column sizes."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * N)


def test_verify_nu_logp_holds_about_two_columns():
    # the sample turned into its logs in place, and one work buffer: 2.1
    # column sizes for a 4-point grid (with the logs in a new column, 3.1;
    # an estimate per p and batch once held about 6)
    N = 2 ** 20
    assert _peak_columns(lambda: verify_nu_logp(np.array([2.0, 4.0, 8.0, 16.0]), N, 0), N) <= 2.5


def test_comparison_check_holds_no_n_by_n_temporary():
    # f and <grad f, Z> in two columns beside one block of X and of Z, then
    # each column's logs in place and one work buffer: 3.13 column sizes for
    # a phi-tail X with n = 8 (one chunk of X and of Z made it 3.25; the
    # one-hot gradient, its product with Z and int64 sign draws per chunk,
    # and a copy of each column, once held 5.1)
    N = 2 ** 20
    fam = ProductPhiTail(PhiSpec(s=1.5), n=8)
    peak = _peak_columns(lambda: comparison_check(fam, PhiSpec(s=1.5), max_coordinate(),
                                                  np.array([4.0, 8.0, 16.0]), N, 0), N)
    assert peak <= 3.2


def test_centered_at_n_256_holds_less_than_one_chunk():
    # one block of X, its gradient and the gauge's 2,048-row slice
    # temporaries: 53 MB at n = 256, below the 67 MB of half a chunk of X
    # (with the gauge's temporaries for the whole block, 87 MB; with a chunk
    # of X and of its gradient at a time, 404 MB)
    n, N = 256, CHUNK
    spec = PowerNorm(dim=n, norm=2.0, a=2.0)
    peak = _peak_columns(lambda: verify_centered(StandardGaussian(n=n), euclidean_norm(), spec,
                                                 ENV22, [2.0, 4.0, 8.0, 16.0], N, 1), N)
    assert peak < n / 2  # one chunk of X is n column sizes


def test_mlsi_report_holds_no_copy_of_its_columns():
    # the (g, term) rows and the entropy's v log v column: 3.1 column sizes
    # (a flat copy of the strided g column once made it 4.1)
    N = 2 ** 20
    peak = _peak_columns(lambda: mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([0.5, 0.0])),
                                             SPEC2, 4.0, N, 0), N)
    assert peak <= 3.75


def _logsumexp_cases():
    rng = np.random.default_rng(7)
    for size in (1, 2, 10, 1000, 65536, 100_000):
        for scale in (1e-3, 1.0, 30.0, 700.0):
            yield rng.standard_normal(size) * scale
            yield -np.abs(rng.standard_normal(size)) * scale
    tied = rng.standard_normal(500)
    tied[[3, 40, 41, 499]] = 2.5  # ties at the maximum
    yield tied
    yield np.full(17, 3.0)
    with_neg_inf = rng.standard_normal(300)
    with_neg_inf[::7] = -np.inf
    yield with_neg_inf
    yield np.array([-np.inf, 0.0, -np.inf])
    yield np.full(5, -np.inf)
    yield np.array([-np.inf])
    yield np.array([1.0, np.inf, -2.0])
    yield np.array([np.inf])
    yield np.array([-4.25])
    yield 128.0 * np.log(np.abs(rng.standard_normal(20000)))  # high-p moments


def test_logsumexp_is_bit_identical_to_scipy():
    from scipy.special import logsumexp
    for a in _logsumexp_cases():
        assert em._logsumexp(a.copy()) == float(logsumexp(a)), a[:5]
    assert em._logsumexp(np.full(5, -np.inf)) == -math.inf


# ---------------------------------------------------------------------------
# test functions

def test_linear_and_quadratic_builtins():
    theta = np.array([1.0, -2.0])
    f = linear(theta)
    X = np.array([[1.0, 1.0], [2.0, 0.0]])
    np.testing.assert_allclose(f.f(X), [-1.0, 2.0])
    np.testing.assert_allclose(f.grad(X), [theta, theta])

    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    q = quadratic_form(MultiIndexMatrix(2, 2, M, symmetric=True))
    np.testing.assert_allclose(q.f(X), np.einsum("ni,ij,nj->n", X, M, X), rtol=1e-12)
    np.testing.assert_allclose(q.grad(X), 2.0 * X @ M, rtol=1e-12)


@pytest.mark.parametrize("spec", [PowerNorm(dim=3, norm=3.0, a=1.5),
                                  SeparableTwoLevel(dim=3, r=3.0),
                                  SeparableFromPhi(dim=3, phi=PhiSpec(s=3.0))], ids=repr)
def test_linear_takes_one_gauge_per_p_bit_for_bit(spec, monkeypatch):
    theta = np.array([0.7, -1.3, 0.2])
    f = linear(theta)
    np.testing.assert_array_equal(f.direction, theta)
    env = GrowthEnvelope(K=1.0, alpha=2.0, beta=3.0, D=2.0, d=0.0)
    per_row = replace(f, direction=None)
    rows = []
    gauge = em.psi_p_norm_rows
    monkeypatch.setattr(em, "psi_p_norm_rows",
                        lambda sp, p, X: rows.append(len(X)) or gauge(sp, p, X))
    want = verify_centered(StandardGaussian(n=3), per_row, spec, env, [3.0, 8.0],
                           CHUNK + 50, 4)
    # one call per block, for the whole grid
    assert rows == [ms._BLOCK] * (CHUNK // ms._BLOCK) + [50]
    rows.clear()
    got = verify_centered(StandardGaussian(n=3), f, spec, env, [3.0, 8.0], CHUNK + 50, 4)
    assert rows == [1]  # one call on the direction, for the whole grid
    for name in ("lhs", "lhs_se", "rhs", "bound", "ratio"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_linear_centered_holds_no_gauge_columns():
    # f, then one constant gauge column turned into its logs in place and a
    # work buffer at a time, then f centred in place: 3.1 column sizes for a
    # 4-point grid (with new log and centred columns, 4.1; one gauge column
    # per p once stood beside f, about 8)
    N = 2 ** 20
    env = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=2.0, d=0.0)
    tracemalloc.start()
    try:
        verify_centered(StandardGaussian(n=2), linear([1.0, 0.5]), SPEC2, env,
                        [2.0, 4.0, 8.0, 16.0], N, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * N


def test_norm_and_max_builtins():
    X = np.array([[3.0, 4.0], [0.5, -0.1]])
    e = euclidean_norm()
    np.testing.assert_allclose(e.f(X), [5.0, math.hypot(0.5, 0.1)], rtol=1e-12)
    np.testing.assert_allclose(e.grad(X)[0], [0.6, 0.8], rtol=1e-12)
    m = max_coordinate()
    np.testing.assert_allclose(m.f(X), [4.0, 0.5])
    np.testing.assert_allclose(m.grad(X), [[0.0, 1.0], [1.0, 0.0]])


def test_exp_tilt_values_and_gradient():
    theta = np.array([0.5, 0.0])
    g = exp_tilt(theta)
    X = np.array([[2.0, 7.0]])
    assert g.f(X)[0] == pytest.approx(math.e, rel=1e-12)
    np.testing.assert_allclose(g.grad(X)[0], theta * math.e, rtol=1e-12)


def test_verification_reports_accept_specs_without_json_form():
    spec = UserSeparable(dim=2, fn=lambda u: np.square(u), name="square")
    rep = mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([0.5, 0.0])), spec,
                      2.0, 2000, 3)
    assert rep.meta["psi"] == {"family": "UserSeparable", "dim": 2}
    assert math.isfinite(rep.residual)


# ---------------------------------------------------------------------------
# verification scenarios

def test_verify_centered_report_identities():
    fam = StandardGaussian(n=2)
    theta = np.array([1.0, 0.0])
    rep = verify_centered(fam, linear(theta), SPEC2, ENV22,
                          np.array([2.0, 4.0, 8.0]), 20000, 3)
    # gradient gauge of a linear map is exact: rhs = sqrt(p) |theta|_2
    np.testing.assert_allclose(rep.rhs, np.sqrt(rep.p_grid), rtol=1e-9)
    np.testing.assert_allclose(rep.ratio, rep.lhs / rep.rhs, rtol=1e-12)
    assert rep.fitted == pytest.approx(float(np.max(rep.ratio)), rel=1e-12)
    assert 0.4 <= rep.fitted <= 1.2
    assert rep.flags == {}
    assert rep.meta["env"]["beta"] == 2.0


def test_centered_verdict_fails_when_the_moments_exceed_the_bound():
    args = (StandardGaussian(n=2), linear(np.array([1.0, 0.0])), SPEC2, ENV22,
            np.array([2.0, 4.0, 8.0]), 5000, 0)
    rep = verify_centered(*args)
    assert rep.passed and np.all(rep.lhs <= rep.bound)
    tight = verify_centered(*args, C=1e-6)
    np.testing.assert_array_equal(tight.lhs, rep.lhs)
    assert np.all(tight.lhs > tight.bound + 3.0 * tight.lhs_se) and not tight.passed


def test_verify_centered_flags_heavy_tail_estimates():
    fam = StandardGaussian(n=2)
    rep = verify_centered(fam, linear(np.array([1.0, 0.0])), SPEC2, ENV22,
                          np.array([2.0, 128.0]), 4000, 4)
    assert any(p > 64.0 for p in map(float, rep.flags))


def test_verify_centered_deterministic_and_thread_invariant(monkeypatch):
    # N = 30,000 is one chunk, so it runs serially at any thread count;
    # N = CHUNK + 1 runs the pool, and chunk 1 is a one-row block whose
    # quadratic-form gradient BLAS rounds by its shape, the same on any thread
    G = np.random.default_rng(27).standard_normal((8, 8))
    quad = quadratic_form(MultiIndexMatrix(2, 8, G + G.T, symmetric=True))
    for args in ((StandardGaussian(n=2), linear(np.array([0.0, 1.0])), SPEC2, ENV22,
                  np.array([2.0, 4.0]), 30000, 5),
                 (StandardGaussian(n=8), quad, SeparableTwoLevel(dim=8, r=3.0), ENV22,
                  np.array([4.0, 8.0]), CHUNK + 1, 5)):
        monkeypatch.setenv(ms.THREADS_ENV, "1")
        one = verify_centered(*args)
        monkeypatch.setenv(ms.THREADS_ENV, "4")
        four = verify_centered(*args)
        for field in ("lhs", "lhs_se", "rhs"):
            assert getattr(one, field).tobytes() == getattr(four, field).tobytes()
        assert one.fitted == four.fitted


def test_threaded_chunk_map_matches_one_worker(monkeypatch):
    # more rows than one chunk, so four workers really run the thread pool
    N = 2 * CHUNK + 17
    monkeypatch.setenv(ms.THREADS_ENV, "1")
    one = verify_nu_logp(np.array([2.0, 8.0]), N, 6)
    monkeypatch.setenv(ms.THREADS_ENV, "4")
    four = verify_nu_logp(np.array([2.0, 8.0]), N, 6)
    assert one.to_json_dict() == four.to_json_dict()


def test_two_stream_comparison_matches_one_worker(monkeypatch):
    # X and Z come from two streams, chunk by chunk, over three chunks
    args = (StandardGaussian(n=3), PhiSpec(s=1.5), max_coordinate(),
            np.array([2.0, 4.0]), 2 * CHUNK + 17, 8)
    monkeypatch.setenv(ms.THREADS_ENV, "1")
    one = comparison_check(*args)
    monkeypatch.setenv(ms.THREADS_ENV, "4")
    four = comparison_check(*args)
    assert json.dumps(one.to_json_dict()) == json.dumps(four.to_json_dict())


def test_verify_nu_logp_small_run_passes():
    rep = verify_nu_logp(np.array([2.0, 4.0]), 20000, 1)
    assert rep.passed
    np.testing.assert_allclose(rep.lower, np.log([2.0, 4.0]) / (2.0 * math.e), rtol=1e-12)
    np.testing.assert_allclose(rep.upper, rep.l1 + np.log([2.0, 4.0]), rtol=1e-12)


def test_comparison_check_linear_map_is_exact_in_law():
    # <grad f, Z> for linear f reproduces theta . Z, so the ratio sits near 1
    fam = StandardGaussian(n=3)
    theta = np.array([1.0, 2.0, -2.0])
    rep = comparison_check(fam, PhiSpec(s=2.0), linear(theta),
                           np.array([2.0, 4.0]), 30000, 6)
    assert np.all(np.isfinite(rep.ratio))
    assert np.all((rep.ratio > 0.3) & (rep.ratio < 3.0))


def _comparison_columns(fam, phi, f, N, seed):
    """f(X) and the row sums of grad f(X) * Z, the way comparison_check once
    built them, from whole samples of both streams."""
    X = sample(SamplerSpec(fam, seed, N))
    Z = sample(SamplerSpec(ProductPhiTail(phi, fam.n), (seed + em._SEED_OFFSET) % 2 ** 64, N))
    return f.f(X), np.sum(f.grad(X) * Z, axis=1)


@pytest.mark.parametrize("fam, f", [
    (ProductPhiTail(PhiSpec(s=1.5), n=4), max_coordinate()),
    (StandardGaussian(n=3), linear([1.0, 2.0, -2.0])),
], ids=["max_phi_tail", "linear_gaussian"])
def test_comparison_report_equals_the_per_p_oracles(fam, f):
    # bit for bit, over three chunks: the gathered or in-place <grad f, Z>
    # and the in-place logs change no value
    p_grid, N, seed = np.array([1.0, 2.0, 7.0, 65.0]), 2 * CHUNK + 17, 4
    rep = comparison_check(fam, PhiSpec(s=1.5), f, p_grid, N, seed)
    f_col, dots = _comparison_columns(fam, PhiSpec(s=1.5), f, N, seed)
    centered = f_col - float(np.mean(f_col))
    assert rep.lhs.tolist() == [_moment_oracle(centered, p) for p in p_grid]
    assert rep.lhs_se.tolist() == [_batch_se_oracle(centered, lambda b, p=p: _moment_oracle(b, p))
                                   for p in p_grid]
    assert rep.rhs.tolist() == [_moment_oracle(dots, p) for p in p_grid]
    assert rep.flags == {65.0: _top_mass_oracle(centered, 65.0)}


def test_comparison_rhs_of_the_max_coordinate_is_a_phi_tail_moment():
    # <grad f, Z> = Z_j at the row's argmax j, which is independent of Z, so
    # it is a phi-tail variable: E|Z_j|^p = Gamma(1 + p/s)
    s, p_grid, N, seed = 1.5, np.array([1.0, 2.0, 4.0, 8.0]), 200_000, 2
    fam = ProductPhiTail(PhiSpec(s=s), n=4)
    rep = comparison_check(fam, PhiSpec(s=s), max_coordinate(), p_grid, N, seed)
    dots = _comparison_columns(fam, PhiSpec(s=s), max_coordinate(), N, seed)[1]
    se = batch_se(dots, lambda b: empirical_moment(b, p_grid))
    exact = np.array([math.gamma(1.0 + p / s) ** (1.0 / p) for p in p_grid])
    assert np.all(se > 0.0)
    assert np.all(np.abs(rep.rhs - exact) <= 4.0 * se), (rep.rhs, exact, se)


def test_enlargement_requires_half_mass_start():
    # the base halfspace {x1 <= m} must carry at least median mass
    with pytest.raises(InputError):
        enlargement_mc(StandardGaussian(n=2), -10.0, SPEC2,
                       np.array([0.25]), 5000, 7)


def _two_level_reach(u, r):
    # sup{c : H*(c) <= u} for H = u^2 on [0, 1], |u|^r above: H*(c) is c^2/4
    # for c <= 2, c - 1 on [2, r] (the kink at 1) and (r - 1)(c/r)^{r*} above
    if u <= 1.0:
        return 2.0 * math.sqrt(u)
    if u <= r - 1.0:
        return u + 1.0
    return r * (u / (r - 1.0)) ** ((r - 1.0) / r)


@pytest.mark.parametrize("spec, reach", [
    (SPEC2, lambda u: 2.0 * math.sqrt(u)),
    (SeparableTwoLevel(dim=2, r=3.0), lambda u: _two_level_reach(u, 3.0)),
], ids=["power_l2_a2", "two_level_r3"])
def test_enlargement_masses_match_the_exact_gaussian_masses(spec, reach):
    # enlargement_mc reads x_1 alone, so under the Gaussian each mass is
    # exactly Phi(m + s(u)), with s(u) the conjugate's reach in closed form
    m, u_grid = 0.25, np.array([0.25, 1.0, 1.5, 2.5])
    curve = enlargement_mc(StandardGaussian(n=2), m, spec, u_grid, 200_000, 5)

    def gauss_cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    reaches = [reach(u) for u in u_grid]
    np.testing.assert_allclose(curve.radius, reaches, rtol=1e-9)
    assert np.all(np.isnan(curve.bound))  # no envelope, no bound
    assert abs(curve.base_mass - gauss_cdf(m)) <= 4.0 * curve.base_se
    for s_u, emp, se in zip(reaches, curve.emp, curve.se):
        assert 0.0 < se and abs(emp - gauss_cdf(m + s_u)) <= 4.0 * se


def test_mlsi_report_gaussian_tilt_is_tight():
    rep = mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([0.5, 0.0])),
                      SPEC2, 2.0, 100000, 9)
    assert not rep.infinite
    assert abs(rep.residual) <= 5.0 * rep.se
    assert rep.residual == pytest.approx(
        mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([0.5, 0.0])),
                    SPEC2, 2.0, 100000, 9).residual, rel=1e-12)


def test_mlsi_rejects_sign_changing_observables():
    with pytest.raises(InputError):
        mlsi_report(StandardGaussian(n=2), max_coordinate(), SPEC2, 2.0, 2000, 10)


def test_mlsi_infinite_when_the_gauge_caps():
    spec = BobkovLedouxCap(dim=2, threshold=0.1)
    rep = mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([1.0, 0.0])),
                      spec, 2.0, 2000, 11)
    assert rep.infinite
    assert math.isinf(rep.residual)


# ---------------------------------------------------------------------------
# report output

def test_reports_serialize_and_write_csv(tmp_path):
    rep = verify_centered(StandardGaussian(n=2), linear(np.array([1.0, 0.0])),
                          SPEC2, ENV22, np.array([2.0, 4.0]), 5000, 12)
    d = rep.to_json_dict()
    json.dumps(d)
    assert "meta" in d and "ratio" in d
    path = str(tmp_path / "rep.csv")
    rep.to_csv(path)
    with open(path) as fh:
        head = fh.readline()
    assert head.startswith("# config: ")
    json.loads(head[len("# config: "):])
    data = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    assert data.shape[0] == 2

    nu = verify_nu_logp(np.array([2.0]), 5000, 13)
    npath = str(tmp_path / "nu.csv")
    nu.to_csv(npath)
    assert "emp" in open(npath).read()


def _reference_csv(meta, columns) -> str:
    """The report CSV format, spelled out: the sorted-JSON config line, the
    column names, then one line of .17g cells per row."""
    names = list(columns)
    lines = ["# config: " + json.dumps(meta, sort_keys=True), ",".join(names)]
    lines += [",".join(f"{float(columns[c][i]):.17g}" for c in names)
              for i in range(len(columns[names[0]]))]
    return "\n".join(lines) + "\n"


ENV_D1 = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0, d=0.0)
REPORT_CSVS = {
    "centered": lambda: verify_centered(
        StandardGaussian(n=2), linear(np.array([1.0, 0.0])), SPEC2, ENV22,
        np.array([2.0, 4.0, 80.0]), 5000, 12),
    "comparison": lambda: comparison_check(
        StandardGaussian(n=2), PhiSpec(s=1.5), euclidean_norm(), np.array([2.0, 4.0]), 5000, 3),
    "nu_logp": lambda: verify_nu_logp(np.array([2.0, 4.0, 16.0]), 5000, 13),
    "enlargement": lambda: enlargement_mc(StandardGaussian(n=2), 0.0, SPEC2,
                                          np.array([0.25, 1.0, 4.0]), 5000, 14,
                                          env=ENV_D1, C_impl=0.2),
    "enlargement_no_env": lambda: enlargement_mc(StandardGaussian(n=2), 0.0, SPEC2,
                                                 np.array([0.25, 1.0]), 5000, 14),
    "mlsi": lambda: mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([0.5, 0.0])),
                                SPEC2, 2.0, 5000, 15),
    "mlsi_infinite": lambda: mlsi_report(StandardGaussian(n=2), exp_tilt(np.array([1.0, 0.0])),
                                         BobkovLedouxCap(dim=2, threshold=0.1), 2.0, 2000, 11),
}


def _report_columns(rep):
    """Each report's CSV columns, named as the files name them."""
    if hasattr(rep, "lhs"):
        return {"p": rep.p_grid, "lhs": rep.lhs, "lhs_se": rep.lhs_se, "rhs": rep.rhs,
                "bound": rep.bound, "ratio": rep.ratio}
    if hasattr(rep, "passed_lower"):
        return {"p": rep.p_grid, "emp": rep.emp, "emp_se": rep.emp_se, "lower": rep.lower,
                "upper": rep.upper, "passed_lower": rep.passed_lower,
                "passed_upper": rep.passed_upper}
    if hasattr(rep, "u_grid"):
        return {"u": rep.u_grid, "radius": rep.radius, "emp": rep.emp, "se": rep.se,
                "bound": rep.bound}
    return {"residual": [rep.residual], "se": [rep.se], "rhs_mean": [rep.rhs_mean],
            "entropy": [rep.entropy], "infinite": [rep.infinite]}


@pytest.mark.parametrize("name", REPORT_CSVS)
def test_report_csv_bytes(tmp_path, name):
    rep = REPORT_CSVS[name]()
    path = tmp_path / "rep.csv"
    rep.to_csv(str(path))
    assert path.read_bytes() == _reference_csv(rep.meta, _report_columns(rep)).encode()


@pytest.mark.parametrize("make", [
    lambda s: verify_centered(s, linear(np.array([1.0, 0.0])), SPEC2, ENV22,
                              np.array([2.0]), 5000, 0),
    lambda s: comparison_check(s, PhiSpec(s=2.0), linear(np.array([1.0, 0.0])),
                               np.array([2.0]), 5000, 0),
    lambda s: enlargement_mc(s, 0.0, SPEC2, np.array([1.0]), 5000, 0),
    lambda s: mlsi_report(s, exp_tilt(np.array([0.5, 0.0])), SPEC2, 2.0, 5000, 0),
], ids=["centered", "comparison", "enlargement", "mlsi"])
def test_verification_refuses_a_sampler_spec(make):
    # a SamplerSpec carries its own seed and count, which the verification
    # call's N and seed would silently override
    with pytest.raises(InputError):
        make(SamplerSpec(StandardGaussian(n=2), seed=5, count=100))


def test_a_new_sampler_family_needs_only_its_class():
    @dataclass(frozen=True)
    class Uniform(Family):
        n: int

        def _draw(self, rng, rows):
            return rng.random((rows, self.n))

    fam = Uniform(n=2)
    X = sample(SamplerSpec(fam, seed=3, count=CHUNK + 7))
    assert X.shape == (CHUNK + 7, 2) and np.all((X >= 0.0) & (X < 1.0))
    rep = verify_centered(fam, linear(np.array([1.0, 0.0])), SPEC2, ENV22,
                          np.array([2.0]), 5000, 3)
    assert rep.meta["sampler"] == {"family": "Uniform", "n": 2} and rep.passed
    with pytest.raises(InputError):
        Uniform(n=0)

