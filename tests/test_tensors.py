"""Multi-index forms: symmetrization, evaluation, partition norms, chaos."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orlicz_conc.tensors as tn
from orlicz_conc import (BobkovLedouxCap, InputError, MultiIndexMatrix, NumericalError,
                         PhiSpec, PowerNorm, SeparableFromPhi, SeparableTwoLevel,
                         chaos_deterministic_term,
                         eval_form, form_gradient, load_matrix,
                         partition_norms, save_matrix, support_argmax,
                         support_function, symmetrize)
from orlicz_conc.conjugacy import _support_argmax_rows
from orlicz_conc.psi import _row_dots, _row_power_norms


def _wigner(n, seed):
    G = np.random.default_rng(seed).standard_normal((n, n))
    return MultiIndexMatrix(2, n, (G + G.T) / 2.0, symmetric=True)


def _sym(k, n, seed):
    rng = np.random.default_rng(seed)
    return symmetrize(MultiIndexMatrix(k, n, rng.standard_normal((n,) * k)))


# ---------------------------------------------------------------------------
# container

def test_validation_rejects_bad_shapes_and_sizes():
    with pytest.raises(InputError):
        MultiIndexMatrix(2, 3, np.zeros((3, 4)))
    with pytest.raises(InputError):
        MultiIndexMatrix(3, 500, None)  # 1.25e8 entries
    with pytest.raises(InputError):
        MultiIndexMatrix(2, 2, np.array([[0.0, 1.0], [2.0, 3.0]]), symmetric=True)


def test_flat_roundtrip_and_symmetry_autodetect():
    A = _sym(3, 4, 0)
    flat = A.as_flat()
    back = MultiIndexMatrix.from_flat(3, 4, flat)
    assert back.symmetric
    np.testing.assert_allclose(back.data, A.data, rtol=1e-12)
    asym = MultiIndexMatrix.from_flat(2, 2, np.array([0.0, 1.0, 2.0, 3.0]))
    assert not asym.symmetric


def test_symmetrize_is_idempotent_and_preserves_the_form():
    rng = np.random.default_rng(1)
    raw = MultiIndexMatrix(3, 4, rng.standard_normal((4, 4, 4)))
    S = symmetrize(raw)
    assert S.symmetric
    np.testing.assert_allclose(symmetrize(S).data, S.data, rtol=1e-12)
    for _ in range(5):
        x = rng.standard_normal(4)
        assert eval_form(S, x) == pytest.approx(eval_form(raw, x), rel=1e-10)


def test_symmetrize_order_cap():
    with pytest.raises(InputError):
        symmetrize(MultiIndexMatrix(7, 2, np.zeros((2,) * 7)))


# ---------------------------------------------------------------------------
# evaluation

def test_eval_form_matches_einsum_oracle():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 5))
    A2 = MultiIndexMatrix(2, 5, M)
    T = rng.standard_normal((4, 4, 4))
    A3 = MultiIndexMatrix(3, 4, T)
    for _ in range(5):
        x = rng.standard_normal(5)
        assert eval_form(A2, x) == pytest.approx(
            float(np.einsum("ij,i,j->", M, x, x)), rel=1e-12)
        y = rng.standard_normal(4)
        assert eval_form(A3, y) == pytest.approx(
            float(np.einsum("ijk,i,j,k->", T, y, y, y)), rel=1e-12)


def test_form_gradient_finite_differences_and_euler_identity():
    for k in (2, 3):
        A = _sym(k, 4, 10 + k)
        rng = np.random.default_rng(20 + k)
        x = rng.standard_normal(4)
        g = form_gradient(A, x)
        assert float(np.dot(g, x)) == pytest.approx(k * eval_form(A, x), rel=1e-9)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (eval_form(A, x + e) - eval_form(A, x - e)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_form_gradient_requires_symmetry():
    rng = np.random.default_rng(3)
    raw = MultiIndexMatrix(2, 3, rng.standard_normal((3, 3)))
    with pytest.raises(InputError):
        form_gradient(raw, np.ones(3))


# ---------------------------------------------------------------------------
# partition norms

def test_identity_closed_forms():
    for n in (4, 16):
        for r in (2.0, 4.0):
            A = MultiIndexMatrix(2, n, np.eye(n), symmetric=True)
            pn = partition_norms(A, r, restarts=8, seed=0)
            assert pn.hs == pytest.approx(math.sqrt(n), rel=1e-10)
            assert pn.op == pytest.approx(1.0, rel=1e-8)
            assert pn.entry_lr == pytest.approx(n ** (1.0 / r), rel=1e-10)
            assert pn.mixed_2_rstar == pytest.approx(1.0, rel=1e-8)
            assert pn.rstar_rstar == pytest.approx(1.0, rel=1e-8)


def test_diagonal_closed_forms():
    d = np.array([3.0, -1.0, 0.5, 2.0])
    A = MultiIndexMatrix(2, 4, np.diag(d), symmetric=True)
    pn = partition_norms(A, 4.0, restarts=8, seed=0)
    assert pn.op == pytest.approx(3.0, rel=1e-8)
    assert pn.hs == pytest.approx(float(np.linalg.norm(d)), rel=1e-10)
    assert pn.entry_lr == pytest.approx(float(np.linalg.norm(d, ord=4.0)), rel=1e-10)


def test_rank_one_mixed_norm_closed_form():
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    A = MultiIndexMatrix(2, 8, np.outer(u, v))
    for r in (2.0, 3.0):
        pn = partition_norms(A, r, restarts=16, seed=0)
        assert pn.mixed_2_rstar == pytest.approx(
            float(np.linalg.norm(u) * np.linalg.norm(v, ord=r)), rel=1e-7)
        assert pn.op == pytest.approx(
            float(np.linalg.norm(u) * np.linalg.norm(v)), rel=1e-8)


@given(seed=st.integers(0, 2**31), r=st.sampled_from([2.0, 3.0, 4.0]))
@settings(max_examples=25, deadline=None)
@example(seed=345, r=4.0)  # alternating mixed_2_rstar stopped below rstar_rstar
@example(seed=838, r=3.0)
def test_partition_norm_chain(seed, r):
    rng = np.random.default_rng(seed)
    A = MultiIndexMatrix(2, 6, rng.standard_normal((6, 6)))
    pn = partition_norms(A, r, restarts=6, seed=seed % 101)
    tol = 1e-8 * max(1.0, pn.hs)
    assert pn.rstar_rstar <= pn.mixed_2_rstar + tol
    assert pn.mixed_2_rstar <= pn.op + tol
    assert pn.op <= pn.hs + tol


def test_more_restarts_never_lose_ground():
    # restart seeds are a prefix sequence and each run's arithmetic is its
    # own, whatever the block it runs in, so the maximum is monotone exactly
    rng = np.random.default_rng(6)
    A = MultiIndexMatrix(2, 7, rng.standard_normal((7, 7)))
    few = partition_norms(A, 3.0, restarts=4, seed=11)
    many = partition_norms(A, 3.0, restarts=16, seed=11)
    assert many.mixed_2_rstar >= few.mixed_2_rstar
    assert many.rstar_rstar >= few.rstar_rstar


# The sequential loop that ran one restart at a time, with its one-row
# witnesses and closed-form support steps: the lockstep block must match it
# bit for bit.

def _alternate_oracle(M, Mt, left, right, g, cap):
    y = right(g)[1]
    val = 0.0
    for _ in range(cap):
        new_val, y = right(Mt @ left(M @ y)[1])
        if abs(new_val - val) <= tn._ALT_TOL * max(new_val, 1.0):
            return new_val, True
        val = new_val
    return val, False


def _lr_oracle(z, r):
    mags = np.abs(z)
    nr = float(np.sum(mags ** r)) ** (1.0 / r)
    if nr == 0.0:
        return 0.0, np.zeros_like(z)
    return nr, np.sign(z) * (mags / nr) ** (r - 1.0)


def _l2_oracle(z):
    n2 = float(np.linalg.norm(z))
    if n2 == 0.0:
        return 0.0, np.zeros_like(z)
    return n2, z / n2


def _partition_oracle(A, r, restarts, seed):
    lr = functools.partial(_lr_oracle, r=r)
    out = []
    for tag, left in ((0xB, _l2_oracle), (0xC, lr)):
        best, capped = 0.0, 0
        for i in range(restarts):
            g = np.random.default_rng([seed, tag, i]).standard_normal(A.n)
            value, converged = _alternate_oracle(A.data, A.data.T, left, lr, g, tn._ALT_MAX_ITERS)
            best, capped = max(best, value), capped + (not converged)
        out.append((best, capped))
    (mixed, capped_l2), (rstar, capped_lr) = out
    return max(mixed, rstar), rstar, capped_l2 + capped_lr


def _closed_argmax_oracle(spec, p, theta):
    """support_argmax one theta at a time: the per-theta closed forms of
    PowerNorm, BobkovLedouxCap and FromPhi s=1, else the library's search."""
    if not np.any(theta):
        return 0.0, np.zeros(spec.dim)
    if isinstance(spec, SeparableFromPhi) and spec.phi.s == 1.0:
        value, y = _closed_argmax_oracle(BobkovLedouxCap(dim=spec.dim, threshold=0.5), p, theta)
        return 0.5 * value, 0.5 * y
    if isinstance(spec, BobkovLedouxCap):
        thr, mags = spec.threshold, np.abs(theta)
        top = float(np.max(mags))
        lam_star = max(float(np.linalg.norm(theta)) / math.sqrt(p), top / thr)
        y = 2.0 * theta / lam_star
        ties = mags == top
        rest = 0.25 * float(np.sum(np.square(y[~ties])))
        c = ((p - rest) / np.count_nonzero(ties) + thr * thr) / thr
        if c > 2.0 * thr:
            y[ties] = np.copysign(c, theta[ties])
        return float(np.dot(theta, y)), y
    if isinstance(spec, PowerNorm):
        R, q, mags = spec._conjugate_radius(p), spec.norm, np.abs(theta)
        if math.isinf(q):
            y = np.zeros(spec.dim)
            j = int(np.argmax(mags))
            y[j] = math.copysign(R, theta[j])
        elif q == 1.0:
            y = R * np.sign(theta)
        else:
            w = np.sign(theta) * mags ** (q - 1.0)
            y = R * w / float(np.linalg.norm(mags ** (q - 1.0), ord=q / (q - 1.0)))
        return float(np.dot(theta, y)), y
    return support_argmax(spec, p, theta)


def _chaos_oracle(A, spec, p, restarts, seed):
    step = functools.partial(_closed_argmax_oracle, spec, p)
    best = 0.0
    for i in range(restarts):
        g = np.random.default_rng([seed, 0xD, i]).standard_normal(A.n)
        value, converged = _alternate_oracle(A.data, A.data, step, step, g, tn._CHAOS_MAX_ITERS)
        if not converged:
            raise NumericalError(f"chaos maximization hit its {tn._CHAOS_MAX_ITERS}-iteration cap")
        best = max(best, value)
    return best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalError as exc:
        return str(exc)


def test_stacked_products_are_the_row_products_bit_for_bit():
    # a numpy or BLAS change that breaks the lockstep block's bit-identity
    # shows up here first
    for n in (1, 3, 8, 16, 17, 64, 65):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        for R in (1, 5, 32):
            Y, Z = rng.standard_normal((2, R, n))
            assert np.array_equal(tn._products(Y, M), np.array([M @ y for y in Y]))
            assert np.array_equal(tn._products(Y, M.T), np.array([M.T @ y for y in Y]))
            assert np.array_equal(_row_dots(Y, Z), [np.dot(y, z) for y, z in zip(Y, Z)])
            for r in (1.5, 3.0, 4.0):
                assert np.array_equal(_row_power_norms(np.abs(Y), r),
                                      [np.linalg.norm(y, ord=r) for y in Y])


def test_partition_norms_match_the_sequential_restarts_bit_for_bit():
    # seeds 0-49, each on one (n, r) of n in {8, 16, 64} and r in {3, 4}
    for seed in range(50):
        n, r = (8, 16, 64)[seed % 3], (3.0, 4.0)[seed % 2]
        A = MultiIndexMatrix(2, n, np.random.default_rng(seed).standard_normal((n, n)))
        pn = partition_norms(A, r, restarts=32, seed=seed)
        assert (pn.mixed_2_rstar, pn.rstar_rstar, pn.capped) == _partition_oracle(A, r, 32, seed)


def test_partition_norms_zero_rows_match_the_sequential_restarts():
    # M = 0 sends every row to the zero row, whose witness is 0
    A = MultiIndexMatrix(2, 4, np.zeros((4, 4)))
    pn = partition_norms(A, 3.0, restarts=8, seed=2)
    assert (pn.mixed_2_rstar, pn.rstar_rstar, pn.capped) == _partition_oracle(A, 3.0, 8, 2) == (0.0, 0.0, 0)


@pytest.mark.parametrize("spec", [
    PowerNorm(dim=16, norm=2.0, a=2.0), BobkovLedouxCap(dim=16, threshold=0.5),
    SeparableFromPhi(dim=16, phi=PhiSpec(s=1.0)),
], ids=["power", "blcap", "sfp1"])
def test_chaos_term_matches_the_sequential_restarts_bit_for_bit(spec):
    # PowerNorm hits the cap on seeds 8 and 11: the same NumericalError
    outcomes = []
    for seed in range(12):
        A = _wigner(16, seed)
        got = _outcome(chaos_deterministic_term, A, spec, 4.0, 32, seed)
        assert got == _outcome(_chaos_oracle, A, spec, 4.0, 32, seed)
        outcomes.append(got)
    if isinstance(spec, PowerNorm):
        assert [i for i, o in enumerate(outcomes) if isinstance(o, str)] == [8, 11]


def test_chaos_term_two_level_matches_the_sequential_restarts_bit_for_bit():
    # no closed form: each row of the two-row block runs the numeric searches
    spec = SeparableTwoLevel(dim=16, r=3.0)
    A = _wigner(16, 3)
    assert chaos_deterministic_term(A, spec, 4.0, 2, 3) == _chaos_oracle(A, spec, 4.0, 2, 3)


@pytest.mark.parametrize("spec", [
    PowerNorm(dim=16, norm=1.0, a=2.0), PowerNorm(dim=16, norm=1.5, a=2.0),
    PowerNorm(dim=16, norm=2.0, a=1.0), PowerNorm(dim=16, norm=3.0, a=1.5),
    PowerNorm(dim=16, norm=math.inf, a=2.0), BobkovLedouxCap(dim=16, threshold=0.5),
    BobkovLedouxCap(dim=16, threshold=2.0), SeparableFromPhi(dim=16, phi=PhiSpec(s=1.0)),
], ids=["pow1", "pow15", "pow2_a1", "pow3", "powinf", "blcap05", "blcap2", "sfp1"])
def test_block_support_steps_match_one_theta_at_a_time(spec):
    # rows with zeros, ties of the top magnitude (one, two, all) and scales
    # 1e-3 to 1e3, all in one block
    rng = np.random.default_rng(23)
    Theta = rng.standard_normal((40, 16)) * np.exp(rng.uniform(-7.0, 7.0, (40, 1)))
    Theta[0] = 0.0
    Theta[1, ::2] = 0.0
    Theta[2, 1] = -Theta[2, 0]
    Theta[3] = 1.0
    Theta[4, :3] = -Theta[4, 3]
    for p in (0.5, 4.0, 16.0):
        values, Y = _support_argmax_rows(spec, p, Theta)
        for theta, value, y in zip(Theta, values, Y):
            want_value, want_y = _closed_argmax_oracle(spec, p, theta)
            assert value == want_value
            assert np.array_equal(y, want_y)
            assert np.array_equal(np.signbit(y), np.signbit(want_y))


def test_operator_norm_against_random_net():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 3))
    A = MultiIndexMatrix(2, 3, M)
    pn = partition_norms(A, 2.0, restarts=8, seed=0)
    U = rng.standard_normal((4000, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    V = rng.standard_normal((4000, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    net = float(np.max(np.abs(np.einsum("ki,ij,kj->k", U, M, V))))
    assert net <= pn.op * (1 + 1e-8)
    assert pn.op == pytest.approx(float(np.linalg.svd(M, compute_uv=False)[0]), rel=1e-8)


def test_partition_norms_count_the_runs_at_their_cap(monkeypatch):
    A = MultiIndexMatrix(2, 4, np.diag([3.0, -2.0, 1.0, 0.5]), symmetric=True)
    assert partition_norms(A, 3.0, restarts=4).capped == 0
    # the first step moves the value off 0, so one step never converges;
    # each restart makes one run per mixed norm
    monkeypatch.setattr(tn, "_ALT_MAX_ITERS", 1)
    assert partition_norms(A, 3.0, restarts=4).capped == 8


def test_partition_norms_validation():
    A = MultiIndexMatrix(2, 3, np.eye(3), symmetric=True)
    with pytest.raises(InputError):
        partition_norms(A, 1.5)
    with pytest.raises(InputError):
        partition_norms(MultiIndexMatrix(1, 3, np.ones(3)), 2.0)
    with pytest.raises(InputError):
        partition_norms(A, 2.0, restarts=0)


# ---------------------------------------------------------------------------
# chaos deterministic term

def test_chaos_term_k1_is_the_two_sided_support():
    spec = SeparableTwoLevel(dim=4, r=3.0)
    theta = np.array([1.0, -2.0, 0.5, 0.0])
    A = MultiIndexMatrix(1, 4, theta)
    want = max(support_function(spec, 3.0, theta),
               support_function(spec, 3.0, -theta))
    assert chaos_deterministic_term(A, spec, 3.0) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("spec", [
    PowerNorm(dim=4, norm=2.0, a=2.0), SeparableTwoLevel(dim=4, r=3.0),
    SeparableFromPhi(dim=4, phi=PhiSpec(s=1.5)), BobkovLedouxCap(dim=4, threshold=0.5),
], ids=lambda s: type(s).__name__)
def test_support_function_is_even_bit_for_bit(spec):
    # Psi is even, so one support solve gives the k = 1 chaos term
    theta = np.array([1.0, -2.0, 0.5, 0.0])
    assert support_function(spec, 3.0, theta) == support_function(spec, 3.0, -theta)
    A = MultiIndexMatrix(1, 4, theta)
    assert chaos_deterministic_term(A, spec, 3.0) == support_function(spec, 3.0, theta)


def test_chaos_term_k2_identity_closed_form():
    # ball radius 2 sqrt(p) for the quarter-square conjugate: sup <y1, y2> = 4p
    spec = PowerNorm(dim=4, norm=2.0, a=2.0)
    A = MultiIndexMatrix(2, 4, np.eye(4), symmetric=True)
    for p in (2.0, 2.5, 8.0):
        got = chaos_deterministic_term(A, spec, p, restarts=4, seed=0)
        assert got == pytest.approx(4.0 * p, rel=1e-6)


def test_separable_from_phi_s1_is_the_cap_at_a_half_rescaled_exactly():
    # Psi(x) is BobkovLedouxCap(1/2) at x/2, so the support halves and both
    # factors of the chaos term halve; every rescaling is a power of two
    cap, sfp1 = BobkovLedouxCap(dim=6, threshold=0.5), SeparableFromPhi(dim=6, phi=PhiSpec(s=1.0))
    for seed in range(20):
        A = _wigner(6, seed)
        theta = A.data[0]
        assert support_function(sfp1, 4.0, theta) == 0.5 * support_function(cap, 4.0, theta)
        assert (chaos_deterministic_term(A, sfp1, 4.0, restarts=2, seed=seed)
                == 0.25 * chaos_deterministic_term(A, cap, 4.0, restarts=2, seed=seed))


def test_chaos_term_raises_at_its_iteration_cap(monkeypatch):
    spec = PowerNorm(dim=4, norm=2.0, a=2.0)
    A = _sym(2, 4, 21)
    assert chaos_deterministic_term(A, spec, 2.0, restarts=2) > 0.0
    # the first step moves the value off 0, so one step never converges
    monkeypatch.setattr(tn, "_CHAOS_MAX_ITERS", 1)
    with pytest.raises(NumericalError, match="iteration cap"):
        chaos_deterministic_term(A, spec, 2.0, restarts=2)


@pytest.mark.parametrize("k", [1, 2])
def test_chaos_term_refuses_fewer_than_one_restart(k):
    spec = PowerNorm(dim=4, norm=2.0, a=2.0)
    A = _sym(k, 4, 21)
    with pytest.raises(InputError, match="restarts must be an integer >= 1"):
        chaos_deterministic_term(A, spec, 2.0, restarts=0)


def test_chaos_term_dimension_mismatch():
    spec = PowerNorm(dim=3, norm=2.0, a=2.0)
    A = MultiIndexMatrix(2, 4, np.eye(4), symmetric=True)
    with pytest.raises(InputError):
        chaos_deterministic_term(A, spec, 2.0)


# ---------------------------------------------------------------------------
# persistence

def test_json_roundtrip_k3(tmp_path):
    A = _sym(3, 3, 8)
    path = str(tmp_path / "form.json")
    save_matrix(A, path)
    B = load_matrix(path)
    assert (B.k, B.n, B.symmetric) == (3, 3, True)
    np.testing.assert_allclose(B.data, A.data, rtol=1e-15)


def test_text_roundtrip_k2_and_k1(tmp_path):
    rng = np.random.default_rng(9)
    M = rng.standard_normal((4, 4))
    p2 = str(tmp_path / "m.txt")
    save_matrix(MultiIndexMatrix(2, 4, M), p2)
    B = load_matrix(p2)
    assert B.k == 2
    np.testing.assert_allclose(B.data, M, rtol=1e-15)
    p1 = str(tmp_path / "v.txt")
    with open(p1, "w") as fh:
        fh.write("# a comment line\n1.5,2.5,-3\n")
    V = load_matrix(p1)
    assert V.k == 1
    np.testing.assert_allclose(V.data, [1.5, 2.5, -3.0])


def test_text_format_rejects_higher_order_and_ragged(tmp_path):
    A = _sym(3, 3, 12)
    with pytest.raises(InputError):
        save_matrix(A, str(tmp_path / "t.txt"))
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write("1,2,3\n4,5,6\n")  # 2x3 is neither a vector nor square
    with pytest.raises(InputError):
        load_matrix(bad)
