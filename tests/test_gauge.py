"""Gauge solve: closed forms and the Chandrupatla solve against the
bracketed-bisection oracle, exact feasibility, and the iteration cap."""

import json
import math

import numpy as np
import pytest

import orlicz_conc.cli as cli
from orlicz_conc import (BobkovLedouxCap, InputError, NumericalError, PhiSpec, PowerNorm,
                         SeparableFromPhi, SeparableTwoLevel, UserSeparable,
                         eval_psi_rows, psi_p_norm, psi_p_norm_rows, psi_to_dict)
from orlicz_conc import psi as psi_mod


def bisect_gauge(spec, p, X, tol=1e-12):
    """Reference gauge: doubling/halving bracket, then plain bisection until
    every row's relative width is at most tol; returns the feasible ends."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(X.shape[0])
    l2 = np.linalg.norm(X, axis=1)
    act = l2 > 0.0
    PX = p * X[act]

    def feasible(rows, a):
        return spec._eval_rows(PX[rows] / a[:, None]) <= p

    hi = l2[act].copy()
    every = np.arange(hi.size)
    need = ~feasible(every, hi)
    while np.any(need):
        hi[need] *= 2.0
        need[need] = ~feasible(every[need], hi[need])
    lo = 0.5 * hi
    still = feasible(every, lo)
    while np.any(still):
        hi[still] = lo[still]
        lo[still] *= 0.5
        still[still] = feasible(every[still], lo[still])
    for _ in range(200):
        if np.max((hi - lo) / hi, initial=0.0) <= tol:
            break
        mid = 0.5 * (lo + hi)
        feas = feasible(every, mid)
        hi[feas] = mid[feas]
        lo[~feas] = mid[~feas]
    else:
        raise AssertionError("oracle bisection did not converge")
    out[act] = hi
    return out


def _capped_square(u):
    # +inf beyond |u| = 2, the case the interpolation must bisect through
    with np.errstate(over="ignore"):
        return np.where(np.abs(u) <= 2.0, u * u, np.inf)


GAUGE_SPECS = (
    [PowerNorm(dim=6, norm=q, a=a) for q in (1.0, 2.0, math.inf) for a in (1.0, 1.5, 3.0)]
    + [BobkovLedouxCap(dim=6, threshold=0.5), BobkovLedouxCap(dim=6, threshold=2.0),
       SeparableTwoLevel(dim=6, r=1.5), SeparableTwoLevel(dim=6, r=3.0),
       SeparableFromPhi(dim=6, phi=PhiSpec(s=1.5)), SeparableFromPhi(dim=6, phi=PhiSpec(s=3.0)),
       UserSeparable(dim=6, fn=_capped_square, name="capped")])


def _rows(seed, m=400, dim=6):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, dim)) * np.exp(rng.uniform(-4.0, 4.0, (m, 1)))
    X[::37] = 0.0
    return X


@pytest.mark.parametrize("spec", GAUGE_SPECS, ids=lambda s: getattr(s, "name", None) or repr(s))
def test_gauge_matches_bisection_oracle_and_is_feasible(spec):
    for seed, p in enumerate((1.0, 4.0, 33.0)):
        X = _rows(seed)
        got = psi_p_norm_rows(spec, p, X)
        want = bisect_gauge(spec, p, X)
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        nz = want > 0.0
        np.testing.assert_allclose(got[nz], want[nz], rtol=1e-9, atol=0.0)
        assert np.all(eval_psi_rows(spec, p * X[nz] / got[nz, None]) <= p)


def test_bobkov_ledoux_rows_on_the_cap_are_feasible():
    # one dominant coordinate puts the gauge on the cap term p|x|_inf/thr;
    # with thr = sqrt(p) a coordinate vector is on both terms at once
    rng = np.random.default_rng(4)
    m = 4000
    X = np.zeros((m, 5))
    X[:, 0] = np.exp(rng.uniform(-20.0, 20.0, m))
    X[m // 2:, 1:] = 1e-3 * X[m // 2:, :1] * rng.standard_normal((m - m // 2, 4))
    for thr, p in ((2.0, 4.0), (0.5, 4.0), (1.7, 3.3)):
        spec = BobkovLedouxCap(dim=5, threshold=thr)
        raw = spec._closed_gauge([p], X)[0]
        got = psi_p_norm_rows(spec, p, X)
        assert np.all(eval_psi_rows(spec, p * X / got[:, None]) <= p)
        np.testing.assert_allclose(got, raw, rtol=1e-14, atol=0.0)
    # the rounding repair is exercised, not vacuous
    assert np.any(~(eval_psi_rows(spec, p * X / raw[:, None]) <= p))


def test_power_norm_rounding_repair_keeps_every_row_feasible():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5000, 16)) * np.exp(rng.uniform(-20.0, 20.0, (5000, 1)))
    for q in (1.0, 3.0, 7.5, math.inf):
        for a in (1.0, 1.5, 9.0):
            spec = PowerNorm(dim=16, norm=q, a=a)
            got = psi_p_norm_rows(spec, 5.7, X)
            assert np.all(eval_psi_rows(spec, 5.7 * X / got[:, None]) <= 5.7)
            np.testing.assert_allclose(got, spec._closed_gauge([5.7], X)[0], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("cap, spec", [
    ("_SOLVE_MAX", UserSeparable(dim=3, fn=_capped_square, name="capped")),  # bracketed
    ("_NEWTON_MAX", SeparableTwoLevel(dim=3, r=3.0)),                       # two pieces
    ("_NEWTON_MAX", SeparableFromPhi(dim=3, phi=PhiSpec(s=3.0))),           # three pieces
], ids=["bracket", "two_piece", "three_piece"])
def test_iteration_cap_raises_numerical_error(cap, spec, monkeypatch, capsys):
    monkeypatch.setattr(psi_mod, cap, 1)
    with pytest.raises(NumericalError, match="did not converge"):
        psi_p_norm(spec, 4.0, np.array([1.0, -2.0, 0.5]))
    if isinstance(spec, UserSeparable):  # no JSON form, so no CLI run
        return
    rc = cli.main(["norm", "--psi", json.dumps(psi_to_dict(spec)), "--p", "4", "--x", "1,-2,0.5"])
    assert rc == 3
    assert '"numerical"' in capsys.readouterr().err


def test_tol_below_float_resolution_still_converges():
    # the solve floors its tol at 2 eps, so adjacent floats end it
    spec = SeparableTwoLevel(dim=3, r=3.0)
    x = np.array([1.0, -2.0, 0.5])
    PX = 4.0 * x[None, :]
    a = psi_mod._bracket_solve(lambda rows, b: spec._eval_rows(PX[rows] / b[:, None]) - 4.0,
                               np.arange(1), np.array([np.linalg.norm(x)]), 1e-300, "gauge")[0]
    assert eval_psi_rows(spec, 4.0 * x[None, :] / a)[0] <= 4.0
    assert a == pytest.approx(bisect_gauge(spec, 4.0, x)[0], rel=1e-12)


TWO_PIECE = ([SeparableTwoLevel(dim=1, r=r) for r in (1.2, 1.5, 2.0, 3.0, 7.0)]
             + [SeparableFromPhi(dim=1, phi=PhiSpec(s=s)) for s in (1.1, 1.5, 1.9, 2.0)])
TWO_PIECE_P = (0.5, 1.0, 4.0, 33.0, 1e4)


def _with_dim(spec, dim):
    return (SeparableTwoLevel(dim=dim, r=spec.r) if isinstance(spec, SeparableTwoLevel)
            else SeparableFromPhi(dim=dim, phi=spec.phi))


def _on_the_knot(spec, p):
    # x_1 = b/p and h(p x_2) = p - h(b): at the gauge a = 1 coordinate 1 sits
    # exactly on the knot b, where the two pieces meet
    if isinstance(spec, SeparableTwoLevel):
        b, h_b, root = 1.0, 1.0, lambda v: v ** (1.0 / spec.r)
    else:
        c1, _, b, c2, e2 = _pieces(spec)
        h_b, root = c1 * b * b, lambda v: (v / c2) ** (1.0 / e2)
    return None if p <= 2.0 * h_b else np.array([b / p, root(p - h_b) / p])


def _pieces(spec):
    seen = []
    real = psi_mod._two_piece_gauge
    try:
        psi_mod._two_piece_gauge = lambda ps, X, pieces: seen.append(pieces) or real(ps, X, pieces)
        spec._closed_gauge([1.0], np.ones((1, spec.dim)))
    finally:
        psi_mod._two_piece_gauge = real
    return seen[0]


def _two_piece_rows(dim, seed):
    rng = np.random.default_rng(seed)
    m = 60 if dim > 8 else 300
    X = rng.standard_normal((m, dim)) * np.exp(rng.uniform(-6.0, 6.0, (m, 1)))
    X[0] = 0.0                         # a zero row
    X[1] = 0.0
    X[1, -1] = -2.5                    # one nonzero coordinate
    X[2] = 1.5                         # every |x_i| tied
    X[3, ::2] = 0.0                    # zeros among nonzeros
    X[4, : (dim + 1) // 2] = -X[4, 0]  # ties at the top
    return X


@pytest.mark.parametrize("spec", TWO_PIECE, ids=repr)
def test_two_piece_gauge_matches_bisection_oracle(spec, monkeypatch):
    def no_bracket(*args, **kwargs):
        raise AssertionError("a two-piece family reached the bracketed solve")

    monkeypatch.setattr(psi_mod, "_bracket_solve", no_bracket)
    for dim in (1, 8, 512):
        sp = _with_dim(spec, dim)
        for seed, p in enumerate(TWO_PIECE_P):
            X = _two_piece_rows(dim, seed)
            got = psi_p_norm_rows(sp, p, X)
            want = bisect_gauge(sp, p, X)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            nz = want > 0.0
            np.testing.assert_allclose(got[nz], want[nz], rtol=2e-12, atol=0.0)
            assert np.all(eval_psi_rows(sp, p * X[nz] / got[nz, None]) <= p)
    for p in TWO_PIECE_P:
        x = _on_the_knot(spec, p)
        if x is not None:
            sp = _with_dim(spec, 2)
            assert psi_p_norm(sp, p, x) == pytest.approx(1.0, rel=2e-12)
            assert psi_p_norm(sp, p, x) == pytest.approx(bisect_gauge(sp, p, x)[0], rel=2e-12)


def test_from_phi_two_pieces_are_its_component():
    # 1 < s <= 2: v^2/4 up to the knot v0, c v^{s*} above it, and v0 = 2 at s = 2
    v = np.geomspace(1e-6, 1e6, 200001)
    for s in (1.01, 1.1, 1.5, 1.9, 1.99, 2.0):
        c1, e1, b, c2, e2 = _pieces(SeparableFromPhi(dim=1, phi=PhiSpec(s=s)))
        with np.errstate(over="ignore"):
            two = np.where(v <= b, c1 * v ** e1, c2 * v ** e2)
            np.testing.assert_array_equal(two, psi_mod.two_level_component_conjugate(v, s))
        if s == 2.0:
            assert b == 2.0


def _three_piece_h(s):
    # the component v^2/4 on [0, 2], v - 1 on [2, s], c v^{s*} above, and its inverse
    s_conj = s / (s - 1.0)
    c = (s - 1.0) * s ** (-s_conj)

    def h(v):
        return v * v / 4.0 if v <= 2.0 else (v - 1.0 if v <= s else c * v ** s_conj)

    def inverse(w):
        return 2.0 * math.sqrt(w) if w <= 1.0 else (w + 1.0 if w <= s - 1.0 else (w / c) ** (1.0 / s_conj))

    return h, inverse


def _three_piece_rows(dim, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((200, dim)) * np.exp(rng.uniform(-20.0, 20.0, (200, 1)))
    X[0] = 0.0                         # a zero row
    X[1, ::2] = 0.0                    # zeros among nonzeros
    X[2] = -0.75                       # every |x_i| tied
    X[3, : (dim + 1) // 2] = X[3, 0]   # ties at the top
    return X


@pytest.mark.parametrize("s", (2.5, 3.0, 7.0))
def test_three_piece_gauge_matches_bisection_oracle(s, monkeypatch):
    def no_bracket(*args, **kwargs):
        raise AssertionError("a three-piece family reached the bracketed solve")

    monkeypatch.setattr(psi_mod, "_bracket_solve", no_bracket)
    for dim in (1, 3, 8, 64):
        spec = SeparableFromPhi(dim=dim, phi=PhiSpec(s=s))
        for seed, p in enumerate((0.5, 2.0, 4.0, 16.0, 64.0)):
            X = _three_piece_rows(dim, seed)
            got = psi_p_norm_rows(spec, p, X)
            want = bisect_gauge(spec, p, X)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            nz = want > 0.0
            np.testing.assert_allclose(got[nz], want[nz], rtol=1e-9, atol=0.0)
            assert np.all(eval_psi_rows(spec, p * X[nz] / got[nz, None]) <= p)
    # at the gauge a = 1 the first coordinate sits exactly on the knot v:
    # x_1 = v/p and h(p x_2) = p - h(v)
    h, inverse = _three_piece_h(s)
    spec = SeparableFromPhi(dim=2, phi=PhiSpec(s=s))
    knots = 0
    for p in (4.0, 16.0, 64.0):
        for v in (2.0, s):
            if p > 2.0 * h(v):
                knots += 1
                x = np.array([v / p, inverse(p - h(v)) / p])
                assert psi_p_norm(spec, p, x) == pytest.approx(1.0, rel=1e-12)
                assert psi_p_norm(spec, p, x) == pytest.approx(bisect_gauge(spec, p, x)[0], rel=1e-9)
    assert knots >= 3


GRID = np.array([0.5, 2.0, 4.0, 33.0])


@pytest.mark.parametrize("spec", [
    PowerNorm(dim=4), PowerNorm(dim=4, norm=3.0, a=1.5), BobkovLedouxCap(dim=4),
    SeparableTwoLevel(dim=4, r=3.0), SeparableFromPhi(dim=4, phi=PhiSpec(s=1.0)),
    SeparableFromPhi(dim=4, phi=PhiSpec(s=1.5)), SeparableFromPhi(dim=4, phi=PhiSpec(s=3.0)),
    SeparableFromPhi(dim=4, phi=PhiSpec(fn=lambda t: np.abs(t) ** 2.5)),
    UserSeparable(dim=4, fn=_capped_square, name="capped")],
    ids=lambda s: getattr(s, "name", None) or repr(s))
def test_grid_columns_equal_the_scalar_calls_bit_for_bit(spec):
    X = _rows(5, m=40 if isinstance(spec, SeparableFromPhi) and spec.phi.fn else 400, dim=4)
    got = psi_p_norm_rows(spec, GRID, X)
    assert got.shape == (X.shape[0], GRID.size)
    for j, p in enumerate(GRID):
        np.testing.assert_array_equal(got[:, j], psi_p_norm_rows(spec, p, X))
    assert psi_p_norm_rows(spec, GRID[:1], X).shape == (X.shape[0], 1)


@pytest.mark.parametrize("p", [np.array([2.0, 0.0]), np.array([[2.0]]), math.nan])
def test_a_p_grid_must_be_positive_and_one_dimensional(p):
    with pytest.raises(InputError, match="p must be positive"):
        psi_p_norm_rows(PowerNorm(dim=2), p, np.ones((3, 2)))


def _norm_line(capsys, spec, p):
    rc = cli.main(["norm", "--psi", json.dumps(psi_to_dict(spec)), "--p", p, "--x", "3,4"])
    out, err = capsys.readouterr()
    return rc, out.splitlines()[-1] if rc == 0 else err


def test_three_piece_gauge_at_extreme_p(capsys):
    # p = 1e-300 is on the quadratic piece: a = sqrt(p) |x|_2 / 2
    spec = SeparableFromPhi(dim=2, phi=PhiSpec(s=3.0))
    rc, line = _norm_line(capsys, spec, "1e-300")
    assert rc == 0 and float(line) == pytest.approx(2.5e-150, rel=1e-12)
    # p = 1e308 is on the power piece: a = (c sum |x_i|^{s*})^{1/s*} p^{1/s}
    rc, line = _norm_line(capsys, spec, "1e308")
    want = (2.0 * 3.0 ** -1.5 * (3.0 ** 1.5 + 8.0)) ** (2.0 / 3.0) * 1e308 ** (1.0 / 3.0)
    assert rc == 0 and float(line) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spec", [SeparableTwoLevel(dim=3, r=3.0),
                                  SeparableFromPhi(dim=3, phi=PhiSpec(s=1.5)),
                                  SeparableFromPhi(dim=3, phi=PhiSpec(s=3.0))], ids=repr)
def test_two_piece_gauge_is_homogeneous_at_extreme_scales(spec):
    x = np.array([1.0, -0.1, 0.37])
    unit = psi_p_norm(spec, 4.0, x)
    for scale in (1e-300, 1e-160, 1e150):
        assert psi_p_norm(spec, 4.0, scale * x) == pytest.approx(scale * unit, rel=1e-12)


@pytest.mark.parametrize("spec", [
    PowerNorm(dim=2), PowerNorm(dim=2, norm=4.0), PowerNorm(dim=2, norm=math.inf),
    SeparableFromPhi(dim=2, phi=PhiSpec(s=3.0)), SeparableFromPhi(dim=2, phi=PhiSpec(s=1.0)),
    SeparableTwoLevel(dim=2, r=3.0), BobkovLedouxCap(dim=2),
    UserSeparable(dim=2, fn=_capped_square, name="capped")],
    ids=lambda s: getattr(s, "name", None) or repr(s))
def test_a_nonzero_row_whose_norm_underflows_is_never_zero(spec):
    # every nonzero row is solved at a power-of-two scale: its gauge is the
    # unit row's, scaled, bit for bit
    x = np.array([0.75, -0.1])
    unit = psi_p_norm(spec, 4.0, x)
    for k in (-1015, -1000, -500, 0, 500, 1000):
        assert psi_p_norm(spec, 4.0, np.ldexp(x, k)) == np.ldexp(unit, k)
    # entries 2^1100 apart: at the row's scale the small one is below every subnormal
    span = psi_p_norm(spec, 4.0, np.array([2.0 ** 400, 2.0 ** -700]))
    assert span == np.ldexp(psi_p_norm(spec, 4.0, np.array([1.0, 0.0])), 400)
    tiny = psi_p_norm(spec, 4.0, np.array([1e-300, 1e-301]))
    assert tiny == pytest.approx(1e-300 * psi_p_norm(spec, 4.0, np.array([1.0, 0.1])), rel=1e-12)
    # in a batch, the other rows are solved as on their own
    X = np.array([[1e-300, 1e-301], [0.75, -0.1], [0.0, 0.0], [3.0, 1e-200]])
    np.testing.assert_array_equal(psi_p_norm_rows(spec, 4.0, X),
                                  [tiny, unit, 0.0, psi_p_norm(spec, 4.0, X[3])])
    # a gauge in the subnormal range is the least subnormal at or above the
    # gauge of the row scaled into the normal range, so it stays feasible
    for c in np.linspace(1.0, 9.0, 17):
        x = np.array([c * 1e-310, -0.3 * c * 1e-310])
        e = np.frexp(np.max(np.abs(x)))[1]
        a = psi_p_norm(spec, 4.0, x)
        assert np.ldexp(a, -e) >= psi_p_norm(spec, 4.0, np.ldexp(x, -e)) > np.ldexp(
            np.nextafter(a, 0.0), -e)


def test_a_gauge_that_overflows_is_refused():
    with pytest.raises(NumericalError, match="overflows"):
        psi_p_norm(PowerNorm(dim=2), 4.0, np.array([1e308, 1.0]))


@pytest.mark.parametrize("n", [1, 2, 8, 16, 17, 64])
def test_row_max_is_numpys_bit_for_bit(n):
    # the column fold below 17 columns, numpy's reduction above
    rng = np.random.default_rng(n)
    A = np.round(2.0 * rng.standard_normal((500, n))) / 2.0 + 0.25  # ties, and no signed zero
    A[1] = 1.75                                                     # a row of ties
    for M in (A, np.abs(A), A[:, ::-1], np.abs(A) * 1e-310):
        assert psi_mod._row_max(M).tobytes() == np.max(M, axis=1).tobytes()
