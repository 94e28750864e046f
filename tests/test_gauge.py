"""Gauge solve: closed forms and the Chandrupatla solve against the
bracketed-bisection oracle, exact feasibility, and the iteration cap."""

import json
import math
import tracemalloc

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
TABLE_P = (0.5, 1.0, 4.0, 33.0, 1e4)
TABLE_DIMS = (1, 3, 8, 64, 512)
# a nearly empty linear piece, s* -> 1 and y^e underflow, on 300 x 8 rows
EXTREME_TWO_PIECE = ([SeparableTwoLevel(dim=1, r=r) for r in (1.0 + 1e-7, 1e3, 1e300)]
                     + [SeparableFromPhi(dim=1, phi=PhiSpec(s=1.0 + 1e-10))])
EXTREME_THREE_PIECE = (2.0 + 1e-7, 1e3, 1e300)
EXTREME_P = (0.5, 4.0, 1e4)


def _with_dim(spec, dim):
    return (SeparableTwoLevel(dim=dim, r=spec.r) if isinstance(spec, SeparableTwoLevel)
            else SeparableFromPhi(dim=dim, phi=spec.phi))


def _inverse(table, w):
    # the v >= 0 with h(v) = w, piece by piece
    for a, e, c, _, hi in table._spans:
        if hi == math.inf or w <= a * hi ** e + c:
            return ((w - c) / a) ** (1.0 / e)


def _on_the_knot(spec, p):
    # per knot b with p > 2 h(b): x_1 = b/p and h(p x_2) = p - h(b), so at
    # the gauge a = 1 coordinate 1 sits exactly on the knot, where two pieces meet
    table = spec._table
    rows = []
    for b in table.knots:
        h_b = float(table.value(b))
        if p > 2.0 * h_b:
            rows.append(np.array([b / p, _inverse(table, p - h_b) / p]))
    return rows


def _table_rows(dim, seed, m=None):
    rng = np.random.default_rng(seed)
    m = m or (60 if dim > 8 else 300)
    X = rng.standard_normal((m, dim)) * np.exp(rng.uniform(-20.0, 20.0, (m, 1)))
    X[0] = 0.0                         # a zero row
    X[1] = 0.0
    X[1, -1] = -2.5                    # one nonzero coordinate
    X[2] = 1.5                         # every |x_i| tied
    X[3, ::2] = 0.0                    # zeros among nonzeros
    X[4, : (dim + 1) // 2] = -X[4, 0]  # ties at the top
    return X


def _check_table_gauge(spec, dims, ps, monkeypatch, m=None):
    """Within 2e-12 of the bisection oracle, feasible, and never on the
    bracketed solve; exact where a coordinate sits on a knot at the gauge."""
    def no_bracket(*args, **kwargs):
        raise AssertionError("a piece-table family reached the bracketed solve")

    monkeypatch.setattr(psi_mod, "_bracket_solve", no_bracket)
    for dim in dims:
        sp = _with_dim(spec, dim)
        for seed, p in enumerate(ps):
            X = _table_rows(dim, seed, m)
            got = psi_p_norm_rows(sp, p, X)
            want = bisect_gauge(sp, p, X)
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            nz = want > 0.0
            np.testing.assert_allclose(got[nz], want[nz], rtol=2e-12, atol=0.0)
            assert np.all(eval_psi_rows(sp, p * X[nz] / got[nz, None]) <= p)
    knots = 0
    sp = _with_dim(spec, 2)
    for p in ps:
        for x in _on_the_knot(sp, p):
            knots += 1
            assert psi_p_norm(sp, p, x) == pytest.approx(1.0, rel=2e-12)
            assert psi_p_norm(sp, p, x) == pytest.approx(bisect_gauge(sp, p, x)[0], rel=2e-12)
    return knots


@pytest.mark.parametrize("spec", TWO_PIECE, ids=repr)
def test_two_piece_gauge_matches_bisection_oracle(spec, monkeypatch):
    assert len(spec._table.pieces) == 2
    _check_table_gauge(spec, TABLE_DIMS, TABLE_P, monkeypatch)


@pytest.mark.parametrize("s", (2.5, 3.0, 7.0))
def test_three_piece_gauge_matches_bisection_oracle(s, monkeypatch):
    spec = SeparableFromPhi(dim=1, phi=PhiSpec(s=s))
    assert len(spec._table.pieces) == 3
    assert _check_table_gauge(spec, TABLE_DIMS, TABLE_P, monkeypatch) >= 3


@pytest.mark.parametrize("spec", EXTREME_TWO_PIECE
                         + [SeparableFromPhi(dim=1, phi=PhiSpec(s=s)) for s in EXTREME_THREE_PIECE],
                         ids=repr)
def test_gauge_at_extreme_exponents_matches_bisection_oracle(spec, monkeypatch):
    _check_table_gauge(spec, (8,), EXTREME_P, monkeypatch, m=300)


def test_from_phi_table_is_its_component():
    # The gauge reads FromPhi's own table: v^2/4 up to the knot v0 and
    # c v^{s*} above for 1 < s <= 2 (v0 = 2 at s = 2), and v^2/4, v - 1 and
    # c v^{s*} with knots 2 and s for s > 2.  The component is the transform
    # of the two-level table, a largest of sups: the two round apart only
    # within a relative 3e-8 of a knot, by at most 16 ulps (13 at v0 for
    # s = 1.01, one above s for s > 2)
    v = np.geomspace(1e-6, 1e6, 200001)
    band = moved = 0
    for s in (1.01, 1.1, 1.5, 1.9, 1.99, 2.0, 2.0 + 1e-7, 2.5, 3.0, 7.0):
        spec = SeparableFromPhi(dim=1, phi=PhiSpec(s=s))
        table = spec._table
        if s == 2.0:
            assert table.knots == (2.0,)
        near = np.concatenate([b * (1.0 + np.linspace(-1e-7, 1e-7, 20001)) for b in table.knots])
        u = np.concatenate([v, near])
        got = spec._component(u)
        with np.errstate(over="ignore"):
            two = table.value(u)
        finite = np.isfinite(two)
        diff = finite & (two != got)
        knot_dist = np.min([np.abs(u / b - 1.0) for b in table.knots], axis=0)
        assert np.all(knot_dist[diff] <= 3e-8)
        assert np.all(np.abs(two[diff] - got[diff]) <= 16 * np.spacing(got[diff]))
        moved += np.count_nonzero(diff)
        # where v^{s*} overflows, c v^{s*} may not: the component is inf only
        # where log c + s* log v exceeds log(DBL_MAX)
        a, e, c = table.pieces[-1]
        log_h = math.log(a) + e * np.log(u[~finite])
        over = log_h > math.log(np.finfo(float).max)
        assert np.all(np.isinf(got[~finite][over]))
        np.testing.assert_allclose(np.log(got[~finite][~over]), log_h[~over], rtol=1e-13)
        band += np.count_nonzero(~over)
    assert band > 0   # s = 1.01 near v = 1e6
    assert moved > 0  # the band is not vacuous


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


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_two_piece_gauge_at_p_1e308_where_v_to_the_s_star_overflows(capsys, s):
    # on the power piece a = p (c sum |x_i|^{s*} / p)^{1/s*}; the feasibility
    # check reads c v^{s*} at v ~ 1e103 (s = 1.5), where v^{s*} overflows
    spec = SeparableFromPhi(dim=2, phi=PhiSpec(s=s))
    s_conj = s / (s - 1.0)
    c = (s - 1.0) * s ** (-s_conj)
    want = 1e308 * (c * (3.0 ** s_conj + 4.0 ** s_conj) / 1e308) ** (1.0 / s_conj)
    rc, line = _norm_line(capsys, spec, "1e308")
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


def _witness_rows(n, seed):
    # scales e^-20 to e^20, a zero row, a row with zeros, and the top
    # magnitude tied by the first and last entries or by all
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((40, n)) * np.exp(rng.uniform(-20.0, 20.0, (40, 1)))
    Z[0] = 0.0
    Z[1, ::2] = 0.0
    Z[2, 0] = np.max(np.abs(Z[2]))
    Z[2, -1] = -Z[2, 0]
    Z[3] = 1.0
    Z[4] = -Z[4, 0]
    return Z


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_ball_witness_against_the_norm_and_the_dual_ball(r):
    # the norm is numpy's bit for bit; the maximizer y of <z, y> over the
    # unit l_{r*} ball attains |z|_r and has |y|_{r*} = 1.  Both hold to
    # 1e-15 relative times 1 + |ln |z|_r|: numpy's 1/r power rounds the
    # exponent, which costs |ln |z|_r| ulps at large and small scales
    r_dual = math.inf if r == 1.0 else (1.0 if math.isinf(r) else r / (r - 1.0))
    for n in (1, 3, 16, 64):
        for seed in range(5):
            Z = _witness_rows(n, seed)
            norms, Y = psi_mod._ball_witness(Z, r)
            for z, norm, y in zip(Z, norms, Y):
                assert norm == np.linalg.norm(z, ord=r)
                if not np.any(z):
                    assert norm == 0.0 and not np.any(y)
                    continue
                tol = 1e-15 * (1.0 + abs(math.log(norm)))
                assert abs(math.fsum(z * y) - norm) <= tol * norm
                assert abs(np.linalg.norm(y, ord=r_dual) - 1.0) <= tol
                if math.isinf(r):  # ties take the first top index
                    assert np.flatnonzero(y).tolist() == [np.flatnonzero(np.abs(z) == norm)[0]]


SLICED = {
    "power_l2": lambda n: PowerNorm(dim=n),
    "power_l3": lambda n: PowerNorm(dim=n, norm=3.0, a=1.5),
    "two_level_r3": lambda n: SeparableTwoLevel(dim=n, r=3.0),
    "from_phi_s1": lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(s=1.0)),
    "from_phi_s15": lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(s=1.5)),
    "from_phi_s3": lambda n: SeparableFromPhi(dim=n, phi=PhiSpec(s=3.0)),
    "blcap": lambda n: BobkovLedouxCap(dim=n),
    "user_cube": lambda n: UserSeparable(dim=n, fn=lambda u: np.abs(u) ** 3, name="cube"),
}


@pytest.mark.parametrize("n, size", [(1, 8192), (8, 2048), (64, 2048)])
@pytest.mark.parametrize("family", SLICED)
def test_sliced_gauge_is_the_one_row_gauge_bit_for_bit(family, n, size, monkeypatch):
    # slices of 8,192 active rows at n <= 2 and 2,048 above, and the piece
    # tables' p groups of at most 8,192 (row, p) pairs: each value depends on
    # its row and p alone, so it is the one-row gauge wherever a slice or group
    # boundary falls.  97 distinct rows (scales e^-4 to e^4) repeat down active
    # row counts on either side of one and two boundaries, with zero rows
    # before, among and after them; user_cube takes the Chandrupatla solve
    spec, grid = SLICED[family](n), np.array([2.0, 5.0, 33.0])
    rng = np.random.default_rng(n)
    base = rng.standard_normal((97, n)) * np.exp(rng.uniform(-4.0, 4.0, (97, 1)))
    ref = np.array([[psi_p_norm(spec, p, x) for p in grid] for x in base])
    seen = []
    closed = type(spec)._closed_gauge
    monkeypatch.setattr(type(spec), "_closed_gauge",
                        lambda self, ps, Y: seen.append(len(Y)) or closed(self, ps, Y))
    for m in (size - 1, size, size + 1, 2 * size + 7, 8192):
        seen.clear()
        X = np.insert(base[np.arange(m) % 97], [0, m // 2, m], 0.0, axis=0)
        got = psi_p_norm_rows(spec, grid, X)
        assert seen == [min(size, m - i) for i in range(0, m, size)]
        assert not np.any(got[[0, m // 2 + 1, m + 2]])
        active = np.delete(got, [0, m // 2 + 1, m + 2], axis=0)
        assert active.tobytes() == ref[np.arange(m) % 97].tobytes()


def test_a_gauge_block_holds_slice_sized_temporaries():
    # one 8,192 x 64 TwoLevel block solved in 2,048-row slices peaks at 8.8 MB,
    # under 2.5 times the 4.2 MB of the block (30 MB solved whole)
    X = np.random.default_rng(0).standard_normal((8192, 64))
    spec = SeparableTwoLevel(dim=64, r=3.0)
    tracemalloc.start()
    try:
        psi_p_norm_rows(spec, 4.0, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * X.nbytes
