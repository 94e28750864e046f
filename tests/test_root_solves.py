"""The one bracketing root finder behind omega^-1, omega*, the enlargement
radius, Chebyshev levels, the support pull-back and the custom-Phi sampler:
each against a bisection oracle, the feasibility of every returned end, and
the iteration cap; and the one module, `solvers`, that every layer takes
its solvers from."""

import importlib
import math
import subprocess
import sys

import numpy as np
import pytest

import orlicz_conc.bounds as bd
import orlicz_conc.cli as cli
import orlicz_conc.conjugacy as cj
import orlicz_conc.measures as ms
import orlicz_conc.solvers as solvers
from orlicz_conc import (BobkovLedouxCap, GrowthEnvelope, NumericalError, PhiSpec,
                         PowerNorm, SeparableFromPhi, SeparableTwoLevel, UserSeparable,
                         chebyshev_level, conjugate_ray_radius, l_constant, lam, omega,
                         omega_inv, omega_star, profile_table, psi_star, support_argmax)


def monotone_sup(pred):
    """Reference sup{t > 0 : pred(t)} for a predicate true near 0 and false
    for large t: geometric bracketing from t = 1, then log-bisection to a
    relative width of 1e-13; returns the feasible end."""
    if pred(1.0):
        lo, hi = 1.0, 2.0
        while pred(hi):
            lo, hi = hi, hi * 2.0
    else:
        lo, hi = 0.5, 1.0
        while not pred(lo):
            lo, hi = lo * 0.5, lo
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            return lo
    raise AssertionError("oracle bisection did not converge")


def bisect_phi_inv(phi, y):
    """Reference phi^{-1}: the least a with Phi(a) >= y, by doubling a bracket
    from [0, 1] and bisecting until its ends are adjacent floats."""
    lo, hi = np.zeros_like(y), np.ones_like(y)
    while np.any(low := phi.phi(hi) < y):
        hi[low] *= 2.0
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        open_ = (mid > lo) & (mid < hi)
        if not np.any(open_):
            return hi
        ge = phi.phi(mid) >= y
        hi = np.where(open_ & ge, mid, hi)
        lo = np.where(open_ & ~ge, mid, lo)
    raise AssertionError("oracle bisection did not converge")


@pytest.fixture()
def feasible_ends(monkeypatch):
    """Wrap the solver so that every root it returns is checked feasible."""
    def checked(resid, data, start, what):
        t = solvers._bracket_sup(resid, data, start, what)
        assert np.all(resid(data, t) <= 0), what
        return t
    for module in (cj, bd):
        monkeypatch.setattr(module, "_bracket_sup", checked)


def _cube(u):
    return np.abs(u) ** 3


PROFILE_SPECS = (
    [PowerNorm(dim=3, norm=2.0, a=a) for a in (1.5, 2.0)]
    + [SeparableTwoLevel(dim=3, r=r) for r in (2.0, 3.0)]
    + [SeparableFromPhi(dim=3, phi=PhiSpec(s=s)) for s in (1.0, 1.5, 3.0)]
    + [BobkovLedouxCap(dim=3, threshold=0.7), UserSeparable(dim=2, fn=_cube, name="cube")])


def _points(spec):
    # the numeric omega of a UserSeparable costs a grid supremum per point
    return (0.3, 4.0) if isinstance(spec, UserSeparable) else (0.01, 0.3, 1.0, 2.5, 40.0)


@pytest.mark.parametrize("spec", PROFILE_SPECS, ids=repr)
def test_profiles_and_radius_match_log_bisection(spec, feasible_ends):
    for t in _points(spec):
        want = monotone_sup(lambda x: omega(spec, x) <= t)
        assert omega_inv(spec, t) == pytest.approx(want, rel=1e-12, abs=0.0)
        want = t * monotone_sup(lambda u: omega(spec, u) / u <= t)
        assert omega_star(spec, t) == pytest.approx(want, rel=1e-12, abs=0.0)
        e = np.eye(spec.dim)[0]
        want = monotone_sup(lambda c: psi_star(spec, c * e) < t)
        assert conjugate_ray_radius(spec, t) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("G", [math.sqrt, lambda p: 0.7 * p ** 0.3, math.log1p],
                         ids=["sqrt", "power", "log"])
def test_chebyshev_level_matches_log_bisection(G, feasible_ends):
    env = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0)
    L = l_constant(env)
    for t in (L * G(2.5), L * G(30.0) * 1.01, L * G(600.0) * 0.99):
        want = monotone_sup(lambda p: L * G(p) <= t)
        got = -math.log(chebyshev_level(G, env, 1.0, t))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_support_pull_back_matches_log_bisection(monkeypatch, feasible_ends):
    # an infeasible coordinate argmax forces the pull-back onto {Psi* <= p}
    monkeypatch.setattr(cj, "_coordinate_argmax", lambda spec, theta, lam_: 3.0 * theta)
    spec, p = SeparableTwoLevel(dim=4, r=3.0), 2.0
    theta = np.array([1.5, -0.4, 0.0, 2.0])
    c = monotone_sup(lambda c_: psi_star(spec, c_ * 3.0 * theta) <= p)
    value, y = support_argmax(spec, p, theta)
    np.testing.assert_allclose(y, c * 3.0 * theta, rtol=1e-12, atol=0.0)
    assert psi_star(spec, y) <= p


def _capped_square(t):
    with np.errstate(over="ignore"):
        return np.where(t <= 3.0, t * t, np.inf)


@pytest.mark.parametrize("fn", [lambda t: 0.5 * (t * t + t * t * t), lambda t: t ** 1.5,
                                lambda t: np.expm1(t) / math.expm1(1.0), _capped_square],
                         ids=["cubic", "power", "exp", "capped"])
def test_custom_phi_inverse_is_within_four_ulps_and_feasible(fn):
    phi = PhiSpec(fn=fn)
    u = ms._uniform_open(np.random.default_rng(2), 20000)
    y = np.concatenate([-np.log(u), [1.1e-16, 1e-9, 1.0, 9.0, 37.4]])
    got = ms._phi_inv_array(phi, y)
    want = bisect_phi_inv(phi, y)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))
    assert np.all(phi.phi(got) >= y)


@pytest.mark.parametrize("spec", PROFILE_SPECS[:-1], ids=repr)
def test_profile_table_columns_equal_scalar_calls(spec):
    ts = np.geomspace(1e-3, 1e3, 9)
    want = np.array([[t, omega(spec, t), omega_inv(spec, t), omega_star(spec, t), lam(spec, t)]
                     for t in ts])
    np.testing.assert_array_equal(profile_table(spec, ts), want)


SPEC3 = SeparableTwoLevel(dim=3, r=3.0)
ENV = GrowthEnvelope(K=1.0, alpha=2.0, beta=2.0, D=1.0)


@pytest.mark.parametrize("what, call", [
    ("omega_inv", lambda: omega_inv(SPEC3, 2.0)),
    ("omega_inv", lambda: profile_table(SPEC3, [0.5, 2.0])),
    ("omega_star", lambda: omega_star(SPEC3, 2.0)),
    ("conjugate_ray_radius", lambda: conjugate_ray_radius(SPEC3, 2.0)),
    ("chebyshev_level", lambda: chebyshev_level(math.sqrt, ENV, 1.0, 10.0)),
    ("phi", lambda: ms._phi_inv_array(PhiSpec(fn=lambda t: t ** 1.5), np.array([0.5, 2.0]))),
], ids=["omega_inv", "profile_table", "omega_star", "conjugate_ray_radius",
        "chebyshev_level", "phi_inv"])
def test_each_caller_raises_at_the_iteration_cap(monkeypatch, what, call):
    monkeypatch.setattr(solvers, "_SOLVE_MAX", 1)
    with pytest.raises(NumericalError, match=f"^{what}.* did not converge"):
        call()


def test_support_pull_back_raises_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(solvers, "_SOLVE_MAX", 1)
    monkeypatch.setattr(cj, "_coordinate_argmax", lambda spec, theta, lam_: 3.0 * theta)
    with pytest.raises(NumericalError, match="^support_argmax solve did not converge"):
        support_argmax(SeparableTwoLevel(dim=2, r=3.0), 2.0, np.array([1.0, -0.5]))


def test_custom_phi_bracket_failure_names_its_caller():
    bounded = PhiSpec(fn=lambda t: np.minimum(t, 1.0))
    with pytest.raises(NumericalError, match=r"^phi\^\{-1\} bracket failed"):
        ms._phi_inv_array(bounded, np.array([0.5, 2.0]))


def test_conjugate_grid_exits_three_at_the_iteration_cap(monkeypatch, capsys):
    monkeypatch.setattr(solvers, "_SOLVE_MAX", 1)
    rc = cli.main(["conjugate", "--psi", '{"family":"SeparableTwoLevel","params":{"r":3},"dim":2}',
                   "--grid", "0.1,10,5"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert "omega_inv solve did not converge" in captured.err


def test_solvers_is_a_leaf_module():
    # numpy, the standard library and errors: no other package module
    probe = ("import sys, orlicz_conc.solvers\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'orlicz_conc'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(["orlicz_conc", "orlicz_conc.errors",
                                                "orlicz_conc.solvers"])


SOLVER_LOOPS = ("_bracket_solve", "_solve_block", "_bracket_sup", "_newton", "_golden_max",
                "_grid_sup", "legendre_1d")
LAYER_SOLVERS = {
    "psi": ("_BLOCK", "_bracket_solve", "_newton", "_shaped", "legendre_1d"),
    "conjugacy": ("_GOLDEN", "GRID_HI", "GRID_LO", "GRID_POINTS", "_bracket_sup", "_column",
                  "_grid_sup", "_shaped", "legendre_1d"),
    "bounds": ("_bracket_sup", "_column", "_shaped"),
    "measures": ("_BLOCK", "_bracket_solve"),
    "empirics": ("_BLOCK",),
}


@pytest.mark.parametrize("layer", ["psi", "conjugacy", "bounds", "measures", "empirics",
                                   "tensors", "cli", "tables"])
def test_each_layer_runs_the_solvers_own_objects(layer):
    module = importlib.import_module(f"orlicz_conc.{layer}")
    for name in LAYER_SOLVERS.get(layer, ()):
        assert getattr(module, name) is getattr(solvers, name), name
    # no layer keeps a loop of its own under a solver's name
    for name in SOLVER_LOOPS:
        assert getattr(module, name, solvers) in (solvers, getattr(solvers, name)), name
