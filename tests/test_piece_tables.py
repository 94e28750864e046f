"""The piece tables of the separable families against the closed forms they
replaced (`frozen_closed_forms`): component, conjugate, tilde-Phi* and omega
bit for bit, infinities included."""

import numpy as np
import pytest

import frozen_closed_forms as frozen
from orlicz_conc import BobkovLedouxCap, PhiSpec, SeparableFromPhi, SeparableTwoLevel

GRID = np.geomspace(1e-9, 1e9, 200001)


@pytest.fixture(autouse=True)
def _overflow_is_a_value():
    # both forms overflow to +inf at the same points (omega's t^r, the
    # two-level component's u^r); only the values are compared here
    with np.errstate(over="ignore"):
        yield


def _points(knots):
    # the grid and every float within 64 ulps of each knot
    return np.concatenate([GRID, frozen.around(knots)])


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} differ, first {got[bad[0]]!r} != {want[bad[0]]!r}"


@pytest.mark.parametrize("r", [1.2, 1.5, 2.0, 3.0, 7.0, 1e3])
def test_two_level_table_is_the_written_out_closed_forms(r):
    spec = SeparableTwoLevel(dim=1, r=r)
    v = _points((1.0, 2.0, r))
    _same_bits(spec._component(v), frozen.two_level_component(v, r))
    _same_bits(spec._closed_conjugate(v), frozen.two_level_component_conjugate(v, r))
    _same_bits(spec._closed_omega(v), frozen.two_level_omega(v, r))


@pytest.mark.parametrize("s", [1.0, 1.01, 1.5, 1.9, 2.0, 2.0 + 1e-7, 2.5, 3.0, 7.0])
def test_from_phi_table_is_the_written_out_closed_forms(s):
    spec = SeparableFromPhi(dim=1, phi=PhiSpec(s=s))
    v = _points((1.0, 2.0, s) + frozen.from_phi_knots(s))
    want = frozen.two_level_component_conjugate(v, s)
    _same_bits(spec._component(v), want)
    _same_bits(spec.phi.tilde_star(v), want)
    _same_bits(spec._closed_omega(v), frozen.from_phi_omega(v, s))
    conj = frozen.from_phi_conjugate(v, s)
    if conj is None:
        assert spec._closed_conjugate(v) is None
    else:
        _same_bits(spec._closed_conjugate(v), conj)


@pytest.mark.parametrize("thr", [0.5, 1.7, 2.0])
def test_cap_table_is_the_written_out_closed_forms(thr):
    spec = BobkovLedouxCap(dim=1, threshold=thr)
    v = _points((1.0, thr, 2.0 * thr))
    _same_bits(spec._component(v), frozen.cap_component(v, thr))
    _same_bits(spec._closed_conjugate(v), frozen.cap_conjugate(v, thr))
    _same_bits(spec._closed_omega(v), frozen.cap_omega(v))


def test_capped_tables_keep_their_closed_form_gauge():
    # BobkovLedouxCap's gauge, and SeparableFromPhi s = 1's as half that of
    # the cap at 1/2, the component there being the cap's at x/2
    rng = np.random.default_rng(11)
    X = rng.standard_normal((3000, 5)) * np.exp(rng.uniform(-3.0, 3.0, (3000, 1)))
    ps = [1e-200, 0.01, 0.5, 4.0, 33.0, 1e200]
    for thr in (0.5, 1.7, 2.0):
        _same_bits(BobkovLedouxCap(dim=5, threshold=thr)._closed_gauge(ps, X),
                   frozen.cap_gauge(ps, X, thr))
    _same_bits(SeparableFromPhi(dim=5, phi=PhiSpec(s=1.0))._closed_gauge(ps, X),
               0.5 * frozen.cap_gauge(ps, X, 0.5))


def test_a_scalar_argument_gives_a_scalar():
    for v in (5.0, 1e300):
        want = frozen.two_level_component_conjugate(v, 1.5)
        _same_bits(PhiSpec(s=1.5).tilde_star(v), want)
        _same_bits(SeparableTwoLevel(dim=1, r=1.5)._closed_conjugate(v), want)
