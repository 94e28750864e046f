"""Convex conjugation machinery: 1-D Legendre transforms, the ray growth
function omega and its inverse/conjugate profiles, and Psi* with the level
sets {Psi* <= p} used by the chaos and enlargement bounds.

Each PsiSpec family supplies its closed forms (`_closed_omega`,
`_closed_conjugate`, `_closed_support`, ...); this module holds only the
family-independent numeric fallbacks.  omega(t) = sup{Psi(tx)/Psi(x) :
Psi(x) finite, x != 0} has closed forms for every built-in family;
user-supplied components fall back to a grid supremum, which is a lower
bound of the true omega and is reported as such.  The conjugate-type profile

    omega*(t) = t * sup{u > 0 : omega(u)/u <= t}

is computed by the gauge's bracketing solve (omega(u)/u is non-decreasing)
and is sandwiched between the Legendre transform lambda(t) =
sup_y(t y - omega(y)) and lambda(2t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError
from .psi import PsiSpec, _as_vector, _bracket_sup, eval_psi

GRID_LO = 1e-6
GRID_HI = 1e6
GRID_POINTS = 2048

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScalarConvexFn:
    """1-D function handle phi: [0, inf) -> [0, inf], phi(0) = 0, with an
    optional closed-form conjugate and the point beyond which phi = +inf."""

    fn: Callable
    name: str = ""
    domain_bound: float = math.inf
    conjugate_closed: Optional[Callable] = None


def _call_grid(fn: Callable, ys: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(fn(ys), dtype=float)
        if vals.shape == ys.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(y)) for y in ys])


def _golden_max(fn: Callable, a: float, b: float, iters: int = 80) -> float:
    """Golden-section maximization of a scalar unimodal fn on [a, b]."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        if b - a <= 1e-12 * max(abs(b), 1.0):
            break
    return max(f1, f2)


def legendre_1d(phi, t: float, lo: float = GRID_LO, hi: float = GRID_HI,
                points: int = GRID_POINTS) -> float:
    """sup_{y > 0} (t y - phi(y)) by log-grid search plus golden-section
    refinement in the winning cell.

    Reports +inf when the objective is still climbing at the top grid edge.
    The result is clamped at 0, the supremum attained as y -> 0+ whenever
    phi vanishes at the origin (all uses here).
    """
    if isinstance(phi, ScalarConvexFn):
        phi = phi.fn
    if not (t >= 0):
        raise InputError(f"legendre_1d requires t >= 0, got {t}")
    ys = np.geomspace(lo, hi, points)
    with np.errstate(over="ignore", invalid="ignore"):
        obj = t * ys - _call_grid(phi, ys)
    obj = np.where(np.isnan(obj), -np.inf, obj)
    i = int(np.argmax(obj))
    if i == points - 1:
        per_decade = max(2, int(points / math.log10(hi / lo)))
        if obj[-1] > obj[-per_decade] + 1e-12 * max(1.0, abs(obj[-1])):
            return math.inf
    a = ys[max(i - 1, 0)]
    b = ys[min(i + 1, points - 1)]

    def g(y):
        v = float(np.asarray(phi(np.asarray([y])), dtype=float).ravel()[0])
        return t * y - v

    best = _golden_max(g, a, b)
    return max(0.0, max(best, float(obj[i])))


# ---------------------------------------------------------------------------
# omega and friends

def omega_ray_sup(spec: PsiSpec, t: float, points: int = GRID_POINTS) -> float:
    """Numeric sup_u h(tu)/h(u) for a separable spec; a lower bound of the
    true omega in general, exact up to grid resolution for the built-ins."""
    if not spec.separable:
        raise InputError("ray supremum requires a separable spec")
    us = np.geomspace(GRID_LO, GRID_HI, points)
    with np.errstate(over="ignore", invalid="ignore"):
        h_u = spec._component(us)
        h_tu = spec._component(t * us)
    valid = (h_u > 0.0) & np.isfinite(h_u)
    if not np.any(valid):
        raise NumericalError("component is nowhere finite-positive on the grid")
    if np.any(np.isinf(h_tu[valid])):
        return math.inf
    ratio = h_tu[valid] / h_u[valid]
    us_v = us[valid]
    i = int(np.argmax(ratio))

    def g(logu):
        u = math.exp(logu)
        hu = float(spec._component(np.asarray([u]))[0])
        htu = float(spec._component(np.asarray([t * u]))[0])
        if hu <= 0.0 or not math.isfinite(hu):
            return -math.inf
        return htu / hu

    a = math.log(us_v[max(i - 1, 0)])
    b = math.log(us_v[min(i + 1, len(us_v) - 1)])
    return max(float(ratio[i]), _golden_max(g, a, b, iters=60))


def omega(spec: PsiSpec, t: float) -> float:
    """Maximal growth ratio of Psi along rays at dilation t > 0."""
    if not t > 0:
        raise InputError(f"omega requires t > 0, got {t}")
    return float(omega_values(spec, np.asarray(float(t))))


def omega_values(spec: PsiSpec, ts: np.ndarray) -> np.ndarray:
    """omega elementwise: the family's closed form, else omega_ray_sup."""
    ts = np.asarray(ts, dtype=float)
    with np.errstate(over="ignore"):
        closed = spec._closed_omega(ts)
    if closed is not None:
        return closed
    return np.array([omega_ray_sup(spec, float(t)) for t in ts.ravel()]).reshape(ts.shape)


def _omega_inv_values(spec: PsiSpec, s: np.ndarray) -> np.ndarray:
    return _bracket_sup(lambda d, t: omega_values(spec, t) - d, s, np.ones_like(s), "omega_inv")


def _omega_star_values(spec: PsiSpec, t: np.ndarray) -> np.ndarray:
    u_star = _bracket_sup(lambda d, u: omega_values(spec, u) / u - d, t, np.ones_like(t),
                          "omega_star")
    return t * u_star


def omega_inv(spec: PsiSpec, s: float) -> float:
    """Right-continuous inverse sup{t > 0 : omega(t) <= s}."""
    if not s > 0:
        raise InputError(f"omega_inv requires s > 0, got {s}")
    return float(_omega_inv_values(spec, np.array([float(s)]))[0])


def omega_star(spec: PsiSpec, t: float) -> float:
    """omega*(t) = t * sup{u > 0 : omega(u)/u <= t}."""
    if not t > 0:
        raise InputError(f"omega_star requires t > 0, got {t}")
    return float(_omega_star_values(spec, np.array([float(t)]))[0])


def lam(spec: PsiSpec, t: float) -> float:
    """lambda(t) = sup_{y>0} (t y - omega(y)), the Legendre transform of
    omega; sandwiches omega* via lambda(t) <= omega*(t) <= lambda(2t)."""
    return legendre_1d(lambda ys: omega_values(spec, ys), t)


@dataclass(frozen=True)
class OmegaProfile:
    """Bundled omega / omega^{-1} / omega* / lambda callables for one spec."""

    spec: PsiSpec
    omega: Callable
    omega_inv: Callable
    omega_star: Callable
    lam: Callable


def omega_profile(spec: PsiSpec) -> OmegaProfile:
    return OmegaProfile(
        spec=spec,
        omega=lambda t: omega(spec, t),
        omega_inv=lambda s: omega_inv(spec, s),
        omega_star=lambda t: omega_star(spec, t),
        lam=lambda t: lam(spec, t),
    )


def profile_table(spec: PsiSpec, ts) -> np.ndarray:
    """Columns (t, omega, omega_inv, omega*, lambda) for CSV export."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts > 0):
        raise InputError(f"profile_table requires t > 0, got {ts[~(ts > 0)][0]}")
    return np.column_stack((ts, omega_values(spec, ts), _omega_inv_values(spec, ts),
                            _omega_star_values(spec, ts), [lam(spec, t) for t in ts]))


# ---------------------------------------------------------------------------
# Psi* and its level sets

def _conjugate_1d(spec: PsiSpec, v: np.ndarray) -> np.ndarray:
    """The spec's 1-D conjugate at |v|, elementwise: its closed form, else the
    numeric Legendre transform of a separable spec's component.

    For the two-level family with r < 2 this is the conjugate of the convex
    envelope of the component, which is the object the enlargement and chaos
    corollaries use for such specs.
    """
    v = np.abs(v)
    with np.errstate(over="ignore"):
        closed = spec._closed_conjugate(v)
    if closed is not None:
        return closed
    return np.array([legendre_1d(spec._component, float(x)) for x in v])


def psi_star(spec: PsiSpec, y) -> float:
    """Legendre transform Psi*(y) = sup_x(<x,y> - Psi(x)): the 1-D conjugate
    summed over coordinates for separable families, taken at the dual norm
    of y for PowerNorm."""
    y = _as_vector(spec, y)
    if spec.separable:
        return float(np.sum(_conjugate_1d(spec, y)))
    return float(spec._closed_conjugate(spec._dual_norm(y)))


def conjugate_ray_radius(spec: PsiSpec, u: float, axis: int = 0) -> float:
    """s(u) = sup{c > 0 : Psi*(c e_axis) <= u}, the reach of the enlargement
    body {Psi* < u} along a coordinate axis.  Psi*(c e_axis) is the 1-D
    conjugate at c, the same for every axis."""
    if not u > 0:
        raise InputError(f"requires u > 0, got {u}")
    if not (0 <= axis < spec.dim):
        raise InputError(f"axis {axis} out of range for dim {spec.dim}")
    return float(_bracket_sup(lambda d, c: _conjugate_1d(spec, c) - d, np.array([float(u)]),
                              np.ones(1), "conjugate_ray_radius")[0])


def support_function(spec: PsiSpec, p: float, theta) -> float:
    """sup{<theta, y> : Psi*(y) <= p} for a convex spec.

    A family's closed form is used where it has one (PowerNorm: radius(p) *
    ||theta||_q); separable convex families use Lagrange duality, sup =
    min_{lam>0} lam (p + Psi(theta/lam)), a 1-D convex minimization solved on
    a log grid with golden refinement.
    """
    if not p > 0:
        raise InputError(f"requires p > 0, got {p}")
    spec._require_convex()
    theta = _as_vector(spec, theta)
    if not np.any(theta):
        return 0.0
    closed = spec._closed_support(p, theta)
    if closed is not None:
        return closed

    def negobj(lam_):
        with np.errstate(over="ignore"):
            val = lam_ * (p + eval_psi(spec, theta / lam_))
        return -val

    lams = np.geomspace(1e-9, 1e9, 512)
    vals = np.array([negobj(l) for l in lams])
    i = int(np.argmax(vals))

    def negobj_log(ll):
        return negobj(math.exp(ll))

    a = math.log(lams[max(i - 1, 0)])
    b = math.log(lams[min(i + 1, len(lams) - 1)])
    best = max(float(vals[i]), _golden_max(negobj_log, a, b))
    return -best


def support_argmax(spec: PsiSpec, p: float, theta) -> tuple:
    """(value, y) with y a feasible point of {Psi* <= p} attaining (up to
    numerical tolerance) the supremum of <theta, .>; used as the exact inner
    step of alternating chaos maximization."""
    if not p > 0:
        raise InputError(f"requires p > 0, got {p}")
    spec._require_convex()
    theta = _as_vector(spec, theta)
    if not np.any(theta):
        return 0.0, np.zeros(spec.dim)
    closed = spec._closed_support_argmax(p, theta)
    if closed is not None:
        return closed

    # separable: multiplier from the dual, then exact per-coordinate argmax
    lam_star = _support_multiplier(spec, p, theta)
    y = np.empty(spec.dim)
    for j, tj in enumerate(theta):
        y[j] = _coordinate_argmax(spec, tj, lam_star, p)
    # pull back onto the feasible set (guards multiplier round-off)
    if psi_star(spec, y) > p:
        c = _bracket_sup(lambda d, cs: np.array([psi_star(spec, c_ * y) for c_ in cs]) - d,
                         np.array([float(p)]), np.ones(1), "support_argmax")
        y = float(c[0]) * y
    return max(float(np.dot(theta, y)), 0.0), y


def _support_multiplier(spec: PsiSpec, p: float, theta) -> float:
    lams = np.geomspace(1e-9, 1e9, 512)

    def obj(lam_):
        with np.errstate(over="ignore"):
            return lam_ * (p + eval_psi(spec, theta / lam_))

    vals = np.array([obj(l) for l in lams])
    i = int(np.argmin(vals))
    lo = math.log(lams[max(i - 1, 0)])
    hi = math.log(lams[min(i + 1, len(lams) - 1)])
    for _ in range(200):
        m1 = lo + (hi - lo) * (1 - _GOLDEN)
        m2 = lo + (hi - lo) * _GOLDEN
        if obj(math.exp(m1)) <= obj(math.exp(m2)):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-12:
            break
    return math.exp(0.5 * (lo + hi))


def _coordinate_argmax(spec: PsiSpec, tj: float, lam_star: float, p: float) -> float:
    """argmax_y (tj * y - lam_star * h*(y)) over y >= 0 (signed by tj)."""
    if tj == 0.0 or lam_star <= 0.0:
        return 0.0
    mag = abs(tj)

    def val(y):
        hstar = float(_conjugate_1d(spec, np.asarray([y]))[0])
        return mag * y - lam_star * hstar

    # bracket: walk out until the objective is decreasing
    hi = 1.0
    for _ in range(200):
        if val(hi * 2.0) <= val(hi):
            break
        hi *= 2.0
    else:
        raise NumericalError("coordinate argmax bracket failed")
    a, b = 0.0, hi * 2.0
    for _ in range(120):
        m1 = b - _GOLDEN * (b - a)
        m2 = a + _GOLDEN * (b - a)
        if val(m1) < val(m2):
            a = m1
        else:
            b = m2
        if b - a <= 1e-12 * max(1.0, b):
            break
    y = 0.5 * (a + b)
    if val(y) <= 0.0:
        y = 0.0
    return math.copysign(y, tj)
