"""Convex conjugation machinery: 1-D Legendre transforms, the ray growth
function omega and its inverse/conjugate profiles, and Psi* with the level
sets {Psi* <= p} used by the chaos and enlargement bounds.

omega(t) = sup{Psi(tx)/Psi(x) : Psi(x) finite, x != 0} has closed forms for
every built-in family; user-supplied components fall back to a grid
supremum, which is a lower bound of the true omega and is reported as such.
The conjugate-type profile

    omega*(t) = t * sup{u > 0 : omega(u)/u <= t}

is computed by monotone bisection (omega(u)/u is non-decreasing) and is
sandwiched between the Legendre transform lambda(t) = sup_y(t y - omega(y))
and lambda(2t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError
from .psi import (BobkovLedouxCap, PowerNorm, PsiSpec,
                  SeparableFromPhi, SeparableTwoLevel, UserSeparable,
                  _as_vector, eval_psi, two_level_component_conjugate)

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

def _omega_closed(spec: PsiSpec, t: np.ndarray):
    """Vectorized closed-form omega, or None when only the numeric ray
    supremum is available."""
    with np.errstate(over="ignore"):
        if isinstance(spec, PowerNorm):
            return np.power(t, spec.a)
        if isinstance(spec, SeparableTwoLevel):
            return np.maximum(t * t, np.power(t, spec.r))
        if isinstance(spec, BobkovLedouxCap):
            return np.where(t <= 1.0, t * t, np.inf)
        if isinstance(spec, SeparableFromPhi) and spec.phi.fn is None:
            s = spec.phi.s
            if s == 1.0:
                return np.where(t <= 1.0, t * t, np.inf)
            s_conj = s / (s - 1.0)
            return np.maximum(t * t, np.power(t, s_conj))
    return None


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
    closed = _omega_closed(spec, np.asarray(float(t)))
    if closed is not None:
        return float(closed)
    return omega_ray_sup(spec, float(t))


def omega_values(spec: PsiSpec, ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    closed = _omega_closed(spec, ts)
    if closed is not None:
        return closed
    return np.array([omega_ray_sup(spec, float(t)) for t in ts])


def _monotone_sup(pred: Callable, what: str) -> float:
    """sup{t > 0 : pred(t)} for a monotone predicate (true near 0, false for
    large t), by geometric bracketing and log-bisection."""
    if pred(1.0):
        lo, hi = 1.0, 2.0
        for _ in range(400):
            if not pred(hi):
                break
            lo, hi = hi, hi * 2.0
        else:
            raise NumericalError(f"{what}: no upper crossing below 2^400")
    else:
        lo, hi = 0.5, 1.0
        for _ in range(400):
            if pred(lo):
                break
            lo, hi = lo * 0.5, lo
        else:
            raise NumericalError(f"{what}: predicate false down to 2^-400")
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return lo


def omega_inv(spec: PsiSpec, s: float) -> float:
    """Right-continuous inverse sup{t > 0 : omega(t) <= s}."""
    if not s > 0:
        raise InputError(f"omega_inv requires s > 0, got {s}")
    return _monotone_sup(lambda t: omega(spec, t) <= s, "omega_inv")


def omega_star(spec: PsiSpec, t: float) -> float:
    """omega*(t) = t * sup{u > 0 : omega(u)/u <= t} by monotone bisection."""
    if not t > 0:
        raise InputError(f"omega_star requires t > 0, got {t}")
    u_star = _monotone_sup(lambda u: omega(spec, u) / u <= t, "omega_star")
    return t * u_star


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
    rows = np.empty((len(ts), 5))
    for i, t in enumerate(ts):
        rows[i] = (t, omega(spec, t), omega_inv(spec, t), omega_star(spec, t),
                   lam(spec, t))
    return rows


# ---------------------------------------------------------------------------
# Psi* and its level sets

def _component_conjugate(spec: PsiSpec, v: np.ndarray) -> np.ndarray:
    """Conjugate of the 1-D component of a separable spec, evaluated at |v|.

    For the two-level family with r < 2 this is the conjugate of the convex
    envelope of the component, which is the object the enlargement and chaos
    corollaries use for such specs.
    """
    v = np.abs(v)
    if isinstance(spec, SeparableTwoLevel):
        return two_level_component_conjugate(v, spec.r)
    if isinstance(spec, BobkovLedouxCap):
        thr = spec.threshold
        return np.where(v <= 2.0 * thr, 0.25 * v * v, thr * v - thr * thr)
    if isinstance(spec, SeparableFromPhi):
        phi = spec.phi
        if phi.fn is None and phi.s >= 2.0:
            # tilde-Phi is convex there, so the biconjugate is tilde-Phi itself
            with np.errstate(over="ignore"):
                return np.where(v <= 1.0, v * v, np.power(v, phi.s))
        return np.array([legendre_1d(phi.tilde_star, float(x)) for x in v])
    if isinstance(spec, UserSeparable):
        return np.array([legendre_1d(spec.fn, float(x)) for x in v])
    raise InputError(f"{type(spec).__name__} has no separable component conjugate")


def psi_star(spec: PsiSpec, y) -> float:
    """Legendre transform Psi*(y) = sup_x(<x,y> - Psi(x)).

    PowerNorm uses the closed form c_a ||y||_*^{a*} with c_a = (a-1) a^{-a*};
    separable families conjugate per coordinate.
    """
    y = _as_vector(spec, y)
    if isinstance(spec, PowerNorm):
        dual = float(np.linalg.norm(y, ord=spec.dual_exponent()))
        if spec.a == 1.0:
            return 0.0 if dual <= 1.0 + 1e-12 else math.inf
        a_conj = spec.a / (spec.a - 1.0)
        c = (spec.a - 1.0) * spec.a ** (-a_conj)
        return c * dual ** a_conj
    return float(np.sum(_component_conjugate(spec, y)))


def conjugate_ray_radius(spec: PsiSpec, u: float, axis: int = 0) -> float:
    """s(u) = sup{c > 0 : Psi*(c e_axis) < u}, the reach of the enlargement
    body {Psi* < u} along a coordinate axis."""
    if not u > 0:
        raise InputError(f"requires u > 0, got {u}")
    if not (0 <= axis < spec.dim):
        raise InputError(f"axis {axis} out of range for dim {spec.dim}")
    e = np.zeros(spec.dim)
    e[axis] = 1.0
    return _monotone_sup(lambda c: psi_star(spec, c * e) < u, "conjugate_ray_radius")


def _require_convex(spec: PsiSpec):
    if isinstance(spec, PowerNorm):
        return
    if isinstance(spec, SeparableTwoLevel):
        if spec.r < 2.0:
            raise InputError("two-level spec with r < 2 is non-convex; "
                             "support evaluation requires r >= 2")
        return
    if isinstance(spec, (SeparableFromPhi, BobkovLedouxCap)):
        return
    raise InputError(f"{type(spec).__name__} is not a supported convex family")


def _power_norm_radius(spec: PowerNorm, p: float) -> float:
    if spec.a == 1.0:
        return 1.0
    a_conj = spec.a / (spec.a - 1.0)
    c = (spec.a - 1.0) * spec.a ** (-a_conj)
    return (p / c) ** (1.0 / a_conj)


def support_function(spec: PsiSpec, p: float, theta) -> float:
    """sup{<theta, y> : Psi*(y) <= p} for a convex spec.

    PowerNorm reduces to radius(p) * ||theta||_q; separable convex families
    use Lagrange duality, sup = min_{lam>0} lam (p + Psi(theta/lam)), a 1-D
    convex minimization solved on a log grid with golden refinement.
    """
    if not p > 0:
        raise InputError(f"requires p > 0, got {p}")
    _require_convex(spec)
    theta = _as_vector(spec, theta)
    if not np.any(theta):
        return 0.0
    if isinstance(spec, PowerNorm):
        ord_ = np.inf if math.isinf(spec.norm) else spec.norm
        return _power_norm_radius(spec, p) * float(np.linalg.norm(theta, ord=ord_))

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
    _require_convex(spec)
    theta = _as_vector(spec, theta)
    if not np.any(theta):
        return 0.0, np.zeros(spec.dim)
    if isinstance(spec, PowerNorm):
        R = _power_norm_radius(spec, p)
        q = spec.norm
        mags = np.abs(theta)
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

    # separable: multiplier from the dual, then exact per-coordinate argmax
    lam_star = _support_multiplier(spec, p, theta)
    y = np.empty(spec.dim)
    for j, tj in enumerate(theta):
        y[j] = _coordinate_argmax(spec, tj, lam_star, p)
    # pull back onto the feasible set (guards multiplier round-off)
    if psi_star(spec, y) > p:
        c = _monotone_sup(lambda c_: psi_star(spec, c_ * y) <= p, "support_argmax")
        y = c * y
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
        hstar = float(_component_conjugate(spec, np.asarray([y]))[0])
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
