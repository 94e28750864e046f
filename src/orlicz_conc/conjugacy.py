"""Convex conjugation machinery: the ray growth function omega and its
inverse/conjugate profiles, and Psi* with the level sets {Psi* <= p} used by
the chaos and enlargement bounds.  The solvers they run, the numeric
Legendre transform `legendre_1d` among them, live in `solvers`.

Each PsiSpec family supplies its closed forms (`_closed_omega`,
`_closed_conjugate`, `_closed_support_argmax`, ...), a separable piecewise-power
family through its piece table (`psi.PieceTable`), which gives omega and the
component conjugate h* from one description; this module holds only the
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

import numpy as np

from .errors import InputError, NumericalError
from .psi import PsiSpec, _as_vector
from .solvers import (_GOLDEN, GRID_HI, GRID_LO, GRID_POINTS, _bracket_sup, _column, _grid_sup,
                      _shaped, legendre_1d)

_ARGMAX_GOLDEN_MAX = 120  # golden steps of a coordinate argmax
_MULTIPLIER_GOLDEN_MAX = 200  # golden steps of the support dual's multiplier


# ---------------------------------------------------------------------------
# omega and friends

def omega_ray_sup(spec: PsiSpec, t):
    """Numeric sup_u h(tu)/h(u) for a separable spec, elementwise over t; a
    lower bound of the true omega in general, exact up to grid resolution
    for the built-ins."""
    if not spec.separable:
        raise InputError("ray supremum requires a separable spec")
    t = np.asarray(t, dtype=float)
    us = np.geomspace(GRID_LO, GRID_HI, GRID_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        h_u = spec._component(us)
    valid = (h_u > 0.0) & np.isfinite(h_u)
    if not np.any(valid):
        raise NumericalError("component is nowhere finite-positive on the grid")
    us_v, h_v = us[valid], h_u[valid]

    def on_grid(tb):
        return spec._component((tb * us_v).ravel()).reshape(tb.size, -1) / h_v

    def ratio(tt, logu):
        u = np.exp(logu)
        h = spec._component(u)
        return np.where((h > 0.0) & np.isfinite(h), spec._component(tt * u) / h, -np.inf)

    return _shaped(_grid_sup(t.ravel(), np.log(us_v), on_grid,
                             lambda r: np.any(np.isinf(r), axis=1), ratio, 60), t)


def omega(spec: PsiSpec, t):
    """Maximal growth ratio of Psi along rays at dilation t > 0, elementwise."""
    ts = _column(t, lambda v: v > 0, "omega requires t > 0")
    return _shaped(_omega(spec, ts), ts)


def _omega(spec: PsiSpec, ts: np.ndarray) -> np.ndarray:
    """omega at the solves' own t > 0: the closed form, else omega_ray_sup."""
    with np.errstate(over="ignore"):
        closed = spec._closed_omega(ts)
    return omega_ray_sup(spec, ts) if closed is None else closed


def omega_inv(spec: PsiSpec, s):
    """Right-continuous inverse sup{t > 0 : omega(t) <= s}, elementwise."""
    s = _column(s, lambda v: v > 0, "omega_inv requires s > 0")
    ss = s.ravel()
    return _shaped(_bracket_sup(lambda d, t: _omega(spec, t) - d, ss, np.ones_like(ss),
                                "omega_inv"), s)


def omega_star(spec: PsiSpec, t):
    """omega*(t) = t * sup{u > 0 : omega(u)/u <= t}, elementwise."""
    t = _column(t, lambda v: v > 0, "omega_star requires t > 0")
    ts = t.ravel()
    return _shaped(ts * _bracket_sup(lambda d, u: _omega(spec, u) / u - d, ts,
                                     np.ones_like(ts), "omega_star"), t)


def lam(spec: PsiSpec, t):
    """lambda(t) = sup_{y>0} (t y - omega(y)), the Legendre transform of
    omega, elementwise over t; sandwiches omega* via lambda(t) <= omega*(t)
    <= lambda(2t)."""
    return legendre_1d(lambda ys: _omega(spec, ys), t)


def profile_table(spec: PsiSpec, ts) -> np.ndarray:
    """Columns (t, omega, omega_inv, omega*, lambda) for CSV export."""
    ts = _column(ts, lambda v: v > 0, "profile_table requires t > 0")
    return np.column_stack((ts, _omega(spec, ts), omega_inv(spec, ts),
                            omega_star(spec, ts), lam(spec, ts)))


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
    return legendre_1d(spec._component, v)


def psi_star(spec: PsiSpec, y) -> float:
    """Legendre transform Psi*(y) = sup_x(<x,y> - Psi(x)): the 1-D conjugate
    summed over coordinates for separable families, taken at the dual norm
    of y for PowerNorm.  A separable family's closed 1-D conjugate is finite
    everywhere, so a non-finite one is an overflow: NumericalError."""
    y = _as_vector(spec, y)
    if not spec.separable:
        return float(spec._closed_conjugate(spec._dual_norm(y)))
    with np.errstate(over="ignore"):
        closed = spec._closed_conjugate(np.abs(y))
    if closed is None:
        return float(np.sum(legendre_1d(spec._component, np.abs(y))))
    value = float(np.sum(closed))
    if not math.isfinite(value):
        raise NumericalError(f"Psi* overflowed to {value}")
    return value


def conjugate_ray_radius(spec: PsiSpec, u):
    """s(u) = sup{c > 0 : Psi*(c e_j) <= u}, elementwise over u > 0: the reach
    of the enlargement body {Psi* < u} along a coordinate axis.  Psi*(c e_j)
    is the 1-D conjugate at c, the same for every axis."""
    u = _column(u, lambda v: v > 0, "requires u > 0")
    us = u.ravel()
    return _shaped(_bracket_sup(lambda d, c: _conjugate_1d(spec, c) - d, us, np.ones_like(us),
                                "conjugate_ray_radius"), u)


def support_function(spec: PsiSpec, p: float, theta) -> float:
    """sup{<theta, y> : Psi*(y) <= p} for a convex spec.

    A family's closed form is used where it has one (PowerNorm: radius(p) *
    ||theta||_q); separable convex families use Lagrange duality, sup =
    min_{lam>0} lam (p + Psi(theta/lam)), a 1-D convex minimization solved on
    a log grid with golden refinement.  {Psi* <= p} is bounded for every
    supported family, so a non-finite value is an overflow: NumericalError.
    """
    _check_support(spec, p)
    theta = _as_vector(spec, theta)
    if not np.any(theta):
        return 0.0
    closed = spec._closed_support_argmax(p, theta[None, :])
    value = _support_multiplier(spec, p, theta)[1] if closed is None else float(closed[0][0])
    if not math.isfinite(value):
        raise NumericalError(f"support function overflowed to {value}")
    return value


def _check_support(spec: PsiSpec, p: float):
    if not p > 0:
        raise InputError(f"requires p > 0, got {p}")
    spec._require_convex()


def support_argmax(spec: PsiSpec, p: float, theta) -> tuple:
    """(value, y), y a point of {Psi* <= p} attaining the supremum of <theta, .>
    up to numerical tolerance: the one-row case of _support_argmax_rows."""
    _check_support(spec, p)
    values, Y = _support_argmax_rows(spec, p, _as_vector(spec, theta)[None, :])
    return float(values[0]), Y[0]


def _support_argmax_rows(spec: PsiSpec, p: float, Theta: np.ndarray) -> tuple:
    """(values, Y): support_argmax of each row of Theta, for a p and spec
    that _check_support passed; the exact inner step of alternating chaos
    maximization.  A family's closed form takes the non-zero rows as one
    block; otherwise each runs the numeric search in turn, a zero row 0."""
    values, Y = np.zeros(len(Theta)), np.zeros(Theta.shape)
    nz = np.flatnonzero(np.any(Theta, axis=1))
    closed = spec._closed_support_argmax(p, Theta[nz]) if nz.size else None
    if closed is not None:
        values[nz], Y[nz] = closed
        return values, Y
    for i, theta in zip(nz, Theta[nz]):
        # separable: multiplier from the dual, then exact per-coordinate argmax
        y = _coordinate_argmax(spec, theta, _support_multiplier(spec, p, theta)[0])
        # pull back onto the feasible set (guards multiplier round-off)
        if psi_star(spec, y) > p:
            c = _bracket_sup(lambda d, cs: np.sum(_conjugate_1d(spec, cs[:, None] * y), axis=1) - d,
                             np.array([float(p)]), np.ones(1), "support_argmax")
            y = float(c[0]) * y
        values[i], Y[i] = max(float(np.dot(theta, y)), 0.0), y
    return values, Y


def _support_multiplier(spec: PsiSpec, p: float, theta) -> tuple:
    """(lam*, value) of the dual min_{lam>0} lam (p + Psi(theta/lam)): a log
    grid, then golden section on log lam, one row-batched objective call per
    step.  The value is the least objective over the grid point and the final
    bracket ends, which stay finite where the bracket midpoint lam* may not (a
    capped Psi is +inf just below the minimizer)."""
    def obj(lams):
        with np.errstate(over="ignore"):
            return lams * (p + spec._eval_rows(theta / lams[:, None]))

    lams = np.geomspace(1e-9, 1e9, 512)
    vals = obj(lams)
    i = int(np.argmin(vals))
    lo = math.log(lams[max(i - 1, 0)])
    hi = math.log(lams[min(i + 1, len(lams) - 1)])
    for _ in range(_MULTIPLIER_GOLDEN_MAX):
        m1 = lo + (hi - lo) * (1 - _GOLDEN)
        m2 = lo + (hi - lo) * _GOLDEN
        f1, f2 = obj(np.array([math.exp(m1), math.exp(m2)]))
        if f1 <= f2:
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-12:
            break
    else:
        raise NumericalError("support multiplier golden search did not converge")
    ends = obj(np.array([math.exp(lo), math.exp(hi)])).tolist()
    return math.exp(0.5 * (lo + hi)), min(float(vals[i]), *ends)


def _coordinate_argmax(spec: PsiSpec, theta: np.ndarray, lam_star: float) -> np.ndarray:
    """Per coordinate, argmax_y (|theta_j| y - lam_star h*(y)) over y >= 0,
    signed by theta_j (0 where theta_j is 0): a doubling walk to a bracket,
    then golden section on [0, 2 hi], each coordinate stopping on its own.
    Each step makes one h* call for every coordinate still running."""
    y = np.zeros(theta.size)
    nz = np.flatnonzero(theta)
    if lam_star <= 0.0:
        return y
    mag = np.abs(theta[nz])

    def val(m, ys):
        h = _conjugate_1d(spec, ys)
        with np.errstate(over="ignore", invalid="ignore"):
            return m * ys - lam_star * h

    # bracket: walk out until the objective is decreasing; every coordinate
    # still walking sits at the same hi, so h* is taken at hi * 2 and hi once
    b, run, hi = np.empty(nz.size), np.arange(nz.size), 1.0
    for _ in range(200):
        done = np.less_equal(*val(mag[run, None], np.array([hi * 2.0, hi])).T)
        b[run[done]] = hi * 2.0
        run, hi = run[~done], hi * 2.0
        if run.size == 0:
            break
    else:
        raise NumericalError("coordinate argmax bracket failed")
    a, run = np.zeros(nz.size), np.arange(nz.size)
    for _ in range(_ARGMAX_GOLDEN_MAX):
        ar, br = a[run], b[run]
        m1 = br - _GOLDEN * (br - ar)
        m2 = ar + _GOLDEN * (br - ar)
        f1, f2 = val(mag[run], np.stack((m1, m2)))
        left = f1 < f2
        a[run] = np.where(left, m1, ar)
        b[run] = np.where(left, br, m2)
        run = run[~(b[run] - a[run] <= 1e-12 * np.maximum(1.0, b[run]))]
        if run.size == 0:
            break
    else:
        raise NumericalError("coordinate argmax golden search did not converge")
    ys = 0.5 * (a + b)
    ys[val(mag, ys) <= 0.0] = 0.0
    y[nz] = np.copysign(ys, theta[nz])
    return y
