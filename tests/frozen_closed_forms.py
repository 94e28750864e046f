"""The closed forms of the separable families as they were written out by
hand, family by family, before their piece tables: the reference that the
tables' component, omega, conjugate and capped gauge must equal bit for bit.
Also PowerNorm's support value as it was computed before its maximizer's
witness took it over."""

import math

import numpy as np


def sup_linear_minus_quad(v):
    # sup_{0 <= u <= 1} (u v - u^2) for v >= 0
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(v <= 2.0, 0.25 * v * v, v - 1.0)


def sup_linear_minus_power(v, s):
    # sup_{u >= 1} (u v - u^s) for v >= 0; unbounded when s == 1 and v > 1
    v = np.asarray(v, dtype=float)
    if s == 1.0:
        return np.where(v <= 1.0, v - 1.0, np.inf)
    s_conj = s / (s - 1.0)
    c = (s - 1.0) * s ** (-s_conj)
    u = np.maximum(v, s)
    try:
        with np.errstate(over="raise"):
            tail = c * np.power(u, s_conj)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            tail = c * np.power(u, s_conj)
            tail = np.where(np.isinf(tail), np.power(c ** (1.0 / s_conj) * u, s_conj), tail)
    return np.where(v <= s, v - 1.0, tail)


def two_level_component_conjugate(v, s):
    v = np.abs(np.asarray(v, dtype=float))
    out = np.maximum(sup_linear_minus_quad(v), sup_linear_minus_power(v, s))
    return np.maximum(out, 0.0)


def two_level_component(u, r):
    with np.errstate(over="ignore"):
        return np.where(u <= 1.0, u * u, np.power(u, r))


def two_level_omega(t, r):
    return np.maximum(t * t, np.power(t, r))


def cap_component(u, thr):
    return np.where(u <= thr, u * u, np.inf)


def cap_omega(t):
    return np.where(t <= 1.0, t * t, np.inf)


def cap_conjugate(c, thr):
    return np.where(c <= 2.0 * thr, 0.25 * c * c, thr * c - thr * thr)


def cap_gauge(ps, X, thr):
    # Psi(px/a) <= p iff p|x|_inf/a <= thr and p^2|x|_2^2/a^2 <= p
    top, l2 = np.max(np.abs(X), axis=1), np.linalg.norm(X, axis=-1)
    return np.array([np.maximum(p * top / thr, math.sqrt(p) * l2) for p in ps])


def cap_support_argmax(p, Theta, thr):
    """(values, Y) of sup{<theta, y> : Psi*(y) <= p} per non-zero row, as
    BobkovLedouxCap wrote it before its table took the closed form over."""
    mags = np.abs(Theta)
    top = np.max(mags, axis=1)
    lam_star = np.maximum(np.sqrt(_row_dots(Theta, Theta)) / math.sqrt(p), top / thr)
    Y = 2.0 * Theta / lam_star[:, None]
    ties = mags == top[:, None]
    rest = 0.25 * np.array([np.sum(np.square(y[~t])) for y, t in zip(Y, ties)])
    c = ((p - rest) / np.count_nonzero(ties, axis=1) + thr * thr) / thr
    Y = np.where(ties & (c > 2.0 * thr)[:, None], np.copysign(c[:, None], Theta), Y)
    return _row_dots(Theta, Y), Y


def power_norm_support(spec, p, theta):
    # R ||theta||_q, R the radius of the dual-norm ball {Psi* <= p}
    return spec._conjugate_radius(p) * float(np.linalg.norm(theta, ord=spec.norm))


def _row_dots(A, B):
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def from_phi_omega(t, s):
    if s == 1.0:
        return cap_omega(t)
    return np.maximum(t * t, np.power(t, s / (s - 1.0)))


def from_phi_conjugate(c, s):
    """None where only the numeric transform applies (1 < s < 2)."""
    if s == 1.0:
        return cap_conjugate(2.0 * c, 0.5)
    if s >= 2.0:
        u = np.abs(np.asarray(c, dtype=float))
        with np.errstate(over="ignore"):
            return np.where(u <= 1.0, u * u, np.power(u, s))
    return None


def from_phi_knots(s):
    """The knots of the component tilde-Phi*: 2 and s, or v0 for 1 < s <= 2."""
    if s == 1.0:
        return (1.0,)
    s_conj = s / (s - 1.0)
    c = (s - 1.0) * s ** (-s_conj)
    if s > 2.0:
        return (2.0, s)
    return (2.0 if s == 2.0 else (0.25 / c) ** (1.0 / (s_conj - 2.0)),)


def around(points, ulps=64):
    """Every float within `ulps` ulps of each point, the point included."""
    out = []
    for x in points:
        lo = hi = float(x)
        out.append(lo)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return np.array(out)
