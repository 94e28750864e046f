"""Generalized Orlicz functions and their level-p quasi-norms.

A generalized Orlicz function here is a symmetric map Psi: R^n -> [0, +inf]
with Psi(0) = 0, Psi(x) > 0 for x != 0, Psi(tx) -> inf along rays, and
t -> Psi(tx)/t non-decreasing on (0, inf).  Extended values are represented
by ordinary floats with math.inf; every comparison below stays monotone
under that convention.

For p > 0 the rescaling Psi_p(x) = Psi(px)/p induces the Luxemburg-type
gauge

    |x|_{Psi_p} = inf{a > 0 : Psi(p x / a) <= p},

which is non-decreasing in p and is the gradient norm appearing in the
moment bounds of `bounds`.  PowerNorm and BobkovLedouxCap gauges are closed
forms; for the other families the predicate Psi(px/a) <= p, monotone in a, is
bracketed geometrically and the bracket narrowed by Chandrupatla's method.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-10

_BRACKET_MAX = 200  # doublings/halvings before giving up (condition C3 failure)
_SOLVE_MAX = 100    # Chandrupatla steps; pure bisection would need about 35
_NUDGE_MAX = 16     # doubling steps, at most 2^16 ulps, that repair a rounded closed form
_BLOCK = 8192       # rows per iterative solve, bounding its per-row temporaries


# ---------------------------------------------------------------------------
# scalar building blocks shared by the two-level family and PhiSpec

def _sup_linear_minus_quad(v):
    # sup_{0 <= u <= 1} (u v - u^2) for v >= 0
    v = np.asarray(v, dtype=float)
    return np.where(v <= 2.0, 0.25 * v * v, v - 1.0)


def _sup_linear_minus_power(v, s):
    # sup_{u >= 1} (u v - u^s) for v >= 0; unbounded when s == 1 and v > 1
    v = np.asarray(v, dtype=float)
    if s == 1.0:
        return np.where(v <= 1.0, v - 1.0, np.inf)
    s_conj = s / (s - 1.0)
    c = (s - 1.0) * s ** (-s_conj)
    with np.errstate(over="ignore"):
        tail = c * np.power(np.maximum(v, s), s_conj)
    return np.where(v <= s, v - 1.0, tail)


def two_level_component_conjugate(v, s):
    """Legendre transform of u -> u^2 (|u| <= 1), |u|^s (|u| > 1), at v.

    Valid for s >= 1.  For s < 2 the base function is non-convex and the
    transform returned is that of its convex envelope, which is what every
    downstream use (conjugate balls, omega-star sandwich) needs.
    """
    v = np.abs(np.asarray(v, dtype=float))
    out = np.maximum(_sup_linear_minus_quad(v), _sup_linear_minus_power(v, s))
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# PhiSpec

@dataclass(frozen=True)
class PhiSpec:
    """One-dimensional tail function Phi with P(|Z| >= t) = exp(-Phi(t)).

    The built-in family is the power Phi(t) = t^s with s >= 1, normalized so
    Phi(0) = 0 and Phi(1) = 1.  A custom non-negative convex `fn` may be
    supplied instead; it must be vectorized over numpy arrays and must come
    with a finite `domain_bound` if it takes the value +inf.

    Derived objects: `tilde` is quadratic below 1 and Phi above 1; its
    Legendre transform `tilde_star` is the per-coordinate component of the
    separable Orlicz function in the Gluskin-Kwapien moment equivalence.
    """

    s: float = 2.0
    fn: Optional[Callable] = None
    domain_bound: float = math.inf

    def __post_init__(self):
        if self.fn is None:
            if not (self.s >= 1.0 and math.isfinite(self.s)):
                raise InputError(f"power exponent s must satisfy s >= 1, got {self.s}")
        else:
            z = float(self.fn(0.0))
            one = float(self.fn(1.0))
            if abs(z) > 1e-12 or abs(one - 1.0) > 1e-9:
                raise InputError(
                    "custom Phi must be normalized: Phi(0)=0 and Phi(1)=1, "
                    f"got Phi(0)={z}, Phi(1)={one}"
                )

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.fn is not None:
            return np.asarray(self.fn(t), dtype=float)
        with np.errstate(over="ignore"):
            return np.power(t, self.s)

    def tilde(self, u):
        u = np.abs(np.asarray(u, dtype=float))
        return np.where(u <= 1.0, u * u, self.phi(u))

    def tilde_star(self, v):
        v = np.abs(np.asarray(v, dtype=float))
        if self.fn is None:
            return two_level_component_conjugate(v, self.s)
        quad = _sup_linear_minus_quad(v)
        tail = _sup_linear_minus_custom(self, v.ravel()).reshape(v.shape)
        return np.maximum(np.maximum(quad, tail), 0.0)


def _sup_linear_minus_custom(phi: PhiSpec, v):
    # numeric sup_{u >= 1} (u v - Phi(u)) for a custom Phi, vectorized over v
    hi = min(phi.domain_bound, 1e6)
    us = np.geomspace(1.0, max(hi, 1.0 + 1e-9), 1024)
    pu = phi.phi(us)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    vals = us[None, :] * v[:, None] - pu[None, :]
    out = np.max(vals, axis=1)
    if math.isinf(phi.domain_bound):
        # objective still climbing at the top edge means the sup is +inf
        unbounded = (np.argmax(vals, axis=1) == len(us) - 1) & \
                    (vals[:, -1] >= vals[:, -32] + 1e-12)
        out = np.where(unbounded, np.inf, out)
    return out


# ---------------------------------------------------------------------------
# PsiSpec families

@dataclass(frozen=True)
class PsiSpec:
    """Base descriptor of a generalized Orlicz function on R^dim."""

    dim: int

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")

    # separable families override _component; PowerNorm overrides _eval_rows
    separable = True

    def _component(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_rows(self, X: np.ndarray) -> np.ndarray:
        vals = self._component(np.abs(X))
        return np.sum(vals, axis=-1)

    def _closed_gauge(self, p: float, X: np.ndarray) -> Optional[np.ndarray]:
        """Closed-form |row|_{Psi_p} for the non-zero rows of X, or None."""
        return None


@dataclass(frozen=True)
class PowerNorm(PsiSpec):
    """Psi(x) = ||x||_q^a for the inner l_q norm (q in [1, inf]) and a >= 1.

    a = 1 makes Psi itself a norm, in which case |.|_{Psi_p} = Psi for every
    p; a > 1 gives |x|_{Psi_p} = p^{1/a*} ||x||_q with a* = a/(a-1).
    """

    norm: float = 2.0
    a: float = 2.0
    separable = False

    def __post_init__(self):
        super().__post_init__()
        if not (self.norm >= 1.0):
            raise InputError(f"inner norm exponent must be >= 1, got {self.norm}")
        if not (self.a >= 1.0 and math.isfinite(self.a)):
            raise InputError(f"outer exponent must satisfy a >= 1, got {self.a}")

    def _inner_norm(self, X):
        ord_ = np.inf if math.isinf(self.norm) else self.norm
        return np.linalg.norm(np.atleast_2d(X), ord=ord_, axis=-1)

    def _eval_rows(self, X):
        return np.power(self._inner_norm(X), self.a)

    def _closed_gauge(self, p, X):
        return p ** (1.0 - 1.0 / self.a) * self._inner_norm(X)

    def dual_exponent(self) -> float:
        q = self.norm
        if q == 1.0:
            return math.inf
        if math.isinf(q):
            return 1.0
        return q / (q - 1.0)


@dataclass(frozen=True)
class SeparableTwoLevel(PsiSpec):
    """Psi(x) = sum_i H(x_i) with H(u) = u^2 for |u| <= 1 and |u|^r above."""

    r: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.r > 1.0 and math.isfinite(self.r)):
            raise InputError(f"two-level exponent must satisfy r > 1, got {self.r}")

    def _component(self, u):
        with np.errstate(over="ignore"):
            return np.where(u <= 1.0, u * u, np.power(u, self.r))


@dataclass(frozen=True)
class SeparableFromPhi(PsiSpec):
    """Psi(x) = sum_i tilde-Phi*(x_i), the Gluskin-Kwapien energy function."""

    phi: PhiSpec = field(default_factory=PhiSpec)

    def _component(self, u):
        return self.phi.tilde_star(u)


@dataclass(frozen=True)
class BobkovLedouxCap(PsiSpec):
    """Psi(x) = sum_i H(x_i), H(u) = u^2 for |u| <= threshold, +inf beyond."""

    threshold: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not (self.threshold > 0):
            raise InputError(f"threshold must be positive, got {self.threshold}")

    def _component(self, u):
        return np.where(u <= self.threshold, u * u, np.inf)

    def _closed_gauge(self, p, X):
        # Psi(px/a) <= p iff p|x|_inf/a <= threshold and p^2|x|_2^2/a^2 <= p
        return np.maximum(p * np.max(np.abs(X), axis=-1) / self.threshold,
                          math.sqrt(p) * np.linalg.norm(X, axis=-1))


@dataclass(frozen=True)
class UserSeparable(PsiSpec):
    """Psi(x) = sum_i h(x_i) for a user component h (vectorized, even in its
    argument, h(0) = 0).  `domain_bound` must be finite if h takes +inf."""

    fn: Callable = None
    domain_bound: float = math.inf
    name: str = "user"

    def __post_init__(self):
        super().__post_init__()
        if self.fn is None:
            raise InputError("UserSeparable requires a component function")
        if abs(float(self.fn(0.0))) > 1e-12:
            raise InputError("user component must vanish at 0")

    def _component(self, u):
        return np.asarray(self.fn(u), dtype=float)


BUILTIN_FAMILIES = ("PowerNorm", "SeparableTwoLevel", "SeparableFromPhi", "BobkovLedouxCap")


# ---------------------------------------------------------------------------
# JSON serialization; field names are part of the CLI contract

def _norm_descriptor(q: float) -> str:
    if math.isinf(q):
        return "linf"
    if float(q).is_integer():
        return f"l{int(q)}"
    return f"l{q}"


def _parse_norm_descriptor(v) -> float:
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("linf", "inf"):
            return math.inf
        if s.startswith("l"):
            s = s[1:]
        try:
            return float(s)
        except ValueError:
            pass
    raise InputError(f"unrecognized inner norm descriptor {v!r}")


def psi_to_dict(spec: PsiSpec) -> dict:
    if isinstance(spec, PowerNorm):
        params = {"norm": _norm_descriptor(spec.norm), "a": spec.a}
        fam = "PowerNorm"
    elif isinstance(spec, SeparableTwoLevel):
        params = {"r": spec.r}
        fam = "SeparableTwoLevel"
    elif isinstance(spec, SeparableFromPhi):
        if spec.phi.fn is not None:
            raise InputError("custom Phi functions are not JSON-serializable")
        params = {"s": spec.phi.s}
        fam = "SeparableFromPhi"
    elif isinstance(spec, BobkovLedouxCap):
        params = {"threshold": spec.threshold}
        fam = "BobkovLedouxCap"
    else:
        raise InputError(f"{type(spec).__name__} is not JSON-serializable")
    return {"family": fam, "params": params, "dim": spec.dim}


def psi_to_json(spec: PsiSpec) -> str:
    return json.dumps(psi_to_dict(spec), separators=(",", ":"))


def _expect_keys(d: dict, allowed, where: str):
    extra = set(d) - set(allowed)
    if extra:
        raise InputError(f"unrecognized fields in {where}: {sorted(extra)}")


def psi_from_dict(obj: dict) -> PsiSpec:
    if not isinstance(obj, dict):
        raise InputError("PsiSpec JSON must be an object")
    _expect_keys(obj, ("family", "params", "dim"), "PsiSpec")
    try:
        fam = obj["family"]
        params = obj.get("params", {})
        dim = obj["dim"]
    except KeyError as e:
        raise InputError(f"PsiSpec JSON missing field {e}") from None
    if not isinstance(params, dict):
        raise InputError("params must be an object")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InputError(f"dim must be an integer, got {dim!r}")
    if fam == "PowerNorm":
        _expect_keys(params, ("norm", "a"), "PowerNorm params")
        return PowerNorm(dim=dim, norm=_parse_norm_descriptor(params.get("norm", "l2")),
                         a=float(params.get("a", 2.0)))
    if fam == "SeparableTwoLevel":
        _expect_keys(params, ("r",), "SeparableTwoLevel params")
        if "r" not in params:
            raise InputError("SeparableTwoLevel requires params.r")
        return SeparableTwoLevel(dim=dim, r=float(params["r"]))
    if fam == "SeparableFromPhi":
        _expect_keys(params, ("s",), "SeparableFromPhi params")
        if "s" not in params:
            raise InputError("SeparableFromPhi requires params.s")
        return SeparableFromPhi(dim=dim, phi=PhiSpec(s=float(params["s"])))
    if fam == "BobkovLedouxCap":
        _expect_keys(params, ("threshold",), "BobkovLedouxCap params")
        return BobkovLedouxCap(dim=dim, threshold=float(params.get("threshold", 0.5)))
    raise InputError(f"unknown PsiSpec family {fam!r}")


def psi_from_json(text: str) -> PsiSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid PsiSpec JSON: {e}") from None
    return psi_from_dict(obj)


# ---------------------------------------------------------------------------
# growth envelope

@dataclass(frozen=True)
class GrowthEnvelope:
    """(K, alpha, beta) of the two-sided growth condition

        K^{-1} t^alpha <= Psi(tx)/Psi(x) <= K t^beta   (t >= 1, Psi(x) finite)

    together with the log-Sobolev constant D and defect d."""

    K: float
    alpha: float
    beta: float
    D: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if not self.K >= 1.0:
            raise InputError(f"K must be >= 1, got {self.K}")
        if not (1.0 < self.alpha <= 2.0):
            raise InputError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not (2.0 <= self.beta < math.inf):
            raise InputError(f"beta must lie in [2, inf), got {self.beta}")
        if not self.D > 0:
            raise InputError(f"D must be positive, got {self.D}")
        if not self.d >= 0:
            raise InputError(f"d must be non-negative, got {self.d}")


def env_to_dict(env: GrowthEnvelope) -> dict:
    return {"K": env.K, "alpha": env.alpha, "beta": env.beta,
            "D": env.D, "d": env.d}


def env_from_dict(obj: dict) -> GrowthEnvelope:
    if not isinstance(obj, dict):
        raise InputError("growth envelope must be a JSON object")
    _expect_keys(obj, ("K", "alpha", "beta", "D", "d"), "growth envelope")
    for key in ("K", "alpha", "beta"):
        if key not in obj:
            raise InputError(f"growth envelope missing key {key!r}")
    try:
        return GrowthEnvelope(K=float(obj["K"]), alpha=float(obj["alpha"]),
                              beta=float(obj["beta"]),
                              D=float(obj.get("D", 1.0)),
                              d=float(obj.get("d", 0.0)))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed growth envelope: {exc}") from exc


# ---------------------------------------------------------------------------
# evaluation

def _as_vector(spec: PsiSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise InputError(f"expected vector of shape ({spec.dim},), got {x.shape}")
    return x


def eval_psi(spec: PsiSpec, x) -> float:
    """Psi(x) as an extended real (math.inf allowed)."""
    x = _as_vector(spec, x)
    return float(spec._eval_rows(x[None, :])[0])


def eval_psi_rows(spec: PsiSpec, X) -> np.ndarray:
    """Psi applied to each row of an (m, dim) array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.dim:
        raise InputError(f"expected (m, {spec.dim}) array, got {X.shape}")
    return spec._eval_rows(X)


def eval_psi_p(spec: PsiSpec, p: float, x) -> float:
    """Psi_p(x) = Psi(p x)/p."""
    if not p > 0:
        raise InputError(f"p must be positive, got {p}")
    x = _as_vector(spec, x)
    return float(spec._eval_rows(p * x[None, :])[0]) / p


def psi_p_norm(spec: PsiSpec, p: float, x, tol: float = DEFAULT_TOL) -> float:
    """Luxemburg-type gauge |x|_{Psi_p} = inf{a > 0 : Psi(px/a) <= p}.

    Returns a feasible a* with Psi(px/a*) <= p and Psi(px/(a*(1-tol))) > p.
    """
    return float(psi_p_norm_rows(spec, p, _as_vector(spec, x)[None, :], tol)[0])


def psi_p_norm_rows(spec: PsiSpec, p: float, X, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vector of |row|_{Psi_p} over the rows of X.  Each value depends on its
    row alone, so it is bit-identical to psi_p_norm on that row."""
    if not p > 0:
        raise InputError(f"p must be positive, got {p}")
    if not (0 < tol <= 1e-3):
        raise InputError(f"tol must lie in (0, 1e-3], got {tol}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.dim:
        raise InputError(f"expected (m, {spec.dim}) array, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InputError("input vectors must be finite")

    out = np.zeros(X.shape[0])
    l2 = np.linalg.norm(X, axis=1)
    act = np.flatnonzero(l2 > 0.0)
    a = spec._closed_gauge(p, X[act])
    if a is None:
        def resid(PX, b):
            return spec._eval_rows(PX / b[:, None]) - p

        for start in range(0, act.size, _BLOCK):
            rows = act[start:start + _BLOCK]
            out[rows] = _bracket_solve(resid, p * X[rows], l2[rows], tol)
        return out
    # rounding leaves some closed forms up to 13 ulps infeasible: raise those
    # rows by a relative step that doubles from one ulp
    PX, step = p * X[act], np.finfo(float).eps
    bad = np.flatnonzero(~(spec._eval_rows(PX / a[:, None]) <= p))
    for _ in range(_NUDGE_MAX):
        if bad.size == 0:
            out[act] = a
            return out
        a[bad] *= 1.0 + step
        step *= 2.0
        bad = bad[~(spec._eval_rows(PX[bad] / a[bad, None]) <= p)]
    raise NumericalError(f"closed-form gauge still infeasible after {_NUDGE_MAX} steps")


def _bracket_solve(resid, PX, start, tol: float):
    """Per row, the feasible (resid <= 0) end of a bracket at most tol wide
    around the root of the decreasing a -> resid(PX, a): [a/2, a] moves by
    factors of 2 from a = start, then Chandrupatla's method (1997, Adv. Eng.
    Software 28:145) narrows it, bisecting where interpolation is unsafe."""
    x1, x2 = 0.5 * start, start.copy()  # x1 infeasible, x2 feasible once bracketed
    f1, f2 = resid(PX, x1), resid(PX, x2)
    for _ in range(_BRACKET_MAX):
        up = np.flatnonzero(~(f2 <= 0))
        down = np.flatnonzero((f1 <= 0) & (f2 <= 0))
        if up.size == 0 and down.size == 0:
            break
        x1[up], f1[up], x2[up] = x2[up], f2[up], 2.0 * x2[up]
        f2[up] = resid(PX[up], x2[up])
        x2[down], f2[down], x1[down] = x1[down], f1[down], 0.5 * x1[down]
        f1[down] = resid(PX[down], x1[down])
    else:
        raise NumericalError(f"gauge bracket failed after {_BRACKET_MAX} steps; Psi may violate (C3)")
    tol = max(tol, 2.0 * np.finfo(float).eps)  # adjacent floats end a solve
    out, idx, t = np.empty_like(x1), np.arange(x1.size), np.full(x1.size, 0.5)
    for _ in range(_SOLVE_MAX):
        x = x1 + t * (x2 - x1)
        f = resid(PX, x)
        same = (f <= 0) == (f1 <= 0)
        x1, x2, x3 = x, np.where(same, x2, x1), np.where(same, x1, x2)
        f1, f2, f3 = f, np.where(same, f2, f1), np.where(same, f1, f2)
        feas, dx = np.where(f1 <= 0, x1, x2), np.abs(x2 - x1)
        done = dx <= tol * feas
        if np.any(done):
            out[idx[done]] = feas[done]
            if np.all(done):
                return out
            idx, PX, x1, f1, x2, f2, x3, f3, feas, dx = (
                v[~done] for v in (idx, PX, x1, f1, x2, f2, x3, f3, feas, dx))
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite f bisects
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        t = np.clip(t, 0.5 * tol * feas / dx, 1.0 - 0.5 * tol * feas / dx)
    raise NumericalError(f"gauge solve did not converge in {_SOLVE_MAX} steps for {idx.size} rows")


def two_level_equiv_norm(x, p: float, r: float) -> float:
    """sqrt(p) |x|_2 + p^{1/r*} |x|_r, the closed-form equivalent of the
    two-level gauge for r >= 2."""
    if not r >= 2.0:
        raise InputError(f"r must be >= 2, got {r}")
    if not p >= 1.0:
        raise InputError(f"p must be >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    lr = np.linalg.norm(x, ord=r) if x.size else 0.0
    return math.sqrt(p) * float(np.linalg.norm(x)) + p ** (1.0 - 1.0 / r) * float(lr)


def rearranged_two_level_norm(x, p: float, r: float) -> float:
    """Rearranged two-level equivalent for r in [1, 2]: the top floor(p)
    magnitudes carry the l_r block, the rest the sqrt(p) l_2 block."""
    if not (1.0 <= r <= 2.0):
        raise InputError(f"r must lie in [1, 2], got {r}")
    if not p >= 1.0:
        raise InputError(f"p must be >= 1, got {p}")
    mags = np.sort(np.abs(np.asarray(x, dtype=float)))[::-1]
    k = int(math.floor(p))
    head, tail = mags[:k], mags[k:]
    head_r = float(np.sum(head ** r) ** (1.0 / r)) if head.size else 0.0
    tail_2 = float(np.linalg.norm(tail)) if tail.size else 0.0
    return p ** (1.0 - 1.0 / r) * head_r + math.sqrt(p) * tail_2


# ---------------------------------------------------------------------------
# structural diagnostics

@dataclass
class CheckReport:
    passed: bool
    violations: list
    worst: dict


_T_GRID = np.geomspace(1e-3, 1e3, 61)


def _sample_rays(spec: PsiSpec, ray_samples: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rays = rng.standard_normal((ray_samples, spec.dim))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays


def check_condition_C(spec: PsiSpec, ray_samples: int = 16, seed=0) -> CheckReport:
    """Sample rays and a log t-grid; test (C1)-(C3), (C5), (C6) pointwise.

    Left-continuity (C4) is not observable at grid resolution and is only
    exercised implicitly through the monotone ratio grid.
    """
    if ray_samples < 1:
        raise InputError("ray_samples must be >= 1")
    violations = []
    worst = {"ratio_drop": 0.0}
    at_zero = eval_psi(spec, np.zeros(spec.dim))
    if at_zero != 0.0:
        violations.append(f"C1: Psi(0) = {at_zero}, expected 0")
    ts = _T_GRID
    for i, u in enumerate(_sample_rays(spec, ray_samples, seed)):
        vals = eval_psi_rows(spec, ts[:, None] * u[None, :])
        neg = eval_psi_rows(spec, -ts[:, None] * u[None, :])
        if np.any(vals <= 0.0):
            t_bad = ts[np.argmax(vals <= 0.0)]
            violations.append(f"C2: ray {i}, Psi({t_bad:.3g}x) <= 0")
        v1 = vals[len(ts) // 2]  # grid midpoint is t = 1
        if vals[0] > 0.1 * v1 + 1e-12:
            violations.append(f"C1: ray {i}, Psi does not vanish toward 0 "
                              f"(Psi at t=1e-3 is {vals[0]:.3g})")
        if not vals[-1] >= 1e2 * min(v1, 1e300):
            violations.append(f"C3: ray {i}, Psi(tx) fails to grow (value {vals[-1]:.3g} at t=1e3)")
        ratios = vals / ts
        finite = np.isfinite(ratios)
        drop = np.where(ratios[1:] < ratios[:-1] * (1 - 1e-9))[0]
        drop = [j for j in drop if finite[j] and finite[j + 1]]
        if drop:
            j = drop[0]
            rel = float(1 - ratios[j + 1] / ratios[j])
            worst["ratio_drop"] = max(worst["ratio_drop"], rel)
            violations.append(
                f"C5: ray {i}, Psi(tx)/t decreases by {rel:.3g} at t={ts[j]:.3g}")
        with np.errstate(invalid="ignore"):
            mism = np.abs(vals - neg) > 1e-12 * np.maximum(1.0, np.abs(vals))
        mism &= ~(np.isinf(vals) & np.isinf(neg))
        if np.any(mism):
            violations.append(f"C6: ray {i}, Psi(x) != Psi(-x)")
    return CheckReport(passed=not violations, violations=violations, worst=worst)


def check_growth(spec: PsiSpec, env: GrowthEnvelope, ray_samples: int = 16,
                 seed=0) -> CheckReport:
    """Test K^{-1} t^alpha <= Psi(tx)/Psi(x) <= K t^beta on sampled rays and
    t >= 1, plus the derived comparison Psi(x) <= K(|x|_Psi^alpha + |x|_Psi^beta)."""
    if ray_samples < 1:
        raise InputError("ray_samples must be >= 1")
    violations = []
    lower_margin = math.inf
    upper_margin = math.inf
    ts = np.geomspace(1.0, 1e3, 31)
    slack = 1 + 1e-9
    for i, u in enumerate(_sample_rays(spec, ray_samples, seed)):
        x = u.copy()
        for _ in range(100):  # pull inside the finiteness domain if needed
            if math.isfinite(eval_psi(spec, x)):
                break
            x *= 0.5
        base = eval_psi(spec, x)
        if not (0.0 < base < math.inf):
            continue
        ratio = eval_psi_rows(spec, ts[:, None] * x[None, :]) / base
        lo_bound = ts ** env.alpha / env.K
        hi_bound = env.K * ts ** env.beta
        with np.errstate(invalid="ignore"):
            lm = float(np.min(ratio / lo_bound))
            um = float(np.min(np.where(np.isinf(ratio), 0.0, hi_bound / np.maximum(ratio, 1e-300))))
        lower_margin = min(lower_margin, lm)
        upper_margin = min(upper_margin, um)
        if lm * slack < 1.0:
            t_bad = ts[int(np.argmin(ratio / lo_bound))]
            violations.append(f"lower: ray {i}, Psi(tx)/Psi(x) < t^alpha/K at t={t_bad:.3g}")
        if um * slack < 1.0:
            violations.append(f"upper: ray {i}, Psi(tx)/Psi(x) > K t^beta")
        nrm = psi_p_norm(spec, 1.0, x)
        cap = env.K * (nrm ** env.alpha + nrm ** env.beta)
        if base > cap * slack:
            violations.append(f"norm comparison: ray {i}, Psi(x)={base:.3g} exceeds "
                              f"K(|x|^alpha + |x|^beta)={cap:.3g}")
    worst = {"lower_margin": lower_margin, "upper_margin": upper_margin}
    return CheckReport(passed=not violations, violations=violations, worst=worst)


def empirical_triangle_constant(spec: PsiSpec, p: float, pairs: int = 256,
                                seed=0) -> float:
    """Largest observed |x+y| / (|x| + |y|) in the Psi_p gauge over random
    Gaussian pairs.  The theoretical quasi-norm constant is not explicit in
    the underlying inequalities, so it is only reported empirically."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((pairs, spec.dim))
    Y = rng.standard_normal((pairs, spec.dim))
    nx = psi_p_norm_rows(spec, p, X)
    ny = psi_p_norm_rows(spec, p, Y)
    ns = psi_p_norm_rows(spec, p, X + Y)
    return float(np.max(ns / (nx + ny)))
