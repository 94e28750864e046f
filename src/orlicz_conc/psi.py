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
moment bounds of `bounds`.  PowerNorm and BobkovLedouxCap gauges, and that of
SeparableFromPhi s=1, a rescaled cap, are closed forms.  SeparableTwoLevel and
SeparableFromPhi 1 < s <= 2 have components of two power pieces, and
SeparableFromPhi s > 2 one of three (quadratic, linear, power): their gauge
is one sort per row and a Newton solve on the root's segment.  For the other
families the predicate Psi(px/a) <= p, monotone in a, is bracketed
geometrically and the bracket narrowed by Chandrupatla's method.  Every
gauge takes a whole p grid at once, so the work that does not depend on p
is done once per block of rows.
The golden-section maximiser and the numeric Legendre transform at the end
serve conjugacy's profiles and a custom Phi's component alike.
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
_SOLVE_MAX = 100    # Chandrupatla steps; bisection needs 35 (tol 1e-10) to 52 (float resolution)
_NUDGE_MAX = 16     # doubling steps, at most 2^16 ulps, that repair a rounded closed form
_BLOCK = 8192       # rows per gauge block, bounding its per-row temporaries
_NEWTON_MAX = 64    # Newton steps of the piecewise gauges; they take 2-8
_NEWTON_TOL = 1e-14  # last log-step of the piecewise gauges (over 1 + |log s| for two pieces)
_FOLD_MAX = 16      # columns up to which a row max folds column by column
_SUP_TOL = 1e-13    # relative width of the profile, radius and level solves

GRID_LO = 1e-6      # log grid of the numeric Legendre transform and ray supremum
GRID_HI = 1e6
GRID_POINTS = 2048
_ROWS = 16          # values per grid block, bounding the (rows, points) temporaries
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# scalar building blocks shared by the two-level family and PhiSpec

def _sup_linear_minus_quad(v):
    # sup_{0 <= u <= 1} (u v - u^2) for v >= 0; v^2 may overflow where v > 2
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
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
    supplied instead; it must be vectorized over numpy arrays, and it may
    take the value +inf outside a bounded domain.

    Derived objects: `tilde` is quadratic below 1 and Phi above 1; its
    Legendre transform `tilde_star` is the per-coordinate component of the
    separable Orlicz function in the Gluskin-Kwapien moment equivalence; for
    a custom Phi it is the numeric transform `legendre_1d`.
    """

    s: float = 2.0
    fn: Optional[Callable] = None

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
        return legendre_1d(self.tilde, v)


# ---------------------------------------------------------------------------
# PsiSpec families

@dataclass(frozen=True)
class PsiSpec:
    """Base descriptor of a generalized Orlicz function on R^dim.

    Each family is the one place that knows its closed forms.  A `_closed_*`
    method returns None where the family has none, and the caller then runs
    a family-independent numeric fallback.  The 1-D conjugate at c >= 0 is
    the component conjugate h*(c) for a separable family, and Psi*(c e) for
    e a unit vector of the dual norm otherwise.
    """

    dim: int

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")

    # separable families override _component; PowerNorm, a function of a
    # norm, overrides _eval_rows and _dual_norm.  Support evaluation over
    # {Psi* <= p} needs a convex Psi: `convex` marks families convex throughout.
    separable = True
    convex = False

    def _component(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_rows(self, X: np.ndarray) -> np.ndarray:
        vals = self._component(np.abs(X))
        return np.sum(vals, axis=-1)

    def _closed_gauge(self, ps: list, X: np.ndarray) -> Optional[np.ndarray]:
        """|row|_{Psi_p} for the non-zero rows of X: row j of the
        (len(ps), rows) array is the gauge at ps[j]."""
        return None

    def _closed_omega(self, t: np.ndarray) -> Optional[np.ndarray]:
        """omega(t) = sup Psi(tx)/Psi(x), elementwise."""
        return None

    def _closed_conjugate(self, c) -> Optional[np.ndarray]:
        """The 1-D conjugate, elementwise."""
        return None

    def _closed_support(self, p: float, theta: np.ndarray) -> Optional[float]:
        """sup{<theta, y> : Psi*(y) <= p}: the value of _closed_support_argmax,
        unless the family has a value of its own."""
        closed = self._closed_support_argmax(p, theta)
        return None if closed is None else closed[0]

    def _closed_support_argmax(self, p: float, theta: np.ndarray) -> Optional[tuple]:
        """(value, maximizer y) of that supremum."""
        return None

    def _require_convex(self):
        if not self.convex:
            raise InputError(f"{type(self).__name__} is not a supported convex family")

    def _params(self) -> dict:
        """The `params` object of the JSON form, read back by `_from_params`."""
        raise InputError(f"{type(self).__name__} is not JSON-serializable")


@dataclass(frozen=True)
class PowerNorm(PsiSpec):
    """Psi(x) = ||x||_q^a for the inner l_q norm (q in [1, inf]) and a >= 1.

    a = 1 makes Psi itself a norm, in which case |.|_{Psi_p} = Psi for every
    p; a > 1 gives |x|_{Psi_p} = p^{1/a*} ||x||_q with a* = a/(a-1).  The
    conjugate is Psi*(y) = c_a ||y||_*^{a*} with c_a = (a-1) a^{-a*}, and the
    indicator of the dual unit ball for a = 1.
    """

    norm: float = 2.0
    a: float = 2.0
    separable = False
    convex = True

    def __post_init__(self):
        super().__post_init__()
        if not (self.norm >= 1.0):
            raise InputError(f"inner norm exponent must be >= 1, got {self.norm}")
        if not (self.a >= 1.0 and math.isfinite(self.a)):
            raise InputError(f"outer exponent must satisfy a >= 1, got {self.a}")

    def _inner_norm(self, X):
        return np.linalg.norm(np.atleast_2d(X), ord=self.norm, axis=-1)

    def _eval_rows(self, X):
        return np.power(self._inner_norm(X), self.a)

    def _closed_gauge(self, ps, X):
        return np.multiply.outer([p ** (1.0 - 1.0 / self.a) for p in ps], self._inner_norm(X))

    def _dual_norm(self, y) -> float:
        q = self.norm
        q_dual = math.inf if q == 1.0 else (1.0 if math.isinf(q) else q / (q - 1.0))
        return float(np.linalg.norm(y, ord=q_dual))

    def _closed_omega(self, t):
        return np.power(t, self.a)

    def _conjugate_power(self):
        # (a*, c_a) for a > 1
        a_conj = self.a / (self.a - 1.0)
        return a_conj, (self.a - 1.0) * self.a ** (-a_conj)

    def _closed_conjugate(self, c):
        if self.a == 1.0:
            return np.where(c <= 1.0 + 1e-12, 0.0, np.inf)
        a_conj, coef = self._conjugate_power()
        return coef * c ** a_conj

    def _conjugate_radius(self, p: float) -> float:
        # {Psi* <= p} is the dual-norm ball of this radius
        if self.a == 1.0:
            return 1.0
        a_conj, coef = self._conjugate_power()
        return (p / coef) ** (1.0 / a_conj)

    def _closed_support(self, p, theta):
        # R ||theta||_q, which rounds differently from <theta, y> at the argmax
        return self._conjugate_radius(p) * float(np.linalg.norm(theta, ord=self.norm))

    def _closed_support_argmax(self, p, theta):
        R = self._conjugate_radius(p)
        q = self.norm
        mags = np.abs(theta)
        if math.isinf(q):
            y = np.zeros(self.dim)
            j = int(np.argmax(mags))
            y[j] = math.copysign(R, theta[j])
        elif q == 1.0:
            y = R * np.sign(theta)
        else:
            w = np.sign(theta) * mags ** (q - 1.0)
            y = R * w / float(np.linalg.norm(mags ** (q - 1.0), ord=q / (q - 1.0)))
        return float(np.dot(theta, y)), y

    def _params(self):
        return {"norm": _norm_descriptor(self.norm), "a": self.a}

    @classmethod
    def _from_params(cls, dim, params):
        _expect_keys(params, ("norm", "a"), "PowerNorm params")
        return cls(dim=dim, norm=_parse_norm_descriptor(params.get("norm", "l2")),
                   a=float(params.get("a", 2.0)))


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

    def _closed_gauge(self, ps, X):
        return _two_piece_gauge(ps, X, (1.0, 2.0, 1.0, 1.0, self.r))

    def _closed_omega(self, t):
        return np.maximum(t * t, np.power(t, self.r))

    def _closed_conjugate(self, c):
        return two_level_component_conjugate(c, self.r)

    def _require_convex(self):
        if self.r < 2.0:
            raise InputError("two-level spec with r < 2 is non-convex; "
                             "support evaluation requires r >= 2")

    def _params(self):
        return {"r": self.r}

    @classmethod
    def _from_params(cls, dim, params):
        _expect_keys(params, ("r",), "SeparableTwoLevel params")
        if "r" not in params:
            raise InputError("SeparableTwoLevel requires params.r")
        return cls(dim=dim, r=float(params["r"]))


@dataclass(frozen=True)
class SeparableFromPhi(PsiSpec):
    """Psi(x) = sum_i tilde-Phi*(x_i), the Gluskin-Kwapien energy function."""

    phi: PhiSpec = field(default_factory=PhiSpec)
    convex = True

    def _component(self, u):
        return self.phi.tilde_star(u)

    def _cap(self) -> Optional["BobkovLedouxCap"]:
        # Phi(t) = t makes the component v^2/4 on |v| <= 1 and +inf beyond, so
        # Psi(x) is BobkovLedouxCap(threshold=1/2) at x/2: its gauge and
        # support halve, and its conjugate is taken at 2c
        if self.phi.fn is None and self.phi.s == 1.0:
            return BobkovLedouxCap(dim=self.dim, threshold=0.5)
        return None

    def _closed_gauge(self, ps, X):
        cap, s = self._cap(), self.phi.s
        if cap is not None:
            return 0.5 * cap._closed_gauge(ps, X)
        if self.phi.fn is not None:
            return None
        s_conj = s / (s - 1.0)
        c = (s - 1.0) * s ** (-s_conj)
        if s > 2.0:
            return _three_piece_gauge(ps, X, s, s_conj, c)
        # for 1 < s <= 2 the component is the convex envelope v^2/4 up to
        # v0, where it meets c v^{s*} (v0 -> 2 as s -> 2, where both are v^2/4)
        v0 = 2.0 if s == 2.0 else (0.25 / c) ** (1.0 / (s_conj - 2.0))
        return _two_piece_gauge(ps, X, (0.25, 2.0, v0, c, s_conj))

    def _closed_omega(self, t):
        cap, s = self._cap(), self.phi.s
        if cap is not None:
            return cap._closed_omega(t)
        if self.phi.fn is None:
            return np.maximum(t * t, np.power(t, s / (s - 1.0)))

    def _closed_conjugate(self, c):
        cap = self._cap()
        if cap is not None:
            return cap._closed_conjugate(2.0 * c)
        # tilde-Phi is convex for a power Phi with s >= 2, so the biconjugate
        # is tilde-Phi itself; otherwise only the numeric transform applies
        if self.phi.fn is None and self.phi.s >= 2.0:
            return self.phi.tilde(c)

    def _closed_support_argmax(self, p, theta):
        cap = self._cap()
        if cap is not None:
            value, y = cap._closed_support_argmax(p, theta)
            return 0.5 * value, 0.5 * y

    def _params(self):
        if self.phi.fn is not None:
            raise InputError("custom Phi functions are not JSON-serializable")
        return {"s": self.phi.s}

    @classmethod
    def _from_params(cls, dim, params):
        _expect_keys(params, ("s",), "SeparableFromPhi params")
        if "s" not in params:
            raise InputError("SeparableFromPhi requires params.s")
        return cls(dim=dim, phi=PhiSpec(s=float(params["s"])))


@dataclass(frozen=True)
class BobkovLedouxCap(PsiSpec):
    """Psi(x) = sum_i H(x_i), H(u) = u^2 for |u| <= threshold, +inf beyond."""

    threshold: float = 0.5
    convex = True

    def __post_init__(self):
        super().__post_init__()
        if not (self.threshold > 0):
            raise InputError(f"threshold must be positive, got {self.threshold}")

    def _component(self, u):
        return np.where(u <= self.threshold, u * u, np.inf)

    def _closed_gauge(self, ps, X):
        # Psi(px/a) <= p iff p|x|_inf/a <= threshold and p^2|x|_2^2/a^2 <= p
        top, l2 = _row_max(np.abs(X)), np.linalg.norm(X, axis=-1)
        return np.array([np.maximum(p * top / self.threshold, math.sqrt(p) * l2) for p in ps])

    def _closed_omega(self, t):
        return np.where(t <= 1.0, t * t, np.inf)

    def _closed_conjugate(self, c):
        thr = self.threshold
        return np.where(c <= 2.0 * thr, 0.25 * c * c, thr * c - thr * thr)

    def _closed_support_argmax(self, p, theta):
        # Psi(theta/lam) = |theta|^2/lam^2 on lam >= max|theta|/thr, so the dual
        # min_lam lam (p + Psi(theta/lam)) sits at lam*; off the cap the
        # maximizer is y = grad Psi(theta/lam*) = 2 theta/lam*
        thr, mags = self.threshold, np.abs(theta)
        top = float(np.max(mags))
        lam_star = max(float(np.linalg.norm(theta)) / math.sqrt(p), top / thr)
        y = 2.0 * theta / lam_star
        # where the cap binds, the subdifferential of h at thr is the ray
        # [2 thr, inf): the tied top coordinates share what the others leave of
        # the budget p on h*'s linear piece (complementary slackness)
        ties = mags == top
        rest = 0.25 * float(np.sum(np.square(y[~ties])))
        c = ((p - rest) / np.count_nonzero(ties) + thr * thr) / thr
        if c > 2.0 * thr:
            y[ties] = np.copysign(c, theta[ties])
        return float(np.dot(theta, y)), y

    def _params(self):
        return {"threshold": self.threshold}

    @classmethod
    def _from_params(cls, dim, params):
        _expect_keys(params, ("threshold",), "BobkovLedouxCap params")
        return cls(dim=dim, threshold=float(params.get("threshold", 0.5)))


@dataclass(frozen=True)
class UserSeparable(PsiSpec):
    """Psi(x) = sum_i h(x_i) for a user component h (vectorized, even in its
    argument, h(0) = 0, possibly +inf outside a bounded domain)."""

    fn: Callable = None
    name: str = "user"

    def __post_init__(self):
        super().__post_init__()
        if self.fn is None:
            raise InputError("UserSeparable requires a component function")
        if abs(float(self.fn(0.0))) > 1e-12:
            raise InputError("user component must vanish at 0")

    def _component(self, u):
        return np.asarray(self.fn(u), dtype=float)


_FAMILIES = {cls.__name__: cls for cls in
             (PowerNorm, SeparableTwoLevel, SeparableFromPhi, BobkovLedouxCap)}


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
    return {"family": type(spec).__name__, "params": spec._params(), "dim": spec.dim}


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
    if not (isinstance(fam, str) and fam in _FAMILIES):
        raise InputError(f"unknown PsiSpec family {fam!r}")
    if any(isinstance(v, bool) for v in params.values()):
        raise InputError(f"malformed {fam} params: a boolean is not a number")
    try:
        return _FAMILIES[fam]._from_params(dim, params)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:  # a non-numeric parameter value
        raise InputError(f"malformed {fam} params: {exc}") from None


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


def psi_p_norm(spec: PsiSpec, p: float, x) -> float:
    """Luxemburg-type gauge |x|_{Psi_p} = inf{a > 0 : Psi(px/a) <= p}.

    Returns a feasible a* with Psi(px/a*) <= p and Psi(px/(a*(1-DEFAULT_TOL))) > p.
    """
    return float(psi_p_norm_rows(spec, p, _as_vector(spec, x)[None, :])[0])


def psi_p_norm_rows(spec: PsiSpec, p, X) -> np.ndarray:
    """Vector of |row|_{Psi_p} over the rows of X; for a p grid (a 1-D
    array), the (rows, len(p)) array whose column j is the vector at p[j].
    Each block of rows is scaled once and the family does its p-independent
    work once for the whole grid.  Each value depends on its row and p
    alone, so it is bit-identical to psi_p_norm on that row at that p."""
    grid = np.asarray(p, dtype=float)
    if grid.ndim > 1 or not np.all(grid > 0):
        raise InputError(f"p must be positive (a scalar or a 1-D grid), got {p}")
    ps = np.atleast_1d(grid).tolist()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.dim:
        raise InputError(f"expected (m, {spec.dim}) array, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InputError("input vectors must be finite")

    out = np.zeros((len(ps), X.shape[0]))
    act = np.flatnonzero(np.any(X != 0.0, axis=1))
    for i in range(0, act.size, _BLOCK):
        rows = act[i:i + _BLOCK]
        # the gauge is 1-homogeneous, so each row is solved exactly at 2^-e
        # times itself, e its max's exponent: no square or p x under- or overflows
        Y = X[rows]
        e = np.frexp(_row_max(np.abs(Y)))[1]
        np.ldexp(Y, -e[:, None], out=Y)
        a = spec._closed_gauge(ps, Y)
        if a is None:
            start = np.linalg.norm(Y, axis=1)
            a = np.array([_bracket_solve(lambda y, b: spec._eval_rows(p * y / b[:, None]) - p,
                                         Y, start, DEFAULT_TOL, "gauge", "; Psi may violate (C3)")
                          for p in ps])
        else:
            for p, a_p in zip(ps, a):
                _feasible_gauge(spec, p, Y, a_p)
        with np.errstate(over="ignore"):
            back = np.ldexp(a, e)
        if not np.all((back > 0.0) & (back < np.inf)):
            raise NumericalError("the gauge of a nonzero row under- or overflows")
        # a subnormal gauge that rounded down rises one step, so it stays feasible
        out[:, rows] = np.where(np.ldexp(back, -e) < a, np.nextafter(back, np.inf), back)
    return out.T if grid.ndim else out[0]


def _feasible_gauge(spec: PsiSpec, p: float, X: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The closed-form gauges a of the nonzero rows of X, made feasible in
    place: rounding leaves some closed forms up to 13 ulps infeasible, so
    those rows rise by a relative step that doubles from one ulp."""
    if not np.all((a > 0.0) & (a < np.inf)):
        raise NumericalError("closed-form gauge of a nonzero row is 0 or not finite")
    step = np.finfo(float).eps
    bad = np.flatnonzero(~(spec._eval_rows(p * X / a[:, None]) <= p))
    for _ in range(_NUDGE_MAX):
        if bad.size == 0:
            return a
        a[bad] *= 1.0 + step
        step *= 2.0
        bad = bad[~(spec._eval_rows(p * X[bad] / a[bad, None]) <= p)]
    raise NumericalError(f"closed-form gauge still infeasible after {_NUDGE_MAX} steps")


def _row_max(A: np.ndarray) -> np.ndarray:
    """np.max(A, axis=1), bit for bit.  Up to _FOLD_MAX columns it folds
    np.maximum over the columns, as numpy reduces a short axis slowly."""
    if A.shape[1] > _FOLD_MAX:
        return np.max(A, axis=1)
    out = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        np.maximum(out, A[:, j], out=out)
    return out


def _sorted_rows(X: np.ndarray, pad: int = 0):
    """(top, y): each row's max |x_i| and its |x_i| / top, sorted in
    decreasing order and followed by `pad` zeros."""
    m, n = X.shape
    buf = np.zeros((m, pad + n))
    ax = np.abs(X, out=buf[:, pad:])
    top = _row_max(ax)
    ax /= top[:, None]
    ax.sort(axis=1)
    return top, buf[:, ::-1]


def _newton(update, x: np.ndarray, coefs: tuple, what: str) -> np.ndarray:
    """Per row, x, coefs -> update(x, *coefs) = (new x, done) until the row
    is done; rows leave as they finish.  NumericalError after _NEWTON_MAX
    steps."""
    out, idx = np.empty(x.size), np.arange(x.size)
    for _ in range(_NEWTON_MAX):
        x, done = update(x, *coefs)
        if np.any(done):
            out[idx[done]] = x[done]
            if np.all(done):
                return out
            idx, x, coefs = idx[~done], x[~done], tuple(v[~done] for v in coefs)
    raise NumericalError(f"{what} gauge did not converge in {_NEWTON_MAX} steps "
                         f"for {idx.size} rows")


def _two_piece_gauge(ps: list, X: np.ndarray, pieces: tuple) -> np.ndarray:
    """|row|_{Psi_p} at each p of ps for the nonzero rows of X, for a
    separable Psi whose component is two homogeneous pieces, h(v) = c1 v^e1
    on [0, b] and c2 v^e2 above, continuous at b, with e1, e2 > 1.

    The gauge is 1-homogeneous, so each row is divided by its max |x_i| and
    the gauge is p max|x_i| / s* with s* the root of F(s) = sum_i h(s y_i) = p,
    y the sorted |x_i| / max|x_i|.  Coordinate k crosses the knot at
    t_k = b / y_k, and F(t_k) follows from prefix sums of y^e1 and y^e2, so
    the root's segment is #{k : F(t_k) <= p}: only that count and the Newton
    solve depend on p.  On the segment F(s) = A s^e1 + B s^e2,
    and G(tau) = log(F(e^tau) / p) is convex and increasing: Newton on tau,
    started at the least s where one term alone reaches p, an upper bound of
    the root, falls monotonically to it.  Each row stops on its own, once its
    step is at most _NEWTON_TOL (1 + |tau|)."""
    c1, e1, b, c2, e2 = pieces
    top, y = _sorted_rows(X)
    m, n = y.shape
    ye1, ye2 = y ** e1, y ** e2
    below, above = np.zeros((m, n + 1)), np.zeros((m, n + 1))
    below[:, :n] = np.cumsum(ye1[:, ::-1], axis=1)[:, ::-1]  # sum_{i >= k} y_i^e1
    np.cumsum(ye2, axis=1, out=above[:, 1:])                 # sum_{i < k} y_i^e2

    def update(tau, lA, lB):
        z1, z2 = lA + e1 * tau, lB + e2 * tau
        slope = e1 + (e2 - e1) / (1.0 + np.exp(z1 - z2))
        step = np.logaddexp(z1, z2) / slope
        tau = tau - step
        return tau, np.abs(step) <= _NEWTON_TOL * (1.0 + np.abs(tau))

    out, rows = np.empty((len(ps), m)), np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # F(t_k); a zero y_k gives nan or +inf, never counted
        at_knots = c1 * b ** e1 * (above[:, :n] / ye2 + below[:, :n] / ye1)
        for j, p in enumerate(ps):
            k, log_p = np.count_nonzero(at_knots <= p, axis=1), math.log(p)
            lA, lB = np.log(c1 * below[rows, k]) - log_p, np.log(c2 * above[rows, k]) - log_p
            tau = _newton(update, np.minimum(-lA / e1, -lB / e2), (lA, lB), "two-piece")
            out[j] = p * (top * np.exp(-tau))
    return out


def _leading(pred, m: int, n: int) -> np.ndarray:
    """Per row of m, the count of leading k in range(n) where pred holds,
    pred(k) taking one k per row and monotone in k (true, then false):
    binary lifting, one pred call per bit of n."""
    k, step = np.zeros(m, dtype=np.intp), 1 << (n.bit_length() - 1)
    while step:
        j = k + step
        k += step * ((j <= n) & pred(np.minimum(j, n) - 1))
        step >>= 1
    return k


def _three_piece_gauge(ps: list, X: np.ndarray, s: float, s_conj: float, c: float) -> np.ndarray:
    """|row|_{Psi_p} at each p of ps for the nonzero rows of X, for
    SeparableFromPhi s > 2: h(v) = v^2/4 on [0, 2], v - 1 on [2, s] and
    c v^{s*} above.  As for two pieces, the gauge is p max|x_i| / sig with
    F(sig) = sum_i h(sig y_i) = p.  With kp coordinates at or above the knot
    s and kl at or above 2, F(sig) = c P sig^{s*} + B sig - C + D sig^2 / 4,
    from prefix sums of y^{s*}, y and y^2, and C = kl - kp.  Per p, binary
    searches count the knots below the root: ks = #{k : F(s/y_k) <= p},
    each step finding its kl by a search of its own, then k2 = #{k :
    F(2/y_k) <= p}.  On that segment F is convex and increasing, and each
    term alone reaches p above the root, within a factor 3: Newton from the
    least of those points falls monotonically to it, a row stopping once its
    relative step is at most _NEWTON_TOL."""
    top, yp = _sorted_rows(X, pad=1)  # yp[:, n] = 0: the knots past the last are +inf
    m, n = X.shape
    # increasing and contiguous, asc[:, n - k] = y_k: a gather is one take.
    # In place, P[:, k] = sum_{i < k} y_i^{s*}, L[:, k] = sum_{i < k} y_i and
    # Q[:, n - k] = sum_{i >= k} y_i^2
    asc, P, L = yp[:, ::-1], np.zeros((m, n + 1)), np.zeros((m, n + 1))
    np.cumsum(np.power(asc[:, :0:-1], s_conj, out=P[:, 1:]), axis=1, out=P[:, 1:])
    np.cumsum(asc[:, :0:-1], axis=1, out=L[:, 1:])
    Q = np.square(asc)
    np.cumsum(Q, axis=1, out=Q)
    asc, P, L, Q = (v.ravel() for v in (asc, P, L, Q))
    at, root_c = np.arange(m) * (n + 1), c ** (-1.0 / s_conj)
    rev = at + n

    def segment(kp, kl):  # P, B, C and D of F on a segment
        return P.take(at + kp), L.take(at + kl) - L.take(at + kp), kl - kp, Q.take(rev - kl)

    def F(v, k, kp, kl):  # F at the knot v / y_k
        (Pk, B, C, D), yk = segment(kp, kl), asc.take(rev - k)
        sig = v / yk
        return c * v ** s_conj * Pk / yk ** s_conj + sig * B - C + 0.25 * (D * sig) * sig

    def above(thr):  # per row, #{i : y_i >= thr}
        return _leading(lambda k: asc.take(rev - k) >= thr, m, n)

    out = np.empty((len(ps), m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, p in enumerate(ps):
            def at_s(k):
                return F(s, k, k + 1, np.maximum(above(2.0 / s * asc.take(rev - k)), k + 1)) <= p

            ks = _leading(at_s, m, n)
            lo = np.where(ks > 0, s / asc.take(np.minimum(rev - ks + 1, rev)), 0.0)
            hi = s / asc.take(rev - ks)

            def at_2(k):
                sig = 2.0 / asc.take(rev - k)
                return (sig < lo) | ((sig < hi) & (F(2.0, k, ks, np.maximum(k + 1, ks)) <= p))

            P_, B, C, D = segment(ks, _leading(at_2, m, n))
            # each term alone reaches p at sP, sQ or (p + C) / B, +inf or nan without it
            sP, sQ, C = root_c * (p / P_) ** (1.0 / s_conj), 2.0 * np.sqrt(p / D), C.astype(float)

            def update(sig, sP, sQ, B, C):
                # f(sig) = F(sig) / p - 1 and sig f'(sig), each term as a ratio to its own root
                tP, tQ, lin = (sig / sP) ** s_conj, (sig / sQ) ** 2, B * sig / p
                step = (tP + tQ + lin - C / p - 1.0) / (s_conj * tP + 2.0 * tQ + lin)
                return sig - sig * step, np.abs(step) <= _NEWTON_TOL

            sig = np.fmin(np.fmin(sP, sQ), (p + C) / B)
            out[j] = p * (top / _newton(update, sig, (sP, sQ, B, C), "three-piece"))
    return out


def _bracket_solve(resid, data, start, tol: float, what: str, why: str = ""):
    """Per row of data, the feasible (resid <= 0) end of a bracket at most tol
    wide around the root of the decreasing a -> resid(data, a): [a/2, a] moves
    by factors of 2 from a = start, then Chandrupatla's method (1997, Adv.
    Eng. Software 28:145) narrows it, bisecting where interpolation is unsafe.
    Rows are solved in blocks of _BLOCK, each row on its own; a cap raises
    NumericalError naming `what`."""
    out = np.empty(start.shape)
    for i in range(0, start.size, _BLOCK):
        out[i:i + _BLOCK] = _solve_block(resid, data[i:i + _BLOCK], start[i:i + _BLOCK],
                                         tol, what, why)
    return out


def _solve_block(resid, data, start, tol, what, why):
    x1, x2 = 0.5 * start, start.copy()  # x1 infeasible, x2 feasible once bracketed
    f1, f2 = resid(data, x1), resid(data, x2)
    for _ in range(_BRACKET_MAX):
        up = np.flatnonzero(~(f2 <= 0))
        down = np.flatnonzero((f1 <= 0) & (f2 <= 0))
        if up.size == 0 and down.size == 0:
            break
        x1[up], f1[up], x2[up] = x2[up], f2[up], 2.0 * x2[up]
        f2[up] = resid(data[up], x2[up])
        x2[down], f2[down], x1[down] = x1[down], f1[down], 0.5 * x1[down]
        f1[down] = resid(data[down], x1[down])
    else:
        raise NumericalError(f"{what} bracket failed after {_BRACKET_MAX} steps{why}")
    tol = max(tol, 2.0 * np.finfo(float).eps)  # adjacent floats end a solve
    out, idx, t = np.empty_like(x1), np.arange(x1.size), np.full(x1.size, 0.5)
    for _ in range(_SOLVE_MAX):
        x = x1 + t * (x2 - x1)
        f = resid(data, x)
        same = (f <= 0) == (f1 <= 0)
        x1, x2, x3 = x, np.where(same, x2, x1), np.where(same, x1, x2)
        f1, f2, f3 = f, np.where(same, f2, f1), np.where(same, f1, f2)
        feas, dx = np.where(f1 <= 0, x1, x2), np.abs(x2 - x1)
        done = dx <= tol * feas
        if np.any(done):
            out[idx[done]] = feas[done]
            if np.all(done):
                return out
            idx, data, x1, f1, x2, f2, x3, f3, feas, dx = (
                v[~done] for v in (idx, data, x1, f1, x2, f2, x3, f3, feas, dx))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # non-finite f bisects
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        t = np.clip(t, 0.5 * tol * feas / dx, 1.0 - 0.5 * tol * feas / dx)
    raise NumericalError(f"{what} solve did not converge in {_SOLVE_MAX} steps for {idx.size} rows")


def _bracket_sup(resid, data, start, what: str):
    """Per row, sup{t > 0 : resid(data, t) <= 0} for resid increasing in t:
    _bracket_solve on the decreasing a -> resid(data, 1/a) from a = 1/start,
    returned as the 1/a at which the feasible end was evaluated."""
    return 1.0 / _bracket_solve(lambda d, a: resid(d, 1.0 / a), data, 1.0 / start, _SUP_TOL, what)


# ---------------------------------------------------------------------------
# the golden-section maximiser and the numeric Legendre transform

def _golden_max(fn: Callable, data: np.ndarray, a: np.ndarray, b: np.ndarray,
                iters: int) -> np.ndarray:
    """Per row, the golden-section maximum of the unimodal x -> fn(data, x)
    on [a, b]: each step narrows every running row's bracket, reusing the
    interior point it keeps, with one fn call on the data and new point of
    those rows.  A row stops, with its larger interior value, once its
    bracket is at most 1e-12 * max(|b|, 1) wide; NumericalError if `iters`
    steps leave a row running."""
    out = np.empty(a.size)
    if a.size == 0:
        return out
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(data, x1), fn(data, x2)
    idx = np.arange(a.size)
    for _ in range(iters):
        left = f1 < f2  # keep [x1, b] and its point x2, else [a, x2] and x1
        a, b = np.where(left, x1, a), np.where(left, b, x2)
        width = b - a
        step = _GOLDEN * width
        x = np.where(left, a + step, b - step)
        f = fn(data, x)
        x1, x2 = np.where(left, x2, x), np.where(left, x, x1)
        f1, f2 = np.where(left, f2, f), np.where(left, f, f1)
        done = width <= 1e-12 * np.maximum(np.abs(b), 1.0)
        if np.any(done):
            out[idx[done]] = np.where(f2 > f1, f2, f1)[done]
            if np.all(done):
                return out
            idx, data, a, b, x1, x2, f1, f2 = (
                v[~done] for v in (idx, data, a, b, x1, x2, f1, f2))
    raise NumericalError(f"golden-section search did not converge in {iters} steps")


def _grid_sup(ts: np.ndarray, xs: np.ndarray, on_grid: Callable, unbounded: Callable,
              fn: Callable, iters: int) -> np.ndarray:
    """Per t, sup_x fn(t, x): the grid maximum of on_grid(t), the (rows, xs)
    values taken _ROWS t at a time, or the golden refinement in the cell
    around it if larger; +inf for the t that unbounded(values) flags."""
    i, top = np.empty(ts.size, dtype=np.intp), np.empty(ts.size)
    inf = np.empty(ts.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(0, ts.size, _ROWS):
            vals = on_grid(ts[s:s + _ROWS, None])
            i[s:s + _ROWS], top[s:s + _ROWS] = np.argmax(vals, axis=1), np.max(vals, axis=1)
            inf[s:s + _ROWS] = unbounded(vals)
        rows = np.flatnonzero(~inf)
        best = _golden_max(fn, ts[rows], xs[np.maximum(i[rows] - 1, 0)],
                           xs[np.minimum(i[rows] + 1, xs.size - 1)], iters)
    out = np.full(ts.size, np.inf)
    out[rows] = np.where(best > top[rows], best, top[rows])
    return out


def _column(t, ok, requirement: str) -> np.ndarray:
    """t as a float array; InputError names the first entry failing ok."""
    ts = np.asarray(t, dtype=float)
    bad = ~ok(ts)
    if np.any(bad):
        raise InputError(f"{requirement}, got {float(ts[bad][0])!r}")
    return ts


def _shaped(out: np.ndarray, t):
    """out in t's shape: a float for a scalar t."""
    out = np.reshape(out, np.shape(t))
    return float(out) if out.ndim == 0 else out


def legendre_1d(phi: Callable, t):
    """sup_{y > 0} (t y - phi(y)) for a vectorized phi, elementwise over t:
    one log grid of GRID_POINTS points on [GRID_LO, GRID_HI], then
    golden-section refinement in each t's winning cell.

    A phi that is +inf outside a bounded domain makes the objective -inf
    there, so the domain needs no separate bound.  Reports +inf when the
    objective is still climbing at the top grid edge.  The result is clamped
    at 0, the supremum attained as y -> 0+ whenever phi vanishes at the
    origin (all uses here).
    """
    t = _column(t, lambda v: v >= 0, "legendre_1d requires t >= 0")
    ys = np.geomspace(GRID_LO, GRID_HI, GRID_POINTS)
    phi_ys = np.asarray(phi(ys), dtype=float)
    per_decade = max(2, int(GRID_POINTS / math.log10(GRID_HI / GRID_LO)))

    def on_grid(tb):
        obj = tb * ys - phi_ys
        obj[np.isnan(obj)] = -np.inf
        return obj

    def climbing(obj):
        return (np.argmax(obj, axis=1) == GRID_POINTS - 1) & (
            obj[:, -1] > obj[:, -per_decade] + 1e-12 * np.maximum(1.0, np.abs(obj[:, -1])))

    sup = _grid_sup(t.ravel(), ys, on_grid, climbing,
                    lambda tt, y: tt * y - np.asarray(phi(y), dtype=float), 80)
    return _shaped(np.maximum(sup, 0.0), t)
