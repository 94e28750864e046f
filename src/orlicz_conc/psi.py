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
moment bounds of `bounds`.  SeparableTwoLevel, SeparableFromPhi with a power
Phi and BobkovLedouxCap describe their component h by a PieceTable, h(v) =
a v^e + c piece by piece, and take its value, omega, conjugate and gauge
from it: under a cap (BobkovLedouxCap, SeparableFromPhi s=1) the gauge and
the support are closed forms, as PowerNorm's are, and without one the gauge
is one sort per row, a search for the root's segment and a Newton solve on
it.  For the other families the predicate Psi(px/a) <= p, monotone in a, is
bracketed geometrically and the bracket narrowed by Chandrupatla's method.
Every gauge takes a whole p grid at once, so the work that does not depend
on p is done once per slice of rows.
The golden-section maximiser and the numeric Legendre transform at the end
serve conjugacy's profiles and a custom Phi's component alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError

DEFAULT_TOL = 1e-10

_BRACKET_MAX = 200  # doublings/halvings before giving up (condition C3 failure)
_SOLVE_MAX = 100    # Chandrupatla steps; bisection needs 35 (tol 1e-10) to 52 (float resolution)
_NUDGE_MAX = 16     # doubling steps, at most 2^16 ulps, that repair a rounded closed form
_BLOCK = 8192       # rows per Monte Carlo block and per gauge slice at dim <= 2 (a quarter above)
_NEWTON_MAX = 64    # Newton steps of the piece-table gauge; it takes 2-8
_NEWTON_TOL = 1e-14  # last relative step of the piece-table gauge
_LIFT = 1.0 + 4.0 * np.finfo(float).eps  # the piece-table gauge's rise to the feasible side
_FOLD_MAX = 16      # columns up to which a row max folds column by column
_SUP_TOL = 1e-13    # relative width of the profile, radius and level solves

GRID_LO = 1e-6      # log grid of the numeric Legendre transform and ray supremum
GRID_HI = 1e6
GRID_POINTS = 2048
_ROWS = 16          # values per grid block, bounding the (rows, points) temporaries
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# piece tables

def _pow(v, e):
    """v^e, as v * v where e = 2 and v itself where e = 1."""
    if e == 2.0:
        return v * v
    return v if e == 1.0 else np.power(v, e)


class PieceTable:
    """A component given piece by piece: h(v) = a v^e + c on piece i, with
    (a, e, c) = pieces[i], which spans [knots[i-1], knots[i]] (knots[-1]
    read as 0).  The last piece runs to +inf, or with `cap`, h = +inf above
    the last knot; a capped table is one piece a v^2.  h is continuous and
    increasing, h(0) = 0, and every a > 0 and e >= 1.  A separable family
    whose component is such a table takes its component, omega, conjugate
    and gauge from it."""

    def __init__(self, knots: tuple, pieces: tuple, cap: bool = False):
        self.knots, self.pieces, self.cap = knots, pieces, cap

    @cached_property
    def _spans(self):
        # (a, e, c, lo, hi) per piece
        ends = self.knots if self.cap else self.knots + (math.inf,)
        return [(*piece, lo, hi) for piece, lo, hi in zip(self.pieces, (0.0,) + self.knots, ends)]

    def value(self, u):
        """h(u) for u >= 0."""
        out = np.inf
        with np.errstate(over="ignore"):
            for a, e, c, _, hi in reversed(self._spans):
                h = _pow(u, e) if (a, c) == (1.0, 0.0) else a * _pow(u, e) + c
                out = h if hi == math.inf else np.where(u <= hi, h, out)
        return out

    def omega(self, t):
        """sup_u h(tu)/h(u): the larger of t^e for the first and the last
        piece, between which every piece's growth lies; under a cap, t^e of
        the first piece up to t = 1 and +inf beyond."""
        first, last = self.pieces[0][1], self.pieces[-1][1]
        if self.cap:
            return np.where(t <= 1.0, _pow(t, first), np.inf)
        return np.maximum(_pow(t, first), _pow(t, last))

    def conjugate(self, v):
        """h*(|v|) = sup_u (u |v| - h(u)): the largest over the pieces of the
        sup on each, the maximiser clamped to the piece, and at least 0.
        For a non-convex h that is the transform of its convex envelope."""
        v = np.abs(np.asarray(v, dtype=float))
        with np.errstate(over="ignore"):
            sups = [_piece_sup(v, *piece) for piece in self._sup_terms]
        return np.maximum(reduce(np.maximum, sups), 0.0)

    @cached_property
    def _sup_terms(self):
        # per piece: e* (None where e = 1), the coefficient of v^{e*}, c, the
        # ends, the slope a e u^(e-1) and h at each end
        out = []
        for a, e, c, lo, hi in self._spans:
            e_conj = None if e == 1.0 else e / (e - 1.0)
            k = None if e == 1.0 else (e - 1.0) * (a * e) ** (-e_conj) * a
            ends = [(a * e * _pow(u, e - 1.0), a * _pow(u, e) + c) for u in (lo, hi)]
            out.append((e_conj, k, c, lo, hi, *ends[0], *ends[1]))
        return out


def _piece_sup(v, e_conj, k, c, lo, hi, slope_lo, h_lo, slope_hi, h_hi):
    # sup (u v - h(u)) over lo <= u <= hi for v >= 0: at lo where v is at most
    # the slope there, at hi where it is at least the slope there, and else at
    # the u where the slope is v, k v^{e*} - c
    if e_conj is None:
        inner = np.full(v.shape, np.inf) if hi == math.inf else (v if hi == 1.0 else hi * v) - h_hi
    else:
        if e_conj == 2.0:
            inner = k * v * v
        else:
            try:
                with np.errstate(over="raise"):
                    inner = k * np.power(v, e_conj)
            except FloatingPointError:  # k v^{e*} may be finite where v^{e*} is not
                inner = k * np.power(v, e_conj)
                inner = np.where(np.isinf(inner), np.power(k ** (1.0 / e_conj) * v, e_conj), inner)
        if c:
            inner = inner - c
        if hi < math.inf:
            inner = np.where(v <= slope_hi, inner, (v if hi == 1.0 else hi * v) - h_hi)
    if lo > 0.0:
        inner = np.where(v <= slope_lo, (v if lo == 1.0 else lo * v) - h_lo, inner)
    return inner


@cache
def _two_level(r: float) -> PieceTable:
    # u^2 up to 1 and u^r above: SeparableTwoLevel's component and, for a
    # power Phi with s = r, PhiSpec.tilde, whose transform is tilde-Phi*
    return PieceTable((1.0,), ((1.0, 2.0, 0.0), (1.0, r, 0.0)))


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
        if self.fn is None:
            return _two_level(self.s).conjugate(v)
        # a convex Phi with Phi(0) = 0 and Phi(1) = 1 has Phi(u) >= u from 1
        # on, so the sup of u v - tilde(u) is v^2/4, at u = v/2, for v <= 1
        v = np.abs(np.asarray(v, dtype=float))
        out = np.array(0.25 * v * v)
        big = v > 1.0
        out[big] = legendre_1d(self.tilde, v[big])
        return _shaped(out, v)


# ---------------------------------------------------------------------------
# PsiSpec families

@dataclass(frozen=True)
class PsiSpec:
    """Base descriptor of a generalized Orlicz function on R^dim.

    Each family is the one place that knows its closed forms.  A `_closed_*`
    method returns None where the family has none, and the caller then runs
    a family-independent numeric fallback.  The 1-D conjugate at c >= 0 is
    the component conjugate h*(c) for a separable family, and Psi*(c e) for
    e a unit vector of the dual norm otherwise.  A separable family whose
    component is a PieceTable returns it from `_table`, and its component,
    omega, conjugate, gauge and, under a cap, support come from the table.
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

    _table = None  # a family's PieceTable, a cached property where it has one

    def _component(self, u: np.ndarray) -> np.ndarray:
        return self._table.value(u)

    def _eval_rows(self, X: np.ndarray) -> np.ndarray:
        vals = self._component(np.abs(X))
        return np.sum(vals, axis=-1)

    def _closed_gauge(self, ps: list, X: np.ndarray) -> Optional[np.ndarray]:
        """|row|_{Psi_p} for the non-zero rows of X: row j of the
        (len(ps), rows) array is the gauge at ps[j]."""
        table = self._table
        if table is None:
            return None
        if not table.cap:
            return _piece_gauge(ps, X, table)
        # one piece a v^2 up to the cap b: Psi(px/g) <= p iff p|x|_inf/g <= b
        # and a p^2|x|_2^2/g^2 <= p
        ((a, _, _),), (b,) = table.pieces, table.knots
        top, l2 = _row_max(np.abs(X)), np.linalg.norm(X, axis=-1)
        return np.array([np.maximum(p * top / b, math.sqrt(a * p) * l2) for p in ps])

    def _closed_omega(self, t: np.ndarray) -> Optional[np.ndarray]:
        """omega(t) = sup Psi(tx)/Psi(x), elementwise."""
        table = self._table
        return None if table is None else table.omega(t)

    def _closed_conjugate(self, c) -> Optional[np.ndarray]:
        """The 1-D conjugate, elementwise."""
        table = self._table
        return None if table is None else table.conjugate(c)

    def _closed_support_argmax(self, p: float, Theta: np.ndarray) -> Optional[tuple]:
        """(values, maximizers Y) of sup{<theta, y> : Psi*(y) <= p}, row by
        row, for non-zero rows: the family's one support hook, in closed form
        for a capped table, one piece a v^2 up to b."""
        table = self._table
        if table is None or not table.cap:
            return None
        ((a, _, _),), (b,) = table.pieces, table.knots
        # Psi(theta/lam) = a|theta|^2/lam^2 on lam >= max|theta|/b, so the dual
        # min_lam lam (p + Psi(theta/lam)) sits at lam*; off the cap the
        # maximizer is y = grad Psi(theta/lam*) = 2a theta/lam*
        mags = np.abs(Theta)
        top = _row_max(mags)
        lam_star = np.maximum(np.sqrt(_row_dots(Theta, Theta)) / math.sqrt(p / a), top / b)
        Y = 2.0 * a * Theta / lam_star[:, None]
        # where the cap binds, the subdifferential of h at b is the ray
        # [2ab, inf): the tied top coordinates share what the others leave of
        # the budget p on h*'s linear piece (complementary slackness)
        ties = mags == top[:, None]
        rest = np.array([np.sum(np.square(y[~t])) for y, t in zip(Y, ties)]) / (4.0 * a)
        c = ((p - rest) / np.count_nonzero(ties, axis=1) + a * b * b) / b
        Y = np.where(ties & (c > 2.0 * a * b)[:, None], np.copysign(c[:, None], Theta), Y)
        return _row_dots(Theta, Y), Y

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

    def _closed_support_argmax(self, p, Theta):
        # R times the l_q witness: {Psi* <= p} is the l_{q*} ball of radius R
        R = self._conjugate_radius(p)
        norms, Y = _ball_witness(Theta, self.norm)
        return R * norms, R * Y

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

    @cached_property
    def _table(self):
        return _two_level(self.r)

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

    @cached_property
    def _table(self):
        # tilde-Phi* for a power Phi: v^2/4, v - 1 from 2 and c v^{s*} from s for
        # s > 2; v^2/4 and c v^{s*} from v0 for 1 < s <= 2 (v0 = 2 at s = 2); v^2/4
        # up to a cap at 1 for s = 1.  The component stays the two-level table's
        # transform, which rounds apart from this table near its knots
        s = self.phi.s
        if self.phi.fn is not None:
            return None
        if s == 1.0:
            return PieceTable((1.0,), ((0.25, 2.0, 0.0),), cap=True)
        s_conj = s / (s - 1.0)
        c = (s - 1.0) * s ** (-s_conj)
        if s > 2.0:
            return PieceTable((2.0, s), ((0.25, 2.0, 0.0), (1.0, 1.0, -1.0), (c, s_conj, 0.0)))
        v0 = 2.0 if s == 2.0 else (0.25 / c) ** (1.0 / (s_conj - 2.0))
        return PieceTable((v0,), ((0.25, 2.0, 0.0), (c, s_conj, 0.0)))

    def _closed_conjugate(self, c):
        # tilde-Phi is convex for a power Phi with s >= 2, so the biconjugate is
        # tilde-Phi, the two-level table; s = 1 is its own table's transform,
        # and for 1 < s < 2 only the numeric transform applies
        if self.phi.fn is None and self.phi.s >= 2.0:
            return _two_level(self.phi.s).value(np.abs(c))
        return super()._closed_conjugate(c) if self.phi.s == 1.0 else None

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

    @cached_property
    def _table(self):
        return PieceTable((self.threshold,), ((1.0, 2.0, 0.0),), cap=True)

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
    The rows are solved in slices of _BLOCK rows at dim <= 2 and _BLOCK // 4
    above: each slice is scaled once and the family does its p-independent
    work once for the whole grid.  Each value depends on its row and p
    alone, so it is bit-identical to psi_p_norm on that row at that p,
    whatever the slice."""
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
    step = _BLOCK if spec.dim <= 2 else _BLOCK // 4
    for i in range(0, act.size, step):
        rows = act[i:i + step]
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


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.dot(a, b) for each pair of rows, bit for bit (one dot per row)."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _ball_witness(Z: np.ndarray, r: float) -> tuple:
    """(|z|_r, the maximizer of <z, y> over the unit l_{r*} ball) for each
    row z of Z: the norm is np.linalg.norm(z, r) bit for bit, and the
    maximizer sign(z) (|z|/|z|_r)^{r-1}, or at r = inf the signed unit
    vector at the first argmax of |z|; a zero row has the zero witness."""
    mags = np.abs(Z)
    if math.isinf(r):
        rows, j = np.arange(len(Z)), np.argmax(mags, axis=1)
        Y = np.zeros(Z.shape)
        Y[rows, j] = np.sign(Z[rows, j])
        return _row_max(mags), Y
    if r == 2.0:
        norms = np.sqrt(_row_dots(Z, Z))
    else:  # the 1/r power taken per row, as np.linalg.norm takes it
        norms = np.array([total ** (1.0 / r) for total in np.sum(mags ** r, axis=1).tolist()])
    ratio = mags / np.where(norms == 0.0, 1.0, norms)[:, None]  # a zero row stays zero
    return norms, np.sign(Z) * ratio ** (r - 1.0)


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


def _leading(pred, shape: tuple, n: int) -> np.ndarray:
    """Per entry of an array of `shape`, the count of leading k in range(n)
    where pred holds, pred(k) taking one k per entry and monotone in k
    (true, then false): binary lifting, one pred call per bit of n."""
    k, step = np.zeros(shape, dtype=np.intp), 1 << (n.bit_length() - 1)
    while step:
        j = k + step
        k += step * ((j <= n) & pred(np.minimum(j, n) - 1))
        step >>= 1
    return k


def _piece_gauge(ps: list, X: np.ndarray, table: PieceTable) -> np.ndarray:
    """|row|_{Psi_p} at each p of ps for the nonzero rows of X, for Psi(x) =
    sum_i h(x_i) with h the uncapped piece table `table`: p max|x_i| / sig,
    F(sig) = sum_i h(sig y_i) = p, y the |x_i| / max|x_i| in decreasing
    order.  With M_j coordinates at or above knot b_j, F sums a S sig^e + c N
    over the pieces, S the sum of y^e over the piece's coordinates and N
    their count.  For several p at once, binary lifting (`_leading`) finds
    M_j = #{k : F(b_j / y_k) <= p} from the top knot down: a higher knot's
    count brackets the search, the knot's own count at b_j / y_k is k + 1,
    and a lower knot's is a search of its own (one knot's F(b / y_k) is
    p-independent and taken at every k once).  On that segment each piece
    alone reaches p above the root, and Newton from the least of those
    points, each term a ratio to its own root, falls to it, a row stopping
    once its relative step is at most _NEWTON_TOL."""
    m, n = X.shape
    knots, pieces, K = table.knots, table.pieces, len(table.knots)
    exps = [e for _, e, _ in pieces]
    # y increasing after a zero, asc[:, n - k] = y_k (y_n = 0: the knots past
    # the last coordinate are +inf), so a gather is one take.  In place,
    # sums[0][:, n - k] = sum_{i >= k} y_i^e of the first piece and
    # sums[j][:, k] = sum_{i < k} y_i^e of piece j > 0
    asc = np.zeros((m, n + 1))
    top = _row_max(np.abs(X, out=asc[:, 1:]))
    asc[:, 1:] /= top[:, None]
    asc.sort(axis=1)
    first = _pow(asc, exps[0])
    sums = [np.cumsum(first, axis=1, out=None if first is asc else first)]
    for e in exps[1:]:
        sums.append(np.zeros((m, n + 1)))
        ye = _pow(asc, e)  # y^e, which the one-knot table reuses
        np.cumsum(ye[:, :0:-1], axis=1, out=sums[-1][:, 1:])
    asc, sums = asc.ravel(), [v.ravel() for v in sums]
    at = np.arange(m) * (n + 1)
    rev = at + n
    # a piece's term at sig = b_j / y_k is scale[j][i] S / y_k^e
    scale = [[a * _pow(b, e) for a, e, _ in pieces] for b in knots]

    def segment(M):  # S and c N per piece from the counts M[j] at knot j, M[K + 1] = 0
        S = [sums[0].take(rev - M[1])] + [sums[j].take(at + M[j]) for j in range(1, K + 1)]
        S[1:K] = [S[j] - sums[j].take(at + M[j + 1]) for j in range(1, K)]
        return S, [c * (M[j] - M[j + 1]) for j, (_, _, c) in enumerate(pieces) if c]

    def knot_value(j, k, yk, M):  # F(b_j / y_k), given M[l] for l > j
        M = M[:j] + [k + 1 if j == K else np.maximum(k + 1, M[j + 1])] + M[j + 1:]
        for low in range(j - 1, 0, -1):  # at least M[low + 1], as thr < y_k
            thr = knots[low - 1] / knots[j - 1] * yk
            M[low] = _leading(lambda t: asc.take(rev - t) >= thr, thr.shape, n)
        S, CN = segment(M)
        return sum(w * s / _pow(yk, e) for w, s, e in zip(scale[j - 1], S, exps)) + sum(CN)

    def update(sig, K1, *roots):
        # f(sig) = F(sig) / p - 1 and sig f'(sig), each term a ratio to its own root
        ts = [_pow(sig / r, e) for r, e in zip(roots, exps)]
        slopes = [t if e == 1.0 else e * t for e, t in zip(exps, ts)]
        step = (sum(ts[1:], ts[0]) - K1) / sum(slopes[1:], slopes[0])
        return sig - sig * step, np.abs(step) <= _NEWTON_TOL

    # p in groups of at most _BLOCK (row, p) pairs; each iterate is (len(p), m)
    out, per = np.empty((len(ps), m)), max(1, _BLOCK // m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if K == 1:  # F(b / y_k) at column n - 1 - k, y increasing
            yk = asc.reshape(m, n + 1)[:, 1:]
            S = sums[0].reshape(m, n + 1)[:, :n], sums[1].reshape(m, n + 1)[:, n:0:-1]
            ye = _pow(yk, exps[0]), ye[:, 1:]
            one_knot = sum(w * s / v for w, s, v in zip(scale[0], S, ye)).ravel()
            one_rev = np.arange(m) * n + (n - 1)
        del ye
        for g in range(0, len(ps), per):
            p = ps[g] if per == 1 else np.array(ps[g:g + per])[:, None]  # (1, m) runs slower
            shape, M, lo, hi = np.shape(p)[:1] + (m,), [None] * (K + 1) + [0], 0.0, np.inf
            for j in range(K, 0, -1):
                def at_knot(k, j=j):  # F(b_j / y_k) <= p, inside the bracket
                    if K == 1:
                        return one_knot.take(one_rev - k) <= p
                    yk = asc.take(rev - k)
                    if j == K:
                        return knot_value(j, k, yk, M) <= p
                    sig = knots[j - 1] / yk
                    return (sig < lo) | ((sig < hi) & (knot_value(j, k, yk, M) <= p))

                M[j] = _leading(at_knot, shape, n)
                if j > 1:
                    prev = asc.take(np.minimum(rev - M[j] + 1, rev))
                    lo = np.maximum(lo, np.where(M[j] > 0, knots[j - 1] / prev, 0.0))
                    hi = np.minimum(hi, knots[j - 1] / asc.take(rev - M[j]))
            S, CN = segment(M)
            # each piece alone reaches p at ((p - c N) / (a S))^(1/e), +inf without
            # coordinates: Newton starts at the least of those
            roots, sig, rest = [], np.inf, iter(CN)
            for (a, e, c), s in zip(pieces, S):
                roots.append(_pow(p, 1.0 / e) / _pow(a * s, 1.0 / e))
                sig = np.fmin(sig, _pow(p - next(rest), 1.0 / e) / _pow(a * s, 1.0 / e)
                              if c else roots[-1])
            K1 = np.zeros(shape) + (1.0 - sum(CN) / p)
            sig = _newton(update, sig.ravel(), tuple(v.ravel() for v in (K1, *roots)),
                          "piece-table").reshape(shape)
            # the iterates fall to the root, so the gauge rises to it: 4 ulps
            # more leave almost no row for _feasible_gauge to raise
            out[g:g + per] = _LIFT * p * (top / sig)
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
