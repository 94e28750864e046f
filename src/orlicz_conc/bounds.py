"""Closed-form bound evaluators: moment bounds under a growth envelope,
tail profiles (Lipschitz, two-level, quadratic-form, bounded-Hessian),
enlargement lower bounds, and chaos moment sums.

Every unspecified universal constant appears as an explicit knob (default 1);
verification code fits empirical constants instead of asserting against
unknown absolutes. All evaluators are pure and total on their stated domains.
The tail and enlargement evaluators map a scalar t (or u) to a float and an
array to an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import InputError
from .psi import GrowthEnvelope, PhiSpec, PsiSpec, SeparableFromPhi, psi_p_norm
from .solvers import _bracket_sup, _column, _shaped

_E = math.e

# exp() overflow guard; exponents above this are treated as +inf
_EXP_CAP = 700.0

P_MAX = 1e6  # largest level chebyshev_level reports


def _check_nonneg(**kwargs):
    for name, v in kwargs.items():
        if not (isinstance(v, (int, float)) and v >= 0 and math.isfinite(v)):
            raise InputError(f"{name} must be a finite real >= 0, got {v!r}")


@dataclass(frozen=True)
class PartitionNorms:
    """The five partition norms of a symmetric 2-index array entering the
    quadratic chaos moment sum, at dual exponent parameter r >= 2.
    `capped` counts the alternating runs behind the two mixed norms that
    stopped at their iteration cap unconverged."""

    hs: float
    op: float
    entry_lr: float
    mixed_2_rstar: float
    rstar_rstar: float
    r: float
    capped: int = 0

    def __post_init__(self):
        _check_nonneg(hs=self.hs, op=self.op, entry_lr=self.entry_lr,
                      mixed_2_rstar=self.mixed_2_rstar,
                      rstar_rstar=self.rstar_rstar)
        if not self.r >= 2.0:
            raise InputError(f"partition norms require r >= 2, got {self.r}")


# ---------------------------------------------------------------------------
# moment bounds

def l_constant(env: GrowthEnvelope) -> float:
    """L(K, D, alpha, beta), the centered-moment constant."""
    kd = env.K * env.D
    ia = 1.0 / (env.alpha - 1.0)
    return ia * kd ** (1.0 / env.beta) + (ia + env.beta ** (1.0 / env.alpha)) * kd ** (1.0 / env.alpha)


def _check_p_beta(p, env: GrowthEnvelope):
    if not p >= env.beta:  # NaN fails too
        raise InputError(f"requires p >= beta, got p={p} beta={env.beta}")


def _defective_grad_factor(env: GrowthEnvelope) -> float:
    """(2e/(alpha-1)) ((KD)^{1/alpha} v (KD)^{1/beta}), the factor of G(p)."""
    kd = env.K * env.D
    return (2.0 * _E / (env.alpha - 1.0)) * max(kd ** (1.0 / env.alpha), kd ** (1.0 / env.beta))


def defective_moment_bound(env: GrowthEnvelope, p: float, lower_moment: float,
                           grad_moment: float) -> float:
    """e^{2d/beta} ||f||_beta + (2e/(alpha-1)) ((KD)^{1/alpha} v (KD)^{1/beta}) G(p),
    valid for p >= beta; lower_moment is ||f||_beta and grad_moment is
    G(p) = || |grad f|_{Psi_p} ||_p."""
    _check_nonneg(lower_moment=lower_moment, grad_moment=grad_moment)
    _check_p_beta(p, env)
    lead = math.exp(2.0 * env.d / env.beta) * lower_moment
    return lead + _defective_grad_factor(env) * grad_moment


def defective_moment_bound_q(env: GrowthEnvelope, p: float, lower_moment: float,
                             grad_moment: float, q: float) -> float:
    """Variant of defective_moment_bound anchored at lower_moment = ||f||_q
    for 0 < q < beta < p.

    The prefactor 2^{(p-q)beta/((p-beta)q)} e^{2d(p-q)/((p-beta)q)} blows up as
    p -> beta+ or q -> 0+, by design.
    """
    _check_nonneg(lower_moment=lower_moment, grad_moment=grad_moment)
    if not (0.0 < q < env.beta < p):
        raise InputError(f"requires 0 < q < beta < p, got q={q} beta={env.beta} p={p}")
    expo = (p - q) / ((p - env.beta) * q)
    pref = 2.0 ** (expo * env.beta) * math.exp(2.0 * env.d * expo)
    return pref * lower_moment + _defective_grad_factor(env) * grad_moment


def alpha1_moment_bound(norm_beta: float, grad_moment: float,
                        env: GrowthEnvelope, p: float) -> float:
    """Moment bound for the linear-growth edge of the envelope family:
    e^{2d/beta} ||f||_beta + 6 log(p) (D v (KD)^{1/beta}) G(p). The alpha
    field of env is not used here."""
    _check_nonneg(norm_beta=norm_beta, grad_moment=grad_moment)
    _check_p_beta(p, env)
    lead = math.exp(2.0 * env.d / env.beta) * norm_beta
    return lead + 6.0 * math.log(p) * max(env.D, (env.K * env.D) ** (1.0 / env.beta)) * grad_moment


def centered_moment_bound(grad_moment: float, env: GrowthEnvelope, p: float,
                          C: float = 1.0) -> float:
    """||f - E f||_p <= C L(K,D,alpha,beta) G(p) for p >= beta."""
    _check_nonneg(grad_moment=grad_moment)
    _check_p_beta(p, env)
    if not C > 0:
        raise InputError(f"C must be > 0, got {C}")
    return C * l_constant(env) * grad_moment


def poincare_beta_bound(grad_moment_beta: float, env: GrowthEnvelope,
                        C: float = 1.0) -> float:
    """beta-moment Poincare form C ((KD)^{1/beta} + (KD beta)^{1/alpha}) G(beta)."""
    _check_nonneg(grad_moment_beta=grad_moment_beta)
    if not C > 0:
        raise InputError(f"C must be > 0, got {C}")
    kd = env.K * env.D
    return C * (kd ** (1.0 / env.beta) + (kd * env.beta) ** (1.0 / env.alpha)) * grad_moment_beta


def moment_interpolation_factor(A: float, p: float, q: float, r: float) -> float:
    """Constant A^{(p-r)q/((p-q)r)} transferring a two-moment comparison
    ||X||_p <= A ||X||_q down to the r-th moment, 0 < r < q < p."""
    if not (0.0 < r < q < p):
        raise InputError(f"requires 0 < r < q < p, got r={r} q={q} p={p}")
    if not A >= 1.0:
        raise InputError(f"requires A >= 1, got {A}")
    return A ** (((p - r) * q) / ((p - q) * r))


def gk_moment(x, phi: PhiSpec, p: float) -> float:
    """Two-sided moment surrogate |x|_{Psi_p} for sums of independent
    symmetric variables with tail exp(-phi): the gauge of the separable spec
    built from phi."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InputError("x must be a non-empty 1-D vector")
    if not p >= 2.0:
        raise InputError(f"requires p >= 2, got {p}")
    spec = SeparableFromPhi(dim=x.size, phi=phi)
    return psi_p_norm(spec, p, x)


def quadratic_chaos_moment(norms: PartitionNorms, p: float) -> float:
    """Structural moment sum for a quadratic form in variables with
    exp(-t^r)-type tails; constant-free."""
    if not p >= 2.0:
        raise InputError(f"requires p >= 2, got {p}")
    rs = norms.r / (norms.r - 1.0)
    return (math.sqrt(p) * norms.hs
            + p * norms.op
            + p ** (1.0 / rs) * norms.entry_lr
            + p ** (0.5 + 1.0 / rs) * norms.mixed_2_rstar
            + p ** (2.0 / rs) * norms.rstar_rstar)


# ---------------------------------------------------------------------------
# tail profiles

def chebyshev_level(grad_moment_fn: Callable, env: GrowthEnvelope, C: float, t):
    """Exceedance level e^{-p*} where p* is the largest p >= beta with
    C L G(p) <= t; returns 1 when even p = beta fails, and floors at
    exp(-P_MAX) for bounded G. G is called on Python floats; the levels of
    the t between those two cases come from one bracketing solve."""
    ts = _column(t, lambda v: v > 0, "requires t > 0")
    if not C > 0:
        raise InputError(f"C must be > 0, got {C}")
    L = C * l_constant(env)
    fails = L * grad_moment_fn(env.beta) > ts
    out = np.where(fails, 1.0, math.exp(-P_MAX))
    if not np.all(fails):
        mid = ~fails & ~(L * grad_moment_fn(P_MAX) <= ts)
        p_star = _bracket_sup(lambda d, ps: np.array([L * grad_moment_fn(float(p)) for p in ps]) - d,
                              ts[mid], np.full_like(ts[mid], env.beta), "chebyshev_level")
        out[mid] = np.exp(-p_star)
    return _shaped(out, t)


def lipschitz_profile(a: float, b: float, env: GrowthEnvelope, spec: PsiSpec, C: float, t):
    """min(1, exp(beta - a omega*(t / (C L b)))) for an a-concentrated,
    b-Lipschitz observable; omega* comes from one solve over the t > 0."""
    from .conjugacy import omega_star  # the one bound that needs the conjugate layer
    if not (a > 0 and b > 0 and C > 0):
        raise InputError(f"requires a, b, C > 0, got a={a} b={b} C={C}")
    ts = _column(t, lambda v: v >= 0, "requires t >= 0")
    out, pos = np.ones(ts.shape), ts > 0
    s = ts[pos] / (C * l_constant(env) * b)
    out[pos] = np.exp(np.minimum(env.beta - a * omega_star(spec, s), 0.0))
    return _shaped(out, t)


def enlargement_rate(env: GrowthEnvelope, C_impl: float = 1.0) -> float:
    """Computable lower bound rho <= omega*(1/L) used by enlargement_bound:
    rho = (K^{-1/(alpha-1)} L^{-alpha/(alpha-1)}) ^ (wedge) L^{-1}."""
    if not C_impl > 0:
        raise InputError(f"C_impl must be > 0, got {C_impl}")
    L = C_impl * l_constant(env)
    e1 = 1.0 / (env.alpha - 1.0)
    return min(env.K ** (-e1) * L ** (-env.alpha * e1), 1.0 / L)


def enlargement_bound(u, env: GrowthEnvelope, C_impl: float = 1.0):
    """Lower bound max(0, 1 - 2 exp(beta - u rho)) on the measure of the
    conjugate-ball enlargement of a median-mass set."""
    us = _column(u, lambda v: v > 0, "requires u > 0")
    arg = env.beta - us * enlargement_rate(env, C_impl)
    return _shaped(np.maximum(0.0, 1.0 - 2.0 * np.exp(np.minimum(arg, 0.0))), u)


def _two_rate_tail(c: float, t, x: float, e: float, y: float, f: float):
    """min(1, 2 exp(-c min((t/x)^e, (t/y)^f))), the exponent capped at
    _EXP_CAP. np.float_power rounds as the C library's pow does; np.power's
    SIMD loops can differ in the last bit, which exp(-expo) turns into a
    relative move of expo ulps (1e-13 near the cap)."""
    _check_nonneg(c=c)
    ts = _column(t, lambda v: np.isfinite(v) & (v >= 0), "t must be a finite real >= 0")
    with np.errstate(over="ignore"):
        expo = c * np.minimum(np.float_power(ts / x, e), np.float_power(ts / y, f))
    return _shaped(np.minimum(1.0, 2.0 * np.exp(-np.minimum(expo, _EXP_CAP))), t)


def two_level_tail(a: float, b: float, r: float, c: float, t):
    """min(1, 2 exp(-c min(t^2/a^2, (t/b)^{r*}))) with r* = r/(r-1), r >= 2."""
    if not (a > 0 and b > 0):
        raise InputError(f"requires a, b > 0, got a={a} b={b}")
    if not r >= 2.0:
        raise InputError(f"requires r >= 2, got {r}")
    return _two_rate_tail(c, t, a, 2.0, b, r / (r - 1.0))


def hanson_wright_tail(A_q: float, B: float, q: float, c: float, t):
    """Quadratic-form tail min(1, 2 exp(-c min((t/A_q)^{q*}, (t/B)^{q*/2})))
    for entry/operator surrogates A_q, B and q in (1, 2]."""
    if not (A_q > 0 and B > 0):
        raise InputError(f"requires A_q, B > 0, got A_q={A_q} B={B}")
    if not (1.0 < q <= 2.0):
        raise InputError(f"requires q in (1, 2], got {q}")
    qs = q / (q - 1.0)
    return _two_rate_tail(c, t, A_q, qs, B, qs / 2.0)


def bcg_tail(L: float, hess_hs_m2: float, mean_grad: float, hess_op_sup: float, t):
    """Bounded-second-derivative tail min(1, e^2 exp(-min(t^2/a^2, t/b))) with
    a^2 = 4e^2 (sqrt(2) L^2 hess_hs_m2 + L mean_grad)^2 and b = 2e L^2 hess_op_sup."""
    if not L > 0:
        raise InputError(f"requires L > 0, got {L}")
    _check_nonneg(hess_hs_m2=hess_hs_m2, mean_grad=mean_grad, hess_op_sup=hess_op_sup)
    ts = _column(t, lambda v: np.isfinite(v) & (v >= 0), "t must be a finite real >= 0")
    a2 = 4.0 * _E * _E * (math.sqrt(2.0) * L * L * hess_hs_m2 + L * mean_grad) ** 2
    b = 2.0 * _E * L * L * hess_op_sup
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = np.minimum(ts * ts / a2, ts / b)  # a zero a2 or b drops its term
    out = np.where(expo >= _EXP_CAP, 0.0, np.minimum(1.0, _E * _E * np.exp(-expo)))
    return _shaped(np.where(ts == 0.0, 1.0, out), t)


def bcg_first_line(L: float, p: float, mean_grad_norm: float,
                   hess_op_mp: float) -> float:
    """L sqrt(p) E|grad f|_2 + L^2 p || |D^2 f|_op ||_p."""
    if not L > 0:
        raise InputError(f"requires L > 0, got {L}")
    if not p >= 2.0:
        raise InputError(f"requires p >= 2, got {p}")
    _check_nonneg(mean_grad_norm=mean_grad_norm, hess_op_mp=hess_op_mp)
    return L * math.sqrt(p) * mean_grad_norm + L * L * p * hess_op_mp


def bcg_derivative_chain(L: float, higher: Sequence[Tuple[int, float]],
                         dk_norm: float) -> float:
    """Surrogate for E|grad f|_2 from higher derivatives:
    sum_{m=1}^{k-1} (sqrt(2) L)^{m-1} |E D^m f|_2 + (sqrt(2) L)^{k-1} || |D^k f|_2 ||_2
    with k = len(higher) + 1."""
    if not L > 0:
        raise InputError(f"requires L > 0, got {L}")
    _check_nonneg(dk_norm=dk_norm)
    k = len(higher) + 1
    if k < 2:
        raise InputError("requires at least the m=1 mean-derivative entry")
    total = (math.sqrt(2.0) * L) ** (k - 1) * dk_norm
    seen = set()
    for m, g in higher:
        if not (isinstance(m, int) and 1 <= m <= k - 1) or m in seen:
            raise InputError(f"derivative orders must be distinct in 1..{k - 1}")
        seen.add(m)
        _check_nonneg(**{f"mean_derivative_{m}": g})
        total += (math.sqrt(2.0) * L) ** (m - 1) * g
    return total


def bcg_moment_bound(L: float, p: float, higher: Sequence[Tuple[int, float]],
                     dk_norm: float, hess_op_mp: float) -> float:
    """Centered moment bound via the derivative chain:
    sqrt(p) (2^{(k-1)/2} L^k dk + sum_m 2^{(m-1)/2} L^m g_m) + L^2 p hess_op_mp.

    Coincides with bcg_first_line(L, p, bcg_derivative_chain(...), hess_op_mp).
    """
    chain = bcg_derivative_chain(L, higher, dk_norm)
    return bcg_first_line(L, p, chain, hess_op_mp)


# ---------------------------------------------------------------------------
# registry of the `bound` command

def _float_power(x: float, e: float) -> float:
    with np.errstate(over="ignore"):  # x ** e as C's pow rounds it, +inf on overflow
        return float(np.float_power(x, e))


class _Bound(NamedTuple):
    """A bound by name: evaluate, a callable or the name of a function here
    (looked up at each call, so a patched or traced one runs), takes the
    parameters as keywords, plus env, spec and t where the flags say so."""

    evaluate: Union[Callable, str]
    required: Tuple[str, ...]
    optional: Dict[str, float]
    needs_env: bool = False
    needs_psi: bool = False
    swept: bool = False  # t, or u, may be a whole column

    def __call__(self, params: dict, env, spec, t):
        keys = {k: params[k] for k in (*self.required, *self.optional)}
        for key, value, used in (("env", env, self.needs_env), ("spec", spec, self.needs_psi),
                                 ("t", t, self.swept)):
            if used:
                keys[key] = value
        evaluate = globals()[self.evaluate] if isinstance(self.evaluate, str) else self.evaluate
        return evaluate(**keys)


_BOUNDS = {
    "l_constant": _Bound("l_constant", (), {}, needs_env=True),
    "defective_moment_bound": _Bound("defective_moment_bound",
                                     ("p", "lower_moment", "grad_moment"), {}, needs_env=True),
    "defective_moment_bound_q": _Bound("defective_moment_bound_q",
                                       ("p", "lower_moment", "grad_moment", "q"), {},
                                       needs_env=True),
    "alpha1_moment_bound": _Bound("alpha1_moment_bound", ("norm_beta", "grad_moment", "p"), {},
                                  needs_env=True),
    "centered_moment_bound": _Bound("centered_moment_bound", ("grad_moment", "p"), {"C": 1.0},
                                    needs_env=True),
    "poincare_beta_bound": _Bound("poincare_beta_bound", ("grad_moment_beta",), {"C": 1.0},
                                  needs_env=True),
    "chebyshev_level": _Bound(
        lambda env, g0, g_exponent, C, t: chebyshev_level(
            lambda p: g0 * _float_power(p, g_exponent), env, C, t),
        ("g0", "g_exponent"), {"C": 1.0}, needs_env=True, swept=True),
    "lipschitz_profile": _Bound("lipschitz_profile", ("a", "b"), {"C": 1.0},
                                needs_env=True, needs_psi=True, swept=True),
    "enlargement_rate": _Bound("enlargement_rate", (), {"C_impl": 1.0}, needs_env=True),
    "enlargement_bound": _Bound(lambda env, C_impl, t: enlargement_bound(t, env, C_impl),
                                (), {"C_impl": 1.0}, needs_env=True, swept=True),
    "two_level_tail": _Bound("two_level_tail", ("a", "b", "r"), {"c": 1.0}, swept=True),
    "hanson_wright_tail": _Bound("hanson_wright_tail", ("A_q", "B", "q"), {"c": 1.0},
                                 swept=True),
    "bcg_tail": _Bound("bcg_tail", ("L", "hess_hs_m2", "mean_grad", "hess_op_sup"), {},
                       swept=True),
    "quadratic_chaos_moment": _Bound(
        lambda hs, op, entry_lr, mixed_2_rstar, rstar_rstar, r, p: quadratic_chaos_moment(
            PartitionNorms(hs, op, entry_lr, mixed_2_rstar, rstar_rstar, r), p),
        ("hs", "op", "entry_lr", "mixed_2_rstar", "rstar_rstar", "r", "p"), {}),
    "moment_interpolation_factor": _Bound("moment_interpolation_factor", ("A", "p", "q", "r"), {}),
    "bcg_first_line": _Bound("bcg_first_line", ("L", "p", "mean_grad_norm", "hess_op_mp"), {}),
}
