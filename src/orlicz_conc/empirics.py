"""Monte Carlo estimators (moments, entropy, gradient-gauge moments) and the
verification harness comparing empirical quantities against the closed-form
bound evaluators.

All estimators run block by block over the counter-based sample streams
from measures; the blocks and reduction order are fixed, so results are
bit-identical for a given (family, seed, N) regardless of the worker count
(ORLICZ_CONC_THREADS affects speed only). Their full-sample reductions (each
p's log-sum-exp, the mean of v log v, the running top of top_mass_fraction)
take psi._BLOCK rows at a time too, summed in numpy's own order (_tree_sum),
so an estimate holds its one column and block-sized buffers, never an N-row
work column. Standard errors use BATCHES = 32 contiguous batch means;
verification bands are set at 3 SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional

import numpy as np

from .errors import InputError
from .measures import Family, NuMeasure, ProductPhiTail, SamplerSpec, map_streams
from .psi import (_BLOCK, GrowthEnvelope, PhiSpec, PsiSpec, _row_max, env_to_dict,
                  eval_psi_rows, psi_p_norm_rows, psi_to_dict)
from .tables import write_table

BATCHES = 32
TOP_K = 10  # magnitudes in top_mass_fraction's numerator
P_CAP = 128.0
HIGH_P_FLAG = 64.0
_ENT_SHIFT = 1e-6
_SEED_OFFSET = 0x9E3779B97F4A7C15  # decorrelates the auxiliary Z stream


def _family_of(family: Family, seed: int, N: int) -> Family:
    """The family, once (family, seed, N) pass the SamplerSpec checks and
    N >= BATCHES: with fewer rows the batch SE is infinite and every 3-SE
    verdict would pass vacuously. A SamplerSpec is refused, as its own seed
    and count would be ignored."""
    SamplerSpec(family, seed, N)
    if N < BATCHES:
        raise InputError(f"verification needs N >= {BATCHES} rows for a batch SE, got {N}")
    return family


def _psi_meta(spec: PsiSpec) -> dict:
    """psi_to_dict, or family and dim for a spec with no JSON form."""
    try:
        return psi_to_dict(spec)
    except InputError:
        return {"family": type(spec).__name__, "dim": spec.dim}


# ---------------------------------------------------------------------------
# test functions

@dataclass
class TestFunction:
    """A named observable with row-vectorized value and exact gradient
    handles; `direction` is the gradient when it is the same on every row."""

    name: str
    f: Callable = field(repr=False)        # (N, n) -> (N,)
    grad: Callable = field(repr=False)     # (N, n) -> (N, n)
    direction: Optional[np.ndarray] = field(default=None, repr=False)

    def dot(self, X, Z) -> np.ndarray:
        """Per row, <grad f(X), Z>; Z, the caller's own block, may be overwritten."""
        return np.sum(np.multiply(self.grad(X), Z, out=Z), axis=1)


def linear(theta) -> TestFunction:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise InputError("theta must be a non-empty 1-D vector")
    return TestFunction(
        name="linear",
        f=lambda X: X @ theta,
        grad=lambda X: np.broadcast_to(theta, X.shape).copy(),
        direction=theta,
    )


def quadratic_form(A) -> TestFunction:
    """x^T A x for a symmetric 2-index MultiIndexMatrix A."""
    if A.k != 2:
        raise InputError(f"quadratic_form requires k = 2, got {A.k}")
    if not A.symmetric:
        raise InputError("quadratic_form requires a symmetric matrix")
    M = A.data
    return TestFunction(
        name="quadratic_form",
        f=lambda X: np.einsum("ni,ij,nj->n", X, M, X),
        grad=lambda X: 2.0 * (X @ M),
    )


def euclidean_norm() -> TestFunction:
    def grad(X):
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        return np.where(norms > 0.0, X / safe, 0.0)

    return TestFunction(name="euclidean_norm",
                        f=lambda X: np.linalg.norm(X, axis=1), grad=grad)


class _MaxCoordinate(TestFunction):
    def dot(self, X, Z):
        # the one-hot row sum is its one nonzero term, Z at the argmax, bit for bit
        return Z[np.arange(len(X)), np.argmax(X, axis=1)]


def max_coordinate() -> TestFunction:
    def grad(X):
        out = np.zeros_like(X)
        out[np.arange(X.shape[0]), np.argmax(X, axis=1)] = 1.0
        return out

    return _MaxCoordinate(name="max_coordinate", f=_row_max, grad=grad)


def exp_tilt(theta) -> TestFunction:
    """g(x) = exp(<theta, x>), the extremal family for the Gaussian
    log-Sobolev inequality; nonnegative, so usable as an entropy argument."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise InputError("theta must be a non-empty 1-D vector")

    def f(X):
        return np.exp(X @ theta)

    return TestFunction(name="exp_tilt", f=f, grad=lambda X: f(X)[:, None] * theta)


# ---------------------------------------------------------------------------
# estimators

def _tree_sum(fill: Callable, lo: int, n: int) -> np.float64:
    """np.sum of the n values fill(i, j) returns for [i, j) in [lo, lo + n),
    bit for bit, one node of at most _BLOCK values at a time.  numpy sums a
    contiguous float array pairwise (Higham, SIAM J. Sci. Comput. 14, 1993),
    halving n at n//2 - (n//2) % 8 down to 8-way leaves of <= 128 entries;
    this takes the same split down to _BLOCK, where np.sum carries it on."""
    if n <= _BLOCK:
        return np.sum(fill(lo, lo + n))
    half = n // 2 - (n // 2) % 8
    return _tree_sum(fill, lo, half) + _tree_sum(fill, lo + half, n - half)


def _logsumexp(a: np.ndarray, p: float) -> float:
    """log(sum(exp(p * a))) for a non-empty real 1-D array `a` and p > 0, in
    the order of operations of scipy.special.logsumexp on p * a, so results
    are bit-identical; p * a is formed a block at a time, and `a` is left
    as it is.  p > 0 keeps the order, so max(p * a) is p * max(a), exactly.
    The maximal entries are masked out of the sum rather than shifted to
    -inf, so all -inf input gives -inf (not -inf - -inf = nan)."""
    a_max, buf, ties = np.max(a) * p, np.empty(min(a.size, _BLOCK)), [0]

    def shifted(lo, hi):  # exp(p a - a_max) on [lo, hi), 0 at the ties, counted
        out = np.multiply(a[lo:hi], p, out=buf[:hi - lo])
        at_max = out == a_max
        ties[0] += np.count_nonzero(at_max)
        np.exp(np.subtract(out, a_max, out=out), out=out)
        out[at_max] = 0.0
        return out

    with np.errstate(divide="ignore", invalid="ignore"):
        s = _tree_sum(shifted, 0, a.size)
        m = np.float64(ties[0])
        return float(np.log1p(s / m) + np.log(m) + a_max)


def _log_abs(values, out=None) -> np.ndarray:
    """log|v| of a 1-D float column, strided or not, into `out` (the column
    itself, when the caller owns it) or a new contiguous array; -inf at zeros."""
    logs = np.abs(values, out=out)
    with np.errstate(divide="ignore"):
        return np.log(logs, out=logs)


def _moments_of_logs(logs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """empirical_moment of the values whose _log_abs is `logs`, per p of the grid."""
    top = float(np.max(logs))
    if math.isinf(top):  # every |v| is 0, or one is inf
        return np.full(grid.size, math.exp(top))
    lses = np.array([_logsumexp(logs, p) for p in grid]) - math.log(logs.size)
    return np.array([math.exp(x) for x in lses / grid])


def _top_mass_of_logs(logs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """top_mass_fraction of the values whose _log_abs is `logs`."""
    if not np.any(logs > -math.inf):
        return np.zeros(grid.size)
    # p > 0 keeps the order, so p times the top logs are the top of p * logs;
    # the TOP_K largest of each block join the running top, and only it is sorted
    top = logs[:0]
    for i in range(0, logs.size, _BLOCK):
        top = np.concatenate([top, logs[i:i + _BLOCK]])
        top = np.partition(top, max(top.size - TOP_K, 0))[-TOP_K:]
    top = np.sort(top)
    return np.array([math.exp(_logsumexp(top, p) - _logsumexp(logs, p)) for p in grid])


def _flat(values, name: str) -> np.ndarray:
    """values as a non-empty flat float array; a 1-D column, strided or
    not, is not copied."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise InputError(f"{name} requires a non-empty value vector")
    return values


def empirical_moment(values, p):
    """(mean |v|^p)^{1/p}, max-shifted in the log domain so large p (up to
    the 256 design range) cannot overflow.  For a p grid (a 1-D array) it
    is the array of those moments, each bit-identical to its own call:
    |v| and its log are taken once, into one column that every p reads a
    block at a time."""
    values = _flat(values, "empirical_moment")
    grid = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all(grid >= 1.0):
        raise InputError(f"requires p >= 1, got {p}")
    moments = _moments_of_logs(_log_abs(values), grid)
    return moments if np.ndim(p) else float(moments[0])


def empirical_entropy(values) -> float:
    """mean(v log v) - mean(v) log(mean(v)) with 0 log 0 = 0."""
    values = _flat(values, "empirical_entropy")
    if np.any(values < 0.0):
        raise InputError("entropy requires nonnegative values")
    mean = float(np.mean(values))
    if mean == 0.0:
        return 0.0
    buf = np.empty(min(values.size, _BLOCK))

    def vlogv(lo, hi):  # 0 where v is 0: log only where v > 0, in place
        v, out = values[lo:hi], buf[:hi - lo]
        out[:] = v
        np.log(out, out=out, where=out > 0.0)
        return np.multiply(out, v, out=out)

    return float(_tree_sum(vlogv, 0, values.size) / values.size) - mean * math.log(mean)


def batch_se(values, stat: Callable):
    """Batch-means standard error of stat over BATCHES contiguous batches;
    for a vector-valued stat, the array of the SEs of its entries, each
    bit-identical to the SE of that entry alone."""
    values = np.asarray(values)
    n_batches = min(BATCHES, values.shape[0])
    if n_batches < 2:
        return math.inf
    stats = np.array([stat(chunk) for chunk in np.array_split(values, n_batches)])
    se = [float(np.std(row, ddof=1) / math.sqrt(n_batches))
          for row in np.atleast_2d(np.ascontiguousarray(stats.T))]
    return np.array(se) if stats.ndim > 1 else se[0]


def top_mass_fraction(values, p_grid) -> np.ndarray:
    """Per p of the grid, the fraction of sum |v|^p carried by the TOP_K
    largest magnitudes, from one log pass; the effective-sample-size
    diagnostic attached to high-p estimates."""
    grid = np.atleast_1d(np.asarray(p_grid, dtype=float))
    return _top_mass_of_logs(_log_abs(np.asarray(values, dtype=float).reshape(-1)), grid)


def _estimate(values, stat: Callable) -> tuple:
    """stat(values) and its batch-means SE."""
    return stat(values), batch_se(values, stat)


# ---------------------------------------------------------------------------
# reports

def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):  # p-keyed flags need string keys
        return {str(k): x for k, x in v.items()}
    return v


class _Report:
    """A verification report: `passed` is its verdict (exit 1 when False),
    `_CSV` the fields its CSV holds, one column each, named without the
    `_grid` suffix."""

    def to_json_dict(self) -> dict:
        """Every field, with arrays as lists and dict keys as strings."""
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}

    def to_csv(self, path: str):
        write_table(path, self.meta, np.column_stack([getattr(self, f) for f in self._CSV]),
                    [f.removesuffix("_grid") for f in self._CSV])


@dataclass
class MomentReport(_Report):
    """Empirical centered moments against a comparison curve, per p."""

    p_grid: np.ndarray
    lhs: np.ndarray
    lhs_se: np.ndarray
    rhs: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray
    fitted: float
    flags: Dict[float, float]
    meta: dict
    _CSV = ("p_grid", "lhs", "lhs_se", "rhs", "bound", "ratio")

    @property
    def passed(self) -> bool:
        """Every moment and ratio is finite and, when the meta carries the
        bound's constant C (`centered`), every moment is at most its bound
        plus 3 SE; `comparison`'s bound is a moment, not a bound to judge."""
        finite = np.all(np.isfinite(self.lhs)) and np.all(np.isfinite(self.ratio))
        return bool(finite and ("C" not in self.meta
                                or np.all(self.lhs <= self.bound + 3.0 * self.lhs_se)))


@dataclass
class NuLogPReport(_Report):
    p_grid: np.ndarray
    emp: np.ndarray
    emp_se: np.ndarray
    l1: float
    l1_se: float
    lower: np.ndarray
    upper: np.ndarray
    passed_lower: np.ndarray
    passed_upper: np.ndarray
    meta: dict
    _CSV = ("p_grid", "emp", "emp_se", "lower", "upper", "passed_lower", "passed_upper")

    @property
    def passed(self) -> bool:
        """Every moment lies in both bands."""
        return bool(np.all(self.passed_lower) and np.all(self.passed_upper))

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "all_passed": self.passed}


@dataclass
class EnlargementCurve(_Report):
    u_grid: np.ndarray
    radius: np.ndarray
    emp: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    base_mass: float
    base_se: float
    meta: dict
    _CSV = ("u_grid", "radius", "emp", "se", "bound")

    @property
    def passed(self) -> bool:
        """Every mass is at least its bound less 3 SE; without an envelope
        there is no bound, and nothing to fail."""
        return self.meta["env"] is None or bool(np.all(self.emp >= self.bound - 3.0 * self.se))


@dataclass
class MlsiReport(_Report):
    residual: float
    se: float
    rhs_mean: float
    entropy: float
    infinite: bool
    meta: dict
    _CSV = ("residual", "se", "rhs_mean", "entropy", "infinite")

    @property
    def passed(self) -> bool:
        """The residual is at least -3 SE, or infinite."""
        return self.infinite or self.residual >= -3.0 * self.se


# ---------------------------------------------------------------------------
# verification harness

def _validate_p_grid(p_grid, lo: float) -> np.ndarray:
    p_grid = np.asarray(sorted(float(p) for p in p_grid))
    if p_grid.size == 0:
        raise InputError("empty p grid")
    if p_grid[0] < lo or p_grid[-1] > P_CAP:
        raise InputError(f"p grid must lie in [{lo}, {P_CAP}], got [{p_grid[0]}, {p_grid[-1]}]")
    return p_grid


def _moment_report(p_grid, f_values, rhs, bound_of, meta) -> MomentReport:
    """Per p: ||f - mean f||_p and its batch SE against the p's rhs moment,
    the bound bound_of(rhs moment, p) and, above HIGH_P_FLAG, a flag.
    f_values, a contiguous column the caller gives up, is centred and
    turned into its logs in place; the batch statistics slice those logs."""
    logs = _log_abs(np.subtract(f_values, float(np.mean(f_values)), out=f_values), out=f_values)
    lhs, lhs_se = _estimate(logs, lambda b: _moments_of_logs(b, p_grid))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(rhs > 0.0, lhs / rhs, 0.0)
    high = p_grid[p_grid > HIGH_P_FLAG]
    flags = dict(zip(high.tolist(), _top_mass_of_logs(logs, high).tolist())) if high.size else {}
    return MomentReport(p_grid=p_grid, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
                        bound=np.array([bound_of(g, p) for g, p in zip(rhs, p_grid)]),
                        ratio=ratio, fitted=float(np.max(ratio)) if ratio.size else 0.0,
                        flags=flags, meta=meta)


def verify_centered(sampler, f: TestFunction, spec: PsiSpec,
                    env: GrowthEnvelope, p_grid, N: int, seed: int,
                    C: float = 1.0) -> MomentReport:
    """Estimate ||f - mean f||_p against G(p) = || |grad f|_{Psi_p} ||_p and
    the closed-form bound C L G(p); the fitted constant is the largest ratio
    lhs / G over the grid.  Each block's gradient rows take one gauge call
    for the whole grid; a gradient with a fixed `direction` takes one call
    for the direction, the values every row would give."""
    from .bounds import centered_moment_bound, l_constant
    family = _family_of(sampler, seed, N)
    p_grid = _validate_p_grid(p_grid, env.beta)
    if family.n != spec.dim:
        raise InputError(f"sampler dim {family.n} != spec dim {spec.dim}")
    fixed = None if f.direction is None else psi_p_norm_rows(spec, p_grid, f.direction[None, :])[0]

    def job(X):
        if fixed is not None:
            return (f.f(X),)
        return (f.f(X), *psi_p_norm_rows(spec, p_grid, f.grad(X)).T)

    f_values, *cols = map_streams(N, [(family, seed)], job)
    meta = {"scenario": "centered", "function": f.name, "psi": _psi_meta(spec),
            "env": env_to_dict(env), "sampler": family.meta(),
            "seed": seed, "N": N, "C": C, "l_constant": l_constant(env)}
    if fixed is None:
        logs = (_log_abs(col, out=col) for col in cols)
    else:
        # a fixed gauge g enters as the moment of a constant column, not as g: its
        # log-sum-exp rounds as the per-row gauges' column does; the column is
        # log|g| read N times through a zero stride, so it holds no memory
        logs = (np.broadcast_to(log, N) for log in _log_abs(fixed))
    rhs = np.array([_moments_of_logs(log, np.atleast_1d(p))[0] for log, p in zip(logs, p_grid)])
    return _moment_report(p_grid, f_values, rhs,
                          lambda g, p: centered_moment_bound(g, env, p, C), meta)


def verify_nu_logp(p_grid, N: int, seed: int) -> NuLogPReport:
    """For f(x) = x under nu: log(p)/(2e) <= ||x||_p <= ||x||_1 + log p,
    checked inside 3 SE bands."""
    p_grid = _validate_p_grid(p_grid, 2.0)
    family = _family_of(NuMeasure(), seed, N)
    x = map_streams(N, [(family, seed)], lambda X: X[:, 0])
    grid = np.r_[1.0, p_grid]
    # the sample becomes its logs, which the batch statistics slice
    est, se = _estimate(_log_abs(x, out=x), lambda b: _moments_of_logs(b, grid))
    (l1, emp), (l1_se, emp_se) = (float(est[0]), est[1:]), (float(se[0]), se[1:])
    lower = np.log(p_grid) / (2.0 * math.e)
    upper = l1 + np.log(p_grid)
    passed_lower = emp >= lower - 3.0 * emp_se
    passed_upper = emp <= upper + 3.0 * (emp_se + l1_se)
    meta = {"scenario": "nu_logp", "seed": seed, "N": N,
            "sampler": family.meta()}
    return NuLogPReport(p_grid=p_grid, emp=emp, emp_se=emp_se, l1=l1,
                        l1_se=l1_se, lower=lower, upper=upper,
                        passed_lower=passed_lower, passed_upper=passed_upper,
                        meta=meta)


def comparison_check(samplerX, phi: PhiSpec, f: TestFunction, p_grid,
                     N: int, seed: int) -> MomentReport:
    """||f(X) - mean||_p against ||<grad f(X), Z>||_p for an independent
    product stream Z with tails exp(-phi)."""
    famX = _family_of(samplerX, seed, N)
    p_grid = _validate_p_grid(p_grid, 1.0)
    famZ = ProductPhiTail(phi, famX.n)
    seed_z = (seed + _SEED_OFFSET) % 2 ** 64

    f_values, dots = map_streams(N, [(famX, seed), (famZ, seed_z)],
                                 lambda X, Z: (f.f(X), f.dot(X, Z)))
    rhs = _moments_of_logs(_log_abs(dots, out=dots), p_grid)
    del dots
    meta = {"scenario": "comparison", "function": f.name, "phi": famZ.meta()["phi"],
            "sampler": famX.meta(), "seed": seed, "N": N}
    return _moment_report(p_grid, f_values, rhs, lambda g, p: g, meta)


def enlargement_mc(sampler, m: float, spec: PsiSpec, u_grid, N: int,
                   seed: int, env: Optional[GrowthEnvelope] = None,
                   C_impl: float = 1.0) -> EnlargementCurve:
    """Empirical mass of {x_1 < m + s(u)} with s(u) the coordinate reach of
    {Psi* < u}, against the closed-form enlargement lower bound."""
    from .bounds import enlargement_bound
    from .conjugacy import conjugate_ray_radius
    family = _family_of(sampler, seed, N)
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    if u_grid.size == 0 or u_grid[0] <= 0.0:
        raise InputError("u grid must be non-empty with positive entries")
    x1 = map_streams(N, [(family, seed)], lambda X: X[:, 0])
    base_mass, base_se = _estimate(x1, lambda b: float(np.mean(b <= m)))
    if base_mass < 0.5 - 3.0 * base_se:
        raise InputError(
            f"halfspace mass {base_mass:.4f} is below 1/2 - 3 SE; raise m")
    radius = conjugate_ray_radius(spec, u_grid)
    emp, se = _estimate(x1, lambda b: np.array([np.mean(b < m + s_u) for s_u in radius]))
    bound = (enlargement_bound(u_grid, env, C_impl) if env is not None
             else np.full(u_grid.size, math.nan))
    meta = {"scenario": "enlargement", "m": m, "psi": _psi_meta(spec),
            "env": env_to_dict(env) if env is not None else None,
            "C_impl": C_impl, "sampler": family.meta(),
            "seed": seed, "N": N}
    return EnlargementCurve(u_grid=u_grid, radius=radius, emp=emp, se=se,
                            bound=bound, base_mass=base_mass, base_se=base_se,
                            meta=meta)


def mlsi_report(sampler, g: TestFunction, spec: PsiSpec, D: float, N: int,
                seed: int) -> MlsiReport:
    """Residual D E[Psi(grad g / (2g)) g] - Ent(g) for a nonnegative g
    (shifted by 1e-6 to stay positive); nonnegative within MC error when the
    sampled measure satisfies the corresponding inequality with constant D."""
    family = _family_of(sampler, seed, N)
    if not D > 0:
        raise InputError(f"D must be > 0, got {D}")
    if family.n != spec.dim:
        raise InputError(f"sampler dim {family.n} != spec dim {spec.dim}")

    def job(X):
        gv = np.asarray(g.f(X), dtype=float)
        if np.any(gv < 0.0):
            raise InputError("mlsi residual requires a nonnegative g")
        gv = gv + _ENT_SHIFT
        ratios = g.grad(X) / (2.0 * gv[:, None])
        return np.column_stack([gv, eval_psi_rows(spec, ratios) * gv])

    data = map_streams(N, [(family, seed)], job)
    gv, terms = data[:, 0], data[:, 1]
    infinite = bool(np.any(np.isinf(terms)))
    ent = empirical_entropy(gv)
    meta = {"scenario": "mlsi", "function": g.name, "psi": _psi_meta(spec),
            "D": D, "sampler": family.meta(), "seed": seed, "N": N}
    if infinite:
        return MlsiReport(residual=math.inf, se=math.nan,
                          rhs_mean=math.inf, entropy=ent, infinite=True,
                          meta=meta)

    def stat(rows):
        return D * float(np.mean(rows[:, 1])) - empirical_entropy(rows[:, 0])

    residual = D * float(np.mean(terms)) - ent
    se = batch_se(data, stat)
    return MlsiReport(residual=residual, se=se,
                      rhs_mean=float(np.mean(terms)), entropy=ent,
                      infinite=False, meta=meta)
