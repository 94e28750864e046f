"""Monte Carlo estimators (moments, entropy, gradient-gauge moments) and the
verification harness comparing empirical quantities against the closed-form
bound evaluators.

All estimators are chunked over the counter-based sample streams from
measures; the chunk partition and reduction order are fixed, so results are
bit-identical for a given (family, seed, N) regardless of the worker count
(ORLICZ_CONC_THREADS affects speed only). Standard errors use 32-fold
contiguous batch means; verification bands are set at 3 SE.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np
from scipy.special import logsumexp

from .bounds import centered_moment_bound, enlargement_bound, l_constant
from .conjugacy import _component_conjugate, conjugate_ray_radius
from .errors import InputError
from .measures import (CHUNK, Family, NuMeasure, ProductPhiTail, SamplerSpec,
                       StandardGaussian, sample_chunk)
from .psi import (GrowthEnvelope, PhiSpec, PowerNorm, PsiSpec, env_to_dict,
                  eval_psi_rows, psi_p_norm_rows, psi_to_dict)
from .tensors import MultiIndexMatrix

THREADS_ENV = "ORLICZ_CONC_THREADS"
BATCHES = 32
P_CAP = 128.0
HIGH_P_FLAG = 64.0
_ENT_SHIFT = 1e-6
_SEED_OFFSET = 0x9E3779B97F4A7C15  # decorrelates the auxiliary Z stream


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc


def _chunk_plan(count: int):
    plan = []
    done, j = 0, 0
    while done < count:
        rows = min(CHUNK, count - done)
        plan.append((j, rows))
        done += rows
        j += 1
    return plan


def _map_chunks(count: int, job: Callable) -> np.ndarray:
    """Evaluate job(j, rows) over the fixed chunk plan and concatenate in
    chunk order; parallelism changes scheduling only, never the result."""
    plan = _chunk_plan(count)
    workers = _worker_count()
    if workers == 1 or len(plan) == 1:
        parts = [job(j, rows) for j, rows in plan]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda jr: job(*jr), plan))
    return np.concatenate(parts, axis=0)


def _family_of(sampler, seed: int, N: int) -> Family:
    """The sampler's family, once (family, seed, N) pass the SamplerSpec checks."""
    family = sampler.family if isinstance(sampler, SamplerSpec) else sampler
    return SamplerSpec(family, seed, N).family


def _family_meta(family: Family) -> dict:
    if isinstance(family, StandardGaussian):
        return {"family": "StandardGaussian", "n": family.n}
    if isinstance(family, ProductPhiTail):
        phi = family.phi
        return {"family": "ProductPhiTail", "n": family.n,
                "phi": {"s": phi.s, "custom": phi.fn is not None}}
    return {"family": "NuMeasure", "n": 1}


# ---------------------------------------------------------------------------
# test functions

@dataclass
class TestFunction:
    """A named observable with row-vectorized value and exact gradient
    handles; optional constant-Hessian norms for second-order bounds."""

    name: str
    f: Callable = field(repr=False)        # (N, n) -> (N,)
    grad: Callable = field(repr=False)     # (N, n) -> (N, n)
    hess_hs: Optional[float] = None
    hess_op: Optional[float] = None
    meta: Dict = field(default_factory=dict)


def linear(theta) -> TestFunction:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise InputError("theta must be a non-empty 1-D vector")
    return TestFunction(
        name="linear",
        f=lambda X: X @ theta,
        grad=lambda X: np.broadcast_to(theta, X.shape).copy(),
        hess_hs=0.0, hess_op=0.0,
        meta={"theta": theta.tolist()},
    )


def quadratic_form(A: MultiIndexMatrix) -> TestFunction:
    if A.k != 2:
        raise InputError(f"quadratic_form requires k = 2, got {A.k}")
    if not A.symmetric:
        raise InputError("quadratic_form requires a symmetric matrix")
    M = A.data
    svals = np.linalg.svd(M, compute_uv=False)
    return TestFunction(
        name="quadratic_form",
        f=lambda X: np.einsum("ni,ij,nj->n", X, M, X),
        grad=lambda X: 2.0 * (X @ M),
        hess_hs=2.0 * float(np.linalg.norm(M)),
        hess_op=2.0 * float(svals[0]) if svals.size else 0.0,
        meta={"n": A.n},
    )


def euclidean_norm() -> TestFunction:
    def grad(X):
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        return np.where(norms > 0.0, X / safe, 0.0)

    return TestFunction(name="euclidean_norm",
                        f=lambda X: np.linalg.norm(X, axis=1), grad=grad)


def max_coordinate() -> TestFunction:
    def grad(X):
        out = np.zeros_like(X)
        out[np.arange(X.shape[0]), np.argmax(X, axis=1)] = 1.0
        return out

    return TestFunction(name="max_coordinate",
                        f=lambda X: np.max(X, axis=1), grad=grad)


def exp_tilt(theta) -> TestFunction:
    """g(x) = exp(<theta, x>), the extremal family for the Gaussian
    log-Sobolev inequality; nonnegative, so usable as an entropy argument."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise InputError("theta must be a non-empty 1-D vector")

    def f(X):
        return np.exp(X @ theta)

    return TestFunction(
        name="exp_tilt",
        f=f,
        grad=lambda X: f(X)[:, None] * theta,
        meta={"theta": theta.tolist()},
    )


def _ray_conjugate_values(spec: PsiSpec, c: np.ndarray) -> np.ndarray:
    """Psi*(c e_1) for c >= 0, vectorized."""
    c = np.asarray(c, dtype=float)
    if isinstance(spec, PowerNorm):
        if spec.a == 1.0:
            return np.where(c <= 1.0, 0.0, np.inf)
        a_conj = spec.a / (spec.a - 1.0)
        coef = (spec.a - 1.0) * spec.a ** (-a_conj)
        return coef * c ** a_conj
    if spec.separable:
        return _component_conjugate(spec, c)
    raise InputError(f"{type(spec).__name__} has no coordinate-ray conjugate")


def halfspace_distance(m: float, spec: PsiSpec) -> TestFunction:
    """Gauge distance to the halfspace {x_1 <= m} measured by the conjugate
    ball: f(x) = Psi*((x_1 - m)_+ e_1), so {f < u} is exactly the
    u-enlargement of the halfspace."""
    m = float(m)

    def f(X):
        c = np.maximum(X[:, 0] - m, 0.0)
        return _ray_conjugate_values(spec, c)

    def grad(X):
        c = np.maximum(X[:, 0] - m, 0.0)
        h = 1e-6 * np.maximum(1.0, c)
        lo = np.maximum(c - h, 0.0)
        d = (_ray_conjugate_values(spec, c + h) - _ray_conjugate_values(spec, lo)) / (c + h - lo)
        out = np.zeros_like(X)
        out[:, 0] = np.where(X[:, 0] > m, d, 0.0)
        return out

    return TestFunction(name="halfspace_distance", f=f, grad=grad,
                        meta={"m": m, "psi": psi_to_dict(spec)})


# ---------------------------------------------------------------------------
# estimators

def empirical_moment(values, p: float) -> float:
    """(mean |v|^p)^{1/p}, max-shifted in the log domain so large p (up to
    the 256 design range) cannot overflow."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InputError("empirical_moment requires a non-empty value vector")
    if not p >= 1.0:
        raise InputError(f"requires p >= 1, got {p}")
    mags = np.abs(values)
    top = float(np.max(mags))
    if top == 0.0:
        return 0.0
    if math.isinf(top):
        return math.inf
    with np.errstate(divide="ignore"):
        logs = np.log(mags)
    lse = logsumexp(p * logs) - math.log(values.size)
    return math.exp(lse / p)


def empirical_entropy(values) -> float:
    """mean(v log v) - mean(v) log(mean(v)) with 0 log 0 = 0."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InputError("empirical_entropy requires a non-empty value vector")
    if np.any(values < 0.0):
        raise InputError("entropy requires nonnegative values")
    mean = float(np.mean(values))
    if mean == 0.0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        vlogv = np.where(values > 0.0, values * np.log(values), 0.0)
    return float(np.mean(vlogv)) - mean * math.log(mean)


def batch_se(values, stat: Callable, batches: int = BATCHES) -> float:
    """Batch-means standard error of stat over contiguous batches."""
    values = np.asarray(values)
    n_batches = min(batches, values.shape[0])
    if n_batches < 2:
        return math.inf
    stats = np.array([stat(chunk) for chunk in np.array_split(values, n_batches)])
    return float(np.std(stats, ddof=1) / math.sqrt(n_batches))


def top_mass_fraction(values, p: float, k: int = 10) -> float:
    """Fraction of sum |v|^p carried by the k largest magnitudes; the
    effective-sample-size diagnostic attached to high-p estimates."""
    values = np.asarray(values, dtype=float).ravel()
    mags = np.abs(values)
    if not np.any(mags > 0.0):
        return 0.0
    with np.errstate(divide="ignore"):
        logs = p * np.log(mags)
    total = logsumexp(logs)
    top = logsumexp(np.sort(logs)[-k:])
    return float(math.exp(top - total))


# ---------------------------------------------------------------------------
# reports

def _fmt_cell(v) -> str:
    return f"{v:.17g}"


def _write_csv(path: str, meta: dict, columns: Dict[str, np.ndarray]):
    names = list(columns)
    length = len(next(iter(columns.values())))
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(names) + "\n")
        for i in range(length):
            fh.write(",".join(_fmt_cell(columns[c][i]) for c in names) + "\n")


@dataclass
class MomentReport:
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

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "p_grid": self.p_grid.tolist(),
            "lhs": self.lhs.tolist(),
            "lhs_se": self.lhs_se.tolist(),
            "rhs": self.rhs.tolist(),
            "bound": self.bound.tolist(),
            "ratio": self.ratio.tolist(),
            "fitted": self.fitted,
            "flags": {str(k): v for k, v in self.flags.items()},
        }

    def to_csv(self, path: str):
        _write_csv(path, self.meta, {
            "p": self.p_grid, "lhs": self.lhs, "lhs_se": self.lhs_se,
            "rhs": self.rhs, "bound": self.bound, "ratio": self.ratio,
        })


@dataclass
class NuLogPReport:
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

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed_lower) and np.all(self.passed_upper))

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "p_grid": self.p_grid.tolist(),
            "emp": self.emp.tolist(),
            "emp_se": self.emp_se.tolist(),
            "l1": self.l1, "l1_se": self.l1_se,
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "passed_lower": self.passed_lower.tolist(),
            "passed_upper": self.passed_upper.tolist(),
            "all_passed": self.all_passed,
        }

    def to_csv(self, path: str):
        _write_csv(path, self.meta, {
            "p": self.p_grid, "emp": self.emp, "emp_se": self.emp_se,
            "lower": self.lower, "upper": self.upper,
            "passed_lower": self.passed_lower.astype(float),
            "passed_upper": self.passed_upper.astype(float),
        })


@dataclass
class EnlargementCurve:
    u_grid: np.ndarray
    radius: np.ndarray
    emp: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    base_mass: float
    base_se: float
    meta: dict

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "u_grid": self.u_grid.tolist(),
            "radius": self.radius.tolist(),
            "emp": self.emp.tolist(),
            "se": self.se.tolist(),
            "bound": self.bound.tolist(),
            "base_mass": self.base_mass,
            "base_se": self.base_se,
        }

    def to_csv(self, path: str):
        _write_csv(path, self.meta, {
            "u": self.u_grid, "radius": self.radius, "emp": self.emp,
            "se": self.se, "bound": self.bound,
        })


@dataclass
class MlsiReport:
    residual: float
    se: float
    rhs_mean: float
    entropy: float
    infinite: bool
    meta: dict

    def to_json_dict(self) -> dict:
        return {"meta": self.meta, "residual": self.residual, "se": self.se,
                "rhs_mean": self.rhs_mean, "entropy": self.entropy,
                "infinite": self.infinite}


# ---------------------------------------------------------------------------
# verification harness

def _validate_p_grid(p_grid, lo: float) -> np.ndarray:
    p_grid = np.asarray(sorted(float(p) for p in p_grid))
    if p_grid.size == 0:
        raise InputError("empty p grid")
    if p_grid[0] < lo or p_grid[-1] > P_CAP:
        raise InputError(f"p grid must lie in [{lo}, {P_CAP}], got [{p_grid[0]}, {p_grid[-1]}]")
    return p_grid


def verify_centered(sampler, f: TestFunction, spec: PsiSpec,
                    env: GrowthEnvelope, p_grid, N: int, seed: int,
                    C: float = 1.0) -> MomentReport:
    """Estimate ||f - mean f||_p against G(p) = || |grad f|_{Psi_p} ||_p and
    the closed-form bound C L G(p); the fitted constant is the largest ratio
    lhs / G over the grid."""
    family = _family_of(sampler, seed, N)
    p_grid = _validate_p_grid(p_grid, env.beta)
    if family.n != spec.dim:
        raise InputError(f"sampler dim {family.n} != spec dim {spec.dim}")

    def job(j, rows):
        X = sample_chunk(family, seed, j, rows)
        gr = f.grad(X)
        cols = [f.f(X)]
        cols.extend(psi_p_norm_rows(spec, p, gr) for p in p_grid)
        return np.column_stack(cols)

    data = _map_chunks(N, job)
    centered = data[:, 0] - float(np.mean(data[:, 0]))
    lhs = np.empty(p_grid.size)
    lhs_se = np.empty(p_grid.size)
    rhs = np.empty(p_grid.size)
    bound = np.empty(p_grid.size)
    flags = {}
    for i, p in enumerate(p_grid):
        lhs[i] = empirical_moment(centered, p)
        lhs_se[i] = batch_se(centered, lambda b: empirical_moment(b, p))
        rhs[i] = empirical_moment(data[:, 1 + i], p)
        bound[i] = centered_moment_bound(rhs[i], env, p, C)
        if p > HIGH_P_FLAG:
            flags[float(p)] = top_mass_fraction(centered, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(rhs > 0.0, lhs / rhs, 0.0)
    meta = {"scenario": "centered", "function": f.name, "psi": psi_to_dict(spec),
            "env": env_to_dict(env), "sampler": _family_meta(family),
            "seed": seed, "N": N, "C": C, "l_constant": l_constant(env)}
    return MomentReport(p_grid=p_grid, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
                        bound=bound, ratio=ratio,
                        fitted=float(np.max(ratio)) if ratio.size else 0.0,
                        flags=flags, meta=meta)


def verify_nu_logp(p_grid, N: int, seed: int) -> NuLogPReport:
    """For f(x) = x under nu: log(p)/(2e) <= ||x||_p <= ||x||_1 + log p,
    checked inside 3 SE bands."""
    p_grid = _validate_p_grid(p_grid, 2.0)
    family = _family_of(NuMeasure(), seed, N)
    x = _map_chunks(N, lambda j, rows: sample_chunk(family, seed, j, rows)[:, 0])
    l1 = empirical_moment(x, 1.0)
    l1_se = batch_se(x, lambda b: empirical_moment(b, 1.0))
    emp = np.array([empirical_moment(x, p) for p in p_grid])
    emp_se = np.array([batch_se(x, lambda b, p=p: empirical_moment(b, p))
                       for p in p_grid])
    lower = np.log(p_grid) / (2.0 * math.e)
    upper = l1 + np.log(p_grid)
    passed_lower = emp >= lower - 3.0 * emp_se
    passed_upper = emp <= upper + 3.0 * (emp_se + l1_se)
    meta = {"scenario": "nu_logp", "seed": seed, "N": N,
            "sampler": _family_meta(family)}
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

    def job(j, rows):
        X = sample_chunk(famX, seed, j, rows)
        Z = sample_chunk(famZ, seed_z, j, rows)
        return np.column_stack([f.f(X), np.sum(f.grad(X) * Z, axis=1)])

    data = _map_chunks(N, job)
    centered = data[:, 0] - float(np.mean(data[:, 0]))
    coupled = data[:, 1]
    lhs = np.empty(p_grid.size)
    lhs_se = np.empty(p_grid.size)
    rhs = np.empty(p_grid.size)
    flags = {}
    for i, p in enumerate(p_grid):
        lhs[i] = empirical_moment(centered, p)
        lhs_se[i] = batch_se(centered, lambda b: empirical_moment(b, p))
        rhs[i] = empirical_moment(coupled, p)
        if p > HIGH_P_FLAG:
            flags[float(p)] = top_mass_fraction(centered, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(rhs > 0.0, lhs / rhs, 0.0)
    meta = {"scenario": "comparison", "function": f.name,
            "phi": {"s": phi.s, "custom": phi.fn is not None},
            "sampler": _family_meta(famX), "seed": seed, "N": N}
    return MomentReport(p_grid=p_grid, lhs=lhs, lhs_se=lhs_se, rhs=rhs,
                        bound=rhs.copy(), ratio=ratio,
                        fitted=float(np.max(ratio)) if ratio.size else 0.0,
                        flags=flags, meta=meta)


def enlargement_mc(sampler, m: float, spec: PsiSpec, u_grid, N: int,
                   seed: int, env: Optional[GrowthEnvelope] = None,
                   C_impl: float = 1.0) -> EnlargementCurve:
    """Empirical mass of {x_1 < m + s(u)} with s(u) the coordinate reach of
    {Psi* < u}, against the closed-form enlargement lower bound."""
    family = _family_of(sampler, seed, N)
    u_grid = np.asarray(sorted(float(u) for u in u_grid))
    if u_grid.size == 0 or u_grid[0] <= 0.0:
        raise InputError("u grid must be non-empty with positive entries")
    x1 = _map_chunks(N, lambda j, rows: sample_chunk(family, seed, j, rows)[:, 0])
    base_mass = float(np.mean(x1 <= m))
    base_se = batch_se(x1, lambda b: float(np.mean(b <= m)))
    if base_mass < 0.5 - 3.0 * base_se:
        raise InputError(
            f"halfspace mass {base_mass:.4f} is below 1/2 - 3 SE; raise m")
    radius = np.array([conjugate_ray_radius(spec, u) for u in u_grid])
    emp = np.empty(u_grid.size)
    se = np.empty(u_grid.size)
    bound = np.empty(u_grid.size)
    for i, (u, s_u) in enumerate(zip(u_grid, radius)):
        thresh = m + s_u
        emp[i] = float(np.mean(x1 < thresh))
        se[i] = batch_se(x1, lambda b, th=thresh: float(np.mean(b < th)))
        bound[i] = enlargement_bound(u, env, C_impl) if env is not None else math.nan
    meta = {"scenario": "enlargement", "m": m, "psi": psi_to_dict(spec),
            "env": env_to_dict(env) if env is not None else None,
            "C_impl": C_impl, "sampler": _family_meta(family),
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

    def job(j, rows):
        X = sample_chunk(family, seed, j, rows)
        gv = np.asarray(g.f(X), dtype=float)
        if np.any(gv < 0.0):
            raise InputError("mlsi residual requires a nonnegative g")
        gv = gv + _ENT_SHIFT
        ratios = g.grad(X) / (2.0 * gv[:, None])
        return np.column_stack([gv, eval_psi_rows(spec, ratios) * gv])

    data = _map_chunks(N, job)
    gv, terms = data[:, 0], data[:, 1]
    infinite = bool(np.any(np.isinf(terms)))
    ent = empirical_entropy(gv)
    meta = {"scenario": "mlsi", "function": g.name, "psi": psi_to_dict(spec),
            "D": D, "sampler": _family_meta(family), "seed": seed, "N": N}
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


def mlsi_residual(sampler, g: TestFunction, spec: PsiSpec, D: float, N: int,
                  seed: int) -> float:
    return mlsi_report(sampler, g, spec, D, N, seed).residual
