"""Dense symmetric multi-index coefficient arrays, form evaluation with
compensated accumulation, analytic gradients, partition norms, and the
deterministic chaos terms built on conjugate-ball support functions.

Mixed partition norms are non-convex maximizations; we run alternating
exact maximization (each half-step is a closed-form dual-norm witness) from
seeded random restarts and report the best value, a certified lower bound.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import PartitionNorms
from .conjugacy import support_argmax, support_function
from .errors import InputError, NumericalError
from .psi import PsiSpec

MAX_ENTRIES = 10 ** 7
MAX_SYM_ORDER = 6  # k! permutation guard

_POWER_TOL = 1e-10
_POWER_MAX_ITERS = 100_000
_ALT_TOL = 1e-12
_ALT_MAX_ITERS = 500
_CHAOS_MAX_ITERS = 200


def _is_symmetric(data: np.ndarray, rng: np.random.Generator) -> bool:
    k = data.ndim
    if k == 1:
        return True
    perms = list(itertools.permutations(range(k)))
    if len(perms) > 9:
        idx = rng.choice(len(perms) - 1, size=8, replace=False) + 1
        perms = [perms[i] for i in idx]
    return all(np.allclose(data, np.transpose(data, p), rtol=1e-10, atol=1e-12)
               for p in perms)


@dataclass
class MultiIndexMatrix:
    """Order-k coefficient array on {1..n}^k, stored dense.

    symmetric=True asserts permutation invariance of the entries and is
    verified (by permutation sampling for k > 3) at construction.
    """

    k: int
    n: int
    data: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise InputError(f"order k must be an integer >= 1, got {self.k!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InputError(f"dim n must be an integer >= 1, got {self.n!r}")
        if self.n ** self.k > MAX_ENTRIES:
            raise InputError(f"n^k = {self.n}^{self.k} exceeds the dense size guard {MAX_ENTRIES}")
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.n,) * self.k:
            raise InputError(f"data shape {self.data.shape} does not match (n,)*k = {(self.n,) * self.k}")
        if not np.all(np.isfinite(self.data)):
            raise InputError("all entries must be finite")
        if self.symmetric and not _is_symmetric(self.data, np.random.default_rng(0)):
            raise InputError("symmetric flag set but entries are not permutation-invariant")

    @classmethod
    def from_flat(cls, k: int, n: int, flat, symmetric: bool = None) -> "MultiIndexMatrix":
        data = np.asarray(flat, dtype=float).reshape((n,) * k)
        if symmetric is None:
            symmetric = _is_symmetric(data, np.random.default_rng(0))
        return cls(k=k, n=n, data=data, symmetric=symmetric)

    def as_flat(self) -> np.ndarray:
        return self.data.reshape(-1)


def symmetrize(A: MultiIndexMatrix) -> MultiIndexMatrix:
    """Average over all k! index permutations; idempotent."""
    if A.k > MAX_SYM_ORDER:
        raise InputError(f"symmetrize supports k <= {MAX_SYM_ORDER}, got {A.k}")
    if A.k == 1:
        return replace(A, symmetric=True)
    acc = np.zeros_like(A.data)
    perms = list(itertools.permutations(range(A.k)))
    for p in perms:
        acc += np.transpose(A.data, p)
    return MultiIndexMatrix(k=A.k, n=A.n, data=acc / len(perms), symmetric=True)


def eval_form(A: MultiIndexMatrix, x) -> float:
    """<A, x tensor k> by direct compensated summation."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise InputError(f"x must have shape ({A.n},), got {x.shape}")
    outer = x
    for _ in range(A.k - 1):
        outer = np.multiply.outer(outer, x)
    return math.fsum((A.data * outer).ravel())


def form_gradient(A: MultiIndexMatrix, x) -> np.ndarray:
    """Gradient of the k-homogeneous form at x: entry j is
    k * sum a_{j, i2..ik} x_{i2} ... x_{ik}; requires a symmetric A."""
    if not A.symmetric:
        raise InputError("form_gradient requires the symmetric flag (use symmetrize)")
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise InputError(f"x must have shape ({A.n},), got {x.shape}")
    g = A.data
    for _ in range(A.k - 1):
        g = g @ x
    return A.k * np.atleast_1d(g)


# ---------------------------------------------------------------------------
# partition norms

def _lr_witness(z: np.ndarray, r: float):
    """argmax of <z, y> over the unit l_{r*} ball, value |z|_r."""
    mags = np.abs(z)
    nr = float(np.sum(mags ** r)) ** (1.0 / r)
    if nr == 0.0:
        return np.zeros_like(z), 0.0
    return np.sign(z) * (mags / nr) ** (r - 1.0), nr


def _l2_witness(z: np.ndarray):
    n2 = float(np.linalg.norm(z))
    if n2 == 0.0:
        return np.zeros_like(z), 0.0
    return z / n2, n2


def _top_singular(M: np.ndarray, rng: np.random.Generator) -> float:
    """Largest singular value by power iteration on M^T M, best of three
    random starts, each stopped at a relative change or residual below
    _POWER_TOL (tie-tolerant: the value, not the vector, is the contract).
    That stop is not an accuracy guarantee: a slow-converging value can
    stall short of the true norm, e.g. by up to 1.2e-7 relative against
    LAPACK's np.linalg.norm(M, 2) on 64x64 Wigner matrices."""
    n = M.shape[0]
    if not np.any(M):
        return 0.0
    best = 0.0
    for _ in range(3):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sigma = 0.0
        for _ in range(_POWER_MAX_ITERS):
            w = M.T @ (M @ v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                sigma = 0.0
                break
            v_new = w / nw
            sigma_new = float(np.linalg.norm(M @ v_new))
            resid = float(np.linalg.norm(w - (v @ w) * v))
            done = (abs(sigma_new - sigma) <= _POWER_TOL * max(sigma_new, 1e-300)
                    or resid <= _POWER_TOL * max(nw, 1e-300))
            v, sigma = v_new, sigma_new
            if done:
                break
        else:
            raise NumericalError("power iteration did not stabilize")
        best = max(best, sigma)
    return best


def _alternating_mixed(M: np.ndarray, r: float, left_l2: bool,
                       rng: np.random.Generator) -> float:
    """sup x^T M y with |y|_{r*} <= 1 and x in the unit l2 (left_l2) or
    l_{r*} ball; value is non-decreasing across half-steps."""
    n = M.shape[0]
    g = rng.standard_normal(n)
    y, _ = _lr_witness(g, r)
    val = 0.0
    for _ in range(_ALT_MAX_ITERS):
        z = M @ y
        x, _ = _l2_witness(z) if left_l2 else _lr_witness(z, r)
        y, new_val = _lr_witness(M.T @ x, r)
        if abs(new_val - val) <= _ALT_TOL * max(new_val, 1.0):
            return new_val
        val = new_val
    return val


def partition_norms(A: MultiIndexMatrix, r: float, restarts: int = 32,
                    seed: int = 0) -> PartitionNorms:
    """The five partition norms of a 2-index array at parameter r >= 2
    (symmetry is not required; the suprema are over independent left and
    right arguments). hs/entry_lr are entrywise sums; op is the top singular
    value; the two mixed norms are alternating-maximization lower bounds
    over `restarts` seeded starts; for r >= 2 the unit l_{r*} ball lies in
    the unit l_2 ball, so mixed_2_rstar is at least rstar_rstar."""
    if A.k != 2:
        raise InputError(f"partition norms require k = 2, got k = {A.k}")
    if not r >= 2.0:
        raise InputError(f"requires r >= 2, got {r}")
    if not (isinstance(restarts, int) and restarts >= 1):
        raise InputError(f"restarts must be an integer >= 1, got {restarts!r}")
    M = A.data
    hs = math.sqrt(math.fsum((M * M).ravel()))
    entry_lr = math.fsum((np.abs(M) ** r).ravel()) ** (1.0 / r)
    op = _top_singular(M, np.random.default_rng([seed, 0xA]))
    mixed = 0.0
    rstar = 0.0
    for i in range(restarts):
        mixed = max(mixed, _alternating_mixed(M, r, True, np.random.default_rng([seed, 0xB, i])))
        rstar = max(rstar, _alternating_mixed(M, r, False, np.random.default_rng([seed, 0xC, i])))
    return PartitionNorms(hs=hs, op=op, entry_lr=entry_lr,
                          mixed_2_rstar=max(mixed, rstar), rstar_rstar=rstar, r=r)


def chaos_deterministic_term(A: MultiIndexMatrix, spec: PsiSpec, p: float,
                             restarts: int = 8, seed: int = 0) -> float:
    """sup of |<A, y1 x ... x yk>| over y_j in the conjugate ball
    {Psi* <= p}; exact support function for k = 1 (Psi is even, so the ball
    is symmetric and one solve covers both signs), alternating maximization
    with exact ball-constrained inner steps for k = 2."""
    if A.k > 2:
        raise InputError(f"supported for k <= 2 only, got k = {A.k}")
    if A.n != spec.dim:
        raise InputError(f"dimension mismatch: matrix n = {A.n}, spec dim = {spec.dim}")
    if not (isinstance(restarts, int) and restarts >= 1):
        raise InputError(f"restarts must be an integer >= 1, got {restarts!r}")
    if A.k == 1:
        return support_function(spec, p, A.data)
    if not A.symmetric:
        raise InputError("k = 2 chaos term requires the symmetric flag")
    M = A.data
    if not np.any(M):
        return 0.0
    best = 0.0
    for i in range(restarts):
        rng = np.random.default_rng([seed, 0xD, i])
        _, y1 = support_argmax(spec, p, rng.standard_normal(A.n))
        val = 0.0
        for _ in range(_CHAOS_MAX_ITERS):
            _, y2 = support_argmax(spec, p, M @ y1)
            new_val, y1 = support_argmax(spec, p, M @ y2)
            converged = abs(new_val - val) <= 1e-12 * max(new_val, 1.0)
            val = new_val
            if converged:
                break
        else:
            raise NumericalError(f"chaos maximization hit its {_CHAOS_MAX_ITERS}-iteration cap")
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# matrix I/O

def matrix_to_json_dict(A: MultiIndexMatrix) -> dict:
    return {"k": A.k, "n": A.n, "data": A.as_flat().tolist(),
            "symmetric": bool(A.symmetric)}


def matrix_from_json_dict(d: dict) -> MultiIndexMatrix:
    if not isinstance(d, dict):
        raise InputError("matrix JSON must be an object")
    allowed = {"k", "n", "data", "symmetric"}
    unknown = set(d) - allowed
    if unknown:
        raise InputError(f"unknown matrix keys: {sorted(unknown)}")
    for key in ("k", "n", "data"):
        if key not in d:
            raise InputError(f"matrix JSON missing key {key!r}")
    try:
        return MultiIndexMatrix.from_flat(int(d["k"]), int(d["n"]), d["data"],
                                          symmetric=d.get("symmetric"))
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc


def save_matrix(A: MultiIndexMatrix, path: str):
    """JSON for any order (by .json extension); whitespace text for k <= 2."""
    if str(path).endswith(".json"):
        with open(path, "w") as fh:
            json.dump(matrix_to_json_dict(A), fh)
            fh.write("\n")
        return
    if A.k > 2:
        raise InputError("text format supports k <= 2; use a .json path")
    rows = A.data if A.k == 2 else A.data[None, :]
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path: str) -> MultiIndexMatrix:
    if str(path).endswith(".json"):
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InputError(f"malformed matrix JSON: {exc}") from exc
        return matrix_from_json_dict(d)
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.replace(",", " ").split()])
            except ValueError as exc:
                raise InputError(f"malformed matrix text: {exc}") from exc
    if not rows:
        raise InputError("empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError("ragged matrix text")
    n_cols = widths.pop()
    if len(rows) == 1:
        return MultiIndexMatrix.from_flat(1, n_cols, rows[0])
    if len(rows) != n_cols:
        raise InputError(f"text matrix must be square, got {len(rows)} x {n_cols}")
    return MultiIndexMatrix.from_flat(2, n_cols, [v for r in rows for v in r])
