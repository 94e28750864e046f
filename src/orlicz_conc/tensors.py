"""Dense symmetric multi-index coefficient arrays, form evaluation with
compensated accumulation, analytic gradients, partition norms, and the
deterministic chaos terms built on conjugate-ball support functions.

Mixed partition norms and the quadratic chaos term are non-convex
maximizations of a bilinear form over two balls. One alternating exact
maximizer, `_alternate`, serves both: each half-step is an exact argmax over
one ball (the l_r-ball witness `psi._ball_witness` for the partition
norms, a conjugate-ball support argmax for the chaos term). Runs start from seeded
random restarts, all advanced in lockstep as one block of rows, and the best
value, a certified lower bound, is reported.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalError
from .psi import PsiSpec, _ball_witness

MAX_ENTRIES = 10 ** 7
MAX_SYM_ORDER = 6  # k! permutation guard

_POWER_TOL = 1e-10
_POWER_MAX_ITERS = 100_000
_ALT_TOL = 1e-12
_ALT_MAX_ITERS = 500
_CHAOS_MAX_ITERS = 200


def _is_symmetric(data: np.ndarray) -> bool:
    k = data.ndim
    if k == 1:
        return True
    perms = list(itertools.permutations(range(k)))
    if len(perms) > 9:  # k > 3: eight permutations drawn by a fixed seed
        idx = np.random.default_rng(0).choice(len(perms) - 1, size=8, replace=False) + 1
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
        if self.symmetric and not _is_symmetric(self.data):
            raise InputError("symmetric flag set but entries are not permutation-invariant")

    @classmethod
    def from_flat(cls, k: int, n: int, flat, symmetric: bool = None) -> "MultiIndexMatrix":
        data = np.asarray(flat, dtype=float).reshape((n,) * k)
        if symmetric is None:
            symmetric = _is_symmetric(data)
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


def _products(Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    # M @ y for each row y, one gemv per row and so bit for bit; one gemm,
    # Y @ M.T, is not, and its rows can depend on how many there are
    return np.matmul(Y[:, None, :], M.T)[:, 0, :]


def _alternate(M: np.ndarray, Mt: np.ndarray, left, right, G: np.ndarray, cap: int) -> tuple:
    """Per-row (values, converged) of alternating exact maximization of
    x^T M y, where left and right map a block of rows to (values,
    maximizers) over their balls: from each start g, a row of G, y =
    right(g), and each step takes x = left(M y), then (value, y) =
    right(Mt x).  All rows advance in lockstep, each with the arithmetic of
    a run on its own, and a row leaves the block once two of its values
    agree to _ALT_TOL, or unconverged at `cap`."""
    values, converged = np.zeros(len(G)), np.zeros(len(G), dtype=bool)
    run, Y = np.arange(len(G)), right(G)[1]
    for _ in range(cap):
        new, Y = right(_products(left(_products(Y, M))[1], Mt))
        done = np.abs(new - values[run]) <= _ALT_TOL * np.maximum(new, 1.0)
        values[run], converged[run] = new, done
        run, Y = run[~done], Y[~done]
        if not run.size:
            break
    return values, converged


def partition_norms(A: MultiIndexMatrix, r: float, restarts: int = 32,
                    seed: int = 0) -> PartitionNorms:
    """The five partition norms of a 2-index array at parameter r >= 2
    (symmetry is not required; the suprema are over independent left and
    right arguments). hs/entry_lr are entrywise sums; op is the top singular
    value; the two mixed norms are alternating-maximization lower bounds
    over `restarts` seeded starts each, and `capped` counts the runs that
    stopped at _ALT_MAX_ITERS; for r >= 2 the unit l_{r*} ball lies in
    the unit l_2 ball, so mixed_2_rstar is at least rstar_rstar."""
    from .bounds import PartitionNorms
    if A.k != 2:
        raise InputError(f"partition norms require k = 2, got k = {A.k}")
    if not r >= 2.0:
        raise InputError(f"requires r >= 2, got {r}")
    if not (isinstance(restarts, int) and restarts >= 1):
        raise InputError(f"restarts must be an integer >= 1, got {restarts!r}")
    M = A.data
    hs = math.sqrt(math.fsum((M * M).ravel()))
    entry_lr = (float(np.max(np.abs(M))) if math.isinf(r)
                else math.fsum((np.abs(M) ** r).ravel()) ** (1.0 / r))
    op = _top_singular(M, np.random.default_rng([seed, 0xA]))
    lr = functools.partial(_ball_witness, r=r)

    def best_of(tag, left):
        # the best value over the seeded restarts, and how many hit the cap
        G = np.array([np.random.default_rng([seed, tag, i]).standard_normal(A.n)
                      for i in range(restarts)])
        values, converged = _alternate(M, M.T, left, lr, G, _ALT_MAX_ITERS)
        return max(0.0, *values.tolist()), int(np.count_nonzero(~converged))

    mixed, capped_l2 = best_of(0xB, functools.partial(_ball_witness, r=2.0))
    rstar, capped_lr = best_of(0xC, lr)
    return PartitionNorms(hs=hs, op=op, entry_lr=entry_lr, mixed_2_rstar=max(mixed, rstar),
                          rstar_rstar=rstar, r=r, capped=capped_l2 + capped_lr)


def chaos_deterministic_term(A: MultiIndexMatrix, spec: PsiSpec, p: float,
                             restarts: int = 8, seed: int = 0) -> float:
    """sup of |<A, y1 x ... x yk>| over y_j in the conjugate ball
    {Psi* <= p}; exact support function for k = 1 (Psi is even, so the ball
    is symmetric and one solve covers both signs), alternating maximization
    with exact ball-constrained inner steps for k = 2."""
    from .conjugacy import _check_support, _support_argmax_rows, support_function
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
    _check_support(spec, p)
    step = functools.partial(_support_argmax_rows, spec, p)
    G = np.array([np.random.default_rng([seed, 0xD, i]).standard_normal(A.n)
                  for i in range(restarts)])
    values, converged = _alternate(M, M, step, step, G, _CHAOS_MAX_ITERS)
    if not np.all(converged):
        raise NumericalError(f"chaos maximization hit its {_CHAOS_MAX_ITERS}-iteration cap")
    return max(0.0, *values.tolist())


# ---------------------------------------------------------------------------
# matrix I/O

def save_matrix(A: MultiIndexMatrix, path: str):
    """JSON for any order (by .json extension); whitespace text for k <= 2."""
    if str(path).endswith(".json"):
        with open(path, "w") as fh:
            json.dump({"k": A.k, "n": A.n, "data": A.as_flat().tolist(),
                       "symmetric": bool(A.symmetric)}, fh)
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
        if not isinstance(d, dict):
            raise InputError("matrix JSON must be an object")
        unknown = set(d) - {"k", "n", "data", "symmetric"}
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
