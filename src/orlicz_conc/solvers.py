"""The package's iterative solvers with their stop rules and caps: the one
bracketing root finder and its sup form, the piece-table gauge's Newton loop,
the golden-section maximiser, the grid supremum it refines and the numeric
Legendre transform built on that.  Each raises NumericalError at its cap."""

import math
from typing import Callable

import numpy as np

from .errors import InputError, NumericalError

_BRACKET_MAX = 200  # doublings/halvings before giving up (condition C3 failure)
_SOLVE_MAX = 100    # Chandrupatla steps; bisection needs 35 (tol 1e-10) to 52 (float resolution)
_BLOCK = 8192       # rows per Monte Carlo block and per gauge slice at dim <= 2 (a quarter above)
_NEWTON_MAX = 64    # Newton steps of the piece-table gauge; it takes 2-8
_SUP_TOL = 1e-13    # relative width of the profile, radius and level solves

GRID_LO = 1e-6      # log grid of the numeric Legendre transform and ray supremum
GRID_HI = 1e6
GRID_POINTS = 2048
_ROWS = 16          # values per grid block, bounding the (rows, points) temporaries
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
