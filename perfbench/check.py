"""Correctness checks for op outputs.

An op's output is its stdout followed by the files it writes. A reference
holds a fingerprint of that output: exit code, error message, SHA-256 of
the bytes, and the numbers it contains. An output matches its reference
when the bytes are identical, or when the text around the numbers is
identical and every number agrees to REL_TOL, the tolerance allowed when a
solver is replaced. Closed-form oracles are checked on top.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

REL_TOL = 1e-9
# outputs with more numbers keep a digest instead of every value
MAX_LISTED = 64

_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b|"
                     rb"-?Infinity|NaN")


def _numbers(data: bytes, binary: bool):
    if binary:
        return np.frombuffer(data, dtype="<f8"), b"<binary %d bytes>" % len(data)
    values = np.array([float(m) for m in _NUMBER.findall(data)], dtype=float)
    return values, _NUMBER.sub(b"#", data)


def output_bytes(stdout: bytes, files: dict) -> bytes:
    """stdout then each written file, in the op's order."""
    parts = [stdout]
    for name, data in files.items():
        parts.append(b"\n==> " + name.encode() + b" <==\n" + data)
    return b"".join(parts)


def fingerprint(rc: int, stdout: bytes, stderr: bytes, files: dict) -> dict:
    nums, skeleton = [], []
    for name, data in [("stdout", stdout), *files.items()]:
        values, skel = _numbers(data, name.endswith(".bin"))
        nums.append(values)
        skeleton.append(skel)
    values = np.concatenate(nums) if nums else np.empty(0)
    fp = {"rc": rc,
          "error": stderr.decode(errors="replace").strip() if rc else "",
          "sha256": hashlib.sha256(output_bytes(stdout, files)).hexdigest(),
          "skeleton_sha256": hashlib.sha256(b"\0".join(skeleton)).hexdigest(),
          "count": int(values.size)}
    if values.size <= MAX_LISTED:
        fp["values"] = [_json_float(v) for v in values]
    else:
        finite = values[np.isfinite(values)]
        fp["digest"] = {"sum_abs": math.fsum(np.abs(finite)),
                        "sum_sq": math.fsum(finite * finite),
                        "min": _json_float(np.min(values)),
                        "max": _json_float(np.max(values)),
                        "head": [_json_float(v) for v in values[:16]],
                        "tail": [_json_float(v) for v in values[-16:]]}
    return fp


def _json_float(v):
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _all_close(xs, ys) -> bool:
    return len(xs) == len(ys) and all(_close(x, y) for x, y in zip(xs, ys))


def compare(ref: dict, got: dict) -> str | None:
    """None when got matches ref, else the reason it does not."""
    if got["args_sha256"] != ref["args_sha256"]:
        return "the reference was recorded for other op flags"
    if got["rc"] != ref["rc"]:
        return f"exit code {got['rc']}, reference {ref['rc']}"
    if got["error"] != ref["error"]:
        return f"stderr {got['error']!r}, reference {ref['error']!r}"
    if got["sha256"] == ref["sha256"]:
        return None
    if got["skeleton_sha256"] != ref["skeleton_sha256"] or got["count"] != ref["count"]:
        return "output text differs from the reference"
    if "values" in ref:
        ok = _all_close(got["values"], ref["values"])
    else:
        r, g = ref["digest"], got["digest"]
        ok = (all(_close(g[k], r[k]) for k in ("sum_abs", "sum_sq", "min", "max"))
              and _all_close(g["head"], r["head"]) and _all_close(g["tail"], r["tail"]))
    return None if ok else f"numbers differ from the reference by more than {REL_TOL:g}"


# ---------------------------------------------------------------------------
# closed-form oracles: (stdout text, work dir) -> reason or None

def _vector(text):
    return np.array([float(v) for v in text.split(",")])


def _last_value(stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    return [float(v) for v in lines[-1].split(",")]


def _matrix(workdir, name):
    return np.loadtxt(f"{workdir}/{name}")


def _within(got, want, tol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=tol, atol=0.0):
        return f"{what}: got {got.tolist()}, closed form {want.tolist()}"
    return None


def power_gauge(stdout, workdir, x, p):
    """PowerNorm l2, a=2: |x|_{Psi_p} = p^{1-1/a} ||x||_2 = sqrt(p) ||x||_2."""
    want = math.sqrt(float(p)) * float(np.linalg.norm(_vector(x)))
    return _within(_last_value(stdout), [want], 1e-9, "PowerNorm gauge")


def power_gauge_rhs(stdout, workdir, theta, a):
    """verify centered with a linear f: every gradient row is theta, so each
    rhs entry is the PowerNorm gauge p^{1-1/a} ||theta||_2."""
    rep = json.loads(stdout)
    p = np.asarray(rep["p_grid"])
    want = p ** (1.0 - 1.0 / float(a)) * float(np.linalg.norm(_vector(theta)))
    return _within(rep["rhs"], want, 1e-9, "PowerNorm gauge moments")


def power_chaos(stdout, workdir, matrix, p):
    """PowerNorm l2, a=2: {Psi* <= p} is the l2 ball of radius
    R = (p / c)^{1/2}, c = (a-1) a^{-a*} = 1/4, so the chaos term is
    R^2 * ||M||_op."""
    want = 4.0 * float(p) * float(np.linalg.norm(_matrix(workdir, matrix), 2))
    return _within(_last_value(stdout), [want], 1e-6, "PowerNorm chaos term")


def l_constant_2_2(stdout, workdir):
    """K = D = 1, alpha = beta = 2: L = 2 + sqrt(2)."""
    return _within(_last_value(stdout), [2.0 + math.sqrt(2.0)], 1e-12, "l_constant")


def form_eval(stdout, workdir, matrix, x):
    v = _vector(x)
    return _within(_last_value(stdout), [v @ _matrix(workdir, matrix) @ v], 1e-9,
                   "quadratic form")


def form_gradient(stdout, workdir, matrix, x):
    return _within(_last_value(stdout), 2.0 * _matrix(workdir, matrix) @ _vector(x),
                   1e-9, "quadratic form gradient")


ORACLES = {f.__name__: f for f in (power_gauge, power_gauge_rhs, power_chaos,
                                   l_constant_2_2, form_eval, form_gradient)}


def oracle(spec: tuple, stdout: str, workdir: str) -> str | None:
    if not spec:
        return None
    return ORACLES[spec[0]](stdout, workdir, *spec[1:])


def fixed_failure_ok(stdout: str) -> str | None:
    """Check for an op whose recorded reference is a failure, once a program
    makes it succeed: it must print one finite positive value."""
    try:
        values = _last_value(stdout)
    except (IndexError, ValueError):
        return "no value printed"
    if len(values) != 1 or not (math.isfinite(values[0]) and values[0] > 0):
        return f"expected one finite positive value, got {values}"
    return None
