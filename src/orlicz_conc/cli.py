"""Command-line surface. Subcommands: norm, conjugate, bound, tensor,
sample, verify.

Exit codes: 0 success, 1 verification band failure, 2 input error,
3 numerical error. Errors are emitted as JSON objects on stderr. Every run
echoes its fully resolved configuration into the output header ('# config:'
line for text/CSV, a "config" field for JSON), and output for a fixed
configuration is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bd
from . import conjugacy as cj
from . import empirics as em
from . import measures as ms
from . import tensors as tn
from .errors import InputError, NumericalError
from .psi import (GrowthEnvelope, PhiSpec, env_from_dict, env_to_dict,
                  psi_from_json, psi_p_norm_rows, psi_to_dict)


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit on its own; route through InputError so the
    # error object lands on stderr with exit code 2. Abbreviated flags are
    # disabled so that bound parameters like --p pass through verbatim.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise InputError(message)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _read_arg_text(raw: str) -> str:
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {raw[1:]!r}: {exc}") from exc
    return raw


def _parse_vector(raw: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.split(",") if tok != ""])
    except ValueError as exc:
        raise InputError(f"malformed vector {raw!r}: {exc}") from exc


def _parse_grid(raw: str, log: bool = True) -> np.ndarray:
    parts = raw.split(",")
    if len(parts) != 3:
        raise InputError(f"grid must be 'lo,hi,count', got {raw!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"malformed grid {raw!r}: {exc}") from exc
    if not (lo > 0 and hi > lo and count >= 2) and log:
        raise InputError(f"log grid needs 0 < lo < hi and count >= 2, got {raw!r}")
    return np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_result(config: dict, payload, out_path, fmt: str):
    """payload: scalar, vector, or (column-name -> array) table."""
    if fmt == "json":
        if isinstance(payload, dict):
            body = {k: np.asarray(v).tolist() for k, v in payload.items()}
        elif isinstance(payload, np.ndarray):
            body = payload.tolist()
        else:
            body = payload
        _emit([json.dumps({"config": config, "result": body}, sort_keys=True)],
              out_path)
        return
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    if isinstance(payload, dict):
        names = list(payload)
        lines.append(",".join(names))
        length = len(np.asarray(payload[names[0]]))
        for i in range(length):
            lines.append(",".join(_fmt(np.asarray(payload[c])[i]) for c in names))
    elif isinstance(payload, np.ndarray):
        lines.extend(",".join(_fmt(v) for v in np.atleast_1d(row))
                     for row in np.atleast_2d(payload))
    else:
        lines.append(_fmt(payload))
    _emit(lines, out_path)


# ---------------------------------------------------------------------------
# bound registry

def _env_from(params: dict) -> GrowthEnvelope:
    missing = [k for k in ("K", "alpha", "beta") if k not in params]
    if missing:
        raise InputError(f"growth envelope needs {missing}")
    return env_from_dict({k: params[k] for k in ("K", "alpha", "beta", "D", "d")
                          if k in params})

_ENV_KEYS = ("K", "alpha", "beta", "D", "d")

# name -> (required keys, optional keys with defaults, needs_env, needs_psi,
#          evaluate(params, env, spec, t) -> value); grid-capable entries
# treat 't' (or 'u') as the swept variable
_BOUNDS = {
    "l_constant": ((), {}, True, False,
                   lambda pr, env, spec, t: bd.l_constant(env)),
    "defective_moment_bound": (("p", "lower_moment", "grad_moment"), {}, True, False,
                               lambda pr, env, spec, t: bd.defective_moment_bound(
                                   bd.MomentBoundInputs(pr["p"], pr["lower_moment"],
                                                        pr["grad_moment"], env))),
    "defective_moment_bound_q": (("p", "lower_moment", "grad_moment", "q"), {}, True, False,
                                 lambda pr, env, spec, t: bd.defective_moment_bound_q(
                                     bd.MomentBoundInputs(pr["p"], pr["lower_moment"],
                                                          pr["grad_moment"], env), pr["q"])),
    "alpha1_moment_bound": (("norm_beta", "grad_moment", "p"), {}, True, False,
                            lambda pr, env, spec, t: bd.alpha1_moment_bound(
                                pr["norm_beta"], pr["grad_moment"], env, pr["p"])),
    "centered_moment_bound": (("grad_moment", "p"), {"C": 1.0}, True, False,
                              lambda pr, env, spec, t: bd.centered_moment_bound(
                                  pr["grad_moment"], env, pr["p"], pr["C"])),
    "poincare_beta_bound": (("grad_moment_beta",), {"C": 1.0}, True, False,
                            lambda pr, env, spec, t: bd.poincare_beta_bound(
                                pr["grad_moment_beta"], env, pr["C"])),
    "chebyshev_level": (("g0", "g_exponent"), {"C": 1.0}, True, False,
                        lambda pr, env, spec, t: bd.chebyshev_level(
                            lambda p: pr["g0"] * p ** pr["g_exponent"], env, pr["C"], t)),
    "lipschitz_profile": (("a", "b"), {"C": 1.0}, True, True,
                          lambda pr, env, spec, t: bd.lipschitz_profile(
                              pr["a"], pr["b"], env, spec, pr["C"], t)),
    "enlargement_rate": ((), {"C_impl": 1.0}, True, False,
                         lambda pr, env, spec, t: bd.enlargement_rate(env, pr["C_impl"])),
    "enlargement_bound": ((), {"C_impl": 1.0}, True, False,
                          lambda pr, env, spec, t: bd.enlargement_bound(t, env, pr["C_impl"])),
    "two_level_tail": (("a", "b", "r"), {"c": 1.0}, False, False,
                       lambda pr, env, spec, t: bd.two_level_tail(
                           pr["a"], pr["b"], pr["r"], pr["c"], t)),
    "hanson_wright_tail": (("A_q", "B", "q"), {"c": 1.0}, False, False,
                           lambda pr, env, spec, t: bd.hanson_wright_tail(
                               pr["A_q"], pr["B"], pr["q"], pr["c"], t)),
    "bcg_tail": (("L", "hess_hs_m2", "mean_grad", "hess_op_sup"), {}, False, False,
                 lambda pr, env, spec, t: bd.bcg_tail(
                     pr["L"], pr["hess_hs_m2"], pr["mean_grad"], pr["hess_op_sup"], t)),
    "quadratic_chaos_moment": (("hs", "op", "entry_lr", "mixed_2_rstar",
                                "rstar_rstar", "r", "p"), {}, False, False,
                               lambda pr, env, spec, t: bd.quadratic_chaos_moment(
                                   bd.PartitionNorms(pr["hs"], pr["op"], pr["entry_lr"],
                                                     pr["mixed_2_rstar"], pr["rstar_rstar"],
                                                     pr["r"]), pr["p"])),
    "moment_interpolation_factor": (("A", "p", "q", "r"), {}, False, False,
                                    lambda pr, env, spec, t: bd.moment_interpolation_factor(
                                        pr["A"], pr["p"], pr["q"], pr["r"])),
    "bcg_first_line": (("L", "p", "mean_grad_norm", "hess_op_mp"), {}, False, False,
                       lambda pr, env, spec, t: bd.bcg_first_line(
                           pr["L"], pr["p"], pr["mean_grad_norm"], pr["hess_op_mp"])),
}

_SWEPT = {"chebyshev_level", "lipschitz_profile", "enlargement_bound",
          "two_level_tail", "hanson_wright_tail", "bcg_tail"}


def _parse_extra_params(tokens) -> dict:
    params = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--") or i + 1 >= len(tokens):
            raise InputError(f"expected '--key value' pairs, got {tokens[i:]!r}")
        params[tok[2:]] = tokens[i + 1]
        i += 2
    return params


def _cmd_bound(ns, extra_tokens) -> int:
    name = ns.name
    if name == "gk_moment":
        return _cmd_bound_gk(ns, extra_tokens)
    if name == "bcg_moment_bound":
        return _cmd_bound_bcg_chain(ns, extra_tokens)
    if name not in _BOUNDS:
        raise InputError(f"unknown bound {name!r}; known: "
                         f"{sorted(_BOUNDS) + ['gk_moment', 'bcg_moment_bound']}")
    required, optional, needs_env, needs_psi, fn = _BOUNDS[name]
    raw = {}
    if ns.params:
        obj = json.loads(_read_arg_text(ns.params))
        if not isinstance(obj, dict):
            raise InputError("--params must be a JSON object")
        raw.update(obj)
    raw.update(_parse_extra_params(extra_tokens))
    allowed = set(required) | set(optional) | ({"t", "u"} if name in _SWEPT else set())
    if needs_env:
        allowed |= set(_ENV_KEYS)
    unknown = set(raw) - allowed
    if unknown:
        raise InputError(f"unknown parameter(s) for {name}: {sorted(unknown)}")
    try:
        params = {k: float(v) for k, v in raw.items()}
    except (TypeError, ValueError) as exc:
        raise InputError(f"non-numeric parameter: {exc}") from exc
    for k, v in optional.items():
        params.setdefault(k, v)
    missing = [k for k in required if k not in params]
    if missing:
        raise InputError(f"{name} missing parameter(s): {missing}")
    env = _env_from(params) if needs_env else None
    spec = psi_from_json(_read_arg_text(ns.psi)) if needs_psi and ns.psi else None
    if needs_psi and spec is None:
        raise InputError(f"{name} requires --psi")
    config = {"bound": name, "params": params}
    if env is not None:
        config["env"] = env_to_dict(env)
    if spec is not None:
        config["psi"] = psi_to_dict(spec)
    if ns.grid:
        if name not in _SWEPT:
            raise InputError(f"{name} is not a profile; --grid not supported")
        ts = _parse_grid(ns.grid)
        config["grid"] = [float(ts[0]), float(ts[-1]), int(len(ts))]
        vals = np.array([fn(params, env, spec, t) for t in ts])
        _emit_result(config, {"t": ts, "bound": vals}, ns.out, ns.format)
        return 0
    t = params.pop("u", params.pop("t", None))
    if name in _SWEPT and t is None:
        raise InputError(f"{name} needs --t/--u or --grid")
    if t is not None:
        config["t"] = t
    _emit_result(config, fn(params, env, spec, t), ns.out, ns.format)
    return 0


def _cmd_bound_gk(ns, extra_tokens) -> int:
    raw = _parse_extra_params(extra_tokens)
    if ns.params:
        raw = {**json.loads(_read_arg_text(ns.params)), **raw}
    unknown = set(raw) - {"x", "s", "p"}
    if unknown:
        raise InputError(f"unknown parameter(s) for gk_moment: {sorted(unknown)}")
    for key in ("x", "s", "p"):
        if key not in raw:
            raise InputError(f"gk_moment missing parameter {key!r}")
    x = _parse_vector(raw["x"]) if isinstance(raw["x"], str) else np.asarray(raw["x"], dtype=float)
    phi = PhiSpec(s=float(raw["s"]))
    p = float(raw["p"])
    config = {"bound": "gk_moment", "x": x.tolist(), "s": phi.s, "p": p}
    _emit_result(config, bd.gk_moment(x, phi, p), ns.out, ns.format)
    return 0


def _cmd_bound_bcg_chain(ns, extra_tokens) -> int:
    raw = _parse_extra_params(extra_tokens)
    if ns.params:
        raw = {**json.loads(_read_arg_text(ns.params)), **raw}
    unknown = set(raw) - {"L", "p", "dk_norm", "hess_op_mp", "higher"}
    if unknown:
        raise InputError(f"unknown parameter(s) for bcg_moment_bound: {sorted(unknown)}")
    for key in ("L", "p", "dk_norm", "hess_op_mp", "higher"):
        if key not in raw:
            raise InputError(f"bcg_moment_bound missing parameter {key!r}")
    higher = raw["higher"]
    if isinstance(higher, str):
        higher = json.loads(higher)
    try:
        higher = [(int(m), float(v)) for m, v in higher]
    except (TypeError, ValueError) as exc:
        raise InputError(f"higher must be a list of [m, value] pairs: {exc}") from exc
    L, p = float(raw["L"]), float(raw["p"])
    dk, hop = float(raw["dk_norm"]), float(raw["hess_op_mp"])
    config = {"bound": "bcg_moment_bound", "L": L, "p": p, "dk_norm": dk,
              "hess_op_mp": hop, "higher": [[m, v] for m, v in higher]}
    _emit_result(config, bd.bcg_moment_bound(L, p, higher, dk, hop), ns.out, ns.format)
    return 0


# ---------------------------------------------------------------------------
# other subcommands

def _cmd_norm(ns) -> int:
    spec = psi_from_json(_read_arg_text(ns.psi))
    if (ns.x is None) == (ns.x_file is None):
        raise InputError("provide exactly one of --x or --x-file")
    if ns.x is not None:
        X = _parse_vector(ns.x)[None, :]
    else:
        X = np.atleast_2d(np.loadtxt(ns.x_file, delimiter=",", ndmin=2))
    config = {"command": "norm", "psi": psi_to_dict(spec), "p": ns.p}
    vals = psi_p_norm_rows(spec, ns.p, X)
    payload = float(vals[0]) if vals.size == 1 and ns.x is not None else {"norm": vals}
    _emit_result(config, payload, ns.out, ns.format)
    return 0


def _cmd_conjugate(ns) -> int:
    spec = psi_from_json(_read_arg_text(ns.psi))
    modes = [ns.grid is not None, ns.y is not None, ns.support]
    if sum(modes) != 1:
        raise InputError("choose exactly one of --grid, --y, --support")
    config = {"command": "conjugate", "psi": psi_to_dict(spec)}
    if ns.grid is not None:
        ts = _parse_grid(ns.grid)
        config["grid"] = [float(ts[0]), float(ts[-1]), int(len(ts))]
        table = cj.profile_table(spec, ts)
        _emit_result(config, {"t": table[:, 0], "omega": table[:, 1],
                              "omega_inv": table[:, 2], "omega_star": table[:, 3],
                              "lambda": table[:, 4]}, ns.out, ns.format)
        return 0
    if ns.y is not None:
        y = _parse_vector(ns.y)
        config["y"] = y.tolist()
        _emit_result(config, cj.psi_star(spec, y), ns.out, ns.format)
        return 0
    if ns.theta is None or ns.p is None:
        raise InputError("--support requires --p and --theta")
    theta = _parse_vector(ns.theta)
    config.update({"p": ns.p, "theta": theta.tolist()})
    _emit_result(config, cj.support_function(spec, ns.p, theta), ns.out, ns.format)
    return 0


def _cmd_tensor(ns) -> int:
    A = tn.load_matrix(ns.matrix)
    config = {"command": "tensor", "op": ns.op, "matrix": ns.matrix,
              "k": A.k, "n": A.n}
    if ns.op == "eval":
        if ns.x is None:
            raise InputError("eval requires --x")
        x = _parse_vector(ns.x)
        config["x"] = x.tolist()
        _emit_result(config, tn.eval_form(A, x), ns.out, ns.format)
        return 0
    if ns.op == "gradient":
        if ns.x is None:
            raise InputError("gradient requires --x")
        x = _parse_vector(ns.x)
        config["x"] = x.tolist()
        _emit_result(config, tn.form_gradient(A, x), ns.out, ns.format)
        return 0
    if ns.op == "symmetrize":
        if not ns.out:
            raise InputError("symmetrize requires --out for the result matrix")
        tn.save_matrix(tn.symmetrize(A), ns.out)
        return 0
    if ns.op == "partition":
        if ns.r is None:
            raise InputError("partition requires --r")
        config.update({"r": ns.r, "restarts": ns.restarts, "seed": ns.seed})
        norms = tn.partition_norms(A, ns.r, restarts=ns.restarts, seed=ns.seed)
        _emit_result(config, {"hs": [norms.hs], "op": [norms.op],
                              "entry_lr": [norms.entry_lr],
                              "mixed_2_rstar": [norms.mixed_2_rstar],
                              "rstar_rstar": [norms.rstar_rstar]},
                     ns.out, ns.format)
        return 0
    if ns.op == "chaos":
        if ns.psi is None or ns.p is None:
            raise InputError("chaos requires --psi and --p")
        spec = psi_from_json(_read_arg_text(ns.psi))
        config.update({"psi": psi_to_dict(spec), "p": ns.p,
                       "restarts": ns.restarts, "seed": ns.seed})
        val = tn.chaos_deterministic_term(A, spec, ns.p,
                                          restarts=ns.restarts, seed=ns.seed)
        _emit_result(config, val, ns.out, ns.format)
        return 0
    raise InputError(f"unknown tensor op {ns.op!r}")


def _family_from_flags(family: str, n: int, phi_s: float):
    if family == "gaussian":
        return ms.StandardGaussian(n=n)
    if family == "phi_tail":
        return ms.ProductPhiTail(PhiSpec(s=phi_s), n=n)
    if family == "nu":
        return ms.NuMeasure()
    raise InputError(f"unknown family {family!r} (gaussian, phi_tail, nu)")


def _cmd_sample(ns) -> int:
    family = _family_from_flags(ns.family, ns.n, ns.phi_s)
    spec = ms.SamplerSpec(family=family, seed=ns.seed, count=ns.count)
    X = ms.sample(spec)
    config = {"command": "sample", "seed": ns.seed, "count": ns.count,
              **em._family_meta(family)}
    if ns.format == "bin":
        if not ns.out:
            raise InputError("binary samples require --out")
        ms.save_samples(X, ns.out, fmt="bin")
        return 0
    header = ["config: " + json.dumps(config, sort_keys=True)]
    if ns.out:
        ms.save_samples(X, ns.out, fmt="csv", header_lines=header)
    else:
        sys.stdout.write(f"# {header[0]}\n")
        for row in np.atleast_2d(X):
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def _build_function(ns, dim: int) -> em.TestFunction:
    kind = ns.function
    if kind in ("linear", "tilt"):
        if ns.theta is None:
            raise InputError(f"{kind} requires --theta")
        theta = _parse_vector(ns.theta)
        if theta.size != dim:
            raise InputError(f"--theta has {theta.size} coordinates, expected {dim}")
        return em.linear(theta) if kind == "linear" else em.exp_tilt(theta)
    if kind == "quadratic":
        if ns.matrix is None:
            raise InputError("quadratic requires --matrix")
        A = tn.load_matrix(ns.matrix)
        if A.n != dim:
            raise InputError(f"--matrix has side {A.n}, expected {dim}")
        if not A.symmetric:
            A = tn.symmetrize(A)
        return em.quadratic_form(A)
    if kind == "euclidean":
        return em.euclidean_norm()
    if kind == "max":
        return em.max_coordinate()
    raise InputError(f"unknown function {kind!r}")


def _cmd_verify(ns) -> int:
    fmt = ns.format
    if ns.scenario == "nu-logp":
        rep = em.verify_nu_logp(_parse_vector(ns.p_grid), ns.N, ns.seed)
        _emit_verify_report(rep.to_json_dict(), rep, ns.out, fmt)
        return 0 if rep.all_passed else 1
    if ns.scenario == "mlsi":
        family = _family_from_flags(ns.family, ns.n, ns.phi_s)
        spec = psi_from_json(_read_arg_text(ns.psi))
        g = _build_function(ns, spec.dim)
        rep = em.mlsi_report(family, g, spec, ns.D, ns.N, ns.seed)
        _emit_verify_report(rep.to_json_dict(), rep, ns.out, fmt)
        ok = rep.infinite or rep.residual >= -3.0 * rep.se
        return 0 if ok else 1
    if ns.scenario == "centered":
        family = _family_from_flags(ns.family, ns.n, ns.phi_s)
        spec = psi_from_json(_read_arg_text(ns.psi))
        env = _env_from({"K": ns.K, "alpha": ns.alpha, "beta": ns.beta,
                         "D": ns.D, "d": ns.d})
        f = _build_function(ns, spec.dim)
        rep = em.verify_centered(family, f, spec, env, _parse_vector(ns.p_grid),
                                 ns.N, ns.seed, C=ns.C)
        _emit_verify_report(rep.to_json_dict(), rep, ns.out, fmt)
        ok = math.isfinite(rep.fitted) and bool(np.all(np.isfinite(rep.lhs)))
        return 0 if ok else 1
    if ns.scenario == "comparison":
        family = _family_from_flags(ns.family, ns.n, ns.phi_s)
        f = _build_function(ns, family.n)
        rep = em.comparison_check(family, PhiSpec(s=ns.phi_s), f,
                                  _parse_vector(ns.p_grid), ns.N, ns.seed)
        _emit_verify_report(rep.to_json_dict(), rep, ns.out, fmt)
        return 0 if bool(np.all(np.isfinite(rep.ratio))) else 1
    if ns.scenario == "enlargement":
        family = _family_from_flags(ns.family, ns.n, ns.phi_s)
        spec = psi_from_json(_read_arg_text(ns.psi))
        env = None
        if ns.K is not None:
            env = _env_from({"K": ns.K, "alpha": ns.alpha, "beta": ns.beta,
                             "D": ns.D, "d": ns.d})
        rep = em.enlargement_mc(family, ns.m, spec, _parse_vector(ns.u_grid),
                                ns.N, ns.seed, env=env, C_impl=ns.C)
        _emit_verify_report(rep.to_json_dict(), rep, ns.out, fmt)
        if env is None:
            return 0
        ok = bool(np.all(rep.emp >= rep.bound - 3.0 * rep.se))
        return 0 if ok else 1
    raise InputError(f"unknown scenario {ns.scenario!r}")


def _emit_verify_report(json_dict: dict, rep, out_path, fmt: str):
    if fmt == "csv" and out_path:
        rep.to_csv(out_path)
        return
    line = json.dumps(json_dict, sort_keys=True)
    _emit([line], out_path)


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    top = _Parser(prog="orlicz-conc",
                  description="Orlicz-type gauge norms, conjugate profiles, "
                              "concentration bound evaluators and MC verification")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None)

    p = sub.add_parser("norm", description="Luxemburg-type gauge |x|_{Psi_p}")
    p.add_argument("--psi", required=True, help="PsiSpec JSON (or @file)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--x", help="comma-separated coordinates")
    p.add_argument("--x-file", help="CSV of row vectors")
    common(p)

    p = sub.add_parser("conjugate", description="omega/omega*/lambda tables and Psi*")
    p.add_argument("--psi", required=True)
    p.add_argument("--grid", help="lo,hi,count log-spaced t grid for the profile table")
    p.add_argument("--y", help="evaluate Psi* at this vector")
    p.add_argument("--support", action="store_true",
                   help="support function of {Psi* <= p} (needs --p, --theta)")
    p.add_argument("--p", type=float)
    p.add_argument("--theta")
    common(p)

    p = sub.add_parser("bound", description="closed-form bound evaluators")
    p.add_argument("name")
    p.add_argument("--params", help="JSON object of parameters (or @file)")
    p.add_argument("--psi", help="PsiSpec JSON for psi-dependent bounds")
    p.add_argument("--grid", help="lo,hi,count sweep for profile bounds")
    common(p)

    p = sub.add_parser("tensor", description="multi-index form operations")
    p.add_argument("--matrix", required=True, help="matrix path (text or .json)")
    p.add_argument("--op", required=True,
                   choices=("eval", "gradient", "symmetrize", "partition", "chaos"))
    p.add_argument("--x")
    p.add_argument("--r", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--psi")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("sample", description="reference-measure sampling")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--phi-s", type=float, default=2.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", description="MC verification scenarios")
    p.add_argument("scenario",
                   choices=("centered", "nu-logp", "comparison", "enlargement", "mlsi"))
    p.add_argument("--psi")
    p.add_argument("--family", default="gaussian")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--phi-s", type=float, default=2.0)
    p.add_argument("--function", default="linear")
    p.add_argument("--theta")
    p.add_argument("--matrix")
    p.add_argument("--p-grid", default="2,4,8,16")
    p.add_argument("--u-grid", default="0.25,1,4")
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--D", type=float, default=2.0)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--N", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        ns, extra = parser.parse_known_args(argv)
        if ns.command == "bound":
            return _cmd_bound(ns, extra)
        if extra:
            raise InputError(f"unrecognized arguments: {extra}")
        if ns.command == "norm":
            return _cmd_norm(ns)
        if ns.command == "conjugate":
            return _cmd_conjugate(ns)
        if ns.command == "tensor":
            return _cmd_tensor(ns)
        if ns.command == "sample":
            return _cmd_sample(ns)
        if ns.command == "verify":
            return _cmd_verify(ns)
        raise InputError(f"unknown command {ns.command!r}")
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "message": str(exc)}) + "\n")
        return 3
    except (json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
