"""Command-line surface. Subcommands: norm, conjugate, bound, tensor,
sample, verify.

Exit codes: 0 success, 1 verification band failure, 2 input error,
3 numerical error, which includes any RuntimeWarning such as an overflow
(expected ones are silenced where they arise). An error is one JSON
object on stderr. Every run echoes its fully resolved configuration into
the output header ('# config:' line for text/CSV, a "config" field for
JSON), and output for a fixed configuration is byte-identical across runs.
The parser, --help and every usage error (exit 2) run on the standard
library alone: numpy, psi and tables load once argparse has accepted a
command, and each subcommand imports the layer modules it calls as it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from .errors import InputError, NumericalError

def _load_core():
    """Bind numpy, psi and tables, which every subcommand uses, as this
    module's globals np, ps and tb."""
    global np, ps, tb
    import numpy as np
    from . import psi as ps, tables as tb


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit on its own; route through InputError so the
    # error object lands on stderr with exit code 2. Abbreviated flags are
    # disabled so that bound parameters like --p pass through verbatim.
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise InputError(message)


def _read_arg_text(raw: str) -> str:
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {raw[1:]!r}: {exc}") from exc
    return raw


def _finite(raw) -> float:
    """float(raw) for a finite number, which a JSON boolean is not: the type
    of every float flag, and the rule for vector entries and bound parameters."""
    if isinstance(raw, bool):
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {raw!r}")
    return value


def _order(raw) -> int:
    """A derivative order: an integral number."""
    value = _finite(raw)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"derivative order must be an integer, got {raw!r}")
    return int(value)


def _parse_vector(raw: str) -> np.ndarray:
    try:
        return np.array([_finite(tok) for tok in raw.split(",") if tok != ""])
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"malformed vector {raw!r}: {exc}") from exc


def _psi(ns, what: str):
    if ns.psi is None:
        raise InputError(f"{what} requires --psi")
    return ps.psi_from_json(_read_arg_text(ns.psi))


def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(",")
    if len(parts) != 3:
        raise InputError(f"grid must be 'lo,hi,count', got {raw!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"malformed grid {raw!r}: {exc}") from exc
    if not (0 < lo < hi < math.inf and count >= 2):
        raise InputError(f"log grid needs 0 < lo < hi < inf and count >= 2, got {raw!r}")
    return np.geomspace(lo, hi, count)


def _emit_json(obj, out_path):
    with tb._out_stream(out_path or sys.stdout) as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_result(config: dict, payload, out_path, fmt: str):
    """payload: scalar, vector, or (column-name -> array) table; text and
    csv both print the table."""
    table = isinstance(payload, dict)
    if fmt == "json":
        body = ({k: np.asarray(v).tolist() for k, v in payload.items()} if table
                else np.asarray(payload).tolist())
        _emit_json({"config": config, "result": body}, out_path)
    elif table:
        tb.write_table(out_path or sys.stdout, config, np.column_stack(list(payload.values())),
                       list(payload))
    else:
        tb.write_table(out_path or sys.stdout, config, payload)


# ---------------------------------------------------------------------------
# bound command (the bounds themselves are described in bounds._BOUNDS)

_ENV_KEYS = ("K", "alpha", "beta", "D", "d")


def _env_from(params: dict) -> ps.GrowthEnvelope:
    return ps.env_from_dict({k: params[k] for k in _ENV_KEYS if k in params})


def _parse_extra_params(tokens) -> dict:
    keys, values = tokens[::2], tokens[1::2]
    if len(keys) != len(values) or not all(k.startswith("--") for k in keys):
        raise InputError(f"expected '--key value' pairs, got {tokens!r}")
    return {k[2:]: v for k, v in zip(keys, values)}


def _load_params(ns, extra_tokens, name: str, allowed, required, structured=()) -> dict:
    """The --params JSON object overlaid with the '--key value' pairs.  Keys
    must lie in `allowed` and include `required`; every value but those named
    in `structured`, which the caller parses, must be a finite number."""
    raw = {}
    if ns.params:
        obj = json.loads(_read_arg_text(ns.params))
        if not isinstance(obj, dict):
            raise InputError("--params must be a JSON object")
        raw.update(obj)
    raw.update(_parse_extra_params(extra_tokens))
    unknown = set(raw) - set(allowed)
    if unknown:
        raise InputError(f"unknown parameter(s) for {name}: {sorted(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise InputError(f"{name} missing parameter(s): {missing}")
    for k, v in raw.items():
        if k not in structured:
            try:
                raw[k] = _finite(v)
            except argparse.ArgumentTypeError as exc:
                raise InputError(f"parameter {k} of {name}: {exc}") from exc
    return raw


def _cmd_bound(ns, extra_tokens) -> int:
    from . import bounds as bd
    name = ns.name
    if name == "gk_moment":
        return _cmd_bound_gk(ns, extra_tokens)
    if name == "bcg_moment_bound":
        return _cmd_bound_bcg_chain(ns, extra_tokens)
    if name not in bd._BOUNDS:
        raise InputError(f"unknown bound {name!r}; known: "
                         f"{sorted(bd._BOUNDS) + ['gk_moment', 'bcg_moment_bound']}")
    bound = bd._BOUNDS[name]
    allowed = set(bound.required) | set(bound.optional)
    if bound.swept:
        allowed |= {"t", "u"}
    if bound.needs_env:
        allowed |= set(_ENV_KEYS)
    params = {**bound.optional,
              **_load_params(ns, extra_tokens, name, allowed, bound.required)}
    env = _env_from(params) if bound.needs_env else None
    spec = _psi(ns, name) if bound.needs_psi else None
    config = {"bound": name, "params": params}
    if env is not None:
        config["env"] = ps.env_to_dict(env)
    if spec is not None:
        config["psi"] = ps.psi_to_dict(spec)
    t = None
    if ns.grid:
        if not bound.swept:
            raise InputError(f"{name} is not a profile; --grid not supported")
        t = _parse_grid(ns.grid)
        config["grid"] = [float(t[0]), float(t[-1]), int(len(t))]
    elif bound.swept:
        t = config["t"] = params.pop("u", params.pop("t", None))
        if t is None:
            raise InputError(f"{name} needs --t/--u or --grid")
    value = bound(params, env, spec, t)
    _emit_result(config, {"t": t, "bound": value} if ns.grid else value, ns.out, ns.format)
    return 0


def _cmd_bound_gk(ns, extra_tokens) -> int:
    from . import bounds as bd
    keys = ("x", "s", "p")
    raw = _load_params(ns, extra_tokens, "gk_moment", keys, keys, structured=("x",))
    try:
        x = (_parse_vector(raw["x"]) if isinstance(raw["x"], str)
             else np.asarray(raw["x"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise InputError(f"x must be a list of numbers: {exc}") from exc
    phi, p = ps.PhiSpec(s=raw["s"]), raw["p"]
    config = {"bound": "gk_moment", "x": x.tolist(), "s": phi.s, "p": p}
    _emit_result(config, bd.gk_moment(x, phi, p), ns.out, ns.format)
    return 0


def _cmd_bound_bcg_chain(ns, extra_tokens) -> int:
    from . import bounds as bd
    keys = ("L", "p", "dk_norm", "hess_op_mp", "higher")
    raw = _load_params(ns, extra_tokens, "bcg_moment_bound", keys, keys, structured=("higher",))
    higher = raw["higher"]
    try:
        if isinstance(higher, str):
            higher = json.loads(higher)
        higher = [(_order(m), _finite(v)) for m, v in higher]
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"higher must be a list of [m, value] pairs: {exc}") from exc
    L, p, dk, hop = raw["L"], raw["p"], raw["dk_norm"], raw["hess_op_mp"]
    config = {"bound": "bcg_moment_bound", "L": L, "p": p, "dk_norm": dk,
              "hess_op_mp": hop, "higher": [[m, v] for m, v in higher]}
    _emit_result(config, bd.bcg_moment_bound(L, p, higher, dk, hop), ns.out, ns.format)
    return 0


# ---------------------------------------------------------------------------
# other subcommands

def _cmd_norm(ns, _extra) -> int:
    spec = _psi(ns, "norm")
    if (ns.x is None) == (ns.x_file is None):
        raise InputError("provide exactly one of --x or --x-file")
    if ns.x is not None:
        X = _parse_vector(ns.x)[None, :]
    else:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: refused below
                X = np.loadtxt(ns.x_file, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InputError(f"malformed --x-file {ns.x_file!r}: {exc}") from exc
        if X.size == 0:
            raise InputError(f"--x-file {ns.x_file!r} has no rows")
    config = {"command": "norm", "psi": ps.psi_to_dict(spec), "p": ns.p}
    vals = ps.psi_p_norm_rows(spec, ns.p, X)
    payload = float(vals[0]) if vals.size == 1 and ns.x is not None else {"norm": vals}
    _emit_result(config, payload, ns.out, ns.format)
    return 0


def _cmd_conjugate(ns, _extra) -> int:
    from . import conjugacy as cj
    spec = _psi(ns, "conjugate")
    if sum([ns.grid is not None, ns.y is not None, ns.support]) != 1:
        raise InputError("choose exactly one of --grid, --y, --support")
    config = {"command": "conjugate", "psi": ps.psi_to_dict(spec)}
    if ns.grid is not None:
        ts = _parse_grid(ns.grid)
        config["grid"] = [float(ts[0]), float(ts[-1]), int(len(ts))]
        table = cj.profile_table(spec, ts)
        result = dict(zip(("t", "omega", "omega_inv", "omega_star", "lambda"), table.T))
    elif ns.y is not None:
        y = _parse_vector(ns.y)
        config["y"] = y.tolist()
        result = cj.psi_star(spec, y)
    else:
        if ns.theta is None or ns.p is None:
            raise InputError("--support requires --p and --theta")
        theta = _parse_vector(ns.theta)
        config.update({"p": ns.p, "theta": theta.tolist()})
        result = cj.support_function(spec, ns.p, theta)
    _emit_result(config, result, ns.out, ns.format)
    return 0


def _cmd_tensor(ns, _extra) -> int:
    from . import tensors as tn
    A = tn.load_matrix(ns.matrix)
    config = {"command": "tensor", "op": ns.op, "matrix": ns.matrix,
              "k": A.k, "n": A.n}
    if ns.op == "symmetrize":
        if not ns.out:
            raise InputError("symmetrize requires --out for the result matrix")
        tn.save_matrix(tn.symmetrize(A), ns.out)
        return 0
    if ns.op in ("eval", "gradient"):
        if ns.x is None:
            raise InputError(f"{ns.op} requires --x")
        x = _parse_vector(ns.x)
        config["x"] = x.tolist()
        result = (tn.eval_form if ns.op == "eval" else tn.form_gradient)(A, x)
    elif ns.op == "partition":
        if ns.r is None:
            raise InputError("partition requires --r")
        config.update({"r": ns.r, "restarts": ns.restarts, "seed": ns.seed})
        norms = tn.partition_norms(A, ns.r, restarts=ns.restarts, seed=ns.seed)
        result = {key: [getattr(norms, key)]
                  for key in ("hs", "op", "entry_lr", "mixed_2_rstar", "rstar_rstar")}
    else:
        spec = _psi(ns, "chaos")
        if ns.p is None:
            raise InputError("chaos requires --p")
        config.update({"psi": ps.psi_to_dict(spec), "p": ns.p,
                       "restarts": ns.restarts, "seed": ns.seed})
        result = tn.chaos_deterministic_term(A, spec, ns.p, restarts=ns.restarts, seed=ns.seed)
    _emit_result(config, result, ns.out, ns.format)
    return 0


_FAMILIES = ("gaussian", "phi_tail", "nu")  # the --family choices


def _family(ns):
    """The --family measure on R^n (--n); phi_tail's tails are exp(-t^s) (--phi-s)."""
    from . import measures as ms
    if ns.family == "nu":
        return ms.NuMeasure(n=ns.n)
    if ns.family == "phi_tail":
        return ms.ProductPhiTail(ps.PhiSpec(s=ns.phi_s), n=ns.n)
    return ms.StandardGaussian(n=ns.n)


def _cmd_sample(ns, _extra) -> int:
    from . import measures as ms
    if ns.format == "bin" and not ns.out:
        raise InputError("binary samples require --out")
    family = _family(ns)
    spec = ms.SamplerSpec(family=family, seed=ns.seed, count=ns.count)
    config = {"command": "sample", "seed": ns.seed, "count": ns.count, **family.meta()}
    ms.stream_samples(spec, ns.out or sys.stdout, fmt=ns.format,
                      header_lines=["config: " + json.dumps(config, sort_keys=True)])
    return 0


def _build_function(ns, dim: int) -> em.TestFunction:
    from . import empirics as em
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
        from . import tensors as tn
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


# verify's envelope keys a flag leaves unset; `enlargement` checks a bound
# only when at least one envelope flag is given
_VERIFY_ENV = {"K": 1.0, "alpha": 2.0, "beta": 2.0, "D": 2.0, "d": 0.0}


def _cmd_verify(ns, _extra) -> int:
    from . import empirics as em
    scenario = ns.scenario
    family = None if scenario == "nu-logp" else _family(ns)
    spec = (_psi(ns, f"verify {scenario}")
            if scenario in ("centered", "enlargement", "mlsi") else None)
    given = {k: getattr(ns, k) for k in _ENV_KEYS if getattr(ns, k) is not None}
    params = {**_VERIFY_ENV, **given}
    env = (_env_from(params)
           if scenario == "centered" or (scenario == "enlargement" and given) else None)
    if scenario == "nu-logp":
        rep = em.verify_nu_logp(_parse_vector(ns.p_grid), ns.N, ns.seed)
    elif scenario == "comparison":
        rep = em.comparison_check(family, ps.PhiSpec(s=ns.phi_s), _build_function(ns, family.n),
                                  _parse_vector(ns.p_grid), ns.N, ns.seed)
    elif scenario == "mlsi":
        rep = em.mlsi_report(family, _build_function(ns, spec.dim), spec, params["D"], ns.N,
                             ns.seed)
    elif scenario == "centered":
        rep = em.verify_centered(family, _build_function(ns, spec.dim), spec, env,
                                 _parse_vector(ns.p_grid), ns.N, ns.seed, C=ns.C)
    else:
        rep = em.enlargement_mc(family, ns.m, spec, _parse_vector(ns.u_grid),
                                ns.N, ns.seed, env=env, C_impl=ns.C)
    if ns.format == "csv" and ns.out:
        rep.to_csv(ns.out)
    else:
        _emit_json(rep.to_json_dict(), ns.out)
    return 0 if rep.passed else 1


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
    p.set_defaults(run=_cmd_norm)
    p.add_argument("--psi", required=True, help="PsiSpec JSON (or @file)")
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--x", help="comma-separated coordinates")
    p.add_argument("--x-file", help="CSV of row vectors")
    common(p)

    p = sub.add_parser("conjugate", description="omega/omega*/lambda tables and Psi*")
    p.set_defaults(run=_cmd_conjugate)
    p.add_argument("--psi", required=True)
    p.add_argument("--grid", help="lo,hi,count log-spaced t grid for the profile table")
    p.add_argument("--y", help="evaluate Psi* at this vector")
    p.add_argument("--support", action="store_true",
                   help="support function of {Psi* <= p} (needs --p, --theta)")
    p.add_argument("--p", type=_finite)
    p.add_argument("--theta")
    common(p)

    p = sub.add_parser("bound", description="closed-form bound evaluators")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("name")
    p.add_argument("--params", help="JSON object of parameters (or @file)")
    p.add_argument("--psi", help="PsiSpec JSON for psi-dependent bounds")
    p.add_argument("--grid", help="lo,hi,count sweep for profile bounds")
    common(p)

    p = sub.add_parser("tensor", description="multi-index form operations")
    p.set_defaults(run=_cmd_tensor)
    p.add_argument("--matrix", required=True, help="matrix path (text or .json)")
    p.add_argument("--op", required=True,
                   choices=("eval", "gradient", "symmetrize", "partition", "chaos"))
    p.add_argument("--x")
    p.add_argument("--r", type=_finite)
    p.add_argument("--p", type=_finite)
    p.add_argument("--psi")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("sample", description="reference-measure sampling")
    p.set_defaults(run=_cmd_sample)
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--phi-s", type=_finite, default=2.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("bin", "csv"), default="csv")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", description="MC verification scenarios")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("scenario",
                   choices=("centered", "nu-logp", "comparison", "enlargement", "mlsi"))
    p.add_argument("--psi")
    p.add_argument("--family", default="gaussian", choices=_FAMILIES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--phi-s", type=_finite, default=2.0)
    p.add_argument("--function", default="linear")
    p.add_argument("--theta")
    p.add_argument("--matrix")
    p.add_argument("--p-grid", default="2,4,8,16")
    p.add_argument("--u-grid", default="0.25,1,4")
    p.add_argument("--m", type=_finite, default=0.0)
    for key in _ENV_KEYS:  # defaults in _VERIFY_ENV
        p.add_argument(f"--{key}", type=_finite)
    p.add_argument("--C", type=_finite, default=1.0)
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
        if extra and ns.run is not _cmd_bound:  # bound reads '--key value' pairs
            raise InputError(f"unrecognized arguments: {extra}")
        _load_core()  # outside the filter: a warning on import is not exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return ns.run(ns, extra)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2
    except (NumericalError, RuntimeWarning) as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "message": str(exc)}) + "\n")
        return 3
    except (json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": "input", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
