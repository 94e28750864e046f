"""Run one op in this interpreter with spans around every layer call.

    python3 perfbench/traced.py <spans.json> <kind> <args...>

kind is "cli", "script" or "lib", as in workloads.Op. The layer modules are
imported first (the import is timed), then each public function of cli, psi,
measures, empirics, bounds, conjugacy and tensors is replaced by a wrapper
at every module attribute that refers to it, including the package
namespace the scripts import from. Calls between layers, and calls inside a
layer through its module globals, then pass through the wrappers. The op's
stdout is left untouched; spans stay in memory and are written once, at
exit, to <spans.json>.

A span is [name, layer, enter, start, end, exit, parent, work, error]:
start..end is the call itself, enter..start and end..exit the wrapper's own
bookkeeping, which the parent's self time excludes.
"""

import functools
import inspect
import json
import runpy
import sys
import time

_t0 = time.perf_counter()
import orlicz_conc  # noqa: E402
import orlicz_conc.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

from orlicz_conc import (bounds, cli, conjugacy, empirics, measures, psi,  # noqa: E402
                         tensors)

LAYERS = {"cli": cli, "psi": psi, "measures": measures, "empirics": empirics,
          "bounds": bounds, "conjugacy": conjugacy, "tensors": tensors}

# Test-function factories: the f and grad handles they return get spans too.
TESTFN_FACTORIES = {"linear", "quadratic_form", "euclidean_norm", "max_coordinate",
                    "exp_tilt", "halfspace_distance"}


def _rows_and_unique(args, kwargs):
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(args[2], dtype=float)))
    row = np.dtype((np.void, X.dtype.itemsize * X.shape[1]))
    return {"rows": X.shape[0], "unique": int(np.unique(X.view(row)).size)}


def _values(args, kwargs):
    return {"values": int(np.asarray(args[0]).size)}


def _points(args, kwargs):
    return {"points": len(args[1])}


def _custom_phi(args, kwargs):
    family = args[0]
    custom = isinstance(family, measures.ProductPhiTail) and family.phi.fn is not None
    return {"custom": int(custom)}


def _count(pre, args, kwargs):
    """Work counts never change what the program sees: a call whose
    arguments a counter cannot read is traced without them."""
    try:
        return pre(args, kwargs)
    except (TypeError, ValueError, IndexError, AttributeError):
        return {}


# name -> work counter, run in the wrapper's bookkeeping before the call
PRE_COUNTERS = {"psi_p_norm_rows": _rows_and_unique,
                "empirical_moment": _values, "empirical_entropy": _values,
                "batch_se": _values, "top_mass_fraction": _values,
                "profile_table": _points, "sample_chunk": _custom_phi}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        pre = PRE_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            span = [name, layer, enter, 0.0, 0.0, 0.0, stack[-1] if stack else -1,
                    _count(pre, args, kwargs) if pre else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[3] = clock()
                result = fn(*args, **kwargs)
                span[4] = clock()
            except BaseException as exc:
                span[4] = clock()
                span[8] = type(exc).__name__
                raise
            else:
                tracer.post(span, result)
                return result
            finally:
                stack.pop()
                span[5] = clock()

        return wrapper

    def post(self, span, result):
        name = span[0]
        if name == "sample_chunk":
            span[7]["values"] = int(result.size)
        elif name == "main":
            span[7] = {"rc": result}
        elif name in TESTFN_FACTORIES:
            result.f = self.wrap(f"{name}.f", "empirics", result.f)
            result.grad = self.wrap(f"{name}.grad", "empirics", result.grad)

    def install(self):
        wrappers = {}
        for layer, mod in LAYERS.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                # cli's helpers are private; elsewhere only the public API.
                # _fmt formats one number and would cost more than it measures.
                if name.startswith("_") and (layer != "cli" or name == "_fmt"):
                    continue
                wrappers[obj] = self.wrap(name, layer, obj)
        for mod in (orlicz_conc, *LAYERS.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])


def run_op(kind, args):
    if kind == "cli":
        return cli.main(list(args))
    if kind == "script":
        sys.argv = list(args)
        try:
            runpy.run_path(args[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code or 0
        return 0
    if kind == "lib":
        import libops  # this file's directory is sys.path[0]
        libops.main(list(args))
        return 0
    raise SystemExit(f"unknown op kind {kind!r}")


def main(argv):
    out_path, kind, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = run_op(kind, args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
