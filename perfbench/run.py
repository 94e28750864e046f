"""orlicz-conc benchmark: four workloads of user-level ops, each op in a
fresh interpreter, run strictly one after another by one closed-loop
client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 sets up the workload, then repeats passes through its op list
until S seconds are used, and reports the end-to-end metrics. Their times
are scaled to the reference host's speed by calibrate.py, timed between
ops; the raw seconds go into the context. --trace 1
runs one untraced pass and one pass under traced.py and reports the
per-layer metrics; the two passes must produce byte-identical outputs.
Every op's output is checked against references recorded from the seed
commit (perfbench/refs) and against closed-form oracles. The last stdout
line is the JSON result; a `# context:` line before it, and a file under
.bench_work/results, record the environment.

    python3 perfbench/run.py --workload NAME --record-refs 0-49 [--program-root DIR]

records references for those seeds from the program at DIR (a checkout of
the parent commit), one pass per seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layers
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 160.0      # every run ends well inside 180 s
THREADS_ENV = "ORLICZ_CONC_THREADS"
HELP_PROBE = ("--help",)
PROBES_PER_PASS = 2
# calibrate.py's time on the reference host (2-vCPU Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1); end-to-end times are scaled to that speed
REFERENCE_S = 0.45


class Runner:
    """Runs ops of one workload in fresh interpreters inside a work dir."""

    def __init__(self, workload, seed, program_root: Path, workdir: Path):
        self.workload, self.seed = workload, seed
        self.root = program_root
        self.work = workdir
        self.py = sys.executable
        self.env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
        self.env.update(PYTHONPATH=str(program_root / "src"), TMPDIR=str(workdir))
        self.started = time.perf_counter()
        self.spawner = subprocess.Popen([self.py, str(BENCH / "spawner.py")], text=True,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    # -- processes ---------------------------------------------------------

    def spawn(self, argv, tag):
        """Run argv to completion through the spawner; returns wall seconds,
        exit code, peak RSS in MB, CPU seconds, stdout and stderr. stdout
        goes to a file, as a user redirecting it."""
        out_path, err_path = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        req = {"argv": argv, "cwd": str(self.work), "env": self.env, "stdout": str(out_path),
               "stderr": str(err_path), "timeout": max(1.0, min(OP_TIMEOUT_S, left))}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        rep = json.loads(self.spawner.stdout.readline())
        return (rep["wall_s"], rep["rc"], rep["maxrss_kb"] / 1024.0, rep["cpu_s"],
                out_path.read_bytes(), err_path.read_bytes())

    def close(self, abort=False):
        """Stop the spawner; on abort, also the op it is waiting for."""
        if abort:
            self.spawner.terminate()
        else:
            self.spawner.stdin.close()
        self.spawner.wait()

    def argv(self, op, spans_path=None):
        if op.kind == "cli":
            args = list(op.args)
            head = ["-m", "orlicz_conc.cli"]
        elif op.kind == "script":
            args = [str(self.root / "scripts" / op.args[0]), *op.args[1:]]
            head = []
        else:
            args = list(op.args)
            head = [str(BENCH / "libops.py")]
        if spans_path is None:
            return [self.py, *head, *args]
        return [self.py, str(BENCH / "traced.py"), str(spans_path), op.kind, *args]

    def run_op(self, op, traced=False):
        for name in op.files:
            (self.work / name).unlink(missing_ok=True)
        spans_path = self.work / f"{op.name}.spans.json" if traced else None
        wall, rc, rss_mb, cpu_s, out, err = self.spawn(self.argv(op, spans_path), op.name)
        files = {}
        for name in op.files:
            path = self.work / name
            files[name] = path.read_bytes() if path.exists() else b""
        res = {"op": op, "wall_s": wall, "rc": rc, "stdout": out, "stderr": err,
               "files": files, "rss_mb": rss_mb, "cpu_s": cpu_s}
        if traced and spans_path.exists():
            res["trace"] = json.loads(spans_path.read_text())
            spans_path.unlink()
        return res

    def _timed(self, argv):
        wall, rc, _, _, _, err = self.spawn(argv, "probe")
        if rc != 0:
            raise RuntimeError(f"{argv[1:]} exited {rc}: {err.decode(errors='replace')}")
        return wall

    def probe(self):
        return self._timed([self.py, "-m", "orlicz_conc.cli", *HELP_PROBE])

    def calibrate(self):
        return self._timed([self.py, str(BENCH / "calibrate.py")])

    def run_pass(self, ops, probes=False, traced=False):
        """One pass through the op list. With probes, PROBES_PER_PASS pairs
        of a --help probe and a calibration run are spread over it."""
        results, probe_walls, cal_walls = [], [], []
        at = {len(ops) * k // PROBES_PER_PASS for k in range(PROBES_PER_PASS)} if probes else ()
        for i, op in enumerate(ops):
            if i in at:
                probe_walls.append(self.probe())
                cal_walls.append(self.calibrate())
            results.append(self.run_op(op, traced))
        return results, probe_walls, cal_walls

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Build the inputs SETUP_REPS times (median is setup_s), then one
        untimed warm-up import of the CLI."""
        argv = [self.py, str(BENCH / "inputs.py"), self.workload, str(self.seed), "."]
        walls = []
        for _ in range(SETUP_REPS):
            wall, rc, _, _, _, err = self.spawn(argv, "setup")
            if rc != 0:
                raise RuntimeError(f"input generation failed: {err.decode(errors='replace')}")
            walls.append(wall)
        self.probe()
        params = json.loads((self.work / "params.json").read_text())
        return statistics.median(walls), workloads.WORKLOADS[self.workload](params)


# ---------------------------------------------------------------------------
# references

class References:
    """Checked-in references (perfbench/refs) with a fallback store in the
    work area for seeds not recorded there."""

    def __init__(self, workload, seed, root: Path):
        self.seed = str(seed)
        self.shipped = self._load(BENCH / "refs" / f"{workload}.json")
        self.local_path = root / ".bench_work" / "refs" / f"{workload}.json"
        self.local = self._load(self.local_path)
        self.sources = set()

    @staticmethod
    def _load(path):
        if path.exists():
            return json.loads(path.read_text())
        return {"seeded": {}, "unseeded": {}}

    def _slot(self, store, op):
        if op.seeded:
            return store["seeded"].setdefault(self.seed, {})
        return store["unseeded"]

    def get(self, op):
        ref = self._slot(self.shipped, op).get(op.name)
        if ref is not None:
            self.sources.add("recorded")
            return ref
        ref = self._slot(self.local, op).get(op.name)
        if ref is not None and ref["args_sha256"] == args_sha256(op):
            self.sources.add("first-run")
            return ref
        return None

    def add_local(self, op, fp):
        self._slot(self.local, op)[op.name] = fp
        self.sources.add("first-run")

    def save_local(self):
        self.local_path.parent.mkdir(parents=True, exist_ok=True)
        self.local_path.write_text(json.dumps(self.local, sort_keys=True, indent=1))


def args_sha256(op) -> str:
    return hashlib.sha256(json.dumps([op.kind, *op.args]).encode()).hexdigest()


def fingerprint(res) -> dict:
    fp = check.fingerprint(res["rc"], res["stdout"], res["stderr"], res["files"])
    fp["args_sha256"] = args_sha256(res["op"])
    return fp


def check_result(res, refs: References, workdir: Path):
    """None when the op's outcome is correct, else the reason; also kept in
    res["failure"]."""
    res["failure"] = _check(res, refs, workdir)
    return res["failure"]


def _check(res, refs, workdir):
    op, rc, err = res["op"], res["rc"], res["stderr"]
    stdout_text = res["stdout"].decode(errors="replace")
    fp = fingerprint(res)
    if b"Traceback" in err:
        return "traceback on stderr"
    if op.known_failure and rc == 0:
        return check.fixed_failure_ok(stdout_text)
    if op.known_failure and not (rc == 3 and op.known_failure.encode() in err):
        return f"exit {rc}, expected the recorded failure {op.known_failure!r}"
    ref = refs.get(op)
    if ref is None:
        if rc != 0 and not op.known_failure:
            return f"exit code {rc}: {err.decode(errors='replace').strip()}"
        refs.add_local(op, fp)
    else:
        reason = check.compare(ref, fp)
        if reason:
            return reason
    if rc == 0:
        return check.oracle(op.oracle, stdout_text, str(workdir))
    return None


# ---------------------------------------------------------------------------
# context

def context(root: Path) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "src_lines": src_lines,
            # Runner removes it from every op's environment: one worker
            THREADS_ENV: "unset"}


# ---------------------------------------------------------------------------
# the two kinds of run

def measure(runner, ops, refs, seconds, setup_s):
    """Untraced passes until `seconds` are used; end-to-end metrics, and the
    raw seconds and speed factor behind them."""
    passes, probe_walls, cal_walls, failures = [], [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        results, probes, cals = runner.run_pass(ops, probes=True)
        longest = max(longest, time.perf_counter() - t0)
        passes.append(results)
        probe_walls.extend(probes)
        cal_walls.extend(cals)
        for res in results:
            reason = check_result(res, refs, runner.work)
            if reason:
                failures.append(f"{res['op'].name}: {reason}")
        now = time.perf_counter()
        if now - start + longest > seconds or now - runner.started + longest > RUN_BUDGET_S:
            break
    attempted = sum(len(p) for p in passes)
    ok = sum(1 for p in passes for r in p if r["rc"] == 0 and not r["failure"])
    # a pass's wall time as the sum of per-op medians, so that a slow spell
    # of the machine during one op of one pass does not move the result
    raw = {"wall_s": sum(statistics.median(p[i]["wall_s"] for p in passes)
                         for i in range(len(ops))),
           "cold_start_s": statistics.median(probe_walls),
           "setup_s": setup_s}
    speed = REFERENCE_S / statistics.median(cal_walls)
    metrics = {name: (value * speed, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (statistics.median(max(r["rss_mb"] for r in p) for p in passes),
                              "MB")
    metrics["op_ok_rate"] = (ok / attempted, "ratio")
    return passes, failures, metrics, {"raw_seconds": raw, "speed_factor": speed}


def traced_run(runner, ops, refs):
    """One untraced and one traced pass; per-layer metrics."""
    failures = []
    plain = runner.run_pass(ops)[0]
    traced = runner.run_pass(ops, traced=True)[0]
    identical = 0
    for a, b in zip(plain, traced):
        for res in (a, b):
            reason = check_result(res, refs, runner.work)
            if reason:
                failures.append(f"{res['op'].name}: {reason}")
        if (a["stdout"], a["files"], a["rc"]) == (b["stdout"], b["files"], b["rc"]):
            identical += 1
        else:
            failures.append(f"{a['op'].name}: traced output differs from untraced output")
    spans = [layers.OpSpans(r.get("trace", {}).get("spans", [])) for r in traced]
    metrics = layers.aggregate(spans)
    covers = [layers.span_cover(s, r["wall_s"]) for s, r in zip(spans, traced)]
    plain_wall = sum(r["wall_s"] for r in plain)
    metrics.update({
        "cli.import_s": layers.median_or_zero(
            [r["trace"]["import_s"] for r in traced if "trace" in r]),
        "proc.cpu_s": sum(r["cpu_s"] for r in plain),
        "proc.wall_s": plain_wall,
        "trace.overhead_s": sum(r["wall_s"] for r in traced) - plain_wall,
        "trace.span_cover_min": min(covers),
        "trace.span_cover_median": statistics.median(covers),
        "trace.outputs_identical_frac": identical / len(ops),
    })
    per_op = {r["op"].name: {"cover": c, "wall_s": r["wall_s"]} for r, c in zip(traced, covers)}
    return ([plain, traced], failures, {k: (v, layers.unit(k)) for k, v in metrics.items()},
            per_op)


def record(args, program_root):
    """Write references for the given seeds from the program at program_root."""
    path = BENCH / "refs" / f"{args.workload}.json"
    store = json.loads(path.read_text()) if path.exists() else {"seeded": {}, "unseeded": {}}
    lo, _, hi = args.record_refs.partition("-")
    for seed in range(int(lo), int(hi or lo) + 1):
        workdir = program_root / ".bench_work" / f"record-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = Runner(args.workload, seed, program_root, workdir)
        try:
            _, ops = runner.setup()
            slots = {op.name: store["seeded"].setdefault(str(seed), {}) if op.seeded
                     else store["unseeded"] for op in ops}
            todo = [op for op in ops if op.name not in slots[op.name]]
            for res in runner.run_pass(todo)[0]:
                op = res["op"]
                slots[op.name][op.name] = fingerprint(res)
                if b"Traceback" in res["stderr"]:
                    sys.stderr.write(f"seed {seed} {op.name}: traceback\n")
            sys.stderr.write(f"recorded seed {seed}\n")
        finally:
            runner.close()
            shutil.rmtree(workdir, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(store, sort_keys=True, separators=(",", ":")) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", metavar="LO-HI")
    ap.add_argument("--program-root", type=Path, default=BENCH.parent)
    args = ap.parse_args()
    # a terminated run still stops the op it is waiting for (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = args.program_root.resolve()
    if not (root / "src" / "orlicz_conc" / "cli.py").is_file() or not (root / "scripts").is_dir():
        sys.stderr.write(f"no orlicz-conc program under {root} (src/orlicz_conc, scripts/)\n")
        return 2
    if args.record_refs:
        record(args, root)
        return 0

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = References(args.workload, args.seed, root)
    runner = Runner(args.workload, args.seed, root, workdir)
    finished = False
    try:
        setup_s, ops = runner.setup()
        extra = {}
        if args.trace:
            passes, failures, metrics, per_op = traced_run(runner, ops, refs)
        else:
            passes, failures, metrics, extra = measure(runner, ops, refs, args.seconds, setup_s)
            per_op = {op.name: {"wall_s": statistics.median(p[i]["wall_s"] for p in passes),
                                "rss_mb": max(p[i]["rss_mb"] for p in passes)}
                      for i, op in enumerate(ops)}
        refs.save_local()
        finished = True
    finally:
        runner.close(abort=not finished)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    ctx = context(root)
    ctx.update(workload=args.workload, seed=args.seed, trace=args.trace,
               passes=len(passes), references=sorted(refs.sources), failures=failures,
               ops=per_op, **extra)
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results_dir / f"{stamp}.json").write_text(
        json.dumps({"context": ctx, "result": result}, indent=1, sort_keys=True))
    for msg in failures:
        sys.stderr.write(f"FAILED {msg}\n")
    print("# context: " + json.dumps(ctx, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
