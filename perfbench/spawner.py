"""Start ops for run.py and report their wall time and resource usage.

    python3 perfbench/spawner.py

A child's peak RSS (ru_maxrss) also counts the memory of the process it was
started from, so ops start from this small process rather than from
run.py, whose memory grows with the outputs it checks.

One JSON request per stdin line, {"argv", "cwd", "env", "stdout", "stderr",
"timeout"}; one JSON reply per stdout line, {"wall_s", "rc", "maxrss_kb",
"cpu_s"}. SIGTERM stops the op being waited for, then this process.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
