"""Run one command and report its wall time, peak RSS and exit code.

    python3 perfbench/launch.py '{"argv": [...], "cwd": ..., "stdout": ..., "stderr": ..., "env": {...}}'

Prints one JSON line: {"wall_s", "peak_rss_mb", "returncode"}.

The orchestrator starts commands through this small process because a forked
child's peak RSS (ru_maxrss) includes the memory of the process it was
forked from; forking from this launcher keeps that floor at a few MB instead
of the orchestrator's numpy and scipy.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150


def run(argv: list[str], cwd: str, stdout: str, stderr: str, env: dict) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "returncode": proc.returncode}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print(json.dumps(run(spec["argv"], spec["cwd"], spec["stdout"], spec["stderr"], spec["env"])))
