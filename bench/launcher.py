"""Starts and measures benchmark invocations on behalf of run.py.

    python3 bench/launcher.py

Reads one JSON request per line on standard input ({"argv", "env", "log",
"timeout"}), runs that command to completion, and answers with one JSON
line: the launch time on the monotonic clock, the wall time from launch to
exit, the exit code and the child's peak resident set from its rusage.

The launcher imports only the standard library, so its own resident set
stays small. That matters because on Linux a child's ru_maxrss starts from
the high-water mark of the process that spawned it; run.py loads whole
output tables to check them and would inflate every child's figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(request["argv"], env=request["env"],
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"start": start, "wall_s": wall, "exit": proc.returncode,
            "maxrss_kib": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
