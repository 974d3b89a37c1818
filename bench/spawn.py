"""Run one command and write its wall time, CPU time and peak RSS as JSON.

Usage: python3 bench/spawn.py RESULT_JSON ARGV...

A child's ``ru_maxrss`` includes the memory of the process it was forked
from, so the benchmark does not start commands itself: its own memory
grows with the inputs it generates and checks.  This small process starts
them instead and reads their usage from ``os.wait4``, which includes
reaped grandchildren such as pool workers.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
