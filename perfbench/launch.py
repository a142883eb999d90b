"""Run one command and report its exit code, wall time and peak RSS.

usage: python3 launch.py RESULT_JSON TIMEOUT_S CMD...

A child's ru_maxrss also counts the memory high-water mark of the process
that forked it. The benchmark process holds reference outputs and is
large, so it starts each CLI child through this small launcher, and the
figure is the CLI's own. Stdlib only, so that the launcher stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    result_path, timeout_s, cmd = argv[0], float(argv[1]), argv[2:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as f:
        json.dump({"code": proc.returncode, "wall_s": wall_s, "rss_mb": usage.ru_maxrss / 1024.0}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
