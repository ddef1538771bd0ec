"""Run one child process and report its wall time, exit code and peak RSS.

    python3 perfbench/spawn.py TIMEOUT LOG ARGV...

Linux carries a parent's peak RSS into its child across fork and exec,
so a child started straight from the benchmark process (which holds
numpy and the check's data) would report at least the benchmark's own
peak.  This launcher imports nothing heavy, starts ARGV with its output
in LOG, kills it if it is still running after TIMEOUT seconds, reaps it
with wait4, and prints one JSON line:
{"rc": ..., "wall_s": ..., "peak_rss_mb": ...}.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, log_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": proc.returncode, "wall_s": wall,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
