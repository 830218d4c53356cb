"""Spawn benchmark jobs from a small process, one request per stdin line.

run.py starts this once, with the jobs' environment and working directory.
Exec records the high-water RSS of the image it replaces in the new
program's peak RSS, and a job forked from run.py would start from a copy of
run.py with all the outputs it holds.  Jobs spawned here start from this
interpreter, smaller than any job, so their peak RSS is their own.

A request is the JSON list ``[argv, stdout_path, stderr_path, timeout_s]``;
the reply is ``[exit_code, timed_out, wall_s, maxrss_kb, cpu_s]``, where
the rusage of the process includes its reaped children (pool workers).
"""

import json
import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def run(argv: list[str], out_path: str, err_path: str, timeout: float) -> list:
    killed = []

    def kill(signum, frame):
        killed.append(signum)
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited as the timer fired
            pass

    # a fresh file each time: on ext4, truncating a file just written makes
    # its next close wait for writeback, which showed up as job latency
    for path in (out_path, err_path):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, WRITE, 0o644)]
    signal.signal(signal.SIGALRM, kill)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions, setsid=True)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return [os.waitstatus_to_exitcode(status), bool(killed), wall, usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
