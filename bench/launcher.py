"""Process launcher of the benchmark.

On Linux a child's max-RSS also counts the memory of the process that
spawned it, so ``run.py`` does not spawn the timed processes itself.  It
starts this small interpreter once and sends it one request per line:

    LIMIT_S \\0 STDOUT_PATH \\0 STDERR_PATH \\0 ARG0 \\0 ARG1 ...

The launcher runs the command with stdout and stderr redirected to the two
files, kills it (SIGKILL) when it runs over LIMIT_S seconds, reaps it and
answers with one line: ``exit maxrss_kib timed_out seconds``.  It exits at
the end of its input.  Keep its imports minimal.
"""

import os
import select
import signal
import sys
import time


def main() -> int:
    for line in sys.stdin:
        limit_s, out_path, err_path, *argv = line.rstrip("\n").split("\0")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = not poller.poll(float(limit_s) * 1000)
            if timed_out:  # the child is unreaped, so its pid cannot be reused
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, int(timed_out), seconds, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
