"""Runs one program process and reports its wall time and peak resident set.

    python3 -I -S bench/launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

The program gets this process's environment and working directory, with its
standard output and error written to the two files.  The last line printed
is a JSON object: ``returncode``, ``wall_s`` (spawn to exit) and
``peak_rss_kb``, the largest resident set of the program or any worker it
reaped (``wait4`` rusage).

Linux carries a process's high-water RSS across ``execve``, so the peak
reported for a program is at least the RSS of the process that spawned it.
This launcher imports nothing beyond the standard library's core modules,
which keeps that floor a few MB, well below what the program itself uses.
"""
import json
import os
import sys
import time


def main() -> int:
    stdout_path, stderr_path, *argv = sys.argv[1:]
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, create, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, create, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    print(json.dumps({
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "peak_rss_kb": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
