"""One CLI child process: its wall time, rusage, exit code and output log.

Each child gets an address-space ceiling, so an unbounded allocation fails
that one run (MemoryError, nonzero exit) instead of exhausting the
machine's memory, and a time limit after which it is killed.
"""
from __future__ import annotations

import os
import resource
import subprocess
import threading
import time
from dataclasses import dataclass

MEMORY_CEILING = 2 << 30  # bytes of address space per child


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def run(argv: list[str], *, cwd: str, env: dict, log_path: str, timeout: float,
        ceiling: int = MEMORY_CEILING) -> ChildRun:
    """Run ``argv`` to completion, with stdout and stderr going to ``log_path``."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT, preexec_fn=limit_memory)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=killed.is_set(),
    )
