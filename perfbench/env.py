"""Process state the benchmark pins, and the host facts it records.

``pin_process_state`` must run before ``repro`` or numpy is imported:

- ``PYTHONHASHSEED`` is fixed at 0 (the interpreter reads it only at
  start-up, so the process re-executes itself once when it differs);
- numerical libraries get one thread each, so a library workload uses
  one core for tuning and never more than the host's two;
- an ambient ``LAMBDA_TUNE_CACHE_DIR`` is removed, so no artifact cache
  leaks into a workload that is meant to run without one;
- ``src/`` of the checkout goes on ``sys.path``.  A directory without
  the program's sources is an error, not a silent no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import platform
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CACHE_ENV = "LAMBDA_TUNE_CACHE_DIR"
#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36
#: How long ``stop_children`` lets children end on their own.
CHILD_GRACE_S = 10.0


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def pin_process_state() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    os.environ.pop(CACHE_ENV, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def adopt_orphans() -> None:
    """Become the reaper of every descendant that outlives its parent.

    A pool child or a ``multiprocessing`` resource tracker that is left
    behind then stays this process's child, so ``stop_children`` can
    wait for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid())
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                parent = handle.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue  # exited while we looked
        if parent == me:
            found.append(int(pid))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The ``multiprocessing`` resource tracker (started by the service's
    shared-memory catalog stats) runs until its pipe closes, which would
    be only after this process exits; it is told to stop here.  Any other
    child gets ``CHILD_GRACE_S`` to end on its own and is then killed.
    """
    from multiprocessing import resource_tracker

    with contextlib.suppress(ChildProcessError):
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + CHILD_GRACE_S
    while pids := children():
        late = time.monotonic() >= deadline
        for pid in pids:
            if late:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0 if late else os.WNOHANG)
        time.sleep(0.02)


def usable_cores() -> list[int]:
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def rotating_cores():
    """Yield a function that moves this process to the next usable core.

    On a shared host, interference from other tenants differs per core
    and changes within seconds (on the 2-vCPU development host, tune
    throughput measured on the two cores in the same 2-s block correlated
    at 0.15).  A single-threaded run that stays on one core samples that
    core's luck; spreading its tunes evenly over every usable core
    averages it.  The full affinity is restored on exit.
    """
    cores = usable_cores()
    turn = itertools.cycle(cores)
    try:
        yield lambda: os.sched_setaffinity(0, {next(turn)})
    finally:
        os.sched_setaffinity(0, cores)


def calibration_seconds(rounds: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop (information only)."""
    start = time.perf_counter()
    total = 0
    for i in range(rounds):
        total += i * i % 7
    return time.perf_counter() - start


def speed_probe() -> float:
    """Wall time of a short fixed loop: the host's speed right now.

    About 10 ms on an idle 2-vCPU Xeon core, twice that when the core's
    hardware sibling is busy.  It only detects a change of host state
    during a run; it never scales a metric.
    """
    return calibration_seconds(100_000)


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "usable_cores": len(usable_cores()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "calibration_loop_s": calibration_seconds(),
    }
