"""Shared helpers: locating the program, statistics, host covariates."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import resource
import signal
import statistics
import sys
import time

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Scratch output (span dumps) inside the checkout; ignored by git.
OUT_DIR = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    """The benchmark cannot run here (e.g. the program's source is absent)."""


def use_program_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail if absent.

    Child processes started with ``spawn`` inherit ``sys.path``, so sweep
    workers import the same tree.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program source not found under {SRC}")
    for path in (ROOT, SRC):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    parts = [SRC, ROOT]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty list."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


#: The calibration chunk: a fixed pure-Python loop of ``CHUNK_ITERS``
#: iterations, and its time on the reference host.  Host seconds times
#: ``REF_CHUNK_S / chunk time`` are reference seconds: the time the same
#: work would take on a host where the chunk runs in ``REF_CHUNK_S``.
CHUNK_ITERS = 5000
REF_CHUNK_S = 0.0004


def chunk() -> float:
    """Host seconds for one calibration chunk."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK_ITERS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def to_reference(chunks: list[float]) -> float:
    """Factor turning host seconds into reference seconds.

    The host's speed drifts (other tenants share its cores; spells up
    to ~1.6x slower come and go within seconds and for minutes), and
    the chunks timed beside the work measure that speed.
    """
    return REF_CHUNK_S / median(chunks)


def calibrate(samples: int = 21) -> float:
    """Median chunk time now: the host-speed covariate of a run."""
    return median([chunk() for _ in range(samples)])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: ``prctl`` option making a process the reaper of its orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of any descendant orphaned under it.

    A child interpreter that uses ``multiprocessing`` leaves its
    resource-tracker process behind when it exits; with this set, that
    orphan is re-parented here, so :func:`stop_children` can reap it.
    Linux only; elsewhere a no-op.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and reap it.

    Python leaves the tracker to exit on its own once its parent has
    exited, so without this it outlives the process that started it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _child_pids() -> list[int]:
    own = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the parent pid follows ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == own:
            pids.append(int(entry))
    return pids


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every child process still running and wait for each to end.

    Called last, after every started process was shut down its own way:
    this catches the resource tracker and orphans adopted through
    :func:`adopt_orphans`, terminating (then killing) any still alive.
    """
    stop_resource_tracker()
    if not os.path.isdir("/proc"):
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in _child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return  # no child left
            if pid == 0:
                time.sleep(0.01)
