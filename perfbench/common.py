"""Measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "cpu_s",
    "median",
    "PeakTreeRss",
    "percentile",
    "private_tmp",
    "tree_cpu_s",
]


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def cpu_s() -> float:
    """User+system CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _stat_fields(pid) -> list[bytes]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    with open(f"/proc/{pid}/stat", "rb") as stat:
        return stat.read().rsplit(b")", 1)[1].split()


def _tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    parent = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            parent[int(entry.name)] = int(_stat_fields(entry.name)[1])
        except (OSError, IndexError):
            continue  # the process ended while we looked
    tree = []
    for pid in parent:
        p = pid
        while p in parent and p != root:
            p = parent[p]
        if p == root:
            tree.append(pid)
    return tree


def tree_cpu_s() -> float:
    """``cpu_s()`` plus the CPU of live descendants (pool workers, say).

    A child's time moves from its ``/proc`` entry into ``RUSAGE_CHILDREN``
    when it is reaped, so the sum does not jump as workers exit.
    """
    tick = os.sysconf("SC_CLK_TCK")
    total = cpu_s()
    root = os.getpid()
    for pid in _tree(root):
        if pid == root:
            continue
        try:
            fields = _stat_fields(pid)
            total += (int(fields[11]) + int(fields[12])) / tick  # utime, stime
        except (OSError, IndexError):
            continue
    return total


def _tree_hwm_kb(root: int) -> int:
    """Summed peak RSS (VmHWM) of ``root`` and every live descendant, in KiB."""
    total = 0
    for pid in _tree(root):
        try:
            with open(f"/proc/{pid}/status", "rb") as status:
                for line in status:
                    if line.startswith(b"VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


class PeakTreeRss:
    """Peak memory of this process and its children together, in MiB.

    A thread samples the process tree every ``interval_s`` while the
    context is open and sums the peak RSS (VmHWM) of the processes alive
    at that moment; the result is the largest such sum.  Summing peaks,
    not current RSS, keeps the figure independent of where in its work
    each child happened to be when sampled.  (``RUSAGE_CHILDREN`` cannot
    give this: it is the peak of the largest reaped child, not a sum over
    children alive together.)  The peak of the largest reaped child bounds
    the result from below, for children shorter than the interval.
    """

    def __init__(self, interval_s: float = 0.2) -> None:
        self.interval_s = interval_s
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        root = os.getpid()
        while True:
            self._peak_kb = max(self._peak_kb, _tree_hwm_kb(root))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakTreeRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(self._peak_kb, own, child) / 1024.0


@contextmanager
def private_tmp(root: str):
    """A fresh directory under ``root``, used as TMPDIR for the run.

    ``REPRO_NATIVE_CACHE`` is restored on exit too: the serving set-up
    points it at a new directory inside this one each time.
    """
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=root)
    saved = {k: os.environ.get(k) for k in ("TMPDIR", "REPRO_NATIVE_CACHE")}
    os.environ["TMPDIR"] = path
    tempfile.tempdir = None
    try:
        yield path
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)
