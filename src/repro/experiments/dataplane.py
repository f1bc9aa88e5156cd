"""What is left of the retired shared-memory dataset plane.

Cohort workers now inherit the parent's realized records through fork
(see :class:`~repro.experiments.runner.CohortRunner`), so nothing in
this package publishes a segment any more.  This stub exists only for
the imports of ``perfbench/cohort.py``, which reads :func:`perf_stats`
and checks :func:`leaked_segments`; it goes when perfbench stops
importing it.
"""

from __future__ import annotations

import os

__all__ = ["leaked_segments", "perf_stats"]

#: Name prefix the retired plane gave its ``/dev/shm`` segments.
SEGMENT_PREFIX = "sift_plane_"


def perf_stats() -> dict[str, float]:
    """Publish counters: always zero, nothing publishes."""
    return {"publishes": 0, "publish_s": 0.0}


def leaked_segments() -> list[str]:
    """Names of plane segments present in ``/dev/shm`` (``[]`` without one)."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)
        )
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
