"""The perf trajectory: one builder, the ``BENCH_*.json`` files, the gate.

Every measured ``repro orchestrate`` pass ends as a sequence of
:class:`~repro.experiments.orchestrator.StudyRun` and
:func:`build_trajectory` folds them into one record: per-study
wall-clock, windows/second, serving tail latency, experiment-cache and
dataset-plane counter deltas, plus a machine calibration constant so
trajectories from different hosts compare.  :func:`write_trajectory`
stamps it to disk and :func:`compare_trajectories` is the CI regression
gate over two such records.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.experiments.orchestrator import StudyRun

__all__ = [
    "SCHEMA",
    "build_trajectory",
    "compare_trajectories",
    "load_trajectory",
    "write_trajectory",
]

#: Schema version stamped into every trajectory file.
SCHEMA = 1

_CACHE_KEYS = ("hits", "misses", "evictions")
_PLANE_KEYS = ("publishes", "publish_s", "attaches", "attach_s")


def _calibration_s() -> float:
    """Seconds this machine takes for a fixed numpy workload.

    Stamped into every trajectory so two records from different hosts
    (or a CI runner on a noisy neighbour) compare on *calibrated*
    wall-clock: the regression gate divides each study's wall-clock by
    its trajectory's calibration constant.  Best-of-five of a seeded
    matmul chain sized to tens of milliseconds -- long enough that
    scheduler jitter doesn't swing the constant (a noisy calibration
    would inject the very noise it exists to remove), dominated by the
    same BLAS/cache machinery as the hot paths it normalizes.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(16):
            a @ a
        best = min(best, time.perf_counter() - started)
    return best


def build_trajectory(
    runs: Sequence[StudyRun],
    quick: bool = False,
    jobs: int = 1,
) -> dict[str, Any]:
    """Fold study runs into one trajectory record.

    Only recomputed units count towards a study's wall-clock, windows,
    tail latency and counter deltas (a checkpoint hit measured nothing);
    every unit appears in ``units_detail``.
    """
    studies: dict[str, Any] = {}
    for run in runs:
        fresh = [unit for unit in run.units if not unit.cached]
        wall_s = run.wall_s
        n_windows = run.n_windows
        plane = {
            key: sum(unit.dataplane.get(key, 0) for unit in fresh)
            for key in _PLANE_KEYS
        }
        studies[run.name] = {
            # Serving studies report a tail latency; the worst recomputed
            # unit's p99 is the study's (a sum would be meaningless).
            "p99_ms": round(max((u.p99_ms for u in fresh), default=0.0), 4),
            "wall_s": round(wall_s, 6),
            "units": len(run.units),
            "recomputed_units": len(fresh),
            "cached_units": len(run.units) - len(fresh),
            "n_windows": n_windows,
            "windows_per_s": (
                round(n_windows / wall_s, 3) if wall_s > 0 and n_windows else 0.0
            ),
            "cache": {
                key: sum(int(unit.cache.get(key, 0)) for unit in fresh)
                for key in _CACHE_KEYS
            },
            "dataplane": {
                "publishes": int(plane["publishes"]),
                "publish_s": round(plane["publish_s"], 6),
                "attaches": int(plane["attaches"]),
                "attach_s": round(plane["attach_s"], 6),
            },
            "units_detail": [
                {
                    "unit": unit.name,
                    "wall_s": round(unit.wall_s, 6),
                    "cached": unit.cached,
                }
                for unit in run.units
            ],
        }
    return {
        "schema": SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": bool(quick),
        "jobs": int(jobs),
        "python": sys.version.split()[0],
        "calibration_s": round(_calibration_s(), 6),
        "studies": studies,
    }


def write_trajectory(
    record: Mapping[str, Any],
    directory: Path | str,
    stamp: str | None = None,
) -> Path:
    """Write ``BENCH_<stamp>.json`` (and the ``BENCH_latest.json`` copy).

    ``stamp`` defaults to the current local time, second resolution;
    the dated file is the per-run artifact, ``BENCH_latest.json`` is the
    stable name CI feeds to the regression gate.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = stamp or time.strftime("%Y%m%d-%H%M%S")
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    path = directory / f"BENCH_{stamp}.json"
    path.write_text(text)
    (directory / "BENCH_latest.json").write_text(text)
    return path


def load_trajectory(path: Path | str) -> dict[str, Any]:
    """Load one trajectory record (schema-checked)."""
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict) or "studies" not in record:
        raise ValueError(f"{path}: not a trajectory record")
    return record


def compare_trajectories(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    threshold: float = 0.2,
    min_wall_s: float = 1.0,
    min_p99_ms: float = 1.0,
) -> tuple[list[str], list[str]]:
    """The CI regression gate over two trajectory records.

    Returns ``(regressions, lines)``: human-readable regression messages
    (empty = gate passes) plus a per-study comparison table.  A study
    regresses when its wall-clock grows by more than ``threshold``
    (default 20 %) under *both* the raw and the calibration-normalized
    ratio -- the favorable one wins, so neither a slower CI runner (raw
    inflated, calibrated ~1) nor a noisy calibration constant (calibrated
    inflated, raw ~1) can fail the gate by itself; a genuine same-code
    slowdown inflates both.  Throughput (windows/sec) gates symmetrically
    on a drop past ``threshold``.  A study that records a serving tail
    latency (``p99_ms``, the gateway study) gates on it alone, like
    wall-clock with its own ``min_p99_ms`` noise floor: its load is
    paced, so the schedule, not the code, fixes its wall-clock and
    windows/sec.  Studies missing from either side, fully
    checkpoint-cached on either side, or faster than ``min_wall_s`` on
    both sides (noise floor) are reported but never gate.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    base_cal = float(baseline.get("calibration_s", 0.0)) or None
    cur_cal = float(current.get("calibration_s", 0.0)) or None
    regressions: list[str] = []
    lines: list[str] = []
    base_studies = baseline.get("studies", {})
    cur_studies = current.get("studies", {})
    for name in sorted(set(base_studies) | set(cur_studies)):
        base = base_studies.get(name)
        cur = cur_studies.get(name)
        if base is None or cur is None:
            lines.append(
                f"{name}: only in "
                f"{'current' if base is None else 'baseline'} -- skipped"
            )
            continue
        base_wall = float(base.get("wall_s", 0.0))
        cur_wall = float(cur.get("wall_s", 0.0))
        if not base.get("recomputed_units") or not cur.get("recomputed_units"):
            lines.append(f"{name}: checkpoint-cached run -- skipped")
            continue
        base_p99 = float(base.get("p99_ms", 0.0))
        cur_p99 = float(cur.get("p99_ms", 0.0))
        if base_p99 > 0 or cur_p99 > 0:
            lines.append(
                f"{name}: {base_wall:.2f}s -> {cur_wall:.2f}s "
                "(paced serving study: gated on p99 only)"
            )
        elif base_wall < min_wall_s and cur_wall < min_wall_s:
            lines.append(
                f"{name}: {base_wall:.2f}s -> {cur_wall:.2f}s "
                f"(below {min_wall_s:g}s noise floor -- skipped)"
            )
        else:
            raw_ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
            if base_cal and cur_cal:
                cal_ratio = (cur_wall / cur_cal) / (base_wall / base_cal)
                ratio = min(raw_ratio, cal_ratio)
                note = f" raw x{raw_ratio:.2f}, calibrated x{cal_ratio:.2f}"
            else:
                ratio = raw_ratio
                note = f" raw x{raw_ratio:.2f}"
            lines.append(
                f"{name}: {base_wall:.2f}s -> {cur_wall:.2f}s [{note.strip()}]"
            )
            if ratio > 1.0 + threshold:
                regressions.append(
                    f"{name}: wall-clock regressed x{ratio:.2f} "
                    f"(limit x{1.0 + threshold:.2f};{note})"
                )
            base_wps = float(base.get("windows_per_s", 0.0))
            cur_wps = float(cur.get("windows_per_s", 0.0))
            if base_wps > 0 and cur_wps > 0:
                raw_wps = cur_wps / base_wps
                if base_cal and cur_cal:
                    cal_wps = (cur_wps * cur_cal) / (base_wps * base_cal)
                    wps_ratio = max(raw_wps, cal_wps)
                else:
                    wps_ratio = raw_wps
                if wps_ratio < 1.0 - threshold:
                    regressions.append(
                        f"{name}: throughput regressed x{wps_ratio:.2f} "
                        f"({base_wps:.1f} -> {cur_wps:.1f} windows/s)"
                    )
        if base_p99 > 0 and cur_p99 > 0:
            if base_p99 < min_p99_ms and cur_p99 < min_p99_ms:
                lines.append(
                    f"{name}: p99 {base_p99:.2f}ms -> {cur_p99:.2f}ms "
                    f"(below {min_p99_ms:g}ms noise floor -- skipped)"
                )
            else:
                raw_p99 = cur_p99 / base_p99
                if base_cal and cur_cal:
                    cal_p99 = (cur_p99 / cur_cal) / (base_p99 / base_cal)
                    p99_ratio = min(raw_p99, cal_p99)
                else:
                    p99_ratio = raw_p99
                lines.append(
                    f"{name}: p99 {base_p99:.2f}ms -> {cur_p99:.2f}ms "
                    f"[raw x{raw_p99:.2f}]"
                )
                if p99_ratio > 1.0 + threshold:
                    regressions.append(
                        f"{name}: p99 latency regressed x{p99_ratio:.2f} "
                        f"({base_p99:.2f} -> {cur_p99:.2f} ms)"
                    )
    return regressions, lines
