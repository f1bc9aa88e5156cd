"""The perf trajectory: one builder, the ``BENCH_*.json`` files, the gate.

Every measured ``repro orchestrate`` pass ends as a sequence of
:class:`~repro.experiments.orchestrator.StudyRun` and
:func:`build_trajectory` folds them into one record: per-study
wall-clock, windows/second, serving tail latency, experiment-cache and
dataset-plane counter deltas.  :func:`write_trajectory` stamps it to
disk.  :func:`gate_against` is the regression gate: it runs alternating
quick passes of a parent revision and of this checkout on one host, and
:func:`compare_trajectories` judges the two lists of records.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from repro.experiments.orchestrator import StudyRun

__all__ = [
    "GateError",
    "SCHEMA",
    "build_trajectory",
    "compare_trajectories",
    "gate_against",
    "load_trajectory",
    "write_trajectory",
]

#: Schema version stamped into every trajectory file.
SCHEMA = 1

#: A metric regresses when the change's median is worse than the
#: parent's by more than this fraction *and* the change is worse in most
#: pairs.
THRESHOLD = 0.2
#: Alternating (parent, change) pass pairs per gate run.
PAIRS = 3
#: Studies whose median wall-clock is below this on both sides gate on
#: neither wall-clock nor windows/s.  On a 2-core host a quick pass reads
#: 0.28-0.74 s for adaptive, native and universal (gated) and under
#: 0.25 s for fig3 and table3 (not gated).
MIN_WALL_S = 0.3
#: A serving p99 below this on both sides never gates: quick-scale p99
#: is host noise (3.8-25.6 ms over 90 identical quick passes on a
#: 2-core host).
MIN_P99_MS = 100.0

#: The experiment-cache and dataplane counters a checkpoint line records
#: as per-unit deltas and a trajectory sums per study.
CACHE_KEYS = ("hits", "misses", "evictions")
PLANE_KEYS = ("publishes", "publish_s")


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
            for key in PLANE_KEYS
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
                for key in CACHE_KEYS
            },
            "dataplane": {
                "publishes": int(plane["publishes"]),
                "publish_s": round(plane["publish_s"], 6),
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




def _regressed(
    parent: Sequence[float], change: Sequence[float], higher_is_better: bool
) -> tuple[float, int, bool]:
    """Median ratio (> 1 is worse), pairs the change lost, and the verdict."""
    if higher_is_better:
        parent, change = change, parent
    ratio = median(change) / median(parent) if median(parent) > 0 else float("inf")
    worse = sum(c > p for p, c in zip(parent, change))
    return ratio, worse, ratio > 1.0 + THRESHOLD and worse > len(parent) / 2


def compare_trajectories(
    parent: Sequence[Mapping[str, Any]], change: Sequence[Mapping[str, Any]]
) -> tuple[list[str], list[str]]:
    """The regression gate over paired records (``parent[i]``, ``change[i]``).

    Returns ``(regressions, lines)``: regression messages (empty = gate
    passes) plus a per-study comparison table.  Every metric gates by
    :func:`_regressed`.  Wall-clock and windows/s skip a study whose
    median wall-clock is below :data:`MIN_WALL_S` on both sides.  A study
    that records a serving p99 (the paced gateway study) gates on it
    alone, above :data:`MIN_P99_MS`: its schedule, not the code, fixes
    its wall-clock and windows/s.  A study missing from any record is
    reported but never gates.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need one change record per parent record")
    regressions: list[str] = []
    lines: list[str] = []
    names = {name for record in (*parent, *change) for name in record["studies"]}
    for name in sorted(names):
        runs = [[record["studies"].get(name) for record in side] for side in (parent, change)]
        if None in runs[0] + runs[1]:
            lines.append(f"{name}: not in every pass -- skipped")
            continue

        def series(key: str) -> list[list[float]]:
            return [[float(run.get(key, 0.0)) for run in side] for side in runs]

        p99, wps = series("p99_ms"), series("windows_per_s")
        if any(map(any, p99)):
            metrics = [("p99 latency", "ms", MIN_P99_MS, p99, False)]
        else:
            metrics = [("wall-clock", "s", MIN_WALL_S, series("wall_s"), False)]
            if any(map(any, wps)):
                metrics.append(("throughput", "windows/s", 0.0, wps, True))
        for label, unit, floor, (before, after), higher_is_better in metrics:
            values = f"{median(before):.2f} -> {median(after):.2f} {unit}"
            if max(median(before), median(after)) < floor:
                lines.append(f"{name}: {label} {values} (below noise floor -- skipped)")
                break
            ratio, worse, regressed = _regressed(before, after, higher_is_better)
            verdict = f"{values} (x{ratio:.2f} worse, in {worse}/{len(before)} pairs)"
            lines.append(f"{name}: {label} {verdict}")
            if regressed:
                regressions.append(f"{name}: {label} regressed {verdict}")
    return regressions, lines


class GateError(RuntimeError):
    """The gate could not measure: unknown revision or a failed pass."""


def _export_src(rev: str, repo: Path, dest: Path) -> Path:
    """``git archive REV src`` unpacked under ``dest``; returns its ``src``."""
    try:
        archive = subprocess.run(
            ["git", "archive", rev, "src"], cwd=repo, capture_output=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = (getattr(exc, "stderr", None) or b"").decode().strip() or exc
        raise GateError(f"cannot export {rev!r}: {detail}") from exc
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _orchestrate(src: Path, work: Path, env: Mapping[str, str]) -> int:
    """One quick, fresh orchestrate pass of the package under ``src``,
    writing only under ``work``; returns its exit code."""
    command = [
        sys.executable, "-m", "repro", "orchestrate", "--quick", "--jobs", "2",
        "--fresh", "--checkpoint-dir", str(work / "checkpoints"),
        "--results-dir", str(work / "results"),
    ]
    env = {**os.environ, **env, "PYTHONPATH": str(src)}
    return subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL).returncode


def gate_against(rev: str) -> tuple[list[str], list[str]]:
    """Gate this checkout's ``src`` against revision ``rev`` on this host.

    Runs :data:`PAIRS` pairs of quick passes, alternating which side goes
    first, and compares them.  Each side writes and keeps its own bytecode
    and native-build caches, so each pays its own first compile and
    neither reads what the other wrote.  All of it lives in one temp dir,
    removed however the gate ends.
    """
    change_src = Path(__file__).resolve().parents[2]
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
        root = Path(tmp)
        sources = {
            "parent": _export_src(rev, change_src.parent, root / "parent"),
            "change": change_src,
        }
        records: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            for side in ("parent", "change")[:: 1 if pair % 2 == 0 else -1]:
                work = root / f"{side}-{pair}"
                work.mkdir()
                env = {
                    "PYTHONDONTWRITEBYTECODE": "",
                    "PYTHONPYCACHEPREFIX": str(root / "pycache" / side),
                    "REPRO_NATIVE_CACHE": str(root / "native" / side),
                }
                if _orchestrate(sources[side], work, env) != 0:
                    raise GateError(f"the {side} pass of pair {pair + 1} failed")
                records[side].append(
                    load_trajectory(work / "results" / "BENCH_latest.json")
                )
    return compare_trajectories(records["parent"], records["change"])
