"""The ``table2-cohort`` workload: Table II on a subset of the cohort, cold.

Each repetition clears ``EXPERIMENT_CACHE`` and builds a fresh
``CohortRunner`` (fresh worker pool, fresh dataset plane), then runs the
paper's protocol -- 20-minute training, a 2-minute 50 %-altered test,
reference and Amulet evaluation -- for all three tiers, with ``jobs``
equal to the usable CPU count.  Repetitions run back to back until the
run's seconds are used up.  Each repetition is timed stage by stage (one
stage per tier, then closing the runner), and the run reports the sum of
the stages' medians over its repetitions.

The traced run adds one traced repetition and a serial pass that calls
each pipeline stage's public function in turn, timing it, so the stage
split of ``table2_s`` is measured from outside the worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.detector import SIFTDetector
from repro.core.training import build_training_set
from repro.core.versions import DetectorVersion
from repro.experiments import (
    EXPERIMENT_CACHE,
    CohortRunner,
    ExperimentConfig,
    effective_workers,
    leaked_segments,
    make_dataset,
)
from repro.experiments.dataplane import perf_stats
from repro.experiments.pipeline import build_stream, cohort_record_specs, realize_record
from repro.sift_app.harness import AmuletSIFTRunner

from perfbench.common import median, tree_cpu_s
from perfbench.spans import SpanRecorder

__all__ = ["run_cohort"]

#: One young and one elderly subject of the 12-subject cohort.
SUBJECTS = (0, 6)
SETUPS = 5
COMMITTED = os.path.join("benchmarks", "results", "table2_by_subject.txt")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = (
    "signals.record_s",
    "core.training_set_s",
    "ml.svm_fit_s",
    "experiments.stream_s",
    "core.evaluate_s",
    "sift_app.device_run_s",
)


def committed_accuracies() -> dict[tuple[str, str], str]:
    """(subject id, tier) -> reference accuracy cell of the committed table."""
    with open(os.path.join(ROOT, COMMITTED), encoding="utf-8") as table:
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in table
            if "|" in line
        ]
    header, body = rows[0], rows[1:]
    return {
        (row[0], tier): cell
        for row in body
        for tier, cell in zip(header[1:], row[1:])
    }


def accuracy_cell(accuracy: float) -> str:
    return f"{100 * accuracy:.1f}%"


@dataclass
class Repetition:
    stage_wall_s: list[float]  # one per tier, then closing the runner
    stage_cpu_s: list[float]
    decisions: int  # reference + Amulet window decisions
    outcomes: list
    cache: dict
    publish_s: float

    @property
    def wall_s(self) -> float:
        return sum(self.stage_wall_s)


def repetition(config, subjects, jobs, recorder: SpanRecorder | None = None) -> Repetition:
    """One cold Table II run over ``subjects``, timed stage by stage."""
    marks = [(time.perf_counter(), tree_cpu_s())]
    EXPERIMENT_CACHE.clear()
    EXPERIMENT_CACHE.reset_stats()
    published = perf_stats()["publish_s"]
    outcomes = []
    with CohortRunner(config=config, jobs=jobs, with_device=True) as runner:
        for version in DetectorVersion:
            outcomes += runner.run_version(version, subjects=list(subjects))
            # The pool's workers are alive here: their CPU is read from /proc.
            marks.append((time.perf_counter(), tree_cpu_s()))
            if recorder is not None:
                recorder.record(
                    f"experiments.run_version.{version.value}", marks[-2][0], marks[-1][0]
                )
    marks.append((time.perf_counter(), tree_cpu_s()))
    decisions = sum(
        2 * o.result.n_test_windows for o in outcomes if o.ok
    )
    return Repetition(
        stage_wall_s=[b[0] - a[0] for a, b in zip(marks, marks[1:])],
        stage_cpu_s=[b[1] - a[1] for a, b in zip(marks, marks[1:])],
        decisions=decisions,
        outcomes=outcomes,
        cache=EXPERIMENT_CACHE.stats(),
        publish_s=perf_stats()["publish_s"] - published,
    )


def check(rep: Repetition, expected: dict) -> list[str]:
    problems = []
    for outcome in rep.outcomes:
        if not outcome.ok:
            problems.append(
                f"{outcome.subject_id}/{outcome.version.value}: "
                f"{outcome.error or outcome.fault}"
            )
            continue
        r = outcome.result
        got = accuracy_cell(r.reference_report.accuracy)
        want = expected.get((r.subject_id, r.version.value))
        if got != want:
            problems.append(
                f"{r.subject_id}/{r.version.value}: accuracy {got}, committed {want}"
            )
    if leaked_segments():
        problems.append(f"dataset-plane segments leaked: {leaked_segments()}")
    if multiprocessing.active_children():
        problems.append("a worker process outlived its CohortRunner")
    return problems


def serial_stages(
    config, subjects, expected, problems: list[str], recorder: SpanRecorder
) -> dict[str, float]:
    """Time each stage of ``run_subject`` by calling its public pieces in turn."""
    EXPERIMENT_CACHE.clear()
    dataset = make_dataset(config)
    stage = dict.fromkeys(STAGES, 0.0)

    def timed(name, fn, *args, **kwargs):
        began = time.perf_counter()
        value = fn(*args, **kwargs)
        done = time.perf_counter()
        recorder.record(name, began, done)
        stage[name] += done - began
        return value

    for version in DetectorVersion:
        for index in subjects:
            subject = dataset.subjects[index]
            records = [
                (s, p, timed("signals.record_s", realize_record, dataset, s, d, p, config))
                for s, d, p in cohort_record_specs(config, dataset, [index]).values()
            ]
            training = next(r for s, p, r in records if s is subject and p == "train")
            donors = [r for s, p, r in records if s is not subject and p == "train"]
            detector = SIFTDetector(
                version=version,
                window_s=config.window_s,
                grid_n=config.grid_n,
                C=config.svm_c,
                kernel=config.kernel,
                gamma=config.svm_gamma,
            )
            training_set = timed(
                "core.training_set_s",
                build_training_set,
                detector.extractor,
                training,
                donors,
                window_s=detector.window_s,
                stride_s=config.train_stride_s,
                rng=np.random.default_rng([config.seed, index, 99]),
            )
            timed("ml.svm_fit_s", detector.fit_training_set, training_set,
                  subject_id=training.subject_id)
            stream = timed("experiments.stream_s", build_stream, dataset, subject, config)
            report = timed("core.evaluate_s", detector.evaluate, stream)
            runner = AmuletSIFTRunner(detector, frac_bits=config.frac_bits)
            timed("sift_app.device_run_s", runner.run_stream, stream)
            got = accuracy_cell(report.accuracy)
            if got != expected.get((subject.subject_id, version.value)):
                problems.append(
                    f"serial {subject.subject_id}/{version.value}: accuracy {got}"
                )
    return stage


def set_up_once() -> float:
    """A fresh interpreter loading the experiment stack and the cohort."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from repro.experiments import ExperimentConfig, make_dataset;"
        "make_dataset(ExperimentConfig())"
    )
    began = time.perf_counter()
    # No timeout: with one, subprocess polls for the child's exit every
    # 50 ms, which would round the figure to that step.
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")], check=True)
    return time.perf_counter() - began


def stage_median_sum(reps: list[Repetition], field: str) -> float:
    """The sum over stages of each stage's median over the repetitions.

    A repetition takes several seconds, and a shared host's speed changes
    within seconds; a slow spell stretches whichever stages it covers.  Taking
    the median stage by stage lets the quiet part of every repetition
    count, where the median of whole repetitions keeps only the middle one.
    """
    stages = zip(*(getattr(r, field) for r in reps))
    return sum(median(values) for values in stages)


def end_to_end(reps: list[Repetition]) -> dict[str, float]:
    """Table II wall time, decision rate and CPU per decision of one repetition."""
    wall = stage_median_sum(reps, "stage_wall_s")
    decisions = reps[0].decisions  # the same in every checked repetition
    return {
        "latency_ms": wall * 1e3,
        "goodput_wps": decisions / wall,
        "cpu_us_per_window": stage_median_sum(reps, "stage_cpu_s") / max(1, decisions) * 1e6,
    }


def attempted(reps: list[Repetition]) -> int:
    """(subject, tier) runs attempted."""
    return sum(len(r.outcomes) for r in reps)


def run_cohort(seed: int, seconds: float, trace: bool, tmp: str, log) -> dict:
    """One benchmark run of ``table2-cohort``; returns the result fields."""
    config = ExperimentConfig()
    # The cohort and protocol are the paper's, so the results can be
    # checked against the committed table; the seed orders the subjects.
    subjects = SUBJECTS if seed % 2 == 0 else SUBJECTS[::-1]
    jobs = effective_workers(len(os.sched_getaffinity(0)))
    expected = committed_accuracies()
    setups = [set_up_once() for _ in range(1 if trace else SETUPS)]
    reps, problems = [], []
    began = time.perf_counter()
    while not reps or time.perf_counter() - began < seconds:
        reps.append(repetition(config, subjects, jobs))
        problems += check(reps[-1], expected)
    if len({r.decisions for r in reps}) > 1:
        problems.append(f"decision counts differ: {[r.decisions for r in reps]}")
    metrics = end_to_end(reps)
    table2_s = metrics["latency_ms"] / 1e3
    log(
        f"table2-cohort: jobs={jobs}, repetitions "
        f"{['%.2f' % r.wall_s for r in reps]} s, setups {['%.3f' % s for s in setups]}"
    )
    if not trace:
        metrics["setup_s"] = median(setups)
        return {"problems": problems, "attempted": attempted(reps), "metrics": metrics}

    recorder = SpanRecorder()
    began = time.perf_counter()
    traced = repetition(config, subjects, jobs, recorder)
    recorder.record("experiments.table2", began, time.perf_counter())
    problems += check(traced, expected)
    stage = serial_stages(config, subjects, expected, problems, recorder)
    recorder.write(os.path.join(os.path.dirname(tmp), f"spans-table2-cohort-{seed}.jsonl"))
    layers = {k: v for k, v in stage.items() if k != "experiments.stream_s"}
    layers.update(
        {
            "experiments.table2_s": table2_s,
            "experiments.cache_hits": traced.cache["hits"],
            "experiments.cache_misses": traced.cache["misses"],
            "experiments.dataplane_publish_s": traced.publish_s,
            "experiments.parallel_efficiency": sum(stage.values()) / (jobs * table2_s),
            "trace.goodput_ratio": table2_s / traced.wall_s,
            "trace.latency_ratio": traced.wall_s / table2_s,
        }
    )
    return {"problems": problems, "attempted": attempted(reps + [traced]), "metrics": layers}
