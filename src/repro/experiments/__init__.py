"""Experiment harness: regenerates every table and figure of the paper.

- :mod:`~repro.experiments.pipeline` -- the shared per-subject
  train/deploy/evaluate pipeline and its configuration;
- :mod:`~repro.experiments.table2` -- Table II (detection performance,
  Amulet vs reference, three versions);
- :mod:`~repro.experiments.table3` -- Table III (memory and expected
  lifetime per version);
- :mod:`~repro.experiments.fig3` -- Fig. 3 (ARP-view resource breakdown
  and the battery-life/period slider);
- :mod:`~repro.experiments.ablations` -- the design-choice studies
  DESIGN.md calls out (window size, grid size, training duration, feature
  classes, classifier, fixed-point precision, attack types);
- :mod:`~repro.experiments.runner` -- :class:`CohortRunner`, the
  parallel cohort fan-out: the parent realizes the cohort's records
  once and forked workers inherit them;
- :mod:`~repro.experiments.orchestrator` -- the checkpointed driver over
  the whole study matrix: resumable JSONL unit checkpoints and
  zero-compute report re-evaluation;
- :mod:`~repro.experiments.studies` -- the study registry: each study's
  units, full-protocol config and one renderer per report (results are
  persisted through the generic codec, :mod:`repro.core.codec`);
- :mod:`~repro.experiments.trajectory` -- the perf trajectory builder,
  its ``BENCH_*.json`` files and the CI regression gate.
"""

from repro.experiments.ablations import (
    attack_type_ablation,
    classifier_ablation,
    feature_class_ablation,
    fixed_point_ablation,
    grid_size_ablation,
    mixed_attack_training_ablation,
    training_duration_ablation,
    window_size_ablation,
)
from repro.experiments.cache import (
    DEFAULT_CACHE_BYTES,
    EXPERIMENT_CACHE,
    ExperimentCache,
    cache_disabled,
    entry_cost,
    set_cache_budget,
)
from repro.experiments.dataplane import leaked_segments
from repro.experiments.fig3 import Fig3Result, format_fig3, run_fig3
from repro.experiments.orchestrator import (
    CheckpointStore,
    Orchestrator,
    config_hash,
)
from repro.experiments.pipeline import (
    ExperimentConfig,
    SubjectRunResult,
    make_dataset,
    realize_cohort_records,
    run_subject,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    CohortOutcome,
    CohortRunner,
    TaskFaultReport,
    effective_workers,
)
from repro.experiments.robustness import (
    artifact_load_study,
    channel_loss_study,
    debounce_study,
    fault_matrix_study,
    format_fault_matrix,
)
from repro.experiments.universal import (
    UniversalStudyResult,
    run_universal_study,
)
from repro.experiments.studies import study_names
from repro.experiments.table2 import (
    Table2Result,
    format_table2,
    format_table2_by_subject,
    run_table2,
)
from repro.experiments.table3 import Table3Result, format_table3, run_table3
from repro.experiments.trajectory import (
    compare_trajectories,
    load_trajectory,
    write_trajectory,
)

__all__ = [
    "CheckpointStore",
    "CohortOutcome",
    "CohortRunner",
    "DEFAULT_CACHE_BYTES",
    "EXPERIMENT_CACHE",
    "ExperimentCache",
    "ExperimentConfig",
    "Fig3Result",
    "Orchestrator",
    "SubjectRunResult",
    "Table2Result",
    "Table3Result",
    "TaskFaultReport",
    "UniversalStudyResult",
    "artifact_load_study",
    "attack_type_ablation",
    "cache_disabled",
    "channel_loss_study",
    "classifier_ablation",
    "compare_trajectories",
    "config_hash",
    "debounce_study",
    "effective_workers",
    "entry_cost",
    "fault_matrix_study",
    "feature_class_ablation",
    "fixed_point_ablation",
    "format_fault_matrix",
    "format_fig3",
    "format_table",
    "format_table2",
    "format_table2_by_subject",
    "format_table3",
    "grid_size_ablation",
    "leaked_segments",
    "load_trajectory",
    "make_dataset",
    "mixed_attack_training_ablation",
    "realize_cohort_records",
    "run_fig3",
    "run_subject",
    "run_table2",
    "run_table3",
    "run_universal_study",
    "set_cache_budget",
    "study_names",
    "training_duration_ablation",
    "window_size_ablation",
    "write_trajectory",
]
