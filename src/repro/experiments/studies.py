"""The study registry: every study as checkpointable units plus its renderer.

A study splits into *units* -- one detector version of Table II, one
ablation sweep, one fault of the fault matrix.  Each unit's ``run``
returns the study's own result object (or row list); the orchestrator
persists it through the generic codec (:mod:`repro.core.codec`)
and hands the decoded objects to the study's ``render``, which is a thin
call into the one formatter each report has.  Each study also carries
the full-protocol configuration its committed reports were produced
with, so a full ``repro orchestrate`` reproduces every one of them.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.core.versions import DetectorVersion
from repro.experiments import ablations, robustness
from repro.experiments.fig3 import (
    Fig3Result,
    format_fig3,
    format_grid_resource_sweep,
    run_fig3,
    run_grid_resource_sweep,
)
from repro.experiments.pipeline import ExperimentConfig
from repro.experiments.reporting import format_rows, format_table
from repro.experiments.table2 import (
    Table2Result,
    format_table2,
    format_table2_by_subject,
    run_table2,
)
from repro.experiments.table3 import Table3Result, format_table3, run_table3
from repro.experiments.universal import (
    UniversalStudyResult,
    format_universal_study,
    run_universal_study,
)

__all__ = [
    "StudyContext",
    "StudyDefinition",
    "UnitSpec",
    "build_registry",
    "study_names",
]

Rows = list[dict[str, Any]]


@dataclass(frozen=True)
class StudyContext:
    """Everything a study needs to enumerate and run its units."""

    config: ExperimentConfig
    quick: bool = False
    jobs: int = 1


@dataclass(frozen=True)
class UnitSpec:
    """One checkpointable unit of a study.

    ``params`` must cover every knob that influences ``run``'s result
    (it is what gets hashed).  ``run`` returns a value the codec can
    encode; ``returns`` is the type it decodes back as (``Any`` keeps
    the JSON value).  ``n_windows`` / ``p99_ms`` read the windows the
    unit scored and its serving tail latency off the result, for the
    perf trajectory.
    """

    name: str
    params: Mapping[str, Any]
    run: Callable[[StudyContext], Any]
    returns: Any = Any
    n_windows: Callable[[Any], int] | None = None
    p99_ms: Callable[[Any], float] | None = None


@dataclass(frozen=True)
class StudyDefinition:
    """A named study: its units, its renderer and its full-protocol config.

    ``render`` receives the decoded unit results (in unit order) and
    returns ``{report_name: text}``; report files land in the results
    directory as ``<report_name>.txt``.
    """

    name: str
    build_units: Callable[[StudyContext], Sequence[UnitSpec]]
    render: Callable[[StudyContext, dict[str, Any]], dict[str, str]]
    config: ExperimentConfig = dataclasses.field(default_factory=ExperimentConfig)


def _params(ctx: StudyContext, study: str, **extra: Any) -> dict[str, Any]:
    return {"study": study, "config": dataclasses.asdict(ctx.config), **extra}


def _table2_units(ctx: StudyContext) -> list[UnitSpec]:
    def run(version: DetectorVersion) -> Callable[[StudyContext], Table2Result]:
        return lambda ctx: run_table2(ctx.config, versions=(version,), jobs=ctx.jobs)

    return [
        UnitSpec(
            name=version.value,
            params=_params(ctx, "table2", version=version.value),
            run=run(version),
            returns=Table2Result,
            # Each stream is scored on both platforms.
            n_windows=lambda r: 2 * sum(s.n_test_windows for s in r.per_subject),
        )
        for version in DetectorVersion
    ]


def _table2_render(ctx: StudyContext, results: dict[str, Table2Result]) -> dict[str, str]:
    merged = Table2Result.merge(list(results.values()))
    return {
        "table2": format_table2(merged),
        "table2_by_subject": format_table2_by_subject(merged),
    }


def _table3_units(ctx: StudyContext) -> list[UnitSpec]:
    def run(version: DetectorVersion) -> Callable[[StudyContext], Table3Result]:
        return lambda ctx: run_table3(ctx.config, versions=(version,))

    return [
        UnitSpec(
            name=version.value,
            params=_params(ctx, "table3", version=version.value),
            run=run(version),
            returns=Table3Result,
        )
        for version in DetectorVersion
    ]


def _table3_render(ctx: StudyContext, results: dict[str, Table3Result]) -> dict[str, str]:
    return {"table3": format_table3(Table3Result.merge(list(results.values())))}


def _fig3_units(ctx: StudyContext) -> list[UnitSpec]:
    grids = (10, 50) if ctx.quick else (10, 25, 50, 100)

    def profile(version: DetectorVersion) -> Callable[[StudyContext], Fig3Result]:
        return lambda ctx: run_fig3(ctx.config, version=version)

    return [
        UnitSpec(
            name="profile",
            params=_params(ctx, "fig3", version=DetectorVersion.ORIGINAL.value),
            run=profile(DetectorVersion.ORIGINAL),
            returns=Fig3Result,
        ),
        UnitSpec(
            name="grid_sweep",
            params=_params(
                ctx,
                "fig3",
                grids=list(grids),
                version=DetectorVersion.SIMPLIFIED.value,
            ),
            run=lambda ctx: run_grid_resource_sweep(
                ctx.config, grids=grids, jobs=ctx.jobs
            ),
            returns=list[dict[str, float]],
        ),
        UnitSpec(
            name="profile_simplified",
            params=_params(ctx, "fig3", version=DetectorVersion.SIMPLIFIED.value),
            run=profile(DetectorVersion.SIMPLIFIED),
            returns=Fig3Result,
        ),
    ]


def _fig3_render(ctx: StudyContext, results: dict[str, Any]) -> dict[str, str]:
    return {
        "fig3": format_fig3(results["profile"]),
        "fig3_grid_resource_sweep": format_grid_resource_sweep(results["grid_sweep"]),
        "fig3_simplified": format_fig3(results["profile_simplified"]),
    }


#: (ablation name, callable, sweep kwarg, quick sweep, full sweep, takes
#: jobs, report columns).  Sweeps are trimmed in quick mode so the
#: orchestrator smoke stays a smoke.
_ABLATIONS: tuple[
    tuple[str, Callable[..., Rows], str | None, tuple, tuple, bool, tuple[str, ...]],
    ...,
] = (
    (
        "window_size", ablations.window_size_ablation, "window_values",
        (1.5, 3.0), (1.5, 3.0, 6.0, 12.0), True,
        ("window_s", "accuracy", "fp_rate", "fn_rate", "f1"),
    ),
    (
        "grid_size", ablations.grid_size_ablation, "grid_values",
        (10, 50), (10, 25, 50, 100), True,
        ("grid_n", "accuracy", "fp_rate", "fn_rate", "f1"),
    ),
    (
        "training_duration", ablations.training_duration_ablation, "durations_s",
        (60.0, 180.0), (120.0, 300.0, 600.0, 1200.0), True,
        ("train_duration_s", "accuracy", "fp_rate", "fn_rate", "f1"),
    ),
    (
        "feature_classes", ablations.feature_class_ablation, None,
        (), (), True,
        ("features", "n_features", "accuracy", "f1"),
    ),
    (
        "classifier", ablations.classifier_ablation, None,
        (), (), False,
        ("classifier", "accuracy", "f1"),
    ),
    (
        "fixed_point", ablations.fixed_point_ablation, "frac_bits_values",
        (4, 14), (4, 6, 8, 10, 14, 20), False,
        ("frac_bits", "accuracy", "agreement_with_float"),
    ),
    (
        "attack_types", ablations.attack_type_ablation, None,
        (), (), False,
        ("attack", "accuracy", "fn_rate", "fp_rate"),
    ),
    (
        "mixed_attack_training", ablations.mixed_attack_training_ablation, None,
        (), (), False,
        ("training", "eval_attack", "accuracy", "fn_rate", "fp_rate"),
    ),
)


def _ablation_units(ctx: StudyContext) -> list[UnitSpec]:
    units = []
    for name, func, sweep_kwarg, quick_sweep, full_sweep, takes_jobs, _ in _ABLATIONS:
        kwargs: dict[str, Any] = {}
        if sweep_kwarg is not None:
            kwargs[sweep_kwarg] = quick_sweep if ctx.quick else full_sweep
        if takes_jobs:
            kwargs["jobs"] = ctx.jobs

        def run(ctx: StudyContext, func=func, kwargs=kwargs) -> Rows:
            return func(ctx.config, **kwargs)

        params = _params(ctx, "ablations", ablation=name)
        if sweep_kwarg is not None:
            params["sweep"] = list(kwargs[sweep_kwarg])
        units.append(UnitSpec(name=name, params=params, run=run, returns=Rows))
    return units


def _ablation_render(ctx: StudyContext, results: dict[str, Rows]) -> dict[str, str]:
    columns = {name: cols for name, *_, cols in _ABLATIONS}
    return {
        f"ablation_{name}": format_rows(rows, columns[name])
        for name, rows in results.items()
    }


def _fault_matrix_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.faults import fault_names

    severities = (0.0, 0.5, 1.0) if ctx.quick else (0.0, 0.25, 0.5, 1.0)

    def run(fault: str) -> Callable[[StudyContext], Rows]:
        return lambda ctx: robustness.fault_matrix_study(
            ctx.config, faults=(fault,), severities=severities
        )

    return [
        UnitSpec(
            name=fault,
            params=_params(
                ctx, "fault-matrix", fault=fault, severities=list(severities)
            ),
            run=run(fault),
            returns=Rows,
        )
        for fault in fault_names()
    ]


def _fault_matrix_render(ctx: StudyContext, results: dict[str, Rows]) -> dict[str, str]:
    rows = [row for part in results.values() for row in part]
    return {"fault_matrix": robustness.format_fault_matrix(rows)}


def _universal_units(ctx: StudyContext) -> list[UnitSpec]:
    return [
        UnitSpec(
            name="loso",
            params=_params(ctx, "universal"),
            run=lambda ctx: run_universal_study(ctx.config),
            returns=UniversalStudyResult,
        )
    ]


def _universal_render(
    ctx: StudyContext, results: dict[str, UniversalStudyResult]
) -> dict[str, str]:
    return {"universal_model": format_universal_study(results["loso"])}


#: (robustness study, callable, report name, report columns).
_ROBUSTNESS: tuple[tuple[str, Callable[..., Rows], str, tuple[str, ...]], ...] = (
    (
        "channel_loss", robustness.channel_loss_study, "robustness_channel_loss",
        ("loss_probability", "window_coverage", "accuracy_on_classified"),
    ),
    (
        "artifact_load", robustness.artifact_load_study, "robustness_artifact_load",
        ("artifact_rate_per_min", "accuracy", "fp_rate", "fn_rate"),
    ),
    (
        "debounce", robustness.debounce_study, "robustness_debounce",
        (
            "votes_needed", "vote_window", "window_accuracy",
            "false_episodes_per_run", "attack_catch_rate",
        ),
    ),
)


def _robustness_units(ctx: StudyContext) -> list[UnitSpec]:
    def run(func: Callable[..., Rows]) -> Callable[[StudyContext], Rows]:
        return lambda ctx: func(ctx.config)

    return [
        UnitSpec(
            name=name,
            params=_params(ctx, "robustness", sweep=name),
            run=run(func),
            returns=Rows,
        )
        for name, func, _, _ in _ROBUSTNESS
    ]


def _robustness_render(ctx: StudyContext, results: dict[str, Rows]) -> dict[str, str]:
    layout = {name: (report, cols) for name, _, report, cols in _ROBUSTNESS}
    return {
        layout[name][0]: format_rows(rows, layout[name][1])
        for name, rows in results.items()
    }


def _gateway_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.gateway.loadgen import LoadReport, run_gateway_load

    # Serving scale: quick keeps the orchestrator smoke a smoke; the
    # full run holds >= 1k concurrent wearers.
    knobs: dict[str, Any] = {
        "n_wearers": 64 if ctx.quick else 1024,
        "stream_s": 12.0 if ctx.quick else 30.0,
        "batch_size": 256,
        "loss_probability": 0.02,
        "seed": ctx.config.seed,
        "sanitize_loop": True,
    }

    def unit(name: str, p99: bool = False, **extra: Any) -> UnitSpec:
        return UnitSpec(
            name=name,
            params={"study": "gateway", **knobs, **extra},
            run=lambda ctx: run_gateway_load(**knobs, **extra),
            returns=LoadReport,
            n_windows=lambda r: r.stats.verdicts,
            p99_ms=(lambda r: r.p99_latency_s * 1e3) if p99 else None,
        )

    # The real-time in-process unit is the only p99 reader, so the gated
    # tail latency is its.  Beside it: the same fleet scored by a
    # crash-isolated child (the price of isolation), and in-process at
    # 4x real time.
    return [
        unit("serving", p99=True, period_s=3.0),
        unit("serving-supervised", period_s=3.0, supervised=True),
        unit("serving-4x", period_s=0.75),
    ]


def _gateway_render(ctx: StudyContext, results: dict[str, Any]) -> dict[str, str]:
    reports = [
        dict(results[name].rows())
        for name in ("serving", "serving-supervised", "serving-4x")
    ]
    metrics = dict.fromkeys(metric for report in reports for metric in report)
    rows = [[metric, *(r.get(metric, "-") for r in reports)] for metric in metrics]
    return {
        "gateway_serving": format_table(
            ["metric", "in-process", "supervised", "in-process, 4x real time"],
            rows,
            title="Ingestion gateway: multi-wearer serving at a paced offered "
            "load (latency from each window's due time)",
        )
    }


def _chaos_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.faults.runtime import (
        ChaosReport,
        RestartChaosReport,
        TruncationChaosReport,
        run_chaos_schedule,
        run_restart_chaos,
        run_truncation_chaos,
        schedule_names,
    )

    # Chaos scale: the schedules are invariant checks, not load tests --
    # quick and full differ only in fleet size / stream length so the
    # full run exercises more batches per fault.
    n_wearers = 8 if ctx.quick else 16
    stream_s = 12.0 if ctx.quick else 24.0
    seed = ctx.config.seed

    def schedule(name: str) -> Callable[[StudyContext], ChaosReport]:
        return lambda ctx: run_chaos_schedule(
            name, seed=seed, n_wearers=n_wearers, stream_s=stream_s, strict=False
        )

    def restart(ctx: StudyContext) -> RestartChaosReport:
        with tempfile.TemporaryDirectory(prefix="chaos-restart-") as tmp:
            return run_restart_chaos(
                Path(tmp) / "sessions.jsonl", seed=seed, strict=False
            )

    def truncation(ctx: StudyContext) -> TruncationChaosReport:
        with tempfile.TemporaryDirectory(prefix="chaos-trunc-") as tmp:
            return run_truncation_chaos(tmp, seed=seed, strict=False)

    units = [
        UnitSpec(
            name=f"schedule-{name}",
            params={
                "study": "chaos",
                "schedule": name,
                "n_wearers": n_wearers,
                "stream_s": stream_s,
                "seed": seed,
            },
            run=schedule(name),
            returns=ChaosReport,
            n_windows=lambda r: r.report.stats.verdicts,
        )
        for name in schedule_names()
    ]
    units.append(
        UnitSpec(
            name="restart",
            params={"study": "chaos", "unit": "restart", "seed": seed},
            run=restart,
            returns=RestartChaosReport,
            n_windows=lambda r: r.n_wearers * r.n_windows_per_wearer,
        )
    )
    units.append(
        UnitSpec(
            name="truncation",
            params={"study": "chaos", "unit": "truncation", "seed": seed},
            run=truncation,
            returns=TruncationChaosReport,
        )
    )
    return units


def _verdict(report: Any) -> str:
    return "ok" if report.ok else "; ".join(report.violations)


def _chaos_render(ctx: StudyContext, results: dict[str, Any]) -> dict[str, str]:
    rows = []
    for name, chaos in results.items():
        if not name.startswith("schedule-"):
            continue
        sup = chaos.report.supervisor
        rows.append(
            [
                chaos.schedule,
                f"{chaos.planned_faults}",
                f"{sup.faults}",
                f"{sup.restarts}",
                f"{sup.windows_degraded}",
                f"{chaos.report.stats.windows_unscorable}",
                "yes" if chaos.report.conservation_ok else "NO",
                _verdict(chaos),
            ]
        )
    restart = results["restart"]
    truncation = results["truncation"]
    rows.append(
        [
            "restart", "1", "-", "1", "-", "-",
            "yes" if restart.bit_identical_outside_restart else "NO",
            _verdict(restart),
        ]
    )
    rows.append(
        [
            "truncation", f"{truncation.points_checked}", "-", "-", "-", "-",
            "yes", _verdict(truncation),
        ]
    )
    return {
        "chaos_matrix": format_table(
            [
                "schedule",
                "planned",
                "detected",
                "restarts",
                "degraded",
                "unscorable",
                "conserved",
                "verdict",
            ],
            rows,
            title="Runtime chaos: supervised gateway under seeded fault schedules",
        )
    }


def _native_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.experiments.native import SmoSpeedup, measure_smo, measure_tier

    # Native scale: throughput comparison needs a stream long enough to
    # swamp dispatch overhead; quick keeps it to a CI-smoke minute.
    stream_s = 60.0 if ctx.quick else 300.0

    def tier_runner(version_name: str) -> Callable[[StudyContext], dict[str, Any]]:
        return lambda ctx: measure_tier(
            version_name, ctx.config.seed, stream_s=stream_s, train_s=120.0
        )

    units = [
        UnitSpec(
            name=version.value,
            params={
                "study": "native",
                "version": version.value,
                "stream_s": stream_s,
                "seed": ctx.config.seed,
            },
            run=tier_runner(version.value),
            n_windows=lambda payload: payload["n_windows"],
        )
        for version in DetectorVersion
    ]
    # SVM training: a 1200 s training record makes the Table II-sized
    # 800 x 8 Simplified training set; quick trims it to 80 x 8, timed once.
    smo_knobs = (
        {"train_s": 120.0, "rounds": 1} if ctx.quick else {"train_s": 1200.0, "rounds": 3}
    )
    units.append(
        UnitSpec(
            name="smo",
            params={"study": "native", "unit": "smo", "seed": ctx.config.seed, **smo_knobs},
            run=lambda ctx: measure_smo(ctx.config.seed, **smo_knobs),
            returns=SmoSpeedup,
        )
    )
    return units


def _native_render(ctx: StudyContext, results: dict[str, Any]) -> dict[str, str]:
    from repro.experiments.native import format_native_speedup, format_smo

    tiers = {version.value: results[version.value] for version in DetectorVersion}
    return {
        "native_speedup": format_native_speedup(tiers),
        "native_smo": format_smo(results["smo"]),
    }


def _adaptive_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.adaptive.engine import AdaptiveTimeline

    def run(ctx: StudyContext) -> dict[str, AdaptiveTimeline]:
        from repro.experiments.adaptive import run_adaptive_policies

        return run_adaptive_policies(ctx.config.seed, ctx.config.scenario_seed)

    return [
        UnitSpec(
            name="policies",
            params={
                "study": "adaptive",
                "seed": ctx.config.seed,
                "scenario_seed": ctx.config.scenario_seed,
            },
            run=run,
            returns=dict[str, AdaptiveTimeline],
        )
    ]


def _adaptive_render(ctx: StudyContext, results: dict[str, Any]) -> dict[str, str]:
    from repro.experiments.adaptive import format_adaptive_policies

    return {"adaptive_policies": format_adaptive_policies(results["policies"])}


def _dataplane_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.experiments.dataplane import (
        AcquisitionResult,
        FanoutResult,
        measure_acquisition,
        measure_fanout,
    )

    return [
        UnitSpec(
            name="acquisition",
            params=_params(ctx, "dataplane", unit="acquisition"),
            run=lambda ctx: measure_acquisition(ctx.config),
            returns=AcquisitionResult,
        ),
        UnitSpec(
            name="fanout",
            params=_params(ctx, "dataplane", unit="fanout"),
            run=lambda ctx: measure_fanout(ctx.config),
            returns=FanoutResult,
        ),
    ]


def _dataplane_render(ctx: StudyContext, results: dict[str, Any]) -> dict[str, str]:
    from repro.experiments.dataplane import format_acquisition, format_fanout

    return {
        "dataplane_acquisition": format_acquisition(results["acquisition"]),
        "dataplane_fanout": format_fanout(results["fanout"]),
    }


#: The mid-size cohorts the ablation, universal-model and robustness
#: reports use: full-length test streams on fewer subjects, enough for
#: stable averages at a fraction of the 12-subject runtime.
_MID_COHORT = ExperimentConfig(
    n_subjects=7,
    train_duration_s=360.0,
    test_duration_s=120.0,
    n_train_donors=3,
    n_test_donors=3,
)
_ROBUSTNESS_COHORT = ExperimentConfig(
    n_subjects=6,
    train_duration_s=300.0,
    test_duration_s=120.0,
    n_train_donors=3,
    n_test_donors=2,
)
#: The dataset-plane cohort: long training records, so there is a
#: working set worth sharing.
_DATAPLANE_COHORT = ExperimentConfig(
    n_subjects=6,
    train_duration_s=600.0,
    test_duration_s=120.0,
    n_train_donors=3,
    n_test_donors=2,
)


def build_registry() -> dict[str, StudyDefinition]:
    """The default study registry, in canonical run order."""
    studies = (
        StudyDefinition("table2", _table2_units, _table2_render),
        StudyDefinition("table3", _table3_units, _table3_render),
        StudyDefinition("fig3", _fig3_units, _fig3_render),
        StudyDefinition("ablations", _ablation_units, _ablation_render, _MID_COHORT),
        StudyDefinition("fault-matrix", _fault_matrix_units, _fault_matrix_render),
        StudyDefinition("universal", _universal_units, _universal_render, _MID_COHORT),
        StudyDefinition(
            "robustness", _robustness_units, _robustness_render, _ROBUSTNESS_COHORT
        ),
        StudyDefinition("adaptive", _adaptive_units, _adaptive_render),
        # After every study that reads the experiment cache: its
        # measurements evict it.
        StudyDefinition(
            "dataplane", _dataplane_units, _dataplane_render, _DATAPLANE_COHORT
        ),
        StudyDefinition("gateway", _gateway_units, _gateway_render),
        StudyDefinition("chaos", _chaos_units, _chaos_render),
        StudyDefinition("native", _native_units, _native_render),
    )
    return {study.name: study for study in studies}


def study_names() -> tuple[str, ...]:
    """The registered study names, in canonical run order."""
    return tuple(build_registry())
