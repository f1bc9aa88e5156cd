"""The generic result codec: exact round trips, and reports rendered from it.

Two contracts.  First, ``decode(cls, json(encode(x)))`` rebuilds every
registered result type exactly -- NaN, the infinities, -0.0 and
subnormals included, enum- and float-keyed dicts keeping key type and
order, ``None`` optionals and nested tuples surviving.  Second, on the
real registry, a report rendered from checkpoint-decoded unit results
is byte-identical to the study's formatter applied to the in-memory
result of the one-shot experiment.
"""

from __future__ import annotations

import json
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amulet.battery import Battery
from repro.amulet.profiler import ResourceProfile
from repro.core.versions import DetectorVersion
from repro.experiments.codec import decode, encode
from repro.experiments.fig3 import (
    Fig3Result,
    format_fig3,
    format_grid_resource_sweep,
    run_fig3,
    run_grid_resource_sweep,
)
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.pipeline import ExperimentConfig, SubjectRunResult
from repro.experiments.runner import CohortOutcome, TaskFaultReport
from repro.experiments.studies import StudyContext, build_registry
from repro.experiments.table2 import (
    Table2Result,
    Table2Row,
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
from repro.faults.runtime import ChaosReport, RestartChaosReport, TruncationChaosReport
from repro.gateway.loadgen import LoadReport
from repro.ml.metrics import DetectionReport

# st.floats() draws NaN, +-inf, -0.0 and subnormals by default.
floats = st.floats()
versions = st.sampled_from(DetectorVersion)
reports = st.builds(DetectionReport, floats, floats, floats, floats)
configs = st.builds(
    ExperimentConfig,
    seed=st.integers(),
    window_s=floats,
    svm_c=floats,
    train_stride_s=st.none() | floats,
)
subject_runs = st.builds(
    SubjectRunResult,
    subject_id=st.text(),
    version=versions,
    reference_report=reports,
    device_report=st.none() | reports,
    n_test_windows=st.integers(),
)
outcomes = st.builds(
    CohortOutcome,
    subject_id=st.text(),
    version=versions,
    result=st.none() | subject_runs,
    error=st.none() | st.text(),
    fault=st.none()
    | st.builds(
        TaskFaultReport,
        kind=st.sampled_from(["exception", "timeout", "broken-pool"]),
        error_type=st.text(),
        message=st.text(),
        attempts=st.integers(),
    ),
)
profiles = st.builds(
    ResourceProfile,
    battery=st.builds(
        Battery,
        capacity_mah=st.floats(0.1, 1e4),
        usable_fraction=st.floats(0.01, 1.0),
        self_discharge_per_month=st.floats(0.0, 0.99),
    ),
)

#: One strategy per result type a registered unit returns.
STRATEGIES: dict[Any, st.SearchStrategy] = {
    Table2Result: st.builds(
        Table2Result,
        rows=st.lists(st.builds(Table2Row, versions, st.text(), reports)).map(tuple),
        per_subject=st.lists(subject_runs, max_size=4).map(tuple),
        config=configs,
        failures=st.lists(outcomes, max_size=2).map(tuple),
    ),
    Table3Result: st.builds(
        Table3Result,
        profiles=st.dictionaries(versions, profiles),
        config=configs,
    ),
    Fig3Result: st.builds(
        Fig3Result,
        version=versions,
        profile=profiles,
        period_sweep=st.dictionaries(floats, floats),
    ),
    UniversalStudyResult: st.builds(UniversalStudyResult),
    LoadReport: st.builds(LoadReport, max_loop_stall_s=floats),
    ChaosReport: st.builds(ChaosReport),
    RestartChaosReport: st.builds(RestartChaosReport),
    TruncationChaosReport: st.builds(TruncationChaosReport),
    list[dict[str, float]]: st.lists(st.dictionaries(st.text(), floats)),
    list[dict[str, Any]]: st.lists(
        st.dictionaries(st.text(), floats | st.integers() | st.text() | st.none())
    ),
}


def _roundtrip(cls: Any, value: Any) -> Any:
    return decode(cls, json.loads(json.dumps(encode(value))))


def test_every_registered_result_type_has_a_strategy():
    returned = {
        spec.returns
        for study in build_registry().values()
        for spec in study.build_units(
            StudyContext(config=ExperimentConfig.quick(), quick=True)
        )
    }
    assert returned - {Any} <= set(STRATEGIES)


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_roundtrip_is_exact(cls, data):
    value = data.draw(STRATEGIES[cls])
    decoded = _roundtrip(cls, value)
    # repr pins what == cannot: NaN, the sign of zero, the exact float
    # digits, dict key types and order, tuple-vs-list.
    assert type(decoded) is type(value)
    assert repr(decoded) == repr(value)


def test_special_floats_and_keys_survive():
    sweep = {float("nan"): -0.0, float("inf"): 5e-324, -float("inf"): 1.5}
    decoded = _roundtrip(dict[float, float], sweep)
    assert repr(decoded) == repr(sweep)
    # Distinct NaN objects are distinct keys; the decoder must not fold
    # them into the one NaN that ``json`` parses every ``NaN`` to.
    two_nans = {float("nan"): 0.0, float("nan"): 1.0}
    decoded = _roundtrip(dict[float, float], two_nans)
    assert repr(decoded) == repr(two_nans)
    by_version = {DetectorVersion.REDUCED: (1, (2.0, None))}
    assert _roundtrip(
        dict[DetectorVersion, tuple[int, tuple[float, None]]], by_version
    ) == by_version


def test_compare_false_fields_are_dropped():
    run = SubjectRunResult(
        "s", DetectorVersion.ORIGINAL, DetectionReport(0.0, 0.0, 1.0, 1.0), None, 3,
        runner=object(),  # type: ignore[arg-type]
    )
    assert "runner" not in encode(run)
    decoded = _roundtrip(SubjectRunResult, run)
    assert decoded == run and decoded.runner is None


def test_unencodable_values_are_rejected():
    with pytest.raises(TypeError, match="cannot encode"):
        encode({"fn": object()})


def test_real_registry_renders_match_in_memory_formatters(tmp_path):
    """Reports rendered from checkpoint-decoded per-unit results equal
    the formatters applied to the one-shot in-memory experiments."""
    config = ExperimentConfig.quick()
    run = Orchestrator(
        quick=True,
        checkpoint_dir=tmp_path / "checkpoints",
        results_dir=tmp_path / "results",
    ).run(studies=["table2", "table3", "fig3", "universal"], trajectory=False)
    reports = {
        name: path.read_text()
        for study in run.studies
        for name, path in study.reports.items()
    }
    table2 = run_table2(config)
    expected = {
        "table2": format_table2(table2),
        "table2_by_subject": format_table2_by_subject(table2),
        "table3": format_table3(run_table3(config)),
        "fig3": format_fig3(run_fig3(config)),
        "fig3_simplified": format_fig3(
            run_fig3(config, version=DetectorVersion.SIMPLIFIED)
        ),
        "fig3_grid_resource_sweep": format_grid_resource_sweep(
            run_grid_resource_sweep(config, grids=(10, 50))
        ),
        "universal_model": format_universal_study(run_universal_study(config)),
    }
    assert reports == {name: text + "\n" for name, text in expected.items()}
