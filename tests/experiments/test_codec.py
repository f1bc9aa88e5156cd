"""The generic codec: exact round trips, and reports rendered from it.

Two contracts.  First, ``decode(cls, json(encode(x)))`` rebuilds every
registered result type and every gateway snapshot state type exactly --
NaN, the infinities, -0.0 and subnormals included, enum- and float-keyed
dicts keeping key type and order, ``None`` optionals, nested tuples and
numpy arrays (values and dtype) surviving.  Second, on the
real registry, a report rendered from checkpoint-decoded unit results
is byte-identical to the study's formatter applied to the in-memory
result of the one-shot experiment.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.adaptive.degradation import DegradationState, TierSwitch
from repro.adaptive.engine import AdaptiveTimeline
from repro.amulet.battery import Battery
from repro.amulet.profiler import ResourceProfile
from repro.core.codec import decode, encode
from repro.core.streaming import AttackEpisode, DebouncerState
from repro.core.versions import DetectorVersion
from repro.experiments.adaptive import format_adaptive_policies, run_adaptive_policies
from repro.experiments.dataplane import AcquisitionResult, FanoutResult
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
from repro.experiments.native import SmoSpeedup
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
from repro.gateway.session import SessionState, SessionVerdict
from repro.gateway.snapshot import GatewayState
from repro.ml.metrics import DetectionReport
from repro.wiot.assembly import AssemblerState
from repro.wiot.channel import DeliveredPacket
from repro.wiot.sensor import SensorPacket

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

# -- gateway snapshot state --------------------------------------------
# Device samples are float32 (NaN, -0.0 and the infinities included);
# peak indexes keep whatever integer dtype the sensor used, empty too.
samples = arrays(np.float32, st.integers(0, 12), elements=st.floats(width=32))
peak_indexes = st.sampled_from([np.int32, np.int64, np.uint16, np.intp]).flatmap(
    lambda dtype: arrays(dtype, st.integers(0, 6))
)
sensor_packets = st.builds(
    SensorPacket,
    sensor_id=st.text(),
    channel=st.sampled_from(["ecg", "abp"]),
    sequence=st.integers(0, 2**40),
    start_time_s=floats,
    samples=samples,
    peak_indexes=peak_indexes,
    sample_rate=floats,
)
packets = st.builds(
    DeliveredPacket,
    packet=sensor_packets,
    arrival_time_s=floats,
    crc32=st.none() | st.integers(0, 2**32 - 1),
)
assembler_states = st.builds(
    AssemblerState,
    pending=st.dictionaries(
        st.integers(0, 2**40),
        st.dictionaries(st.sampled_from(["ecg", "abp"]), packets),
        max_size=3,
    ),
    # The dedup ring's order is its forget order: any order must survive.
    resolved=st.lists(st.integers(0, 2**40), unique=True).map(tuple),
    highest_sequence=st.integers(),
    incomplete_windows=st.integers(),
    duplicate_packets=st.integers(),
    corrupted_packets=st.integers(),
    corrupted_duplicate_packets=st.integers(),
)
episodes = st.builds(
    lambda start, length, t0, t1, peak: AttackEpisode(start, start + length, t0, t1, peak),
    st.integers(0, 2**40),
    st.integers(0, 100),
    floats,
    floats,
    floats,  # -inf is the "no positive yet" peak
)
debouncer_states = st.builds(
    DebouncerState,
    window_index=st.integers(),
    in_episode=st.booleans(),
    episode_start=st.integers(),
    episode_peak=floats,
    recent=st.lists(st.tuples(st.booleans(), floats), max_size=5).map(tuple),
    episodes=st.lists(episodes, max_size=3).map(tuple),
    abstained_indexes=st.lists(st.integers()).map(tuple),
)
tier_switches = st.builds(TierSwitch, st.integers(), versions, st.sampled_from(["down", "up"]))
degradation_states = st.builds(
    DegradationState,
    level=st.integers(),
    bad_streak=st.integers(),
    good_streak=st.integers(),
    observed=st.integers(),
    switches=st.lists(tier_switches, max_size=3).map(tuple),
)
verdicts = st.builds(
    SessionVerdict,
    wearer_id=st.text(),
    sequence=st.integers(),
    time_s=floats,
    altered=st.booleans(),
    decision_value=floats,  # NaN marks an abstain
    version=st.text(),
    abstained=st.booleans(),
    sqi=st.none() | floats,
    latency_s=floats,
)
session_states = st.builds(
    SessionState,
    wearer_id=st.text(),
    assembler=assembler_states,
    debouncer=debouncer_states,
    degradation=st.none() | degradation_states,
    recent_verdicts=st.lists(verdicts, max_size=4).map(tuple),
    windows_assembled=st.integers(),
    windows_abstained=st.integers(),
    windows_scored=st.integers(),
    windows_shed=st.integers(),
    ending=st.booleans(),
    closed=st.booleans(),
)
gateway_states = st.builds(
    GatewayState,
    sessions_started=st.integers(),
    windows_shed_queue=st.integers(),
    windows_shed_session=st.integers(),
    batches=st.integers(),
    batched_windows=st.integers(),
    windows_unscorable=st.integers(),
    closed_totals=st.dictionaries(st.text(), st.integers()),
)

#: The roots of a session snapshot epoch.
SNAPSHOT_ROOTS = (SessionState, GatewayState)

#: One strategy per result type a registered unit returns, and per state
#: dataclass a session snapshot holds.
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
    SmoSpeedup: st.builds(SmoSpeedup),
    AcquisitionResult: st.builds(AcquisitionResult),
    FanoutResult: st.builds(FanoutResult),
    dict[str, AdaptiveTimeline]: st.dictionaries(
        st.text(), st.builds(AdaptiveTimeline), max_size=3
    ),
    list[dict[str, float]]: st.lists(st.dictionaries(st.text(), floats)),
    list[dict[str, Any]]: st.lists(
        st.dictionaries(st.text(), floats | st.integers() | st.text() | st.none())
    ),
    SessionState: session_states,
    GatewayState: gateway_states,
    AssemblerState: assembler_states,
    DebouncerState: debouncer_states,
    DegradationState: degradation_states,
    SessionVerdict: verdicts,
    DeliveredPacket: packets,
    SensorPacket: sensor_packets,
    AttackEpisode: episodes,
    TierSwitch: tier_switches,
}


def _roundtrip(cls: Any, value: Any) -> Any:
    return decode(cls, json.loads(json.dumps(encode(value))))


def _nested_dataclasses(cls: Any) -> set[type]:
    """``cls`` and every dataclass its type hints reach, transitively."""
    found: set[type] = set()
    pending = [cls]
    while pending:
        hint = pending.pop()
        if dataclasses.is_dataclass(hint) and hint not in found:
            found.add(hint)
            pending.extend(typing.get_type_hints(hint).values())
        pending.extend(typing.get_args(hint))
    return found


def test_every_registered_result_type_has_a_strategy():
    returned = {
        spec.returns
        for study in build_registry().values()
        for spec in study.build_units(
            StudyContext(config=ExperimentConfig.quick(), quick=True)
        )
    }
    assert returned - {Any} <= set(STRATEGIES)


def test_every_snapshot_state_type_has_a_strategy():
    reached = set().union(*(_nested_dataclasses(root) for root in SNAPSHOT_ROOTS))
    assert reached <= set(STRATEGIES)


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_roundtrip_is_exact(cls, data):
    value = data.draw(STRATEGIES[cls])
    decoded = _roundtrip(cls, value)
    # repr pins what == cannot: NaN, the sign of zero, the exact float
    # digits, dict key types and order, tuple-vs-list.  Arrays print
    # every element at its dtype's shortest exact repr, with the dtype.
    assert type(decoded) is type(value)
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.intp, np.int32, np.uint16])
@pytest.mark.parametrize("size", [0, 1, 7])
def test_arrays_keep_dtype_and_bytes(dtype, size):
    values = np.arange(size).astype(dtype)
    if values.dtype.kind == "f" and size:
        values[0] = -0.0
        values[-1] = np.nan
    decoded = _roundtrip(np.ndarray, values)
    assert decoded.dtype == values.dtype and decoded.shape == values.shape
    assert decoded.tobytes() == values.tobytes()


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
    ).run(studies=["table2", "table3", "fig3", "universal", "adaptive"], trajectory=False)
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
        "adaptive_policies": format_adaptive_policies(
            run_adaptive_policies(config.seed, config.scenario_seed)
        ),
    }
    assert reports == {name: text + "\n" for name, text in expected.items()}
