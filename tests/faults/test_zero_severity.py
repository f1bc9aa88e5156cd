"""The zero-severity contract: severity 0 is the clean pipeline, bit for bit.

Every fault cell at severity 0, the injector with zero-severity faults
and the quality-gated streaming path on clean signal must all reproduce
the unfaulted pipeline exactly -- not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import ReplacementAttack
from repro.core.streaming import StreamingDetector
from repro.core.versions import DetectorVersion
from repro.faults import build_fault_cell, fault_names
from repro.signals.quality import SignalQualityIndex
from repro.wiot.environment import WIoTEnvironment


def _verdict_signature(environment: WIoTEnvironment) -> list[tuple]:
    return [
        (v.sequence, v.altered, v.decision_value, v.abstained)
        for v in environment.base_station.verdicts
    ]


def _run(detector, record, donors, channel=None, injector=None):
    environment = WIoTEnvironment(detector, channel=channel)
    summary = environment.run(
        record,
        attack=ReplacementAttack(donors),
        attack_after_s=30.0,
        rng=np.random.default_rng(7),
        sensor_faults=injector,
    )
    return environment, summary


@pytest.fixture(scope="module")
def baseline(trained_detectors, test_record, test_donor_records):
    detector = trained_detectors[DetectorVersion.SIMPLIFIED]
    return _run(detector, test_record, test_donor_records)


@pytest.mark.parametrize("name", fault_names())
def test_zero_severity_cell_is_bit_identical_to_clean(
    name, baseline, trained_detectors, test_record, test_donor_records
):
    clean_env, clean_summary = baseline
    cell = build_fault_cell(name, 0.0, seed=1234)
    env, summary = _run(
        trained_detectors[DetectorVersion.SIMPLIFIED],
        test_record,
        test_donor_records,
        channel=cell.channel,
        injector=cell.injector,
    )
    assert _verdict_signature(env) == _verdict_signature(clean_env)
    assert summary.n_windows_sent == clean_summary.n_windows_sent
    assert summary.n_windows_classified == clean_summary.n_windows_classified
    assert summary.n_windows_lost == clean_summary.n_windows_lost
    assert summary.alert_count == clean_summary.alert_count
    assert summary.coverage == 1.0
    assert summary.abstain_rate == 0.0
    if cell.injector is not None:
        assert cell.injector.packets_faulted == 0


def test_permissive_gate_matches_ungated_streaming(
    trained_detectors, labeled_stream
):
    """The gated per-window path scores exactly like the batch path."""
    detector = trained_detectors[DetectorVersion.SIMPLIFIED]
    ungated = StreamingDetector(detector)
    gated = StreamingDetector(
        detector, quality_gate=SignalQualityIndex(threshold=1e-9)
    )
    windows = list(labeled_stream.windows)
    ungated.process_stream(windows, flush=True)
    gated.process_stream(windows, flush=True)
    assert gated.abstain_count == 0
    assert gated.episodes == ungated.episodes
    assert gated.state.window_index == ungated.state.window_index


class TestEnvironmentFaultAccounting:
    """Non-zero severities surface as *accounted* coverage loss."""

    def test_corruption_is_rejected_and_counted(
        self, trained_detectors, test_record, test_donor_records
    ):
        cell = build_fault_cell("corruption", 1.0, seed=5)
        env, summary = _run(
            trained_detectors[DetectorVersion.SIMPLIFIED],
            test_record,
            test_donor_records,
            channel=cell.channel,
        )
        assert summary.n_packets_corrupted > 0
        # Corrupted halves never reach the detector: those windows are
        # incomplete, not misclassified.
        assert summary.n_windows_classified < summary.n_windows_sent
        assert (
            summary.n_windows_classified + summary.n_windows_lost
            == summary.n_windows_sent
        )

    def test_duplicates_are_dropped_at_the_door(
        self, trained_detectors, test_record, test_donor_records
    ):
        cell = build_fault_cell("duplication", 1.0, seed=5)
        env, summary = _run(
            trained_detectors[DetectorVersion.SIMPLIFIED],
            test_record,
            test_donor_records,
            channel=cell.channel,
        )
        assert summary.n_packets_duplicated > 0
        # Every window is still classified exactly once.
        sequences = [v.sequence for v in env.base_station.verdicts]
        assert len(sequences) == len(set(sequences))

    def test_flatline_abstains_through_the_gate(
        self, trained_detectors, test_record, test_donor_records
    ):
        cell = build_fault_cell("flatline", 1.0, seed=5)
        environment = WIoTEnvironment(
            trained_detectors[DetectorVersion.SIMPLIFIED],
            channel=cell.channel,
            quality_gate=SignalQualityIndex(threshold=0.6),
        )
        summary = environment.run(
            test_record,
            attack=ReplacementAttack(test_donor_records),
            attack_after_s=30.0,
            rng=np.random.default_rng(7),
            sensor_faults=cell.injector,
        )
        assert summary.n_windows_abstained > 0
        assert summary.abstain_rate > 0.0
        # Abstains are tracked, never silently dropped: sent windows are
        # fully partitioned into decided + abstained + lost.
        assert (
            summary.n_windows_classified
            + summary.n_windows_abstained
            + summary.n_windows_lost
            == summary.n_windows_sent
        )
