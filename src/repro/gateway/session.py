"""Per-wearer session state for the ingestion gateway.

A :class:`WearerSession` is everything the gateway must remember about
one live wearer: bounded window assembly (the same
:class:`~repro.wiot.assembly.WindowAssembler` the base station uses),
the wearer's *own* adaptive-tier controller, and the k-of-n alert
debouncer.  Scoring is deliberately absent -- the gateway scores
windows from many sessions in one cross-session micro-batch and feeds
each session's results back in arrival order, which is why the
debouncer is driven through
:meth:`~repro.core.streaming.StreamingDetector.advance_value` /
``abstain_window`` instead of ``process_window``.

Per-session state is O(1) in stream length: assembly is bounded by
construction, the debouncer's horizon is :data:`VOTE_WINDOW` entries,
and counters carry the totals.  Verdicts are not kept: they leave
through the gateway's ``on_verdict`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adaptive.degradation import DegradationController, DegradationState
from repro.core.detector import SIFTDetector
from repro.core.streaming import DebouncerState, StreamingDetector
from repro.core.versions import DetectorVersion
from repro.signals.dataset import SignalWindow
from repro.signals.quality import QualityReport, SignalQualityIndex
from repro.wiot.assembly import (
    DEFAULT_MAX_PENDING_LAG,
    AssemblerState,
    WindowAssembler,
)
from repro.wiot.channel import DeliveredPacket

__all__ = ["SessionState", "SessionVerdict", "WearerSession", "window_from_slot"]

#: The alert debouncer's k-of-n vote: an episode opens once
#: ``VOTES_NEEDED`` of the last ``VOTE_WINDOW`` scored windows are
#: positive.
VOTES_NEEDED = 2
VOTE_WINDOW = 3
#: Resolved sequences each session's assembler remembers, so a replayed
#: packet (a restored gateway's senders resend from the resume point) is
#: rejected as a duplicate instead of verdicted twice.
DEDUP_CAPACITY = 1024


@dataclass(frozen=True)
class SessionVerdict:
    """One wearer window's outcome, as emitted by the gateway.

    ``latency_s`` is the assembled-to-decided interval, measured with
    ``time.perf_counter()`` (monotonic; wall clocks can step backwards
    mid-measurement).  An abstained verdict carries a NaN
    ``decision_value`` and ``altered=False`` -- scoring must exclude it,
    exactly as with :class:`~repro.wiot.basestation.WindowVerdict`.
    """

    wearer_id: str
    sequence: int
    time_s: float
    altered: bool
    decision_value: float
    version: str
    abstained: bool = False
    sqi: float | None = None
    latency_s: float = 0.0


@dataclass(frozen=True)
class SessionState:
    """A :class:`WearerSession`'s snapshot: its components' states and
    the per-session counters."""

    wearer_id: str
    assembler: AssemblerState
    debouncer: DebouncerState
    degradation: DegradationState | None
    windows_assembled: int
    windows_abstained: int
    windows_scored: int
    windows_shed: int
    ending: bool
    closed: bool


def window_from_slot(
    slot: dict[str, DeliveredPacket], subject_id: str = ""
) -> SignalWindow:
    """The device-format (float32) window of one assembled sequence slot.

    Mirrors the base station's :class:`~repro.sift_app.payload
    .DeviceWindow` construction so the gateway's quality gate and
    detector see exactly the payload an Amulet deployment would.
    """
    ecg = slot["ecg"].packet
    abp = slot["abp"].packet
    if ecg.samples.size != abp.samples.size:
        raise ValueError(
            f"window {ecg.sequence}: ECG and ABP packet lengths differ "
            f"({ecg.samples.size} vs {abp.samples.size})"
        )
    return SignalWindow(
        ecg=ecg.samples.astype(np.float32),
        abp=abp.samples.astype(np.float32),
        r_peaks=np.asarray(ecg.peak_indexes, dtype=np.intp),
        systolic_peaks=np.asarray(abp.peak_indexes, dtype=np.intp),
        sample_rate=ecg.sample_rate,
        subject_id=subject_id,
    )


#: The ungated verdict on a window holding a NaN or infinite sample.
_NON_FINITE = QualityReport(
    sqi=0.0, usable=False, clipping_score=0.0, burst_score=0.0, beat_score=0.0
)


class WearerSession:
    """One wearer's live serving state.

    Parameters mirror :class:`~repro.core.streaming.StreamingDetector`
    (the sequential equivalent this session must match bit-for-bit,
    voting :data:`VOTES_NEEDED` of :data:`VOTE_WINDOW`).  Assembly
    evicts halves ``DEFAULT_MAX_PENDING_LAG`` sequences behind and
    remembers :data:`DEDUP_CAPACITY` resolved sequences.
    ``degradation`` must be this session's *own* controller (the gateway
    clones its template per session).
    """

    def __init__(
        self,
        wearer_id: str,
        detector: SIFTDetector,
        quality_gate: SignalQualityIndex | None = None,
        fallbacks: dict[DetectorVersion, SIFTDetector] | None = None,
        degradation: DegradationController | None = None,
    ) -> None:
        if degradation is not None and quality_gate is None:
            raise ValueError("degradation requires a quality_gate")
        self.wearer_id = wearer_id
        self.detector = detector
        self.quality_gate = quality_gate
        self.fallbacks = dict(fallbacks) if fallbacks else {}
        self.degradation = degradation
        self.assembler = WindowAssembler(
            max_pending_lag=DEFAULT_MAX_PENDING_LAG, dedup_capacity=DEDUP_CAPACITY
        )
        self.debouncer = StreamingDetector(
            detector, votes_needed=VOTES_NEEDED, vote_window=VOTE_WINDOW
        )
        self.windows_assembled = 0
        self.windows_abstained = 0
        self.windows_scored = 0
        self.windows_shed = 0
        self.inflight = 0
        self.ending = False
        self.closed = False

    # -- intake ---------------------------------------------------------

    def assemble(
        self, delivered: DeliveredPacket
    ) -> tuple[int, float, SignalWindow] | None:
        """Absorb one delivery; ``(sequence, time_s, window)`` on completion."""
        completed = self.assembler.offer(delivered)
        if completed is None:
            return None
        sequence, slot = completed
        self.windows_assembled += 1
        window = window_from_slot(slot, subject_id=self.wearer_id)
        return sequence, slot["ecg"].packet.start_time_s, window

    def assess(self, window: SignalWindow) -> QualityReport | None:
        """Run the SQI gate (observing the tier controller); None = no gate.

        Called once per assembled window, *in arrival order*, before the
        window is queued -- so the tier selected for a window reflects
        exactly the quality history a sequential run would have seen.
        Without a gate, a window with a non-finite sample is still
        reported unusable: the scorer refuses it, and one refused window
        would otherwise fail its whole cross-session micro-batch.
        """
        if self.quality_gate is None:
            if np.isfinite(window.ecg).all() and np.isfinite(window.abp).all():
                return None
            return _NON_FINITE
        report = self.quality_gate.assess(window)
        if self.degradation is not None:
            self.degradation.observe(report)
        return report

    def active_detector(self) -> SIFTDetector:
        """The fitted detector for this session's current tier."""
        if self.degradation is None:
            return self.detector
        version = self.degradation.active
        if version is self.detector.version:
            return self.detector
        try:
            return self.fallbacks[version]
        except KeyError:
            raise KeyError(
                f"session {self.wearer_id!r}: degradation selected "
                f"{version.value!r} but no fitted fallback was provided"
            ) from None

    # -- outcomes (called by the gateway's batcher, in arrival order) ---

    def record_abstain(
        self, sequence: int, time_s: float, sqi: float | None, latency_s: float
    ) -> SessionVerdict:
        """An SQI-gated window: advances the debouncer clock, casts no vote."""
        self.debouncer.abstain_window()
        self.windows_abstained += 1
        return SessionVerdict(
            wearer_id=self.wearer_id,
            sequence=sequence,
            time_s=time_s,
            altered=False,
            decision_value=float("nan"),
            version=self.detector.version.value,
            abstained=True,
            sqi=sqi,
            latency_s=latency_s,
        )

    def record_score(
        self,
        sequence: int,
        time_s: float,
        value: float,
        version: DetectorVersion,
        sqi: float | None,
        latency_s: float,
    ) -> SessionVerdict:
        """One micro-batched decision value, fed to the debouncer."""
        self.debouncer.advance_value(value)
        self.windows_scored += 1
        return SessionVerdict(
            wearer_id=self.wearer_id,
            sequence=sequence,
            time_s=time_s,
            altered=value >= 0.0,
            decision_value=float(value),
            version=version.value,
            sqi=sqi,
            latency_s=latency_s,
        )

    # -- lifecycle ------------------------------------------------------

    def finalize(self) -> int:
        """Flush pending halves and close any open episode; returns lost."""
        lost = self.assembler.flush()
        self.debouncer.finish()
        self.closed = True
        return lost

    @property
    def episodes(self):
        """Attack episodes the debouncer has closed for this wearer."""
        return self.debouncer.episodes

    @property
    def under_attack(self) -> bool:
        return self.debouncer.under_attack()

    # -- snapshot/restore ------------------------------------------------

    def export_state(self) -> SessionState:
        """Everything a fresh session needs to continue bit-identically.

        Only *state* is exported, never configuration or models: the
        restoring gateway is constructed with the same detectors and
        knobs, and a session rebuilt from this value produces the same
        verdicts, episodes and tier switches as one that never stopped.
        Snapshots are quiescent by contract: taking one with windows
        still awaiting scoring would silently drop their debouncer
        advances on restore, so it is refused.
        """
        if self.inflight != 0:
            raise RuntimeError(
                f"session {self.wearer_id!r} has {self.inflight} windows "
                "in flight; drain the gateway before snapshotting"
            )
        return SessionState(
            wearer_id=self.wearer_id,
            assembler=self.assembler.export_state(),
            debouncer=self.debouncer.export_state(),
            degradation=(
                None if self.degradation is None else self.degradation.export_state()
            ),
            windows_assembled=self.windows_assembled,
            windows_abstained=self.windows_abstained,
            windows_scored=self.windows_scored,
            windows_shed=self.windows_shed,
            ending=self.ending,
            closed=self.closed,
        )

    def restore_state(self, state: SessionState) -> None:
        """Resume from an :meth:`export_state` value (round-trip exact)."""
        if state.wearer_id != self.wearer_id:
            raise ValueError(
                f"snapshot belongs to {state.wearer_id!r}, not {self.wearer_id!r}"
            )
        if (state.degradation is None) != (self.degradation is None):
            raise ValueError(
                f"session {self.wearer_id!r}: snapshot and gateway disagree "
                "about degradation being enabled"
            )
        self.assembler.restore_state(state.assembler)
        self.debouncer.restore_state(state.debouncer)
        if self.degradation is not None:
            self.degradation.restore_state(state.degradation)
        self.windows_assembled = state.windows_assembled
        self.windows_abstained = state.windows_abstained
        self.windows_scored = state.windows_scored
        self.windows_shed = state.windows_shed
        self.ending = state.ending
        self.closed = state.closed
