"""Online streaming detection with alert debouncing.

The paper's detector labels each 3-second window independently and alerts
on every positive.  Operationally that is noisy: a single false positive
buzzes the wearer, and a single false negative during a sustained attack
is irrelevant if neighbouring windows fire.  :class:`StreamingDetector`
wraps a trained :class:`~repro.core.detector.SIFTDetector` with a k-of-n
voting debouncer: an *attack episode* starts when at least ``k`` of the
last ``n`` windows are positive and ends when the window votes drop to
zero, trading per-window errors for episode-level precision and a bounded
detection latency of at most ``k`` windows.

Graceful degradation: an optional
:class:`~repro.signals.quality.SignalQualityIndex` gate makes the
detector *abstain* on unusable windows (tracked coverage loss, not a
silent skip), and an optional degradation controller (see
:class:`~repro.adaptive.degradation.DegradationController`) falls back to
lighter detector tiers under sustained degradation, recovering with
hysteresis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.detector import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.signals.dataset import SignalWindow
from repro.signals.quality import SignalQualityIndex

if TYPE_CHECKING:
    from repro.adaptive.degradation import DegradationController

__all__ = ["AttackEpisode", "DebouncerState", "StreamingDetector", "StreamingState"]


@dataclass(frozen=True)
class AttackEpisode:
    """A contiguous run of windows judged to be under attack."""

    start_index: int
    end_index: int  # inclusive
    start_time_s: float
    end_time_s: float
    peak_decision_value: float

    def __post_init__(self) -> None:
        if self.end_index < self.start_index:
            raise ValueError("episode must end at or after its start")

    @property
    def n_windows(self) -> int:
        return self.end_index - self.start_index + 1

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s


@dataclass
class StreamingState:
    """Mutable debouncer state (separated for inspectability).

    ``recent`` holds ``(positive, decision_value)`` pairs for the voting
    horizon; the values are needed to seed the episode peak from the
    opening horizon's positives when an episode triggers.
    """

    window_index: int = 0
    in_episode: bool = False
    episode_start: int = 0
    episode_peak: float = float("-inf")
    recent: deque = field(default_factory=deque)


@dataclass(frozen=True)
class DebouncerState:
    """A :class:`StreamingDetector`'s snapshot: its :class:`StreamingState`
    (the voting horizon as a tuple), closed episodes and abstain history."""

    window_index: int
    in_episode: bool
    episode_start: int
    episode_peak: float
    recent: tuple[tuple[bool, float], ...]
    episodes: tuple[AttackEpisode, ...]
    abstained_indexes: tuple[int, ...]


class StreamingDetector:
    """k-of-n debounced wrapper around a trained detector.

    Parameters
    ----------
    detector:
        A fitted :class:`SIFTDetector` (any version).
    votes_needed:
        ``k``: positives among the last ``n`` windows needed to *open* an
        episode.
    vote_window:
        ``n``: the voting horizon, in windows.
    quality_gate:
        Optional SQI gate.  Windows it judges unusable are *abstained*:
        counted in :attr:`abstained_indexes`, advancing the stream index,
        casting no vote (an episode neither opens, extends nor closes on
        evidence that never existed).  ``None`` (the default) keeps the
        historical classify-everything behaviour bit-identical.
    fallbacks:
        Fitted detectors for lighter tiers, keyed by version; consulted
        when the degradation controller steps down.  The primary
        ``detector`` serves its own version automatically.
    degradation:
        A quality-driven tier controller (duck-typed:
        ``observe(report) -> DetectorVersion`` plus ``active``), e.g.
        :class:`~repro.adaptive.degradation.DegradationController`.
        Requires ``quality_gate``.
    """

    def __init__(
        self,
        detector: SIFTDetector,
        votes_needed: int = 2,
        vote_window: int = 3,
        quality_gate: SignalQualityIndex | None = None,
        fallbacks: Mapping[DetectorVersion, SIFTDetector] | None = None,
        degradation: "DegradationController | None" = None,
    ) -> None:
        if vote_window < 1:
            raise ValueError("vote_window must be >= 1")
        if not 1 <= votes_needed <= vote_window:
            raise ValueError("need 1 <= votes_needed <= vote_window")
        if degradation is not None and quality_gate is None:
            raise ValueError("degradation requires a quality_gate")
        self.detector = detector
        self.votes_needed = int(votes_needed)
        self.vote_window = int(vote_window)
        self.quality_gate = quality_gate
        self.fallbacks = dict(fallbacks) if fallbacks else {}
        self.degradation = degradation
        self.state = StreamingState()
        self.episodes: list[AttackEpisode] = []
        self.abstained_indexes: list[int] = []

    @property
    def window_s(self) -> float:
        return self.detector.window_s

    @property
    def abstain_count(self) -> int:
        return len(self.abstained_indexes)

    @property
    def abstain_rate(self) -> float:
        """Fraction of observed windows withheld by the quality gate."""
        if self.state.window_index == 0:
            return 0.0
        return len(self.abstained_indexes) / self.state.window_index

    def _time_of(self, index: int) -> float:
        return index * self.window_s

    def _active_detector(self) -> SIFTDetector:
        """The detector for the tier currently in force."""
        if self.degradation is None:
            return self.detector
        version = self.degradation.active
        if version is self.detector.version:
            return self.detector
        try:
            return self.fallbacks[version]
        except KeyError:
            raise KeyError(
                f"degradation selected {version.value!r} but no fitted "
                "fallback detector was provided for that tier"
            ) from None

    def _abstain(self) -> None:
        """Record an abstained window: it advances time, casts no vote."""
        self.abstained_indexes.append(self.state.window_index)
        self.state.window_index += 1

    def advance_value(self, value: float) -> AttackEpisode | None:
        """Feed one *externally computed* decision value to the debouncer.

        The ingestion gateway scores windows from many wearers in one
        cross-session micro-batch (:meth:`SIFTDetector.decision_values`)
        and feeds each session's scores back in arrival order.  Because
        the batched scores are bit-identical to the per-window
        :meth:`~repro.core.detector.SIFTDetector.decision_value`, the
        episodes produced here equal a :meth:`process_window` run --
        quality gating and tier selection are the caller's job (they
        happened before the value was computed).
        """
        return self._advance(float(value))

    def abstain_window(self) -> None:
        """Record an externally gated abstain: time advances, no vote.

        The interleaved-session counterpart of the gate branch in
        :meth:`process_window`, for callers that assess quality
        themselves before deciding whether a window gets scored.
        """
        self._abstain()

    def process_window(self, window: SignalWindow) -> AttackEpisode | None:
        """Feed one window; returns the episode if one just *closed*."""
        if self.quality_gate is not None:
            report = self.quality_gate.assess(window)
            if self.degradation is not None:
                self.degradation.observe(report)
            if not report.usable:
                self._abstain()
                return None
        return self._advance(self._active_detector().decision_value(window))

    def process_stream(
        self,
        stream,
        chunk_size: int | None = None,
        flush: bool = False,
    ) -> list[AttackEpisode]:
        """Feed a whole stream through the debouncer in bounded memory.

        Window scores come from
        :meth:`SIFTDetector.iter_decision_values`, which scores
        ``chunk_size`` windows at a time through the batch path, so the
        episodes are identical to feeding each window through
        :meth:`process_window` -- only faster, and with peak memory
        bounded by the chunk size rather than the stream length.

        Returns the episodes that *closed* during this stream.  By
        default an episode still open at the end stays open (the stream
        may continue); pass ``flush=True`` when the stream is finite to
        also close and return the trailing open episode -- callers
        historically forgot the matching :meth:`finish` call and silently
        dropped attacks still in progress at end-of-stream.
        """
        closed: list[AttackEpisode] = []
        if self.quality_gate is not None:
            # The gated path is inherently per-window: each window must be
            # assessed (and may switch tiers) before it can be scored.
            for window in stream:
                episode = self.process_window(window)
                if episode is not None:
                    closed.append(episode)
        else:
            for values in self.detector.iter_decision_values(stream, chunk_size):
                for value in values:
                    episode = self._advance(float(value))
                    if episode is not None:
                        closed.append(episode)
        if flush:
            episode = self.finish()
            if episode is not None:
                closed.append(episode)
        return closed

    def _advance(self, value: float) -> AttackEpisode | None:
        """Advance the debouncer by one window's decision value."""
        state = self.state
        positive = value >= 0.0
        state.recent.append((positive, value))
        if len(state.recent) > self.vote_window:
            state.recent.popleft()

        closed: AttackEpisode | None = None
        votes = sum(vote for vote, _ in state.recent)
        if not state.in_episode and votes >= self.votes_needed:
            state.in_episode = True
            # The episode starts at the earliest positive in the horizon,
            # and its peak is seeded from *all* positives in the horizon
            # (an earlier positive may outscore the triggering window).
            offset = next(
                i for i, (vote, _) in enumerate(state.recent) if vote
            )
            state.episode_start = state.window_index - (
                len(state.recent) - 1 - offset
            )
            state.episode_peak = max(
                v for vote, v in state.recent if vote
            )
        elif state.in_episode:
            if votes == 0:
                # The current window sits *outside* the episode
                # (end_index = window_index - 1), so its value must not
                # contribute to the episode peak.
                closed = self._close_episode(end_index=state.window_index - 1)
            else:
                state.episode_peak = max(state.episode_peak, value)

        state.window_index += 1
        return closed

    def _close_episode(self, end_index: int) -> AttackEpisode:
        state = self.state
        episode = AttackEpisode(
            start_index=state.episode_start,
            end_index=max(end_index, state.episode_start),
            start_time_s=self._time_of(state.episode_start),
            end_time_s=self._time_of(max(end_index, state.episode_start) + 1),
            peak_decision_value=state.episode_peak,
        )
        self.episodes.append(episode)
        state.in_episode = False
        state.episode_peak = float("-inf")
        return episode

    def finish(self) -> AttackEpisode | None:
        """Close any open episode at end of stream; returns it if any."""
        if not self.state.in_episode:
            return None
        return self._close_episode(end_index=self.state.window_index - 1)

    def under_attack(self) -> bool:
        """Is an episode currently open?"""
        return self.state.in_episode

    # -- snapshot/restore (gateway session persistence) -----------------

    def export_state(self) -> DebouncerState:
        """Everything :meth:`restore_state` needs to make a *fresh*
        detector continue the stream bit-identically."""
        state = self.state
        return DebouncerState(
            window_index=state.window_index,
            in_episode=state.in_episode,
            episode_start=state.episode_start,
            episode_peak=state.episode_peak,
            recent=tuple(state.recent),
            episodes=tuple(self.episodes),
            abstained_indexes=tuple(self.abstained_indexes),
        )

    def restore_state(self, state: DebouncerState) -> None:
        """Resume from an :meth:`export_state` value (round-trip exact)."""
        self.state = StreamingState(
            window_index=state.window_index,
            in_episode=state.in_episode,
            episode_start=state.episode_start,
            episode_peak=state.episode_peak,
            recent=deque(state.recent),
        )
        self.episodes = list(state.episodes)
        self.abstained_indexes = list(state.abstained_indexes)

    def reset(self) -> None:
        """Clear state and history (e.g. after re-synchronization)."""
        self.state = StreamingState()
        self.episodes = []
        self.abstained_indexes = []
        if self.degradation is not None:
            self.degradation.reset()
