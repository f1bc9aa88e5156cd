"""Quality-driven tier fallback with hysteresis.

The paper's adaptive-security vision switches detector versions on
*resource* pressure; under *signal* pressure the same lever applies: when
sustained low-quality input makes the heavy matrix features unreliable
(their occupancy grids smear under artifacts), stepping down to a lighter
build keeps some detection capability instead of abstaining outright.

:class:`DegradationController` consumes per-window
:class:`~repro.signals.quality.QualityReport` observations and selects a
tier from an ordered ladder (heaviest first).  It steps *down* after
``degrade_after`` consecutive degraded windows and *up* only after
``recover_after`` consecutive clean ones -- asymmetric thresholds are the
hysteresis (same spirit as
:class:`~repro.adaptive.hysteresis.HysteresisPolicy`'s dwell: stepping
down is an emergency, stepping back up must be earned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.versions import DetectorVersion
from repro.signals.quality import QualityReport

__all__ = ["DegradationController", "DegradationState", "TierSwitch"]


@dataclass(frozen=True)
class TierSwitch:
    """One tier change, recorded at the window index that triggered it."""

    window_index: int
    version: DetectorVersion
    direction: str  # "down" | "up"


@dataclass(frozen=True)
class DegradationState:
    """A :class:`DegradationController`'s snapshot (tier level, streaks,
    windows observed and the switch history)."""

    level: int
    bad_streak: int
    good_streak: int
    observed: int
    switches: tuple[TierSwitch, ...]


class DegradationController:
    """Hysteretic tier selector driven by signal quality.

    Parameters
    ----------
    tiers:
        The fallback ladder, heaviest build first (default: the paper's
        original -> simplified -> reduced).
    degrade_after:
        Consecutive degraded windows before stepping down one tier.
    recover_after:
        Consecutive clean windows before stepping back up one tier; kept
        larger than ``degrade_after`` by default so recovery lags
        degradation (hysteresis -- no tier thrash on a noisy boundary).
    sqi_floor:
        Quality level that counts as *degraded* for tier purposes.
        ``None`` uses each report's own ``usable`` verdict, so the
        controller degrades on the same evidence the gate abstains on.
    """

    def __init__(
        self,
        tiers: Sequence[DetectorVersion] = (
            DetectorVersion.ORIGINAL,
            DetectorVersion.SIMPLIFIED,
            DetectorVersion.REDUCED,
        ),
        degrade_after: int = 5,
        recover_after: int = 12,
        sqi_floor: float | None = None,
    ) -> None:
        if not tiers:
            raise ValueError("need at least one tier")
        if len(set(tiers)) != len(tiers):
            raise ValueError("tiers must be distinct")
        if degrade_after < 1 or recover_after < 1:
            raise ValueError("degrade_after and recover_after must be >= 1")
        if sqi_floor is not None and not 0.0 <= sqi_floor <= 1.0:
            raise ValueError("sqi_floor must be in [0, 1]")
        self.tiers = tuple(tiers)
        self.degrade_after = int(degrade_after)
        self.recover_after = int(recover_after)
        self.sqi_floor = sqi_floor
        self.reset()

    def clone(self) -> "DegradationController":
        """A fresh controller with identical parameters and no history.

        The ingestion gateway holds one template controller and spawns a
        clone per wearer session, so each wearer degrades and recovers on
        its own signal quality rather than on the interleaved stream's.
        """
        return DegradationController(
            tiers=self.tiers,
            degrade_after=self.degrade_after,
            recover_after=self.recover_after,
            sqi_floor=self.sqi_floor,
        )

    def reset(self) -> None:
        """Return to the heaviest tier and clear all history."""
        self._level = 0
        self._bad_streak = 0
        self._good_streak = 0
        self._observed = 0
        self.switches: list[TierSwitch] = []

    @property
    def active(self) -> DetectorVersion:
        """The tier currently in force."""
        return self.tiers[self._level]

    @property
    def n_observed(self) -> int:
        return self._observed

    def _degraded(self, report: QualityReport) -> bool:
        if self.sqi_floor is not None:
            return report.sqi < self.sqi_floor
        return not report.usable

    # -- snapshot/restore (gateway session persistence) -----------------

    def export_state(self) -> DegradationState:
        """The hysteresis state and switch history."""
        return DegradationState(
            level=self._level,
            bad_streak=self._bad_streak,
            good_streak=self._good_streak,
            observed=self._observed,
            switches=tuple(self.switches),
        )

    def restore_state(self, state: DegradationState) -> None:
        """Resume from an :meth:`export_state` value (round-trip exact)."""
        if not 0 <= state.level < len(self.tiers):
            raise ValueError(f"snapshot tier level {state.level} outside the ladder")
        self._level = state.level
        self._bad_streak = state.bad_streak
        self._good_streak = state.good_streak
        self._observed = state.observed
        self.switches = list(state.switches)

    def observe(self, report: QualityReport) -> DetectorVersion:
        """Feed one window's quality report; returns the tier to use."""
        index = self._observed
        self._observed += 1
        if self._degraded(report):
            self._bad_streak += 1
            self._good_streak = 0
            if (
                self._bad_streak >= self.degrade_after
                and self._level < len(self.tiers) - 1
            ):
                self._level += 1
                self._bad_streak = 0
                self.switches.append(
                    TierSwitch(index, self.tiers[self._level], "down")
                )
        else:
            self._good_streak += 1
            self._bad_streak = 0
            if self._good_streak >= self.recover_after and self._level > 0:
                self._level -= 1
                self._good_streak = 0
                self.switches.append(
                    TierSwitch(index, self.tiers[self._level], "up")
                )
        return self.active
