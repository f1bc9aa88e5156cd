"""Bounded-memory window assembly shared by the base station and gateway.

Pairing same-sequence ECG and ABP packets used to be three lines of
dictionary bookkeeping -- and a memory leak: a stream whose halves are
sometimes lost parks the surviving half in ``_pending`` forever, and the
completed-sequence dedup set grows one entry per window.  Neither bites
in a two-minute experiment; both bite in a multi-day serving session.

:class:`WindowAssembler` owns the whole policy in O(1) memory:

* **Stale eviction.**  A pending half whose partner is more than
  ``max_pending_lag`` sequences behind the highest sequence seen is
  evicted and counted as an incomplete window -- exactly the accounting
  a ``flush_incomplete`` at end-of-stream would have produced, just paid
  continuously instead of never.
* **Bounded dedup.**  Resolved sequences (classified *or* evicted) live
  in a :class:`BoundedDedup` ring instead of an ever-growing set; a
  retransmission of a sequence older than the ring's capacity can no
  longer be recognized, which is the explicit trade for O(1) state (size
  the ring well above the channel's reordering horizon).
* **Integrity precedence.**  A packet failing its CRC is counted as
  corrupted *even if* its sequence was already resolved: nothing in a
  corrupted payload -- including the sequence number used to call it a
  duplicate -- is trustworthy.  The overlap is still observable via
  ``corrupted_duplicate_packets``, so channel fault statistics can
  separate "new data destroyed" from "retransmission destroyed".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.wiot.channel import DeliveredPacket

__all__ = ["AssemblerState", "BoundedDedup", "WindowAssembler"]

#: Eviction horizon, in sequence numbers, for a half still waiting on its
#: partner.  Generous against any realistic reordering (the channel's
#: jitter spans a couple of windows) while keeping pending state tiny.
DEFAULT_MAX_PENDING_LAG = 256

#: Capacity of the resolved-sequence dedup ring.  Retransmissions arrive
#: within the channel's retry horizon -- a few sequences -- so remembering
#: the last few thousand resolved windows is already far on the safe side.
DEFAULT_DEDUP_CAPACITY = 4096


@dataclass(frozen=True)
class AssemblerState:
    """A :class:`WindowAssembler`'s snapshot: pending halves (by sequence,
    then channel), the dedup ring oldest-first, and the counters."""

    pending: dict[int, dict[str, DeliveredPacket]]
    resolved: tuple[int, ...]
    highest_sequence: int
    incomplete_windows: int
    duplicate_packets: int
    corrupted_packets: int
    corrupted_duplicate_packets: int


class BoundedDedup:
    """A FIFO-bounded set of sequence numbers.

    Membership is O(1); once more than ``capacity`` distinct sequences
    have been added, the oldest are forgotten in insertion order.  This
    is the structure that keeps duplicate detection O(1) in stream
    length: correctness degrades only for retransmissions older than the
    whole ring, which a bounded-retry link cannot produce.
    """

    def __init__(self, capacity: int = DEFAULT_DEDUP_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._order: deque[int] = deque()
        self._members: set[int] = set()

    def add(self, sequence: int) -> None:
        """Remember one resolved sequence (idempotent)."""
        if sequence in self._members:
            return
        self._members.add(sequence)
        self._order.append(sequence)
        if len(self._order) > self.capacity:
            self._members.discard(self._order.popleft())

    def __contains__(self, sequence: int) -> bool:
        return sequence in self._members

    def __len__(self) -> int:
        return len(self._members)


class WindowAssembler:
    """Pair same-sequence ECG/ABP deliveries in bounded memory.

    Parameters
    ----------
    max_pending_lag:
        A pending half is evicted (counted in ``incomplete_windows``)
        once the highest sequence seen is more than this many sequences
        ahead of it.  ``None`` disables eviction (the historical
        flush-only behaviour; memory then grows with lost halves).
    dedup_capacity:
        Size of the resolved-sequence ring used for duplicate detection.

    Counters
    --------
    ``incomplete_windows`` counts evicted/flushed halves;
    ``duplicate_packets`` counts intact re-deliveries of an already-seen
    (channel, sequence) or an already-resolved sequence;
    ``corrupted_packets`` counts CRC rejections, of which
    ``corrupted_duplicate_packets`` also claimed an already-resolved
    sequence (see the module docstring for the precedence rationale).
    """

    def __init__(
        self,
        max_pending_lag: int | None = DEFAULT_MAX_PENDING_LAG,
        dedup_capacity: int = DEFAULT_DEDUP_CAPACITY,
    ) -> None:
        if max_pending_lag is not None and max_pending_lag < 1:
            raise ValueError("max_pending_lag must be >= 1 (or None)")
        self.max_pending_lag = max_pending_lag
        self._pending: dict[int, dict[str, DeliveredPacket]] = {}
        self._resolved = BoundedDedup(dedup_capacity)
        self._highest_sequence = -1
        self.incomplete_windows = 0
        self.duplicate_packets = 0
        self.corrupted_packets = 0
        self.corrupted_duplicate_packets = 0

    @property
    def highest_sequence(self) -> int:
        """Highest sequence number seen (-1 before any delivery)."""
        return self._highest_sequence

    @property
    def n_pending(self) -> int:
        """Windows currently waiting on their other half."""
        return len(self._pending)

    @property
    def lowest_pending_sequence(self) -> int | None:
        """Lowest sequence still waiting on its other half, or ``None``.

        Pending slots are insertion-ordered, not sequence-ordered, so a
        reordered stream needs the min over keys.
        """
        return min(self._pending) if self._pending else None

    @property
    def n_resolved_tracked(self) -> int:
        """Resolved sequences currently held by the dedup ring."""
        return len(self._resolved)

    def offer(
        self, delivered: DeliveredPacket
    ) -> tuple[int, dict[str, DeliveredPacket]] | None:
        """Accept one delivery; returns ``(sequence, slot)`` on completion.

        The returned slot maps channel name to its delivery; the caller
        owns classification.  ``None`` means the delivery was absorbed
        (half of a still-incomplete window) or rejected (corrupt, stale,
        duplicate) -- the counters say which.
        """
        packet = delivered.packet
        if (
            delivered.crc32 is not None
            and packet.payload_crc32() != delivered.crc32
        ):
            # Integrity precedence: a payload that fails its CRC is
            # corrupted first, whatever sequence it claims to carry.
            self.corrupted_packets += 1
            if packet.sequence in self._resolved:
                self.corrupted_duplicate_packets += 1
            return None
        if packet.sequence in self._resolved:
            self.duplicate_packets += 1
            return None
        slot = self._pending.setdefault(packet.sequence, {})
        if packet.channel in slot:
            self.duplicate_packets += 1
            return None
        slot[packet.channel] = delivered
        if packet.sequence > self._highest_sequence:
            self._highest_sequence = packet.sequence
        completed: tuple[int, dict[str, DeliveredPacket]] | None = None
        if "ecg" in slot and "abp" in slot:
            del self._pending[packet.sequence]
            self._resolved.add(packet.sequence)
            completed = (packet.sequence, slot)
        self._evict_stale()
        return completed

    def _evict_stale(self) -> None:
        if self.max_pending_lag is None:
            return
        horizon = self._highest_sequence - self.max_pending_lag
        # Fast path: pending is insertion-ordered and streams are near
        # in-order, so the stalest halves sit at the front.
        while self._pending:
            sequence = next(iter(self._pending))
            if sequence >= horizon:
                break
            self._evict(sequence)
        # Reordered insertions can hide a stale half behind a fresh one;
        # a full sweep only when the fast path left more than the lag
        # window can hold keeps the hard O(max_pending_lag) bound while
        # staying amortized O(1) per packet.
        if len(self._pending) > self.max_pending_lag + 1:
            for sequence in [s for s in self._pending if s < horizon]:
                self._evict(sequence)

    def _evict(self, sequence: int) -> None:
        del self._pending[sequence]
        self.incomplete_windows += 1
        # Resolved-by-eviction: a partner arriving after the horizon is
        # a late duplicate of a window already written off, not the seed
        # of a second pending slot (which would double-count the loss).
        self._resolved.add(sequence)

    def flush(self) -> int:
        """Evict every pending half; returns how many windows were lost."""
        lost = len(self._pending)
        for sequence in list(self._pending):
            self._evict(sequence)
        return lost

    # -- snapshot/restore (gateway session persistence) -----------------

    def export_state(self) -> AssemblerState:
        """The assembler's mutable state, for a session snapshot.

        Insertion order of both ``pending`` and the dedup ring is
        preserved: the eviction fast path and the ring's forget order
        depend on it.
        """
        return AssemblerState(
            pending={sequence: dict(slot) for sequence, slot in self._pending.items()},
            resolved=tuple(self._resolved._order),
            highest_sequence=self._highest_sequence,
            incomplete_windows=self.incomplete_windows,
            duplicate_packets=self.duplicate_packets,
            corrupted_packets=self.corrupted_packets,
            corrupted_duplicate_packets=self.corrupted_duplicate_packets,
        )

    def restore_state(self, state: AssemblerState) -> None:
        """Resume from an :meth:`export_state` value (round-trip exact)."""
        self._pending = {sequence: dict(slot) for sequence, slot in state.pending.items()}
        ring = BoundedDedup(self._resolved.capacity)
        for sequence in state.resolved:
            ring.add(sequence)
        self._resolved = ring
        self._highest_sequence = state.highest_sequence
        self.incomplete_windows = state.incomplete_windows
        self.duplicate_packets = state.duplicate_packets
        self.corrupted_packets = state.corrupted_packets
        self.corrupted_duplicate_packets = state.corrupted_duplicate_packets
