"""Crash-consistent gateway session snapshots (JSONL epochs).

A restarted gateway must resume every wearer exactly where it stopped:
the assembler's pending halves and dedup ring (so replayed packets are
rejected, not re-verdicted), the debouncer's voting horizon and open
episode, the degradation tier with its hysteresis streaks, and the
per-session counters.  Each component exports that state as a frozen
dataclass (:class:`~repro.gateway.session.SessionState` nests the
others); this module persists it with :func:`repro.core.codec.encode`
and reads it back with :func:`~repro.core.codec.decode` -- bit-exact
for floats, NaN and -inf included, and for the float32 sample and
peak-index arrays of every pending packet, whatever their dtype.

The file is a :class:`~repro.core.durable_log.DurableLog`, the same
fsynced append-only JSONL log the experiment checkpoints use:

* **epochs** -- a ``begin`` line, one ``session`` line per wearer, one
  ``gateway`` line (the gateway's
  :class:`~repro.gateway.gateway.GatewayStats` record: its own counters
  and the totals of finalized sessions), then a ``commit`` line carrying
  the expected session count, appended and fsynced as one group, so the epoch is durable
  exactly when its commit is.  Every line carries ``schema``;
* **truncation tolerance** -- a torn tail leaves a partial last line;
  :meth:`SessionSnapshotStore.load` skips undecodable lines and ignores
  any epoch whose commit is missing or whose session count disagrees,
  falling back to the previous committed epoch.  An epoch written in
  another schema is refused with a ``ValueError``, never misread.

Snapshots are *quiescent*: the gateway drains its queue first (see
:meth:`~repro.gateway.gateway.IngestionGateway.snapshot`), so no window
is in flight and the persisted debouncer state corresponds exactly to
the verdicts already emitted.  Restore rebuilds sessions bit-identically
-- the restart-window contract (duplicated verdicts confined to windows
scored after the last snapshot) follows from the dedup ring: every
sequence resolved *before* the snapshot is still in the restored ring
and is rejected as a duplicate on replay.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.core.codec import decode, encode
from repro.core.durable_log import DurableLog
from repro.gateway.gateway import GatewayStats
from repro.gateway.session import SessionState

__all__ = ["SNAPSHOT_SCHEMA", "SessionSnapshotStore"]

#: Stamped into every snapshot line.  Lines without it are the
#: hand-encoded layout of earlier builds (schema 1); schema 2 epochs
#: carried a separate gateway-state layout and a recent-verdict ring
#: per session.
SNAPSHOT_SCHEMA = 3


class SessionSnapshotStore:
    """Epoch-structured JSONL persistence for gateway session state.

    One store = one file = one gateway.  Epochs are numbered
    monotonically; :meth:`load` returns the newest *committed* epoch,
    whatever garbage follows it.  :meth:`compact` atomically rewrites
    the file down to that epoch so a long-running gateway's snapshot
    file stays O(fleet), not O(uptime).
    """

    def __init__(self, path: str | Path) -> None:
        self.log = DurableLog(path)
        self.path = self.log.path
        # Numbering must advance past *torn* epochs too: a crash
        # mid-write leaves epoch N begun but uncommitted, and a reopened
        # store that reused N would merge both attempts into one epoch
        # whose session count can never match its commit -- the fresh,
        # fully fsynced epoch would be rejected and load() would fall
        # back to stale state.
        self._next_epoch = 1 + max(
            (r["epoch"] for r in self.log.records() if isinstance(r.get("epoch"), int)),
            default=0,
        )

    def write_epoch(self, gateway: GatewayStats, sessions: Sequence[SessionState]) -> int:
        """Append one complete snapshot epoch; returns its number."""
        epoch = self._next_epoch
        head = {"schema": SNAPSHOT_SCHEMA, "epoch": epoch}
        self.log.append(
            [
                {**head, "kind": "begin"},
                *({**head, "kind": "session", "state": encode(s)} for s in sessions),
                {**head, "kind": "gateway", "state": encode(gateway)},
                {**head, "kind": "commit", "n_sessions": len(sessions)},
            ]
        )
        self._next_epoch = epoch + 1
        return epoch

    def _newest_committed(self) -> tuple[int, list[dict[str, Any]]] | None:
        """The newest committed epoch's number and lines, or ``None``."""
        epochs: dict[int, list[dict[str, Any]]] = {}
        for record in self.log.records():
            epoch = record.get("epoch")
            if not isinstance(epoch, int):
                continue
            if record.get("kind") == "begin":
                # Last begin-delimited attempt wins: merging two attempts
                # at one number would desynchronize the session count
                # from the commit and reject the good attempt.
                epochs[epoch] = []
            epochs.setdefault(epoch, []).append(record)
        for epoch in sorted(epochs, reverse=True):
            kinds = [record.get("kind") for record in epochs[epoch]]
            commits = [r for r in epochs[epoch] if r.get("kind") == "commit"]
            if (
                commits
                and "gateway" in kinds
                and commits[-1].get("n_sessions") == kinds.count("session")
            ):
                return epoch, epochs[epoch]
        return None

    def load(self) -> tuple[int, GatewayStats, list[SessionState]] | None:
        """The newest committed epoch, decoded, or ``None`` if there is
        none (missing file, empty file, or nothing ever committed).

        Raises ``ValueError`` when that epoch was written in another
        schema: an old layout is refused, not guessed at.
        """
        found = self._newest_committed()
        if found is None:
            return None
        epoch, records = found
        foreign = [r.get("schema", 1) for r in records if r.get("schema", 1) != SNAPSHOT_SCHEMA]
        if foreign:
            raise ValueError(
                f"{self.path}: snapshot epoch {epoch} is in schema {foreign[0]!r}; "
                f"this build reads schema {SNAPSHOT_SCHEMA} only"
            )
        gateway = [r["state"] for r in records if r.get("kind") == "gateway"][-1]
        sessions = [r["state"] for r in records if r.get("kind") == "session"]
        return (
            epoch,
            decode(GatewayStats, gateway),
            [decode(SessionState, state) for state in sessions],
        )

    def compact(self) -> bool:
        """Rewrite the file down to its newest committed epoch.

        Atomic and fsynced (see :meth:`DurableLog.replace`), and a no-op
        when there is nothing committed.  Returns whether anything was
        kept.
        """
        found = self._newest_committed()
        if found is None:
            return False
        self.log.replace(found[1])
        return True
