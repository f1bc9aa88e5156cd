"""Tests for gateway session snapshot/restore and the epoch store.

The contract under test: a restored session is *indistinguishable* from
one that never stopped -- same export (round-tripped through the codec
and JSON, as the store persists it), same future verdicts for the same
future windows, same duplicate rejection.  The store side: an epoch is
durable exactly when its commit line is (the directory entry included),
any byte-level truncation falls back to the newest surviving committed
epoch without raising, and an epoch in another schema is refused.
"""

import asyncio
import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.degradation import DegradationController
from repro.core.codec import decode, encode
from repro.core.versions import DetectorVersion
from repro.gateway import (
    GatewayStats,
    IngestionGateway,
    SessionSnapshotStore,
    WearerSession,
)
from repro.gateway.session import SessionState
from repro.wiot.assembly import AssemblerState, WindowAssembler
from repro.wiot.channel import DeliveredPacket
from repro.wiot.sensor import BodySensor


def _session(detector, wearer_id="w0"):
    return WearerSession(wearer_id, detector)


def _json_roundtrip(state):
    """Exactly what the store does to a session export."""
    return decode(SessionState, json.loads(json.dumps(encode(state))))


def _gateway_state(n):
    """A distinguishable gateway record for epoch ``n``."""
    return GatewayStats(sessions_started=n)


# -- property: snapshot round-trip ---------------------------------------

# One wearer's verdict history: abstains interleaved with finite scores
# (NaN is the abstain sentinel itself, so scored values are finite).
_OPS = st.lists(
    st.one_of(
        st.none(),  # abstain
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    max_size=30,
)


class TestSessionRoundTrip:
    @settings(deadline=None, max_examples=60)
    @given(ops=_OPS, future=st.lists(st.floats(-4, 4), max_size=6))
    def test_restore_is_bit_identical_and_continues_identically(
        self, trained_detectors, ops, future
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        original = _session(detector)
        for sequence, op in enumerate(ops):
            if op is None:
                original.record_abstain(sequence, sequence * 3.0, 0.1, 0.0)
            else:
                original.record_score(
                    sequence, sequence * 3.0, op, detector.version, None, 0.0
                )

        exported = _json_roundtrip(original.export_state())
        restored = _session(detector)
        restored.restore_state(exported)

        # Bit-identical export, NaN abstain sentinels included (NaN
        # breaks dict equality, so compare the serialized form).
        assert json.dumps(encode(restored.export_state())) == json.dumps(
            encode(original.export_state())
        )

        # The two sessions are now interchangeable: identical future
        # verdicts, episode structure, and debouncer horizon.
        for offset, value in enumerate(future):
            sequence = len(ops) + offset
            a = original.record_score(
                sequence, sequence * 3.0, value, detector.version, None, 0.0
            )
            b = restored.record_score(
                sequence, sequence * 3.0, value, detector.version, None, 0.0
            )
            assert (a.altered, a.decision_value) == (b.altered, b.decision_value)
        original.finalize()
        restored.finalize()
        assert original.episodes == restored.episodes

    def test_refuses_snapshot_with_windows_in_flight(self, trained_detectors):
        session = _session(trained_detectors[DetectorVersion.SIMPLIFIED])
        session.inflight = 1
        with pytest.raises(RuntimeError, match="in flight"):
            session.export_state()

    def test_refuses_foreign_wearer_snapshot(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        exported = _session(detector, "w-a").export_state()
        with pytest.raises(ValueError, match="belongs to"):
            _session(detector, "w-b").restore_state(exported)

    def test_refuses_degradation_disagreement(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        exported = _session(detector).export_state()
        exported = dataclasses.replace(
            exported, degradation=DegradationController().export_state()
        )
        with pytest.raises(ValueError, match="degradation"):
            _session(detector).restore_state(exported)


class TestPendingHalves:
    def test_pending_and_dedup_survive_the_round_trip(
        self, trained_detectors, test_record
    ):
        """A restored assembler completes the same windows and rejects
        the same duplicates as one that never stopped."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        ecg = list(BodySensor("s-ecg", "ecg", test_record).packets())[:4]
        abp = list(BodySensor("s-abp", "abp", test_record).packets())[:4]

        def deliver(packet):
            return DeliveredPacket(
                packet=packet, arrival_time_s=packet.start_time_s
            )

        original = _session(detector)
        # Sequence 0 completes; 1 and 2 are left as pending ECG halves.
        original.assemble(deliver(ecg[0]))
        original.assemble(deliver(abp[0]))
        original.assemble(deliver(ecg[1]))
        original.assemble(deliver(ecg[2]))

        exported = original.export_state()
        restored = _session(detector)
        restored.restore_state(exported)
        assert restored.assembler.n_pending == 2
        assert restored.assembler.highest_sequence == 2

        # The surviving halves complete identically in both sessions...
        for session in (original, restored):
            completed = session.assemble(deliver(abp[1]))
            assert completed is not None
            sequence, _, window = completed
            assert sequence == 1
            assert window.ecg.tobytes() == ecg[1].samples.astype("f4").tobytes()
        # ...and a replay of the resolved sequence 0 is rejected by both.
        for session in (original, restored):
            assert session.assemble(deliver(ecg[0])) is None
        assert restored.assembler.duplicate_packets == 1


    def test_dedup_ring_keeps_its_forget_order(self, test_record):
        """The ring forgets in insertion order, not sequence order; a
        restore that reordered it would forget the wrong sequence."""
        ecg = list(BodySensor("s-ecg", "ecg", test_record).packets())[:3]
        abp = list(BodySensor("s-abp", "abp", test_record).packets())[:3]

        def complete(assembler, i):
            for packet in (ecg[i], abp[i]):
                assembler.offer(DeliveredPacket(packet=packet, arrival_time_s=0.0))

        original = WindowAssembler(dedup_capacity=2)
        complete(original, 2)
        complete(original, 0)  # resolved after 2: the ring is [2, 0]
        restored = WindowAssembler(dedup_capacity=2)
        restored.restore_state(
            decode(AssemblerState, json.loads(json.dumps(encode(original.export_state()))))
        )
        for assembler in (original, restored):
            complete(assembler, 1)  # the full ring forgets 2, its oldest
            assembler.offer(DeliveredPacket(packet=ecg[0], arrival_time_s=0.0))
            assert (assembler.duplicate_packets, assembler.n_pending) == (1, 0)
            assembler.offer(DeliveredPacket(packet=ecg[2], arrival_time_s=0.0))
            assert (assembler.duplicate_packets, assembler.n_pending) == (1, 1)


class TestResumePoints:
    def test_resume_point_drops_below_pending_halves(
        self, tmp_path, trained_detectors, test_record
    ):
        """A pending window's missing half was never delivered, so the
        resume point must sit below the oldest pending sequence, not at
        the high-water mark -- a sender replaying from resume+1 would
        otherwise strand those windows until they expire incomplete."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        ecg = list(BodySensor("s-ecg", "ecg", test_record).packets())[:4]
        abp = list(BodySensor("s-abp", "abp", test_record).packets())[:4]

        def deliver(packet):
            return DeliveredPacket(
                packet=packet, arrival_time_s=packet.start_time_s
            )

        store = SessionSnapshotStore(tmp_path / "s.jsonl")

        async def _run():
            gateway = IngestionGateway(detector)
            async with gateway:
                # Window 0 completes; 1 and 3 are stranded ECG halves.
                gateway.submit("w0", deliver(ecg[0]))
                gateway.submit("w0", deliver(abp[0]))
                gateway.submit("w0", deliver(ecg[1]))
                gateway.submit("w0", deliver(ecg[3]))
                await gateway.snapshot(store)

        asyncio.run(_run())
        successor = IngestionGateway(detector)
        # highest_sequence is 3, but pending windows 1 and 3 still need
        # their ABP halves: replay must restart at sequence 1.
        assert successor.restore_sessions(store) == {"w0": 0}


class TestGatewayCounters:
    def test_restore_brings_back_the_gateway_counters(
        self, tmp_path, trained_detectors, test_record
    ):
        """A restored gateway reports what the crashed one did: sessions
        started, shed windows, batches, duplicates, and the totals of a
        session that had already ended (only the gateway remembers it)."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        pairs = zip(
            BodySensor("s-ecg", "ecg", test_record).packets(),
            BodySensor("s-abp", "abp", test_record).packets(),
        )
        deliveries = [
            DeliveredPacket(packet=packet, arrival_time_s=packet.start_time_s)
            for pair in pairs
            for packet in pair
        ][:16]
        store = SessionSnapshotStore(tmp_path / "s.jsonl")

        def gateway():
            return IngestionGateway(detector, batch_size=2, max_inflight_per_session=3)

        async def _run():
            victim = gateway()
            victim.start()
            for wearer_id in ("a", "b", "c"):
                # No yield while submitting: past 3 in flight, windows shed.
                for delivered in deliveries:
                    victim.submit(wearer_id, delivered)
                victim.submit(wearer_id, deliveries[0])  # a replay
                await victim.drain()
            victim.end_session("c")
            await victim.snapshot(store)
            stats = victim.stats()
            await victim.abort()
            return stats

        stats = asyncio.run(_run())
        assert (stats.sessions_started, stats.sessions_active) == (3, 2)
        assert (stats.windows_shed_session, stats.duplicate_packets) == (15, 3)
        successor = gateway()
        successor.restore_sessions(store)
        assert successor.stats() == stats


class TestPacketCodec:
    def test_bit_exact_for_device_floats(self, rng):
        from repro.wiot.sensor import SensorPacket

        samples = rng.standard_normal(750).astype(np.float32)
        samples[:2] = [np.nan, -0.0]
        packet = SensorPacket(
            sensor_id="s-ecg",
            channel="ecg",
            sequence=41,
            start_time_s=123.456,
            samples=samples,
            peak_indexes=np.asarray([10, 400, 700], dtype=np.intp),
            sample_rate=250.0,
        )
        delivered = DeliveredPacket(
            packet=packet,
            arrival_time_s=123.789,
            crc32=packet.payload_crc32(),
        )
        decoded = decode(DeliveredPacket, json.loads(json.dumps(encode(delivered))))
        assert decoded.packet.samples.dtype == np.float32
        assert decoded.packet.samples.tobytes() == samples.tobytes()
        assert decoded.packet.payload_crc32() == delivered.crc32
        assert decoded.arrival_time_s == delivered.arrival_time_s
        assert np.array_equal(decoded.packet.peak_indexes, packet.peak_indexes)
        assert decoded.packet.peak_indexes.dtype == np.intp

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_peak_index_dtype_survives(self, rng, dtype):
        """The round trip is exact for *whatever* dtype the device used
        -- widening to int64 on decode would break bit-identity checks
        that compare ``tobytes()`` across a restart."""
        from repro.wiot.sensor import SensorPacket

        packet = SensorPacket(
            sensor_id="s-ecg",
            channel="ecg",
            sequence=0,
            start_time_s=0.0,
            samples=rng.standard_normal(750).astype(np.float32),
            peak_indexes=np.asarray([3, 99, 512], dtype=dtype),
            sample_rate=250.0,
        )
        delivered = DeliveredPacket(packet=packet, arrival_time_s=0.5)
        decoded = decode(DeliveredPacket, json.loads(json.dumps(encode(delivered))))
        assert decoded.packet.peak_indexes.dtype == dtype
        assert (
            decoded.packet.peak_indexes.tobytes()
            == packet.peak_indexes.tobytes()
        )


class TestSnapshotStore:
    def _epoch(self, detector, values):
        session = _session(detector)
        for sequence, value in enumerate(values):
            session.record_score(
                sequence, sequence * 3.0, value, detector.version, None, 0.0
            )
        return session.export_state()

    def test_newest_committed_epoch_wins(self, tmp_path, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        store = SessionSnapshotStore(tmp_path / "s.jsonl")
        assert store.load() is None  # cold start
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1, -0.5])])
        epoch, gateway_state, sessions = store.load()
        assert epoch == 2
        assert gateway_state == _gateway_state(2)
        assert sessions[0].windows_scored == 2

    def test_every_truncation_point_recovers_a_committed_epoch(
        self, tmp_path, trained_detectors
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        path = tmp_path / "s.jsonl"
        store = SessionSnapshotStore(path)
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        boundary = path.stat().st_size  # epoch 1's commit is durable here
        store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1, -0.5])])
        payload = path.read_bytes()

        last_epoch = 0
        for cut in range(len(payload) + 1):
            torn = tmp_path / "torn.jsonl"
            torn.write_bytes(payload[:cut])
            loaded = SessionSnapshotStore(torn).load()
            epoch = 0 if loaded is None else loaded[0]
            # Recovery is monotone in surviving bytes and epoch 1 is
            # recoverable from exactly its commit point onward.
            assert epoch >= last_epoch
            if cut >= boundary:
                assert epoch >= 1
            # Epoch 2 needs its full commit JSON (the trailing newline
            # is dispensable -- the last line still parses without it).
            if cut < len(payload) - 1:
                assert epoch < 2
            last_epoch = epoch
        assert last_epoch == 2

        # A restored session from the torn-at-boundary file still works.
        epoch, _, sessions = SessionSnapshotStore(path).load()
        restored = _session(detector)
        restored.restore_state(sessions[0])
        assert restored.windows_scored == 2

    def test_torn_tail_then_write_then_load_recovers_the_new_epoch(
        self, tmp_path, trained_detectors
    ):
        """The crash-mid-snapshot shape: epoch 2 is begun (begin + a
        session line) but never committed.  The reopened store must not
        reuse epoch number 2 -- a reused number merges the torn and
        fresh attempts into one bucket whose session count can never
        match its commit, silently rejecting the fresh epoch."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        path = tmp_path / "s.jsonl"
        store = SessionSnapshotStore(path)
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        boundary = path.stat().st_size
        store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1, -0.5])])
        # Tear epoch 2 mid-write: keep its begin + session lines, drop
        # the gateway and commit tail.
        lines = path.read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:-2])
        assert len(torn) > boundary  # epoch 2 really is begun
        path.write_bytes(torn)

        reopened = SessionSnapshotStore(path)
        written = reopened.write_epoch(
            _gateway_state(3), [self._epoch(detector, [0.2, 0.3, -0.1])]
        )
        assert written == 3  # torn epoch 2's number is not reused
        epoch, gateway_state, sessions = SessionSnapshotStore(path).load()
        assert (epoch, gateway_state) == (3, _gateway_state(3))
        assert sessions[0].windows_scored == 3

    def test_second_attempt_at_same_epoch_number_wins(
        self, tmp_path, trained_detectors
    ):
        """Defense in depth for files written before epoch numbering
        advanced past torn attempts: two begin-delimited attempts at one
        number may coexist, and the committed last attempt must load."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        path = tmp_path / "s.jsonl"
        store = SessionSnapshotStore(path)
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        with path.open("a") as fh:  # torn first attempt at epoch 2
            fh.write(json.dumps({"kind": "begin", "epoch": 2}) + "\n")
            fh.write(
                json.dumps(
                    {"kind": "session", "epoch": 2, "state": {"bogus": 1}}
                )
                + "\n"
            )
        store._next_epoch = 2  # simulate the legacy reopen numbering
        store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1, -0.5])])
        epoch, gateway_state, sessions = SessionSnapshotStore(path).load()
        assert (epoch, gateway_state) == (2, _gateway_state(2))
        assert len(sessions) == 1
        assert sessions[0].windows_scored == 2

    def test_garbage_lines_are_skipped_not_fatal(
        self, tmp_path, trained_detectors
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        path = tmp_path / "s.jsonl"
        store = SessionSnapshotStore(path)
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        with path.open("a") as fh:
            fh.write("{not json at all\n")
            fh.write(json.dumps({"kind": "commit", "epoch": "bogus"}) + "\n")
        epoch, gateway_state, _ = SessionSnapshotStore(path).load()
        assert (epoch, gateway_state) == (1, _gateway_state(1))

    def test_compact_keeps_only_the_newest_epoch(
        self, tmp_path, trained_detectors
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        path = tmp_path / "s.jsonl"
        store = SessionSnapshotStore(path)
        for n in range(1, 4):
            store.write_epoch(
                _gateway_state(n), [self._epoch(detector, [0.1] * n)]
            )
        before = path.stat().st_size
        assert store.compact()
        assert path.stat().st_size < before
        epoch, gateway_state, sessions = SessionSnapshotStore(path).load()
        assert (epoch, gateway_state.sessions_started) == (3, 3)
        assert sessions[0].windows_scored == 3
        # Epoch numbering keeps climbing after compaction.
        assert SessionSnapshotStore(path).write_epoch(_gateway_state(4), []) == 4

    def test_nan_samples_round_trip(self, tmp_path, trained_detectors, test_record):
        """A sensor dropout leaves NaN samples in a half still waiting
        for its partner; the store must not corrupt them (json allows
        NaN literals by default -- pin that)."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        ecg = next(iter(BodySensor("s-ecg", "ecg", test_record).packets()))
        samples = ecg.samples.copy()
        samples[3] = np.nan
        session = _session(detector)
        session.assemble(
            DeliveredPacket(
                packet=dataclasses.replace(ecg, samples=samples), arrival_time_s=0.0
            )
        )
        store = SessionSnapshotStore(tmp_path / "s.jsonl")
        store.write_epoch(_gateway_state(0), [session.export_state()])
        _, _, sessions = store.load()
        restored = sessions[0].assembler.pending[ecg.sequence]["ecg"].packet.samples
        assert restored.dtype == samples.dtype
        assert np.isnan(restored[3])
        finite = ~np.isnan(samples)
        assert restored[finite].tobytes() == samples[finite].tobytes()

    def test_old_format_epoch_is_refused(self, tmp_path, trained_detectors):
        """An epoch in an earlier layout is refused by name, never
        silently misread: the hand-encoded one without a ``schema``
        field (schema 1), and schema 2, whose gateway line held a
        separate state layout."""
        legacy_gateway = {
            1: {"sessions_started": 0},
            2: {
                "sessions_started": 0,
                "windows_shed_queue": 0,
                "windows_shed_session": 0,
                "batches": 0,
                "batched_windows": 0,
                "windows_unscorable": 0,
                "closed_totals": {"windows_scored": 0},
            },
        }
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        for schema, state in legacy_gateway.items():
            path = tmp_path / f"schema{schema}.jsonl"
            head = {"epoch": 1} if schema == 1 else {"schema": schema, "epoch": 1}
            legacy = [
                {**head, "kind": "begin"},
                {**head, "kind": "gateway", "state": state},
                {**head, "kind": "commit", "n_sessions": 0},
            ]
            path.write_text("".join(json.dumps(record) + "\n" for record in legacy))
            with pytest.raises(ValueError, match=f"schema {schema}.*reads schema 3"):
                SessionSnapshotStore(path).load()
            # A newer epoch in the current schema supersedes it.
            store = SessionSnapshotStore(path)
            assert store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1])]) == 2
            epoch, gateway_state, _ = store.load()
            assert (epoch, gateway_state) == (2, _gateway_state(2))

    def test_new_file_and_compact_fsync_the_directory(
        self, tmp_path, trained_detectors, monkeypatch
    ):
        """Without a directory fsync a crash can drop a new file's entry,
        or bring the pre-compaction inode back and lose every epoch
        appended after the rename."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st_ = os.fstat(fd)
            events.append(("dir" if stat.S_ISDIR(st_.st_mode) else "file", st_.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("replace", None))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        parent = ("dir", tmp_path.stat().st_ino)
        store = SessionSnapshotStore(tmp_path / "s.jsonl")
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        assert events[-1] == parent
        events.clear()
        store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1, -0.5])])
        assert [kind for kind, _ in events] == ["file"]  # existing file: no dir sync
        events.clear()
        assert store.compact()
        assert [kind for kind, _ in events] == ["file", "replace", "dir"]
        assert events[-1] == parent

    def test_failed_compact_keeps_the_file_and_leaves_no_tmp(
        self, tmp_path, trained_detectors, monkeypatch
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        path = tmp_path / "s.jsonl"
        store = SessionSnapshotStore(path)
        store.write_epoch(_gateway_state(1), [self._epoch(detector, [0.1])])
        store.write_epoch(_gateway_state(2), [self._epoch(detector, [0.1, -0.5])])
        before = path.read_bytes()

        def disk_full(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError, match="disk full"):
            store.compact()
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]
