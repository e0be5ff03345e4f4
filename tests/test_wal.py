"""Tests for the per-segment diff write-ahead log and crash recovery."""

import os
import struct

import pytest

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import X86_32
from repro.errors import WALError
from repro.obs.metrics import MetricsRegistry
from repro.server import ServerSegment, read_wal, replay_records
from repro.server.wal import REC_DIFF, SegmentWAL, WALRecord, WriteAheadLog
from repro.types import INT, ArrayDescriptor
from repro.wire import BlockDiff, DiffRun, SegmentDiff, encode_segment_diff

from tests.test_server_segment import make_segment_with_array, wire_ints


def make_diff_bytes(value: int, from_version: int) -> bytes:
    return encode_segment_diff(SegmentDiff("host/data", from_version,
                                           from_version + 1, [
        BlockDiff(serial=1, runs=[DiffRun(0, 1, wire_ints(value))])]))


class TestSegmentWAL:
    def test_a_new_file_fsyncs_its_own_directory(self, tmp_path, monkeypatch):
        """Creating the file makes a directory entry: the fsync that
        makes it durable is the WAL directory's, wherever the process
        runs."""
        from repro.server import wal as wal_module

        synced = []
        monkeypatch.setattr(wal_module, "fsync_directory", synced.append)
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        wal = SegmentWAL(str(tmp_path / "seg.iwwal"), "host/data")
        wal.append(0, 1, make_diff_bytes(1, 0))
        wal.append(1, 2, make_diff_bytes(2, 1))
        wal.close()
        assert synced == [str(tmp_path)]

    def test_append_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "seg.iwwal")
        wal = SegmentWAL(path, "host/data")
        for version in range(3):
            wal.append(version, version + 1, make_diff_bytes(version, version),
                       timestamp=float(version))
        wal.close()
        name, records, valid = read_wal(path)
        assert name == "host/data"
        assert [(r.from_version, r.to_version) for r in records] == [
            (0, 1), (1, 2), (2, 3)]
        assert records[1].timestamp == 1.0
        assert records[1].kind == REC_DIFF
        assert valid == os.path.getsize(path)

    def test_torn_tail_is_detected(self, tmp_path):
        path = str(tmp_path / "seg.iwwal")
        wal = SegmentWAL(path, "host/data")
        for version in range(3):
            wal.append(version, version + 1, make_diff_bytes(version, version))
        wal.close()
        whole = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(whole - 5)  # crash mid-append of record 3
        name, records, valid = read_wal(path)
        assert name == "host/data"
        assert len(records) == 2
        assert valid < whole - 5

    def test_crc_mismatch_stops_scan(self, tmp_path):
        path = str(tmp_path / "seg.iwwal")
        wal = SegmentWAL(path, "host/data")
        offsets = []
        size = 0
        for version in range(3):
            offsets.append(size)
            size += wal.append(version, version + 1,
                               make_diff_bytes(version, version))
        wal.close()
        # flip one payload byte inside the second record
        header = os.path.getsize(path) - size
        with open(path, "r+b") as handle:
            handle.seek(header + offsets[1] + 12)
            byte = handle.read(1)
            handle.seek(header + offsets[1] + 12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        _, records, valid = read_wal(path)
        assert len(records) == 1  # the corrupt record and everything after drop
        assert valid == header + offsets[1]

    def test_torn_header_yields_nothing(self, tmp_path):
        path = str(tmp_path / "seg.iwwal")
        path_obj = tmp_path / "seg.iwwal"
        path_obj.write_bytes(b"IWWL" + struct.pack(">I", 1) + b"\x00\x00")
        name, records, valid = read_wal(path)
        assert name is None and records == [] and valid == 0

    def test_not_a_wal_raises(self, tmp_path):
        path = tmp_path / "bogus.iwwal"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(WALError):
            read_wal(str(path))

    def test_compaction_drops_checkpointed_records(self, tmp_path):
        path = str(tmp_path / "seg.iwwal")
        wal = SegmentWAL(path, "host/data")
        for version in range(4):
            wal.append(version, version + 1, make_diff_bytes(version, version))
        kept = wal.compact(up_to_version=2)
        assert kept == 2
        _, records, _ = read_wal(path)
        assert [(r.from_version, r.to_version) for r in records] == [
            (2, 3), (3, 4)]
        # the log stays appendable after compaction
        wal.append(4, 5, make_diff_bytes(4, 4))
        wal.close()
        _, records, _ = read_wal(path)
        assert records[-1].to_version == 5


class TestReplay:
    def _records(self, state, count):
        records = []
        for index in range(count):
            from_version = state.version
            diff = SegmentDiff("host/data", from_version, from_version + 1, [
                BlockDiff(serial=1,
                          runs=[DiffRun(0, 1, wire_ints(100 + index))])])
            state.apply_client_diff(diff, now=float(index))
            records.append(WALRecord(REC_DIFF, from_version, state.version,
                                     float(index), encode_segment_diff(diff)))
        return records

    def test_replay_matches_oracle(self):
        oracle, _ = make_segment_with_array(16)
        records = self._records(oracle, 5)
        # a "restored checkpoint" from before any of the logged diffs
        restored, _ = make_segment_with_array(16)
        applied, skipped = replay_records(restored, records)
        assert (applied, skipped) == (5, 0)
        assert restored.version == oracle.version
        assert restored.read_block_wire(1) == oracle.read_block_wire(1)
        assert restored.version_times == oracle.version_times

    def test_replay_skips_checkpointed_prefix(self):
        oracle, _ = make_segment_with_array(16)
        records = self._records(oracle, 5)
        restored, _ = make_segment_with_array(16)
        # checkpoint already covers the first three logged diffs
        replay_records(restored, records[:3])
        applied, skipped = replay_records(restored, records)
        assert (applied, skipped) == (2, 3)
        assert restored.read_block_wire(1) == oracle.read_block_wire(1)

    def test_replay_is_idempotent(self):
        oracle, _ = make_segment_with_array(16)
        records = self._records(oracle, 4)
        restored, _ = make_segment_with_array(16)
        replay_records(restored, records)
        applied, skipped = replay_records(restored, records)
        assert (applied, skipped) == (0, 4)
        assert restored.read_block_wire(1) == oracle.read_block_wire(1)

    def test_replay_gap_raises(self):
        oracle, _ = make_segment_with_array(16)
        records = self._records(oracle, 4)
        restored, _ = make_segment_with_array(16)
        with pytest.raises(WALError):
            replay_records(restored, records[2:])  # skips versions 2 and 3


class TestManager:
    def test_recover_truncates_torn_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), metrics=MetricsRegistry())
        for version in range(3):
            wal.append("host/data", version, version + 1,
                       make_diff_bytes(version, version))
        wal.close()
        path = wal.path_for("host/data")
        whole = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(whole - 3)
        fresh = WriteAheadLog(str(tmp_path), metrics=MetricsRegistry())
        recovered = fresh.recover()
        assert len(recovered["host/data"]) == 2
        # the torn bytes are gone from disk: a second scan is clean
        _, records, valid = read_wal(path)
        assert len(records) == 2 and valid == os.path.getsize(path)

    def test_recover_removes_headerless_file(self, tmp_path):
        (tmp_path / "torn.iwwal").write_bytes(b"IW")
        wal = WriteAheadLog(str(tmp_path), metrics=MetricsRegistry())
        assert wal.recover() == {}
        assert not (tmp_path / "torn.iwwal").exists()


def _write_values(client, seg, array, base):
    client.wl_acquire(seg)
    array.write_values([base + i for i in range(16)])
    client.wl_release(seg)


class TestServerRecovery:
    def _build(self, tmp_path, clock, checkpoint_every=0):
        hub = InProcHub(clock=clock)
        server = InterWeaveServer(
            "host", sink=hub, clock=clock,
            checkpoint_dir=str(tmp_path / "ck"),
            checkpoint_every=checkpoint_every,
            wal_dir=str(tmp_path / "wal"),
            metrics=MetricsRegistry())
        hub.register_server("host", server)
        return hub, server

    def test_wal_recovers_unacknowledged_checkpoint_window(self, tmp_path):
        clock = VirtualClock()
        hub, server = self._build(tmp_path, clock)  # checkpoints disabled
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("host/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 16), name="a")
        array.write_values(list(range(16)))
        client.wl_release(seg)
        for round_no in range(1, 4):
            _write_values(client, seg, array, round_no * 100)
        crashed_version = server.segments["host/data"].state.version
        server.close()  # crash: no final checkpoint, only the WAL survives

        hub2, server2 = self._build(tmp_path, clock)
        replayed = server2.recover_segments()
        assert replayed["host/data"][0] == 4  # every committed diff replayed
        restored = server2.segments["host/data"].state
        assert restored.version == crashed_version
        reader = InterWeaveClient("r", X86_32, hub2.connect, clock=clock)
        seg_r = reader.open_segment("host/data", create=False)
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values == [300 + i for i in range(16)]

    def test_wal_over_checkpoint_replays_only_the_suffix(self, tmp_path):
        clock = VirtualClock()
        hub, server = self._build(tmp_path, clock, checkpoint_every=2)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("host/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 16), name="a")
        array.write_values(list(range(16)))
        client.wl_release(seg)  # v1
        _write_values(client, seg, array, 100)  # v2: checkpoint + compaction
        _write_values(client, seg, array, 200)  # v3: only in the WAL
        server.close()

        hub2, server2 = self._build(tmp_path, clock, checkpoint_every=2)
        replayed = server2.recover_segments()
        applied, skipped = replayed["host/data"]
        assert applied == 1  # v3; v1..v2 came from the checkpoint
        assert server2.segments["host/data"].state.version == 3
        reader = InterWeaveClient("r", X86_32, hub2.connect, clock=clock)
        seg_r = reader.open_segment("host/data", create=False)
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values == [200 + i for i in range(16)]

    def test_no_acked_version_lost_across_kill_and_restart_soak(self, tmp_path):
        """Crash after every round of writes; every acknowledged release
        must survive each restart (the zero-lost-commits invariant)."""
        clock = VirtualClock()
        acked = 0
        last_base = 0
        for round_no in range(1, 6):
            hub, server = self._build(tmp_path, clock, checkpoint_every=3)
            server.recover_segments()
            client = InterWeaveClient(f"w{round_no}", X86_32, hub.connect,
                                      clock=clock)
            seg = client.open_segment("host/data")
            client.wl_acquire(seg)
            if round_no == 1:
                array = client.malloc(seg, ArrayDescriptor(INT, 16), name="a")
            else:
                array = client.accessor_for(seg, "a")
            last_base = round_no * 1000
            array.write_values([last_base + i for i in range(16)])
            client.wl_release(seg)
            acked = server.segments["host/data"].state.version
            server.close()  # kill -9: nothing flushed beyond the WAL
        hub, server = self._build(tmp_path, clock)
        server.recover_segments()
        assert server.segments["host/data"].state.version == acked
        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        seg_r = reader.open_segment("host/data", create=False)
        reader.rl_acquire(seg_r)
        values = list(reader.accessor_for(seg_r, "a").read_values())
        reader.rl_release(seg_r)
        assert values == [last_base + i for i in range(16)]

    def test_wal_survives_without_checkpoint_dir(self, tmp_path):
        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("host", sink=hub, clock=clock,
                                  wal_dir=str(tmp_path / "wal"),
                                  metrics=MetricsRegistry())
        hub.register_server("host", server)
        client = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = client.open_segment("host/data")
        client.wl_acquire(seg)
        array = client.malloc(seg, ArrayDescriptor(INT, 8), name="a")
        array.write_values([7] * 8)
        client.wl_release(seg)
        server.close()

        server2 = InterWeaveServer("host", clock=clock,
                                   wal_dir=str(tmp_path / "wal"),
                                   metrics=MetricsRegistry())
        replayed = server2.recover_segments()
        assert replayed["host/data"][0] == 1
        assert server2.segments["host/data"].state.version == 1
