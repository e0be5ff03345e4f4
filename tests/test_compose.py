"""Tests for cached-diff composition (multi-version updates)."""

import random

import pytest

from repro.errors import ServerError
from repro.server.compose import _merge_columns, compose_diffs
from repro.wire import BlockDiff, DiffRun, SegmentDiff


def diff(from_version, to_version, blocks, types=()):
    return SegmentDiff("s", from_version, to_version, blocks, list(types))


class TestChainValidation:
    def test_empty_chain_rejected(self):
        with pytest.raises(ServerError):
            compose_diffs([])

    def test_broken_chain_rejected(self):
        with pytest.raises(ServerError):
            compose_diffs([diff(1, 2, []), diff(3, 4, [])])

    def test_mixed_segments_rejected(self):
        with pytest.raises(ServerError):
            compose_diffs([diff(1, 2, []),
                           SegmentDiff("other", 2, 3, [])])

    def test_versions_span_chain(self):
        result = compose_diffs([diff(1, 2, []), diff(2, 3, []), diff(3, 5, [])])
        assert (result.from_version, result.to_version) == (1, 5)


class TestRunMerging:
    def test_distinct_blocks_pass_through(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, runs=[DiffRun(0, 1, b"a")])]),
            diff(2, 3, [BlockDiff(serial=2, runs=[DiffRun(0, 1, b"b")])]),
        ])
        assert [bd.serial for bd in result.block_diffs] == [1, 2]

    def test_covered_older_run_dropped(self):
        """The repeated-counter case: the newer write shadows the older."""
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, runs=[DiffRun(4, 1, b"old!")])]),
            diff(2, 3, [BlockDiff(serial=1, runs=[DiffRun(4, 1, b"new!")])]),
        ])
        (block,) = result.block_diffs
        assert [(r.prim_start, r.data) for r in block.runs] == [(4, b"new!")]

    def test_wider_newer_run_covers(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, runs=[DiffRun(5, 2, b"xx")])]),
            diff(2, 3, [BlockDiff(serial=1, runs=[DiffRun(4, 4, b"yyyy")])]),
        ])
        (block,) = result.block_diffs
        assert len(block.runs) == 1

    def test_partial_overlap_keeps_both_in_order(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, runs=[DiffRun(0, 4, b"old4")])]),
            diff(2, 3, [BlockDiff(serial=1, runs=[DiffRun(2, 4, b"new4")])]),
        ])
        (block,) = result.block_diffs
        # older first so the newer overwrite wins where they overlap
        assert [r.data for r in block.runs] == [b"old4", b"new4"]

    def test_disjoint_runs_accumulate(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=1, runs=[DiffRun(0, 1, b"a")])]),
            diff(2, 3, [BlockDiff(serial=1, runs=[DiffRun(9, 1, b"b")])]),
        ])
        (block,) = result.block_diffs
        assert len(block.runs) == 2


class TestMergeColumnsSweep:
    """The sorted-interval sweep over columns must be indistinguishable
    from the naive O(n*m) pairwise scan over run objects, and every
    surviving run must keep its own payload bytes."""

    @staticmethod
    def naive(accumulated, incoming):
        def covers(newer, older):
            return (newer.prim_start <= older.prim_start
                    and newer.prim_start + newer.prim_count
                    >= older.prim_start + older.prim_count)

        return [run for run in accumulated
                if not any(covers(newer, run) for newer in incoming)] + incoming

    @staticmethod
    def merged(accumulated, incoming):
        return BlockDiff(1, columns=_merge_columns(
            BlockDiff(1, runs=accumulated).columns,
            BlockDiff(1, runs=incoming).columns)).runs

    @staticmethod
    def random_runs(rng, count, span=5000, max_width=40):
        return [DiffRun(rng.randrange(span), rng.randrange(1, max_width),
                        rng.randbytes(rng.randrange(6)))
                for _ in range(count)]

    def test_many_runs_matches_naive(self):
        rng = random.Random(2003)
        for _ in range(10):
            accumulated = self.random_runs(rng, 250)
            incoming = self.random_runs(rng, 250)
            assert (self.merged(accumulated, incoming)
                    == self.naive(accumulated, incoming))

    def test_duplicate_starts_and_exact_spans(self):
        """Adversarial shapes for the prefix-max trick: several incoming
        runs sharing a start (the widest must win for all of them) and
        old runs exactly coinciding with incoming ones."""
        rng = random.Random(7)
        accumulated = self.random_runs(rng, 100, span=50, max_width=8)
        incoming = [DiffRun(run.prim_start, run.prim_count, b"n")
                    for run in accumulated[::2]]
        incoming += [DiffRun(10, width, b"") for width in (1, 9, 3)]
        assert (self.merged(accumulated, incoming)
                == self.naive(accumulated, incoming))

    def test_small_inputs_use_the_same_semantics(self):
        rng = random.Random(11)
        accumulated = self.random_runs(rng, 6, span=30, max_width=6)
        incoming = self.random_runs(rng, 6, span=30, max_width=6)
        assert (self.merged(accumulated, incoming)
                == self.naive(accumulated, incoming))

    def test_empty_sides(self):
        runs = [DiffRun(0, 4, b"abcd")]
        assert self.merged([], runs) == runs
        assert self.merged(runs, []) == runs


class TestLifecycle:
    def test_creation_then_update_merges_into_creation(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=3, is_new=True, type_serial=7,
                                  runs=[DiffRun(0, 8, b"x" * 8)])]),
            diff(2, 3, [BlockDiff(serial=3, runs=[DiffRun(2, 1, b"y")])]),
        ])
        (block,) = result.block_diffs
        assert block.is_new and block.type_serial == 7
        assert len(block.runs) == 2

    def test_free_cancels_history(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=3, runs=[DiffRun(0, 1, b"a")])]),
            diff(2, 3, [BlockDiff(serial=3, freed=True)]),
        ])
        (block,) = result.block_diffs
        assert block.freed and not block.runs

    def test_create_then_free_becomes_tombstone(self):
        result = compose_diffs([
            diff(1, 2, [BlockDiff(serial=3, is_new=True, type_serial=1,
                                  runs=[DiffRun(0, 1, b"a")])]),
            diff(2, 3, [BlockDiff(serial=3, freed=True)]),
        ])
        (block,) = result.block_diffs
        assert block.freed

    def test_recreation_falls_back(self):
        with pytest.raises(ServerError):
            compose_diffs([
                diff(1, 2, [BlockDiff(serial=3, freed=True)]),
                diff(2, 3, [BlockDiff(serial=3, is_new=True, type_serial=1,
                                      runs=[DiffRun(0, 1, b"a")])]),
            ])

    def test_types_deduplicated(self):
        result = compose_diffs([
            diff(1, 2, [], types=[(1, b"T1")]),
            diff(2, 3, [], types=[(1, b"T1"), (2, b"T2")]),
        ])
        assert result.new_types == [(1, b"T1"), (2, b"T2")]


class TestServerIntegration:
    def test_delta_reader_served_composed_diff(self):
        """A Delta(2) reader's catch-up reuses the writers' precise diffs
        instead of subblock-rounded rebuilds."""
        from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock, delta
        from repro.arch import X86_32
        from repro.types import ArrayDescriptor, INT

        clock = VirtualClock()
        hub = InProcHub(clock=clock)
        server = InterWeaveServer("h", sink=hub, clock=clock)
        hub.register_server("h", server)
        writer = InterWeaveClient("w", X86_32, hub.connect, clock=clock)
        seg = writer.open_segment("h/s")
        writer.wl_acquire(seg)
        array = writer.malloc(seg, ArrayDescriptor(INT, 1024), name="a")
        array.write_values([0] * 1024)
        writer.wl_release(seg)

        reader = InterWeaveClient("r", X86_32, hub.connect, clock=clock)
        reader.options.enable_notifications = False
        seg_r = reader.open_segment("h/s")
        reader.rl_acquire(seg_r)
        reader.rl_release(seg_r)
        reader.set_coherence(seg_r, delta(2))

        for value in (1, 2):
            writer.wl_acquire(seg)
            array[500] = value  # single-unit change each version
            writer.wl_release(seg)

        built_before = server.stats.updates_built
        received_before = reader._channels["h"].stats.bytes_received
        reader.rl_acquire(seg_r)
        assert reader.accessor_for(seg_r, "a")[500] == 2
        reader.rl_release(seg_r)
        # no subblock rebuild: the two cached writer diffs were composed
        assert server.stats.updates_built == built_before
        # and the composed diff is single-unit precise, not subblock-sized
        received = reader._channels["h"].stats.bytes_received - received_before
        assert received < 200

    def test_freed_then_recreated_falls_back_to_rebuild(self):
        """A serial freed and re-created inside the client's catch-up
        range cannot be expressed as one composed diff: the server's
        validation path must detect that, fall back to rebuilding from
        subblock versions, and still produce a correct update."""
        import struct

        from repro import InterWeaveServer
        from repro.types import INT, TypeRegistry
        from repro.wire.messages import (
            COHERENCE_FULL,
            LOCK_READ,
            LOCK_WRITE,
            LockAcquireReply,
            LockAcquireRequest,
            LockReleaseRequest,
            OpenSegmentRequest,
            decode_message,
            encode_message,
        )

        server = InterWeaveServer("h")
        registry = TypeRegistry()
        type_serial = registry.register(INT)
        encoded_int = registry.encoded(type_serial)

        def rpc(client_id, message):
            return decode_message(
                server.dispatch(client_id, encode_message(message)))

        def write(version, blocks, types=()):
            rpc("w", LockAcquireRequest("h/s", LOCK_WRITE, "w", version))
            rpc("w", LockReleaseRequest("h/s", LOCK_WRITE, "w", SegmentDiff(
                "h/s", version, version + 1, blocks, list(types))))

        rpc("w", OpenSegmentRequest("h/s", create=True, client_id="w"))
        write(0, [BlockDiff(serial=1, is_new=True, type_serial=type_serial,
                            name="a",
                            runs=[DiffRun(0, 1, struct.pack(">i", 7))])],
              types=[(type_serial, encoded_int)])

        # a reader caches version 1
        first = rpc("r", LockAcquireRequest("h/s", LOCK_READ, "r", 0,
                                            COHERENCE_FULL))
        assert isinstance(first, LockAcquireReply) and first.version == 1
        rpc("r", LockReleaseRequest("h/s", LOCK_READ, "r", None))

        # the same serial is freed (v2) then re-created (v3)
        write(1, [BlockDiff(serial=1, freed=True)])
        write(2, [BlockDiff(serial=1, is_new=True, type_serial=type_serial,
                            name="a",
                            runs=[DiffRun(0, 1, struct.pack(">i", 9))])])

        built_before = server.stats.updates_built
        cached_before = server.stats.updates_served_from_cache
        reply = rpc("r", LockAcquireRequest("h/s", LOCK_READ, "r", 1,
                                            COHERENCE_FULL))
        assert isinstance(reply, LockAcquireReply) and reply.granted
        # the composed chain was rejected; the rebuild served instead
        assert server.stats.updates_built == built_before + 1
        assert server.stats.updates_served_from_cache == cached_before
        update = reply.diff
        assert (update.from_version, update.to_version) == (1, 3)
        by_shape = {(bd.freed, bd.is_new): bd for bd in update.block_diffs}
        assert (True, False) in by_shape  # the tombstone reaches the reader
        recreated = by_shape[(False, True)]
        assert recreated.serial == 1
        assert recreated.runs[0].data == struct.pack(">i", 9)
