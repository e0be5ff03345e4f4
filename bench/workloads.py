"""The four workloads: what is written, what is read, what is checked.

Each workload owns the data it shares (built from public type
descriptors), derives every modification from the run's seed — which
words or records change, the relink permutation, the string contents —
and keeps the driver's *expected* copy so every read can be checked.
The servers only ever see the generated inputs.

The writer is ``X86_32`` (little-endian, 4-byte pointers) and the reader
``SPARC_V9`` (big-endian, 8-byte pointers) in every workload, so every
byte a reader checks crossed a real byte-order and pointer-width
translation.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro import InterWeaveClient, Tracer
from repro.arch import SPARC_V9, X86_32
from repro.types import (DOUBLE, INT, ArrayDescriptor, Field,
                         PointerDescriptor, RecordDescriptor,
                         StringDescriptor)

from topology import SERVER_NAME

WRITER_ARCH = X86_32
READER_ARCH = SPARC_V9

#: alternating workloads compare the reader's whole block against the
#: expected copy every this many cycles (outside the timed sections)
FULL_CHECK_EVERY = 16


class Workload:
    """One shared segment, one writer, one reader.

    The driver calls, per cycle: :meth:`prepare` (untimed: decide the
    modification and update the expected copy), then inside the write
    section :meth:`modify`, then inside the read section
    :meth:`sentinel`; every ``FULL_CHECK_EVERY`` cycles and at the end
    :meth:`verify_full`.
    """

    name = ""
    #: clients go through relay → primary → backup instead of one server
    relay = False
    #: writer and reader run concurrently (two threads) instead of
    #: alternating on one
    concurrent = False

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(self.name.encode("ascii"))])
        self.segment_name = f"{SERVER_NAME}/{self.name}"
        self.writer: InterWeaveClient = None
        self.reader: InterWeaveClient = None
        self.wseg = None
        self.rseg = None

    # -- set-up ---------------------------------------------------------------

    def attach(self, connector, tracer: Tracer) -> None:
        """Create and fill the segment at the writer, cache it at the
        reader; both ends verified before the run may start."""
        self.writer = InterWeaveClient("bench-writer", WRITER_ARCH, connector,
                                       tracer=tracer)
        self.reader = InterWeaveClient("bench-reader", READER_ARCH, connector,
                                       tracer=tracer)
        self.wseg = self.writer.open_segment(self.segment_name)
        self.writer.wl_acquire(self.wseg)
        self.create()
        self.writer.wl_release(self.wseg)
        self.rseg = self.reader.open_segment(self.segment_name, create=False)
        self.reader.rl_acquire(self.rseg)
        self.bind_reader()
        self.reader.rl_release(self.rseg)
        if not self.verify_full():
            raise RuntimeError(f"{self.name}: reader's first copy is wrong")

    def detach(self) -> None:
        for client in (self.writer, self.reader):
            if client is not None:
                client.close()

    def create(self) -> None:
        """Allocate and fill the shared block (write lock held)."""
        raise NotImplementedError

    def bind_reader(self) -> None:
        """Resolve the reader-side accessor (read lock held)."""
        raise NotImplementedError

    # -- per cycle ------------------------------------------------------------

    def prepare(self, cycle: int) -> None:
        raise NotImplementedError

    def modify(self) -> None:
        raise NotImplementedError

    def sentinel(self) -> bool:
        raise NotImplementedError

    def verify_full(self) -> bool:
        raise NotImplementedError


class _IntArrayWorkload(Workload):
    """An ``INT`` array of which every 10th word is rewritten per write.

    The phase (which residue mod 10 is touched) starts at a seeded value
    and rotates every cycle, so no page is ever clean and no two
    consecutive diffs cover the same words.  New values are the old ones
    XOR a seeded non-zero mask: every touched word is guaranteed to
    differ, so the diff size is a function of the phase alone.
    """

    words = 0
    stride = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected = self.rng.integers(0, 2 ** 31, size=self.words,
                                          dtype=np.int64).astype(np.int32)
        self.phase = int(self.rng.integers(0, self.stride))
        self.mask = 0
        self.probe_index = 0
        self.warray = None
        self.rarray = None

    def create(self) -> None:
        self.warray = self.writer.malloc(
            self.wseg, ArrayDescriptor(INT, self.words), name="data")
        self.warray.write_values(self.expected)

    def bind_reader(self) -> None:
        self.rarray = self.reader.accessor_for(self.rseg, "data")

    def prepare(self, cycle: int) -> None:
        self.phase = (self.phase + 1) % self.stride
        self.mask = int(self.rng.integers(1, 2 ** 31))
        touched = self.expected[self.phase::self.stride]
        touched ^= self.mask
        self.probe_index = self.phase + self.stride * int(
            self.rng.integers(0, touched.size))

    def modify(self) -> None:
        # the application's view: load, change every 10th word, store —
        # the store faults (and twins) every page of the array
        values = self.warray.read_values().copy()
        values[self.phase::self.stride] ^= self.mask
        self.warray.write_values(values)

    def sentinel(self) -> bool:
        return self.rarray[self.probe_index] == self.expected[self.probe_index]

    def verify_full(self) -> bool:
        # the reader's block in its own (big-endian) local format
        return self.rarray.raw_bytes() == self.expected.astype(">i4").tobytes()


class BulkArray(_IntArrayWorkload):
    name = "bulk_array"
    words = 262144  # 1 MiB


class ReplicatedRelay(_IntArrayWorkload):
    name = "replicated_relay"
    words = 16384  # 64 KiB
    relay = True


_LABEL_ALPHABET = np.frombuffer(
    b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)


class PointerRecords(Workload):
    """A 2048-element array of ``{int key; double w; string<32> label;
    node_t *next;}``; each write rewrites ``key`` and ``label`` and
    relinks ``next`` (seeded permutation) on 1/8 of the records."""

    name = "pointer_records"
    records = 2048
    touched_per_write = records // 8
    #: fixed so the wire size of a diff does not depend on the seed
    label_chars = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        next_pointer = PointerDescriptor(target_name="node_t")
        self.node = RecordDescriptor("node_t", [
            Field("key", INT), Field("w", DOUBLE),
            Field("label", StringDescriptor(32)), Field("next", next_pointer)])
        next_pointer.target = self.node
        self.keys = self.rng.integers(0, 2 ** 31, size=self.records,
                                      dtype=np.int64)
        self.weights = self.rng.random(self.records)
        self.labels = [self._label() for _ in range(self.records)]
        self.next_index = self.rng.permutation(self.records)
        self.touched = np.empty(0, dtype=np.int64)
        self.probe_index = 0
        self.warray = None
        self.rarray = None

    def _label(self) -> str:
        picks = self.rng.integers(0, _LABEL_ALPHABET.size,
                                  size=self.label_chars)
        return _LABEL_ALPHABET[picks].tobytes().decode("ascii")

    def create(self) -> None:
        self.warray = self.writer.malloc(
            self.wseg, ArrayDescriptor(self.node, self.records), name="nodes")
        for index in range(self.records):
            record = self.warray[index]
            record.key = int(self.keys[index])
            record.w = float(self.weights[index])
            record.label = self.labels[index]
            record.next = self.warray.element_accessor(
                int(self.next_index[index]))

    def bind_reader(self) -> None:
        self.rarray = self.reader.accessor_for(self.rseg, "nodes")

    def prepare(self, cycle: int) -> None:
        self.touched = self.rng.choice(self.records, self.touched_per_write,
                                       replace=False)
        # relink: the touched records' successors are permuted among them
        self.next_index[self.touched] = self.next_index[
            self.rng.permutation(self.touched)]
        for index in self.touched.tolist():
            self.keys[index] = (self.keys[index] + 1 + cycle) % 2 ** 31
            self.labels[index] = self._label()
        self.probe_index = int(self.touched[0])

    def modify(self) -> None:
        for index in self.touched.tolist():
            record = self.warray[index]
            record.key = int(self.keys[index])
            record.label = self.labels[index]
            record.next = self.warray.element_accessor(
                int(self.next_index[index]))

    def _record_matches(self, index: int) -> bool:
        record = self.rarray[index]
        successor = record.next
        target = int(self.next_index[index])
        return (record.key == self.keys[index]
                and record.label == self.labels[index]
                and successor is not None
                and successor.address
                == self.rarray.element_accessor(target).address)

    def sentinel(self) -> bool:
        # key + label + the unswizzled pointer of one rewritten record,
        # then one hop through that pointer
        index = self.probe_index
        if not self._record_matches(index):
            return False
        successor = self.rarray[index].next
        return successor.key == self.keys[int(self.next_index[index])]

    def verify_full(self) -> bool:
        return all(self._record_matches(index)
                   and self.rarray[index].w == self.weights[index]
                   for index in range(self.records))


class SmallSections(Workload):
    """One 4-byte ``INT``; the writer stores an increasing counter while
    a Full-coherence reader validates and reads it, concurrently."""

    name = "small_sections"
    concurrent = True

    def __init__(self, seed: int):
        super().__init__(seed)
        # the seed only picks the counter's starting point: the workload
        # is fixed per-message cost, there is no data shape to vary
        self.start = int(self.rng.integers(1, 2 ** 20))
        self.wvalue = None
        self.rvalue = None

    def create(self) -> None:
        self.wvalue = self.writer.malloc(self.wseg, INT, name="counter")
        self.wvalue.set(self.start)

    def bind_reader(self) -> None:
        self.rvalue = self.reader.accessor_for(self.rseg, "counter")

    def verify_full(self) -> bool:
        # between runs of the two threads: a fresh validated read must
        # see the writer's last committed value
        self.reader.rl_acquire(self.rseg)
        try:
            return self.rvalue.get() == self.wvalue.get()
        finally:
            self.reader.rl_release(self.rseg)


WORKLOADS = {cls.name: cls for cls in
             (BulkArray, PointerRecords, SmallSections, ReplicatedRelay)}
