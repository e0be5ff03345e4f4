"""Shared infrastructure for the reproduction benchmarks.

The paper's evaluation ran on a 500 MHz Pentium III with 1 MB working
sets.  The benchmarks here default to 256 KiB of data per workload so the
full suite stays laptop-friendly; set ``REPRO_BENCH_BYTES=1048576`` to run
at the paper's size.  Shapes (who wins, where the knees are) do not depend
on the working-set size; absolute times of course differ from 2003
hardware.

``build_workload`` constructs the nine Figure-4 datatypes, each totalling
``DATA_BYTES`` of local data on the writer's architecture, filled with
deterministic values.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro import ClientOptions, InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import X86_32, Architecture
from repro.types import (
    DOUBLE,
    INT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
    TypeDescriptor,
)

#: Default working set per workload (bytes of local data).
DATA_BYTES = int(os.environ.get("REPRO_BENCH_BYTES", str(256 * 1024)))


def server_cores() -> dict:
    """The TCP server cores the importable ``repro`` carries, by name.

    This tree has one, ``epoll``.  Run against an older ``src/`` (a
    ``--baseline`` measurement), the benchmarks price the two cores that
    tree carried instead, ``threads`` and ``asyncio``.
    """
    import repro.transport as transport

    older = getattr(transport, "AsyncTCPServerTransport", None)
    if older is None:
        return {"epoll": transport.TCPServerTransport}
    return {"threads": transport.TCPServerTransport, "asyncio": older}


class LatencyRelay:
    """A TCP proxy that delays every chunk by a fixed one-way latency.

    The socket-level analogue of ``NetworkModel``: bytes arrive
    ``delay`` seconds after they were sent, but back-to-back frames stay
    back-to-back — latency is added, bandwidth is not restricted, and
    pipelined frames share one delay window.  Each accepted connection
    is forwarded to the target with an independent reader/writer thread
    pair per direction, so delaying one chunk never delays reading the
    next.
    """

    def __init__(self, host: str, port: int, delay: float):
        self.delay = delay
        self._target = (host, port)
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._sockets = []
        threading.Thread(target=self._accept, daemon=True,
                         name="relay-accept").start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            upstream = socket.create_connection(self._target)
            upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sockets += [conn, upstream]
            self._pump(conn, upstream)
            self._pump(upstream, conn)

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        chunks: "queue.Queue" = queue.Queue()

        def reader() -> None:
            while True:
                try:
                    data = src.recv(65536)
                except OSError:
                    data = b""
                chunks.put((time.perf_counter() + self.delay, data))
                if not data:
                    return

        def writer() -> None:
            while True:
                due, data = chunks.get()
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if not data:
                    try:
                        dst.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    return
                try:
                    dst.sendall(data)
                except OSError:
                    return

        for target in (reader, writer):
            threading.Thread(target=target, daemon=True,
                             name=f"relay-{target.__name__}").start()

    def close(self) -> None:
        for sock in [self._listener] + self._sockets:
            try:
                sock.close()
            except OSError:
                pass


@dataclass
class World:
    """One server + one writer client, ready for benchmarking."""

    clock: VirtualClock
    hub: InProcHub
    server: InterWeaveServer
    client: InterWeaveClient

    def new_client(self, name: str, arch: Architecture = X86_32,
                   **options) -> InterWeaveClient:
        return InterWeaveClient(
            name, arch, self.hub.connect, clock=self.clock,
            options=ClientOptions(**options) if options else None)


def make_world(arch: Architecture = X86_32, **options) -> World:
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("bench", sink=hub, clock=clock)
    hub.register_server("bench", server)
    client = InterWeaveClient(
        "writer", arch, hub.connect, clock=clock,
        options=ClientOptions(**options) if options else None)
    return World(clock, hub, server, client)


@dataclass
class Workload:
    """One Figure-4 datatype instantiated in a segment."""

    name: str
    descriptor: TypeDescriptor
    world: World
    segment: object
    accessor: object
    block: object
    fill: Callable[[], None]  # rewrite every unit (marks everything dirty)


def _int_struct_type() -> TypeDescriptor:
    return RecordDescriptor("int32s", [Field(f"i{k}", INT) for k in range(32)])


def _double_struct_type() -> TypeDescriptor:
    return RecordDescriptor("dbl32s", [Field(f"d{k}", DOUBLE) for k in range(32)])


def _int_double_type() -> TypeDescriptor:
    # "intended to mimic typical data structures in scientific programs"
    return RecordDescriptor("int_double", [Field("i", INT), Field("d", DOUBLE)])


def _mix_type() -> TypeDescriptor:
    # "integer, double, string, small_string, and pointer fields, intended
    # to mimic typical data structures in non-scientific programs"
    return RecordDescriptor("mix", [
        Field("i", INT),
        Field("d", DOUBLE),
        Field("s", StringDescriptor(64)),
        Field("tag", StringDescriptor(4)),
        Field("p", PointerDescriptor(INT, "int")),
    ])


def workload_names() -> List[str]:
    return ["int_array", "double_array", "int_struct", "double_struct",
            "string", "small_string", "pointer", "int_double", "mix"]


def build_workload(name: str, world: World, data_bytes: int = None) -> Workload:
    """Create and fill one Figure-4 workload in a fresh segment."""
    data_bytes = data_bytes or DATA_BYTES
    arch = world.client.arch
    client = world.client
    segment = client.open_segment(f"bench/{name}")

    salt = [0]  # varied per fill so every round genuinely changes the data

    if name == "int_array":
        count = data_bytes // 4
        descriptor = ArrayDescriptor(INT, count)

        def fill(acc):
            acc.write_values((np.arange(count, dtype=np.int64) + salt[0]) % 100000)

    elif name == "double_array":
        count = data_bytes // 8
        descriptor = ArrayDescriptor(DOUBLE, count)

        def fill(acc):
            acc.write_values(np.arange(count) * 0.5 + salt[0])

    elif name == "int_struct":
        element = _int_struct_type()
        count = max(1, data_bytes // element.local_size(arch))
        descriptor = ArrayDescriptor(element, count)

        def fill(acc):
            values = ((np.arange(count * 32, dtype=np.int64) + salt[0])
                      % 99991).reshape(count, 32)
            _raw_fill_ints(world, acc, descriptor, values)

    elif name == "double_struct":
        element = _double_struct_type()
        count = max(1, data_bytes // element.local_size(arch))
        descriptor = ArrayDescriptor(element, count)

        def fill(acc):
            values = np.arange(count * 32).reshape(count, 32) * 0.25 + salt[0]
            _raw_fill_doubles(world, acc, descriptor, values)

    elif name == "string":
        count = max(1, data_bytes // 256)
        descriptor = ArrayDescriptor(StringDescriptor(256), count)

        def fill(acc):
            suffix = chr(97 + salt[0] % 26) * 240
            for k in range(count):
                acc[k] = f"{k:06d}" + suffix

    elif name == "small_string":
        count = max(1, data_bytes // 4)
        descriptor = ArrayDescriptor(StringDescriptor(4), count)

        def fill(acc):
            letters = chr(97 + salt[0] % 26) * 3
            payload = (f"{letters}\x00" * count).encode("ascii")
            world.client.memory.store(acc.address, payload)

    elif name == "pointer":
        count = max(1, data_bytes // arch.pointer_size)
        descriptor = ArrayDescriptor(PointerDescriptor(INT, "int"), count)

        def fill(acc):
            # pointers to integers: point each slot at an int in the
            # companion target block (allocated below)
            from repro.arch import PrimKind

            targets = fill.targets
            dtype = arch.numpy_dtype(PrimKind.POINTER)
            addresses = targets.address + (
                (np.arange(count) + salt[0]) % len(targets)) * 4
            world.client.memory.store(acc.address,
                                      addresses.astype(dtype).tobytes())

    elif name == "int_double":
        element = _int_double_type()
        count = max(1, data_bytes // element.local_size(arch))
        descriptor = ArrayDescriptor(element, count)

        def fill(acc):
            _raw_fill_int_double(world, acc, descriptor, count, salt[0])

    elif name == "mix":
        element = _mix_type()
        count = max(1, data_bytes // element.local_size(arch))
        descriptor = ArrayDescriptor(element, count)

        def fill(acc):
            letter = chr(97 + salt[0] % 26)
            for k in range(count):
                item = acc[k]
                item.i = k + salt[0]
                item.d = k * 0.5 + salt[0]
                item.s = f"record-{k:08d}-" + letter * 30
                item.tag = letter * 2
                item.p = None

    else:
        raise ValueError(f"unknown workload {name!r}")

    def salted_fill(acc):
        salt[0] += 1
        fill(acc)

    client.wl_acquire(segment)
    block_acc = client.malloc(segment, descriptor, name="data")
    if name == "pointer":
        target_count = max(1, min(4096, data_bytes // 64))
        fill.targets = client.malloc(
            segment, ArrayDescriptor(INT, target_count), name="targets")
        fill.targets.write_values(np.arange(target_count) % 100)
    salted_fill(block_acc)
    client.wl_release(segment)
    block = segment.heap.block_by_name("data")
    return Workload(name, descriptor, world, segment, block_acc, block,
                    lambda: salted_fill(block_acc))


# -- raw fill helpers: build local-format bytes in one store so that setup
#    cost does not dominate the benchmarks ------------------------------------

def _raw_fill_ints(world, acc, descriptor, values) -> None:
    arch = world.client.arch
    dtype = arch.numpy_dtype(INT.kind)
    world.client.memory.store(acc.address,
                              values.astype(dtype).tobytes())


def _raw_fill_doubles(world, acc, descriptor, values) -> None:
    arch = world.client.arch
    dtype = arch.numpy_dtype(DOUBLE.kind)
    world.client.memory.store(acc.address, values.astype(dtype).tobytes())


def _raw_fill_int_double(world, acc, descriptor, count, salt=0) -> None:
    arch = world.client.arch
    element = descriptor.element
    size = element.local_size(arch)
    image = np.zeros((count, size), np.uint8)
    ints = ((np.arange(count, dtype=np.int64) + salt)
            % 100003).astype(arch.numpy_dtype(INT.kind))
    doubles = (np.arange(count) * 0.125 + salt).astype(arch.numpy_dtype(DOUBLE.kind))
    int_off = element.field_local_offset(arch, "i")
    dbl_off = element.field_local_offset(arch, "d")
    image[:, int_off:int_off + 4] = ints.view(np.uint8).reshape(count, 4)
    image[:, dbl_off:dbl_off + 8] = doubles.view(np.uint8).reshape(count, 8)
    world.client.memory.store(acc.address, image.tobytes())


def rewrite_all(workload: Workload) -> None:
    """Touch every unit of the workload (inside a write critical section)."""
    workload.fill()


# -- write-session helpers for benchmarking the collection pipeline ------------

def begin_dirty_session(workload: Workload) -> None:
    """Acquire the write lock (protecting pages) and modify every unit."""
    client = workload.world.client
    client.wl_acquire(workload.segment)
    workload.fill()


def collect_session(workload: Workload, use_diffing: bool):
    """Run diff collection for the current write session (measurement body)."""
    client = workload.world.client
    workload.segment.session_diffed = use_diffing
    return client._collect(workload.segment)


def abort_session(workload: Workload) -> None:
    """Tear down the write session without shipping anything."""
    from repro.wire.messages import LOCK_WRITE, LockReleaseRequest

    client = workload.world.client
    segment = workload.segment
    client._end_write_session(segment)
    segment.created = []
    segment.freed = []
    segment.lock_mode = None
    client._rpc(segment.channel, LockReleaseRequest(
        segment.name, LOCK_WRITE, client.client_id, None))


def make_update_diff(workload: Workload, diffed: bool):
    """A reusable wire diff covering the workload's full modification."""
    begin_dirty_session(workload)
    try:
        diff, _ = collect_session(workload, use_diffing=diffed)
    finally:
        abort_session(workload)
    return diff


def make_reader(workload: Workload, name: str = "reader", **options):
    """A second client with the segment fully cached."""
    reader = workload.world.new_client(name, workload.world.client.arch, **options)
    segment = reader.open_segment(workload.segment.name)
    reader.rl_acquire(segment)
    reader.rl_release(segment)
    return reader, segment
