#!/usr/bin/env python3
"""Protocol overhead and transport pipelining benchmarks (not a paper figure).

The paper's experiments measure translation and bandwidth; deployments
also care about the fixed cost of the lock protocol itself.  Two families
of measurements live here:

**Microbenchmarks** (pytest-benchmark) price one critical section with
*no data modified* — pure protocol — over both transports:

- ``read_validate``  — a read acquire/release that must consult the
  server (full coherence, polling mode);
- ``read_local``     — a read acquire/release satisfied entirely from the
  cache (temporal coherence inside its bound): the cost of InterWeave
  when it does nothing;
- ``write_empty``    — a write acquire/release with an empty diff;
- the same over real TCP sockets, to price the loopback stack.

**Pipelining comparison** (plain pytest + standalone ``main``): the same
read-validate workload driven by ``THREADS`` client threads sharing ONE
:class:`TCPChannel`, serial vs pipelined, over a simulated wide-area
link.  The serial side is serial by construction — one lock around each
request, so one request per round trip; the pipelined side lets every
thread keep its request in flight, so link latency is paid once per
*window* rather than once per request.  The
link is modeled by :class:`LatencyRelay` — a byte-forwarding TCP proxy
that delivers each chunk ``LINK_DELAY`` seconds after reading it, the
socket-level analogue of the in-process ``NetworkModel``.  (On a raw
loopback there is no latency to hide and both modes saturate the
server's dispatch CPU, so the comparison would measure the GIL, not the
transport.)  The acceptance bar is a >= 3x throughput win for the
pipelined mode; observed ratios are well above it.

A codec microbenchmark also lives here: the wire ``Writer`` used to
accumulate a Python list of tiny ``bytes`` parts and join them at the
end; it is now backed by one growable ``bytearray``.  The
``codec_writer`` entry proves that switch on a diff-like field mix.
``codec_messages`` prices the schema-driven message codec (one generic
walk over ``Message.FIELDS``) against hand-inlined encode/decode of the
three ``small_sections`` control messages, kept here as the reference.

**Serial RPC** (``serial_rpc``): the bare request path — an echo
dispatcher in a child process, one :class:`TCPChannel`, one request at a
time, 100 B and 26 KB payloads, on the server core; p50 / p90 in
microseconds.  It prices the hand-offs between reading a frame and
sending its reply, with no lock protocol on top.  The numbers depend on
which ``src/`` is on ``PYTHONPATH``, so a previous commit can be
measured by this same file: ``--baseline LABEL`` measures every server
core that ``src/`` carries (``benchmarks/common.server_cores``) and
stores the point under ``serial_rpc.baseline`` (kept by later runs).

Results land in ``BENCH_protocol.json`` at the repo root plus a metrics
sidecar in ``benchmarks/out/``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_protocol.py
    PYTHONPATH=/path/to/parent/src python benchmarks/bench_protocol.py \
        --baseline parent@9174bd5

as a test (pipelining + codec only)::

    PYTHONPATH=src python -m pytest benchmarks/bench_protocol.py -q -k "pipelining or codec"

or the pytest-benchmark micros::

    PYTHONPATH=src python -m pytest benchmarks/bench_protocol.py --benchmark-only
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

from common import LatencyRelay, make_world, server_cores

from repro import ClientOptions, InterWeaveClient, InterWeaveServer, temporal
from repro.arch import X86_32
from repro.obs import get_registry, write_sidecar
from repro.transport import Dispatcher, TCPChannel, TCPServerTransport
from repro.types import INT
from repro.wire.codec import Reader, Writer
from repro.wire.messages import (
    COHERENCE_FULL,
    LOCK_READ,
    LockAcquireReply,
    LockAcquireRequest,
    LockReleaseReply,
    LockReleaseRequest,
    decode_message,
    encode_message,
)

THREADS = int(os.environ.get("REPRO_BENCH_PIPELINE_THREADS", "8"))
DURATION = float(os.environ.get("REPRO_BENCH_PROTOCOL_SECONDS", "1.0"))
#: one-way link delay for the pipelining comparison (1 ms RTT by default —
#: a conservative LAN; real WANs are 10-100x worse and favor pipelining more)
LINK_DELAY = float(os.environ.get("REPRO_BENCH_LINK_DELAY", "0.0005"))
CODEC_FIELDS = int(os.environ.get("REPRO_BENCH_CODEC_FIELDS", "20000"))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_protocol.json")


# =============================================================================
# pytest-benchmark micros (unchanged workloads)
# =============================================================================

def _setup_segment(client, name="bench/protocol"):
    segment = client.open_segment(name)
    client.wl_acquire(segment)
    if "v" not in segment.heap.blk_name_tree:
        client.malloc(segment, INT, name="v").set(0)
    client.wl_release(segment)
    return segment


@pytest.fixture(scope="module")
def inproc():
    world = make_world(enable_notifications=False)
    segment = _setup_segment(world.client)
    return world.client, segment


@pytest.fixture(scope="module")
def tcp():
    server = InterWeaveServer("bench")
    transport = TCPServerTransport(server)

    def connector(server_name, client_id):
        return TCPChannel("127.0.0.1", transport.port, client_id)

    client = InterWeaveClient("tcp-client", X86_32, connector)
    client.options.enable_notifications = False
    segment = _setup_segment(client)
    yield client, segment
    transport.close()


def _read_validate(client, segment):
    client.rl_acquire(segment)
    client.rl_release(segment)


def _write_empty(client, segment):
    client.wl_acquire(segment)
    client.wl_release(segment)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_read_validate(benchmark, transport, request):
    client, segment = request.getfixturevalue(transport)
    benchmark(_read_validate, client, segment)
    benchmark.group = "protocol-read-validate"
    benchmark.extra_info["transport"] = transport


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_read_local(benchmark, transport, request):
    client, segment = request.getfixturevalue(transport)
    client.set_coherence(segment, temporal(1e9))
    _read_validate(client, segment)  # prime the timestamp
    benchmark(_read_validate, client, segment)
    benchmark.group = "protocol-read-local"
    benchmark.extra_info["transport"] = transport
    from repro.coherence import full

    client.set_coherence(segment, full())


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_write_empty(benchmark, transport, request):
    client, segment = request.getfixturevalue(transport)
    benchmark(_write_empty, client, segment)
    benchmark.group = "protocol-write-empty"
    benchmark.extra_info["transport"] = transport


# =============================================================================
# pipelining comparison: serial vs multiplexed over a simulated link
# =============================================================================

def _encode_read_validate_pairs(port: int):
    """Seed THREADS private segments; return (acquire, release) frames.

    The loop body replays pre-encoded lock RPCs rather than driving a
    full ``InterWeaveClient`` so that client-side bookkeeping (which is
    identical in both modes) does not dilute the transport comparison.
    The server still performs the full read-validate dispatch: decode,
    session dedup, segment lock, version check, reply encode.
    """

    def connector(server_name, client_id):
        return TCPChannel("127.0.0.1", port, client_id)

    setup = InterWeaveClient("setup", X86_32, connector,
                             options=ClientOptions(enable_notifications=False))
    pairs = []
    for k in range(THREADS):
        segment = setup.open_segment(f"bench/p{k}")
        setup.wl_acquire(segment)
        setup.malloc(segment, INT, name="v").set(k)
        setup.wl_release(segment)
        acquire = encode_message(LockAcquireRequest(
            f"bench/p{k}", LOCK_READ, "load", segment.version,
            COHERENCE_FULL, 0.0, time.time()))
        release = encode_message(LockReleaseRequest(
            f"bench/p{k}", LOCK_READ, "load", None))
        pairs.append((acquire, release))
    setup.close()
    return pairs


def _drive(channel, pairs, duration: float, serial: bool = False) -> dict:
    """THREADS workers share ``channel``; count completed read sections.
    ``serial`` holds one lock around each request: one in flight."""
    # correctness probe: one decoded round per thread's segment
    for acquire, release in pairs:
        assert isinstance(decode_message(channel.request(acquire)),
                          LockAcquireReply)
        assert isinstance(decode_message(channel.request(release)),
                          LockReleaseReply)

    stop = threading.Event()
    sections = [0] * len(pairs)
    one_at_a_time = threading.Lock() if serial else contextlib.nullcontext()

    def loop(k: int, acquire: bytes, release: bytes) -> None:
        while not stop.is_set():
            with one_at_a_time:
                channel.request(acquire)
            with one_at_a_time:
                channel.request(release)
            sections[k] += 1

    threads = [threading.Thread(target=loop, args=(k, acq, rel))
               for k, (acq, rel) in enumerate(pairs)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    total = sum(sections)
    return {"sections": total, "sections_per_s": total / elapsed,
            "requests_per_s": 2 * total / elapsed, "duration_s": elapsed}


def run_pipelining_comparison(duration: float = DURATION) -> dict:
    server = InterWeaveServer("bench")
    transport = TCPServerTransport(server)
    relay = LatencyRelay("127.0.0.1", transport.port, delay=LINK_DELAY)
    try:
        # segment setup goes straight to the server — only the measured
        # traffic crosses the simulated link
        pairs = _encode_read_validate_pairs(transport.port)

        serial_channel = TCPChannel("127.0.0.1", relay.port, "load",
                                    timeout=30.0)
        serial = _drive(serial_channel, pairs, duration, serial=True)
        serial_channel.close()

        mux_channel = TCPChannel("127.0.0.1", relay.port, "load",
                                 timeout=30.0)
        # the send-batch mean describes the pipelined run alone
        serial_batches = get_registry().snapshot().get(
            "histograms", {}).get("transport.mux.batch_frames")
        pipelined = _drive(mux_channel, pairs, duration)
        mux_health = mux_channel.health()
        mux_channel.close()
    finally:
        relay.close()
        transport.close()

    snapshot = get_registry().snapshot()
    batch = snapshot.get("histograms", {}).get("transport.mux.batch_frames")
    if batch and serial_batches:
        batch = {key: batch[key] - serial_batches[key]
                 for key in ("count", "sum")}
    if batch and batch["count"]:
        pipelined["mean_send_batch_frames"] = batch["sum"] / batch["count"]
    reply_batch = snapshot.get("histograms", {}).get(
        "transport.server.reply_batch_frames")
    if reply_batch and reply_batch["count"]:
        pipelined["mean_reply_batch_frames"] = (
            reply_batch["sum"] / reply_batch["count"])
    pipelined["health"] = {key: mux_health[key] for key in
                           ("inflight", "reconnects", "resends",
                            "orphan_replies") if key in mux_health}

    speedup = (pipelined["sections_per_s"]
               / max(serial["sections_per_s"], 1e-9))
    return {
        "serial": serial,
        "pipelined": pipelined,
        "speedup": speedup,
        "config": {"threads": THREADS, "link_delay_s": LINK_DELAY,
                   "rtt_s": 2 * LINK_DELAY, "duration_s": duration,
                   "workload": "read-validate acquire/release over one "
                               "shared TCP connection"},
    }


# =============================================================================
# serial RPC: the bare request path, one frame in flight
# =============================================================================

#: (label, payload bytes, timed requests): a control message, and the
#: diff of one ``replicated_relay`` section
SERIAL_RPC_POINTS = (("100B", 100, 4000), ("26KB", 26000, 2000))
SERIAL_RPC_WARMUP = 300


class _Echo(Dispatcher):
    def dispatch(self, client_id, data):
        return data


def _echo_server_main(core: str) -> None:
    """Child process: serve echoes on ``core`` until stdin closes."""
    transport = server_cores()[core](_Echo())
    print(transport.port, flush=True)
    sys.stdin.read()
    transport.close()


def run_serial_rpc() -> dict:
    """p50 / p90 of one echo round trip per core and payload size."""
    results: dict = {}
    for core in server_cores():
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--echo-server", core],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = int(child.stdout.readline())
            channel = TCPChannel("127.0.0.1", port, "serial-rpc", timeout=30.0)
            results[core] = {}
            for label, size, count in SERIAL_RPC_POINTS:
                payload = bytes(size)
                for _ in range(SERIAL_RPC_WARMUP):
                    channel.request(payload)
                samples = []
                for _ in range(count):
                    started = time.perf_counter_ns()
                    reply = channel.request(payload)
                    samples.append(time.perf_counter_ns() - started)
                    assert len(reply) == size
                samples.sort()
                results[core][label] = {
                    "p50_us": samples[count // 2] / 1e3,
                    "p90_us": samples[count * 9 // 10] / 1e3,
                    "samples": count,
                }
            channel.close()
        finally:
            child.stdin.close()
            child.wait(timeout=10.0)
    return results


def _stored_serial_rpc_baseline():
    """The ``serial_rpc.baseline`` already in BENCH_protocol.json: it was
    measured against another ``src/`` and this run cannot reproduce it."""
    try:
        with open(RESULTS_PATH) as handle:
            return json.load(handle)["serial_rpc"]["baseline"]
    except (OSError, ValueError, KeyError):
        return None


def record_serial_rpc_baseline(label: str) -> dict:
    """Measure whatever ``repro`` is importable and store it as the
    baseline, leaving the rest of BENCH_protocol.json alone."""
    baseline = dict(run_serial_rpc(), label=label)
    with open(RESULTS_PATH) as handle:
        results = json.load(handle)
    results.setdefault("serial_rpc", {})["baseline"] = baseline
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


# =============================================================================
# codec Writer microbenchmark: list-of-parts + join vs growable bytearray
# =============================================================================

class _JoinedPartsWriter:
    """The wire Writer's previous implementation, kept as the baseline:
    every field allocates a tiny ``bytes`` object into a list that one
    final ``join`` copies again."""

    __slots__ = ("parts",)
    _U8 = struct.Struct(">B")
    _U32 = struct.Struct(">I")
    _U64 = struct.Struct(">Q")

    def __init__(self):
        self.parts = []

    def u8(self, value):
        self.parts.append(self._U8.pack(value))
        return self

    def u32(self, value):
        self.parts.append(self._U32.pack(value))
        return self

    def u64(self, value):
        self.parts.append(self._U64.pack(value))
        return self

    def raw(self, data):
        self.parts.append(data)
        return self

    def blob(self, data):
        self.u32(len(data))
        return self.raw(data)

    def getvalue(self):
        return b"".join(self.parts)


def _encode_diff_like(writer_cls, fields: int) -> bytes:
    """A diff-shaped field mix: tag byte, u32 offset, u64 value, and a
    small blob every eighth field (a run of raw bytes)."""
    writer = writer_cls()
    payload = b"\x5a" * 24
    for k in range(fields):
        writer.u8(k & 0xFF)
        writer.u32(k)
        writer.u64(k * 1000)
        if k % 8 == 0:
            writer.blob(payload)
    return writer.getvalue()


def run_codec_microbench(fields: int = CODEC_FIELDS, rounds: int = 5) -> dict:
    reference = _encode_diff_like(_JoinedPartsWriter, fields)
    assert _encode_diff_like(Writer, fields) == reference

    def best(writer_cls) -> float:
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            _encode_diff_like(writer_cls, fields)
            times.append(time.perf_counter() - started)
        return min(times)

    joined = best(_JoinedPartsWriter)
    bytearray_backed = best(Writer)
    return {
        "fields": fields,
        "bytes": len(reference),
        "list_join_ns_per_field": joined / fields * 1e9,
        "bytearray_ns_per_field": bytearray_backed / fields * 1e9,
        "speedup": joined / max(bytearray_backed, 1e-12),
    }


# =============================================================================
# message codec microbenchmark: schema-driven walk vs hand-inlined bodies
# =============================================================================

def _control_messages() -> list:
    """What one ``small_sections`` write + read pair puts on the wire,
    minus the one message that carries a diff."""
    return [
        LockAcquireRequest("bench/small", LOCK_READ, "reader", 41,
                           COHERENCE_FULL, 0.0, 1234.5),
        LockAcquireReply(granted=True, version=42, lease_remaining=30.0),
        LockReleaseReply(version=42),
    ]


def _encode_acquire(out, message):
    (out.u8(2).text(message.segment).u8(message.mode).text(message.client_id)
        .u32(message.client_version).u8(message.coherence_kind)
        .f64(message.coherence_param).f64(message.client_time))


def _encode_acquire_reply(out, message):
    (out.u8(65).boolean(message.granted).u32(message.version)
        .f64(message.lease_remaining).boolean(False))  # diff-less only


def _decode_acquire_reply(reader):
    reply = LockAcquireReply(reader.boolean(), reader.u32(), reader.f64())
    if reader.boolean():
        raise ValueError("the reference does not decode diffs")
    return reply


#: the three bodies as a hand-written codec spells them: one function per
#: class, found by type on encode and by tag on decode
_INLINED_ENCODE = {
    LockAcquireRequest: _encode_acquire,
    LockAcquireReply: _encode_acquire_reply,
    LockReleaseReply: lambda out, message: out.u8(66).u32(message.version),
}
_INLINED_DECODE = {
    2: lambda reader: LockAcquireRequest(
        reader.text(), reader.u8(), reader.text(), reader.u32(),
        reader.u8(), reader.f64(), reader.f64()),
    65: _decode_acquire_reply,
    66: lambda reader: LockReleaseReply(reader.u32()),
}


def _inlined_encode(message) -> bytes:
    out = Writer()
    _INLINED_ENCODE[type(message)](out, message)
    return out.getvalue()


def _inlined_decode(data: bytes):
    reader = Reader(data)
    message = _INLINED_DECODE[reader.u8()](reader)
    if not reader.at_end():
        raise ValueError("trailing bytes")
    return message


def run_message_codec_microbench(loops: int = 20000, rounds: int = 5) -> dict:
    messages = _control_messages()
    frames = [encode_message(message) for message in messages]
    assert [_inlined_encode(message) for message in messages] == frames
    assert [_inlined_decode(frame) for frame in frames] == messages
    assert [decode_message(frame) for frame in frames] == messages

    def once(encode, decode) -> float:
        started = time.perf_counter()
        for _ in range(loops):
            for message in messages:
                decode(encode(message))
        return (time.perf_counter() - started) / (loops * len(messages)) * 1e9

    inlined, schema = [], []
    for _ in range(rounds):  # alternated, so a load change hits both sides
        inlined.append(once(_inlined_encode, _inlined_decode))
        schema.append(once(encode_message, decode_message))
    return {
        "messages": [type(message).__name__ for message in messages],
        "inlined_ns_per_roundtrip": min(inlined),
        "schema_ns_per_roundtrip": min(schema),
        "ratio": min(schema) / max(min(inlined), 1e-12),
    }


# =============================================================================
# orchestration, acceptance tests, CLI
# =============================================================================

def run_all(duration: float = DURATION) -> dict:
    registry = get_registry()
    registry.reset()
    serial_rpc = run_serial_rpc()
    baseline = _stored_serial_rpc_baseline()
    if baseline is not None:
        serial_rpc["baseline"] = baseline
    results = {
        "pipelining": run_pipelining_comparison(duration),
        "serial_rpc": serial_rpc,
        "codec_writer": run_codec_microbench(),
        "codec_messages": run_message_codec_microbench(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_sidecar(os.path.join(OUT_DIR, "bench_protocol.metrics.json"),
                  registry.snapshot())
    return results


_cache: dict = {}


def _results() -> dict:
    if "results" not in _cache:
        _cache["results"] = run_all()
    return _cache["results"]


def test_pipelining_speedup():
    """Pipelined multi-threaded clients over ONE TCP connection must
    reach >= 3x the serial channel's read-validate throughput across a
    1 ms-RTT link (observed: ~7x)."""
    comparison = _results()["pipelining"]
    assert comparison["serial"]["sections"] > 0
    assert comparison["pipelined"]["sections"] > 0
    assert comparison["pipelined"]["health"]["reconnects"] == 0
    assert comparison["speedup"] >= 3.0, comparison


def test_serial_rpc_is_recorded():
    """The core answers the bare echo at both payload sizes (the numbers
    are compared across commits, not against a fixed bar)."""
    serial_rpc = _results()["serial_rpc"]
    for core in server_cores():
        for label, _size, count in SERIAL_RPC_POINTS:
            point = serial_rpc[core][label]
            assert point["samples"] == count
            assert 0 < point["p50_us"] <= point["p90_us"]


def test_codec_writer_bytearray_wins():
    """The bytearray-backed Writer must not lose to the list+join one on
    a diff-shaped field mix (observed: comfortably faster)."""
    codec = _results()["codec_writer"]
    assert codec["speedup"] >= 1.0, codec


def test_codec_messages_schema_walk_is_cheap():
    """One encode + decode through the field tables must stay within
    1.5x of hand-inlined bodies on the small control messages (observed:
    ~1.3x, under a microsecond)."""
    codec = _results()["codec_messages"]
    assert codec["ratio"] <= 1.5, codec


def _print_serial_rpc(title: str, point: dict) -> None:
    for core in sorted(set(point) - {"baseline", "label"}):
        print(f"serial rpc [{title}] {core:>8s}: " + ", ".join(
            f"{label} p50 {point[core][label]['p50_us']:.0f} / "
            f"p90 {point[core][label]['p90_us']:.0f} us"
            for label, _size, _count in SERIAL_RPC_POINTS))


def main() -> None:
    if sys.argv[1:2] == ["--echo-server"]:
        return _echo_server_main(sys.argv[2])
    if sys.argv[1:2] == ["--baseline"]:
        return _print_serial_rpc(
            sys.argv[2], record_serial_rpc_baseline(sys.argv[2]))
    results = _results()
    _print_serial_rpc("this src", results["serial_rpc"])
    if "baseline" in results["serial_rpc"]:
        baseline = results["serial_rpc"]["baseline"]
        _print_serial_rpc(baseline["label"], baseline)
    comparison = results["pipelining"]
    config = comparison["config"]
    print(f"transport pipelining ({config['threads']} threads, one TCP "
          f"connection, {config['rtt_s'] * 1e3:.1f} ms simulated RTT, "
          f"{config['duration_s']:.1f}s per mode)")
    print(f"{'mode':>10s} {'sections/s':>11s} {'requests/s':>11s}")
    for mode in ("serial", "pipelined"):
        row = comparison[mode]
        print(f"{mode:>10s} {row['sections_per_s']:11.0f} "
              f"{row['requests_per_s']:11.0f}")
    print(f"pipelining speedup: {comparison['speedup']:.1f}x "
          "(acceptance bar: 3x)")
    batch = comparison["pipelined"].get("mean_send_batch_frames")
    if batch:
        print(f"mean client send batch: {batch:.1f} frames; "
              f"mean server reply batch: "
              f"{comparison['pipelined'].get('mean_reply_batch_frames', 1):.1f}")
    codec = results["codec_writer"]
    print(f"codec writer: {codec['list_join_ns_per_field']:.0f} ns/field "
          f"(list+join) -> {codec['bytearray_ns_per_field']:.0f} ns/field "
          f"(bytearray), {codec['speedup']:.2f}x")
    codec = results["codec_messages"]
    print(f"codec messages: {codec['inlined_ns_per_roundtrip']:.0f} ns "
          f"(inlined) vs {codec['schema_ns_per_roundtrip']:.0f} ns "
          f"(schema) per encode+decode, {codec['ratio']:.2f}x")
    print(f"[results -> {os.path.relpath(RESULTS_PATH)}]")


if __name__ == "__main__":
    main()
