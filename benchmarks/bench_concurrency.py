#!/usr/bin/env python3
"""Server dispatch concurrency: sharded per-segment locks vs a global lock.

The server once serialized every request behind one ``threading.RLock``
around ``dispatch``.  That made any blocking work inside a handler — most
visibly pushing invalidations to subscribers behind slow links — a stall
for *every* client of the server, on every segment.  The sharded scheme
(short table lock + per-segment reader-writer locks, pushes outside the
lock; see ``repro.server.server``) confines that cost to the committing
writer.

This benchmark recreates the old behavior with :class:`GlobalLockDispatcher`
(the real server wrapped in one big lock — pushes then happen while it is
held, exactly as the old code pushed under ``self._lock``) and measures a
read-heavy multi-segment workload against both:

- 8 reader clients, each validating its own segment in a tight loop;
- 1 writer committing versions to a "hot" segment with 4 subscribers
  whose notification links are slow (modeled by a sink that blocks a few
  milliseconds per push — ``time.sleep`` releases the GIL, like real
  socket I/O would).

Readers never touch the hot segment, so their throughput should not care
about the writer's subscribers.  Under the global lock it collapses
anyway; sharded locking keeps it intact.  The ``>= 2x`` assertion in the
pytest entry is the acceptance bar — observed ratios are far higher.

Run standalone (writes ``benchmarks/out/bench_concurrency.*``)::

    python benchmarks/bench_concurrency.py

or as a test::

    PYTHONPATH=src python -m pytest benchmarks/bench_concurrency.py -q
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

from repro import ClientOptions, InProcHub, InterWeaveClient, InterWeaveServer
from repro.arch import X86_32
from repro.obs import get_registry, write_sidecar
from repro.transport import MuxConnectionPool, TCPServerTransport
from repro.transport.base import NotificationSink
from repro.types import INT, ArrayDescriptor
from repro.wire.messages import SubscribeRequest

READERS = 8
SUBSCRIBERS = 4
PUSH_DELAY = 0.005  # per-subscriber notification link latency (seconds)
#: client-side work between validations; without it the reader threads
#: monopolize the global lock and starve the writer instead of being
#: stalled by it (a different pathology of the same lock)
READ_THINK = 0.001
HOT_INTS = 64
DURATION = float(os.environ.get("REPRO_BENCH_CONCURRENCY_SECONDS", "1.0"))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class SlowSink(NotificationSink):
    """Subscribers behind slow links: each push blocks for ``delay``.

    ``push`` returns False ("not delivered"), so the server keeps the
    subscriber unnotified and re-pushes on every commit — a stationary
    worst case for notification cost.
    """

    def __init__(self, delay: float):
        self.delay = delay
        self.pushes = 0

    def push(self, client_id: str, data: bytes) -> bool:
        time.sleep(self.delay)
        self.pushes += 1  # only the committing writer's thread pushes
        return False


class GlobalLockDispatcher:
    """The server's original concurrency model: one lock around dispatch.

    Wrapping the *current* server reproduces it faithfully — notification
    pushes happen inside ``dispatch``, hence while this lock is held, just
    as the old ``_notify_stale_subscribers`` ran under the global lock.
    """

    def __init__(self, server: InterWeaveServer):
        self._server = server
        self._lock = threading.RLock()

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        with self._lock:
            return self._server.dispatch(client_id, data)


def run_scenario(sharded: bool, duration: float = DURATION) -> dict:
    hub = InProcHub()
    sink = SlowSink(PUSH_DELAY)
    server = InterWeaveServer("bench", sink=sink)
    hub.register_server("bench",
                        server if sharded else GlobalLockDispatcher(server))

    # the hot segment: one writer, SUBSCRIBERS slow notification targets
    writer = InterWeaveClient("writer", X86_32, hub.connect)
    hot = writer.open_segment("bench/hot")
    writer.wl_acquire(hot)
    hot_acc = writer.malloc(hot, ArrayDescriptor(INT, HOT_INTS), name="data")
    hot_acc.write_values(np.arange(HOT_INTS))
    writer.wl_release(hot)
    for k in range(SUBSCRIBERS):
        sub = InterWeaveClient(f"sub{k}", X86_32, hub.connect)
        seg = sub.open_segment("bench/hot")
        sub.rl_acquire(seg)
        sub.rl_release(seg)
        sub._rpc(seg.channel, SubscribeRequest("bench/hot", sub.client_id, True))

    # the readers: one private segment each, polling on every acquire
    readers = []
    for k in range(READERS):
        client = InterWeaveClient(
            f"reader{k}", X86_32, hub.connect,
            options=ClientOptions(enable_notifications=False))
        seg = client.open_segment(f"bench/r{k}")
        client.wl_acquire(seg)
        client.malloc(seg, ArrayDescriptor(INT, 16),
                      name="data").write_values(np.arange(16))
        client.wl_release(seg)
        readers.append((client, seg))

    stop = threading.Event()
    reads = [0] * READERS
    commits = [0]

    def reader_loop(k: int, client, seg) -> None:
        while not stop.is_set():
            client.rl_acquire(seg)
            client.rl_release(seg)
            reads[k] += 1
            time.sleep(READ_THINK)

    def writer_loop() -> None:
        salt = 0
        while not stop.is_set():
            writer.wl_acquire(hot)
            salt += 1
            hot_acc.write_values((np.arange(HOT_INTS) + salt) % 100000)
            writer.wl_release(hot)
            commits[0] += 1

    threads = [threading.Thread(target=reader_loop, args=(k, client, seg))
               for k, (client, seg) in enumerate(readers)]
    threads.append(threading.Thread(target=writer_loop))
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join()

    total_reads = sum(reads)
    return {
        "mode": "sharded" if sharded else "global_lock",
        "duration_s": duration,
        "reads": total_reads,
        "reads_per_s": total_reads / duration,
        "commits": commits[0],
        "pushes": sink.pushes,
    }


def run_mux_scenario(duration: float = DURATION) -> dict:
    """The same read-heavy multi-segment workload over real TCP, with
    every client — 8 readers and the writer — multiplexed onto ONE
    shared connection via :class:`MuxConnectionPool`.

    Exercised here is the other half of the concurrency story: the
    sharded server dispatch (and its per-connection dispatch pool) fed
    by many clients whose requests interleave on a single socket.  The
    slow-subscriber half is omitted because the TCP transport has no
    push path; ``bench_protocol.py`` prices pipelining itself against a
    serial channel.
    """
    server = InterWeaveServer("bench")
    transport = TCPServerTransport(server)
    pool = MuxConnectionPool({"bench": ("127.0.0.1", transport.port)})
    try:
        writer = InterWeaveClient(
            "writer", X86_32, pool.connect,
            options=ClientOptions(enable_notifications=False))
        hot = writer.open_segment("bench/hot")
        writer.wl_acquire(hot)
        hot_acc = writer.malloc(hot, ArrayDescriptor(INT, HOT_INTS),
                                name="data")
        hot_acc.write_values(np.arange(HOT_INTS))
        writer.wl_release(hot)

        readers = []
        for k in range(READERS):
            client = InterWeaveClient(
                f"reader{k}", X86_32, pool.connect,
                options=ClientOptions(enable_notifications=False))
            seg = client.open_segment(f"bench/r{k}")
            client.wl_acquire(seg)
            client.malloc(seg, ArrayDescriptor(INT, 16),
                          name="data").write_values(np.arange(16))
            client.wl_release(seg)
            readers.append((client, seg))

        stop = threading.Event()
        reads = [0] * READERS
        commits = [0]

        def reader_loop(k: int, client, seg) -> None:
            while not stop.is_set():
                client.rl_acquire(seg)
                client.rl_release(seg)
                reads[k] += 1
                time.sleep(READ_THINK)

        def writer_loop() -> None:
            salt = 0
            while not stop.is_set():
                writer.wl_acquire(hot)
                salt += 1
                hot_acc.write_values((np.arange(HOT_INTS) + salt) % 100000)
                writer.wl_release(hot)
                commits[0] += 1

        threads = [threading.Thread(target=reader_loop, args=(k, client, seg))
                   for k, (client, seg) in enumerate(readers)]
        threads.append(threading.Thread(target=writer_loop))
        for thread in threads:
            thread.start()
        time.sleep(duration)
        stop.set()
        for thread in threads:
            thread.join()
        health = pool.health()["bench"]
    finally:
        pool.close()
        transport.close()

    total_reads = sum(reads)
    return {
        "mode": "mux_shared_connection",
        "duration_s": duration,
        "reads": total_reads,
        "reads_per_s": total_reads / duration,
        "commits": commits[0],
        "clients_on_connection": READERS + 1,
        "connection": health,
    }


def run_comparison(duration: float = DURATION) -> dict:
    registry = get_registry()
    registry.reset()
    global_result = run_scenario(sharded=False, duration=duration)
    sharded_result = run_scenario(sharded=True, duration=duration)
    mux_result = run_mux_scenario(duration=duration)
    speedup = (sharded_result["reads_per_s"]
               / max(global_result["reads_per_s"], 1e-9))
    results = {
        "global_lock": global_result,
        "sharded": sharded_result,
        "mux_shared_connection": mux_result,
        "read_throughput_speedup": speedup,
        "config": {"readers": READERS, "subscribers": SUBSCRIBERS,
                   "push_delay_s": PUSH_DELAY},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "bench_concurrency.json"), "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    write_sidecar(os.path.join(OUT_DIR, "bench_concurrency.metrics.json"),
                  registry.snapshot())
    return results


def test_sharded_locks_beat_global_lock():
    """Read-heavy multi-segment throughput must at least double without
    the global dispatch lock (observed: well above 2x)."""
    results = run_comparison()
    assert results["sharded"]["commits"] > 0
    assert results["global_lock"]["commits"] > 0
    assert results["sharded"]["pushes"] > 0
    assert results["read_throughput_speedup"] >= 2.0, results
    # the multiplexed-TCP variant: 9 clients on one live socket must make
    # steady progress on both the read and write sides
    mux = results["mux_shared_connection"]
    assert mux["reads"] > 0 and mux["commits"] > 0, mux
    assert mux["connection"]["connected"], mux
    assert mux["connection"]["reconnects"] == 0, mux


def main() -> None:
    results = run_comparison()
    g, s = results["global_lock"], results["sharded"]
    print(f"server dispatch concurrency ({READERS} readers on private "
          f"segments, 1 writer, {SUBSCRIBERS} slow subscribers "
          f"@ {PUSH_DELAY * 1e3:.0f} ms/push, {DURATION:.1f}s per mode)")
    print(f"{'mode':>12s} {'reads/s':>10s} {'commits':>8s} {'pushes':>7s}")
    for row in (g, s):
        print(f"{row['mode']:>12s} {row['reads_per_s']:10.0f} "
              f"{row['commits']:8d} {row['pushes']:7d}")
    print(f"read throughput speedup: {results['read_throughput_speedup']:.1f}x "
          "(acceptance bar: 2x)")
    mux = results["mux_shared_connection"]
    print(f"one multiplexed TCP connection, {mux['clients_on_connection']} "
          f"clients: {mux['reads_per_s']:.0f} reads/s, "
          f"{mux['commits']} commits")
    print(f"[results -> {os.path.relpath(os.path.join(OUT_DIR, 'bench_concurrency.json'))}]")


if __name__ == "__main__":
    main()
