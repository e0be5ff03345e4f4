#!/usr/bin/env python3
"""Read fan-out through the caching relay tier (not a paper figure).

The paper's InterWeave servers are the sole authority for their
segments; every reader validation crosses the network to the origin.
``repro.proxy.CachingProxy`` interposes a relay that answers read
validations from cached version metadata and encoded diffs, so N
readers polling one hot segment cost the origin O(writes), not
O(reads).

This benchmark prices that claim.  ``READERS`` client threads each run
the natural read loop — ``rl_acquire``, read an int, ``rl_release`` —
against one hot segment while a writer updates it every
``WRITE_PERIOD`` seconds.  Two modes:

- **direct**  — every client talks to the origin across a simulated
  1 ms-RTT link (:class:`common.LatencyRelay`, the same link model the
  pipelining benchmark uses);
- **proxied** — clients talk to a :class:`CachingProxy` on loopback;
  only the proxy's refresh/forward traffic crosses the simulated link
  to the origin.

The origin runs with a private :class:`MetricsRegistry`, so its
``server.requests`` counter isolates exactly the traffic that reached
it in each mode.  Acceptance bars (asserted by the pytest entries
below): the proxy must cut origin requests by >= 4x and raise aggregate
read-validate throughput by >= 2x.  Measured on a 2-core host: a 42x
origin-request reduction and a 2.7x throughput ratio in one run, but
the throughput ratio has also read 1.5-1.99 there, so that bar does
not hold on every run.

Results land in ``BENCH_fanout.json`` at the repo root plus a metrics
sidecar in ``benchmarks/out/``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fanout.py

or as a test::

    PYTHONPATH=src python -m pytest benchmarks/bench_fanout.py -q
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import LatencyRelay

from repro import (
    CachingProxy,
    ClientOptions,
    InterWeaveClient,
    InterWeaveServer,
    MetricsRegistry,
    MuxConnectionPool,
    RetryPolicy,
    TCPChannel,
    TCPServerTransport,
)
from repro.arch import X86_32
from repro.obs import get_registry, write_sidecar
from repro.types import INT

READERS = int(os.environ.get("REPRO_BENCH_FANOUT_READERS", "8"))
DURATION = float(os.environ.get("REPRO_BENCH_FANOUT_SECONDS", "1.0"))
#: one-way link delay between clients/proxy and the origin (2 ms RTT — a
#: conservative LAN; the proxied mode is loopback-plus-GIL-bound, so the
#: throughput ratio only grows with distance to the origin)
LINK_DELAY = float(os.environ.get("REPRO_BENCH_FANOUT_LINK_DELAY", "0.001"))
#: seconds between writer updates to the hot segment
WRITE_PERIOD = float(os.environ.get("REPRO_BENCH_FANOUT_WRITE_PERIOD", "0.02"))
#: relay freshness window (plain TCP upstream cannot push invalidations)
MAX_STALENESS = float(os.environ.get("REPRO_BENCH_FANOUT_STALENESS", "0.05"))
SEGMENT = "bench/hot"
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_fanout.json")


def _connector(port: int):
    def connect(server_name, client_id):
        return TCPChannel("127.0.0.1", port, client_id, timeout=30.0)

    return connect


def _make_client(name: str, port: int) -> InterWeaveClient:
    return InterWeaveClient(
        name, X86_32, _connector(port),
        options=ClientOptions(enable_notifications=False))


def _run_mode(label: str, port: int, origin_metrics: MetricsRegistry,
              duration: float) -> dict:
    """Drive READERS read loops + one writer against ``port``; meter the
    origin's request counter across the measured window only."""
    readers = []
    for k in range(READERS):
        client = _make_client(f"{label}-r{k}", port)
        segment = client.open_segment(SEGMENT)
        client.rl_acquire(segment)  # prime the local copy before measuring
        client.rl_release(segment)
        readers.append((client, segment))
    writer = _make_client(f"{label}-w", port)
    writer_segment = writer.open_segment(SEGMENT)

    stop = threading.Event()
    sections = [0] * READERS
    last_seen = [None] * READERS
    writes = [0]

    def read_loop(k: int, client, segment) -> None:
        while not stop.is_set():
            client.rl_acquire(segment)
            last_seen[k] = client.accessor_for(segment, "v").get()
            client.rl_release(segment)
            sections[k] += 1

    def write_loop() -> None:
        while not stop.is_set():
            writer.wl_acquire(writer_segment)
            writer.accessor_for(writer_segment, "v").set(writes[0] + 1)
            writer.wl_release(writer_segment)
            writes[0] += 1
            stop.wait(WRITE_PERIOD)

    before = origin_metrics.snapshot()["counters"].get("server.requests", 0)
    threads = [threading.Thread(target=read_loop, args=(k, c, s),
                                name=f"{label}-reader-{k}")
               for k, (c, s) in enumerate(readers)]
    threads.append(threading.Thread(target=write_loop, name=f"{label}-writer"))
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    origin_requests = (origin_metrics.snapshot()["counters"]
                       .get("server.requests", 0) - before)

    # correctness probe: one more validated read must see the final write
    probe_client, probe_segment = readers[0]
    probe_client.rl_acquire(probe_segment)
    final_read = probe_client.accessor_for(probe_segment, "v").get()
    probe_client.rl_release(probe_segment)

    for client, _ in readers:
        client.close()
    writer.close()

    total = sum(sections)
    return {
        "sections": total,
        "sections_per_s": total / elapsed,
        "origin_requests": origin_requests,
        "origin_requests_per_section": origin_requests / max(total, 1),
        "writes": writes[0],
        "final_read": final_read,
        "last_written": writes[0],
        "duration_s": elapsed,
    }


def run_fanout_comparison(duration: float = DURATION) -> dict:
    origin_metrics = MetricsRegistry()
    origin = InterWeaveServer("bench", metrics=origin_metrics)
    origin_transport = TCPServerTransport(origin)
    relay = LatencyRelay("127.0.0.1", origin_transport.port, delay=LINK_DELAY)

    # seed the hot segment straight at the origin — only measured traffic
    # crosses the simulated link
    setup = _make_client("setup", origin_transport.port)
    segment = setup.open_segment(SEGMENT)
    setup.wl_acquire(segment)
    if "v" not in segment.heap.blk_name_tree:
        setup.malloc(segment, INT, name="v").set(0)
    setup.wl_release(segment)
    setup.close()

    pool = proxy = proxy_transport = None
    try:
        direct = _run_mode("direct", relay.port, origin_metrics, duration)

        pool = MuxConnectionPool({"bench": ("127.0.0.1", relay.port)},
                                 timeout=30.0, retry=RetryPolicy())
        proxy = CachingProxy("bench", connector=pool.connect,
                             max_staleness=MAX_STALENESS)
        proxy_transport = TCPServerTransport(proxy)
        proxied = _run_mode("proxied", proxy_transport.port, origin_metrics,
                            duration)
        proxied["proxy"] = proxy.stats_snapshot()["proxy"]
    finally:
        if proxy_transport is not None:
            proxy_transport.close()
        if proxy is not None:
            proxy.close()
        if pool is not None:
            pool.close()
        relay.close()
        origin_transport.close()

    reduction = (direct["origin_requests"]
                 / max(proxied["origin_requests"], 1))
    throughput_ratio = (proxied["sections_per_s"]
                        / max(direct["sections_per_s"], 1e-9))
    return {
        "direct": direct,
        "proxied": proxied,
        "origin_request_reduction": reduction,
        "throughput_ratio": throughput_ratio,
        "config": {
            "readers": READERS,
            "link_delay_s": LINK_DELAY,
            "rtt_s": 2 * LINK_DELAY,
            "write_period_s": WRITE_PERIOD,
            "proxy_max_staleness_s": MAX_STALENESS,
            "duration_s": duration,
            "workload": "rl_acquire / read int / rl_release on one hot "
                        "segment; writer updates it every write_period",
        },
    }


# =============================================================================
# orchestration, acceptance tests, CLI
# =============================================================================

def run_all(duration: float = DURATION) -> dict:
    registry = get_registry()
    registry.reset()
    results = {"fanout": run_fanout_comparison(duration)}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_sidecar(os.path.join(OUT_DIR, "bench_fanout.metrics.json"),
                  registry.snapshot())
    return results


_cache: dict = {}


def _results() -> dict:
    if "results" not in _cache:
        _cache["results"] = run_all()
    return _cache["results"]


def test_fanout_origin_request_reduction():
    """The caching relay must cut origin traffic for an 8-reader hot
    segment by >= 4x (observed: orders of magnitude — the origin sees
    only the writer's forwards plus staleness refreshes)."""
    fanout = _results()["fanout"]
    assert fanout["direct"]["sections"] > 0
    assert fanout["proxied"]["sections"] > 0
    assert fanout["origin_request_reduction"] >= 4.0, fanout


def test_fanout_throughput():
    """Aggregate read-validate throughput through the relay must be
    >= 2x the direct-to-origin rate across the 1 ms-RTT link."""
    fanout = _results()["fanout"]
    assert fanout["throughput_ratio"] >= 2.0, fanout


def test_fanout_reads_are_current():
    """In both modes a validated read issued after the last write must
    observe the final value — the relay serves cached data, never
    incoherent data."""
    fanout = _results()["fanout"]
    for mode in ("direct", "proxied"):
        row = fanout[mode]
        assert row["final_read"] == row["last_written"], (mode, row)


def main() -> None:
    fanout = _results()["fanout"]
    config = fanout["config"]
    print(f"read fan-out ({config['readers']} readers, "
          f"{config['rtt_s'] * 1e3:.1f} ms simulated RTT to origin, "
          f"write every {config['write_period_s'] * 1e3:.0f} ms, "
          f"{config['duration_s']:.1f}s per mode)")
    print(f"{'mode':>8s} {'sections/s':>11s} {'origin reqs':>12s} "
          f"{'reqs/section':>13s}")
    for mode in ("direct", "proxied"):
        row = fanout[mode]
        print(f"{mode:>8s} {row['sections_per_s']:11.0f} "
              f"{row['origin_requests']:12d} "
              f"{row['origin_requests_per_section']:13.4f}")
    print(f"origin request reduction: {fanout['origin_request_reduction']:.1f}x "
          "(acceptance bar: 4x)")
    print(f"throughput ratio: {fanout['throughput_ratio']:.1f}x "
          "(acceptance bar: 2x)")
    proxy = fanout["proxied"].get("proxy", {})
    if proxy:
        print(f"proxy: {proxy.get('hits', 0)} hits, "
              f"{proxy.get('forwards', 0)} forwards, "
              f"{proxy.get('refreshes', 0)} refreshes, "
              f"hit rate {proxy.get('hit_rate', 0.0):.3f}")
    print(f"[results -> {os.path.relpath(RESULTS_PATH)}]")


if __name__ == "__main__":
    main()
