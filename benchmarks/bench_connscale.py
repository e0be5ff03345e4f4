#!/usr/bin/env python3
"""Connection scale: the server core at 1k/5k/10k connections.

The paper's servers hold long-lived sessions for every sharing client;
a segment served to thousands of mostly-idle clients stresses the
*connection plane*, not the data plane.  The server core keeps every
socket on one epoll and spends threads on concurrent dispatches, not on
connections.  This benchmark prices that at 1k/5k/10k concurrent
connections:

- every connection is *idle-mostly*: it completes one seq-0 handshake
  round at setup, then receives a paced background ping about once per
  ``PING_INTERVAL`` during the measured window;
- a hot subset (proportional to the connection count) drives a
  closed-loop read-validate workload — the pre-encoded lock RPCs of
  ``bench_protocol.py`` — and records per-request latency;
- reported per point: sustained aggregate requests/s (hot + background),
  hot-path p50/p99 latency, and per-connection resident memory measured
  across connection establishment.

The numbers depend on which ``src/`` is on ``PYTHONPATH``, so an older
commit can be measured by this same file: ``--baseline LABEL`` measures
whatever server cores the importable ``repro`` carries and stores the
points under ``baseline`` (kept by later runs).  Run against a tree
that still had the thread-per-connection and asyncio cores, it prices
both (the threaded one up to ``REPRO_BENCH_CONNSCALE_THREADED_MAX``
connections, default 5000 — two OS threads per connection make 10k a
20k-thread server).  Record the baseline on the host that checks the
bar, right before the run (CI measures commit 9174bd5, the last with
both cores): a core's numbers move by a third between runs and by 2x
between hosts.  Acceptance: at the 5k point the core sustains
>= 2x the recorded threaded baseline's aggregate requests/s and at
least the recorded asyncio baseline's, the 10k point completes
cleanly, and no point costs more than 6 KiB of RSS per connection.

Results land in ``BENCH_connscale.json`` at the repo root plus a
metrics sidecar in ``benchmarks/out/``.  The whole run is
deadline-guarded per point (``REPRO_BENCH_CONNSCALE_DEADLINE``
seconds, mirroring the durability bench): a hung accept loop or a
wedged teardown fails loudly instead of hanging CI.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_connscale.py
    mkdir -p /tmp/two-cores && git archive 9174bd5 src | tar -x -C /tmp/two-cores
    PYTHONPATH=/tmp/two-cores/src python benchmarks/bench_connscale.py \
        --baseline two-cores@9174bd5

or as a test::

    PYTHONPATH=src python -m pytest benchmarks/bench_connscale.py -q
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import struct
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import server_cores

from repro import ClientOptions, InterWeaveClient, InterWeaveServer
from repro.arch import X86_32
from repro.obs import get_registry, write_sidecar
from repro.transport import TCPChannel
from repro.transport.base import ReplyCache
from repro.transport.tcp import request_frame_buffers
from repro.wire.messages import (
    COHERENCE_FULL,
    LOCK_READ,
    LockAcquireRequest,
    LockReleaseRequest,
    encode_message,
)

POINTS = [int(point) for point in os.environ.get(
    "REPRO_BENCH_CONNSCALE_POINTS", "1000,5000,10000").split(",")]
#: measured window per point, seconds
DURATION = float(os.environ.get("REPRO_BENCH_CONNSCALE_SECONDS", "2.0"))
#: target interval between background pings to each idle connection
PING_INTERVAL = float(os.environ.get("REPRO_BENCH_CONNSCALE_PING_INTERVAL",
                                     "1.0"))
#: largest connection count a baseline's thread-per-connection core is
#: asked to survive (two OS threads per connection)
THREADED_MAX = int(os.environ.get("REPRO_BENCH_CONNSCALE_THREADED_MAX",
                                  "5000"))
#: per-point hang guard, like REPRO_BENCH_DURABILITY_DEADLINE
DEADLINE_SECONDS = float(os.environ.get("REPRO_BENCH_CONNSCALE_DEADLINE",
                                        "120"))
CONNECT_BATCH = 100

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_connscale.json")

_LEN = struct.Struct(">I")


def _hot_count(conns: int) -> int:
    """Hot subset scales with the point so bigger fleets stay non-toy."""
    return max(4, conns // 250)


def _raise_fd_limit(needed: int) -> int:
    """Best-effort RLIMIT_NOFILE raise; returns the resulting soft limit.

    Every benchmark connection costs two descriptors in this process
    (client end + accepted server end).  Root can raise the hard limit;
    unprivileged runs get whatever the hard limit allows, and the
    caller caps the point to fit.
    """
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return soft
    for target in (max(needed, 65536), needed):
        for new_hard in (max(hard, target), hard):
            try:
                resource.setrlimit(resource.RLIMIT_NOFILE,
                                   (target, new_hard))
                return target
            except (ValueError, OSError):
                continue
    return soft


class _Deadline:
    """Per-point watchdog: raises instead of letting a phase hang."""

    def __init__(self, label: str, seconds: float = DEADLINE_SECONDS):
        self.label = label
        self.expires = time.monotonic() + seconds
        self.seconds = seconds

    def check(self, phase: str) -> None:
        if time.monotonic() > self.expires:
            raise RuntimeError(
                f"{self.label}: {phase} missed the {self.seconds:.0f}s "
                f"deadline (REPRO_BENCH_CONNSCALE_DEADLINE)")


def _rss_bytes() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    return 0


def _read_frames(sock: socket.socket, count: int, deadline: _Deadline) -> None:
    """Read and discard ``count`` length-prefixed reply frames."""
    for _ in range(count):
        deadline.check("reading replies")
        header = b""
        while len(header) < _LEN.size:
            chunk = sock.recv(_LEN.size - len(header))
            if not chunk:
                raise ConnectionError("server closed mid-reply")
            header += chunk
        (length,) = _LEN.unpack(header)
        remaining = length
        while remaining:
            chunk = sock.recv(min(remaining, 65536))
            if not chunk:
                raise ConnectionError("server closed mid-reply")
            remaining -= len(chunk)


class _FrameCounter:
    """Incremental frame splitter for the selector-driven reply drain."""

    __slots__ = ("buffer",)

    def __init__(self):
        self.buffer = b""

    def feed(self, data: bytes) -> int:
        self.buffer += data
        complete = 0
        while len(self.buffer) >= _LEN.size:
            (length,) = _LEN.unpack_from(self.buffer)
            if len(self.buffer) < _LEN.size + length:
                break
            self.buffer = self.buffer[_LEN.size + length:]
            complete += 1
        return complete


def _encode_lock_messages(port: int, segments: int):
    """Seed segments and return per-segment (acquire, release) payloads
    plus the shared idle-ping payload pair (bench_protocol's idiom: the
    loop replays pre-encoded RPCs so client bookkeeping does not dilute
    the transport comparison)."""
    setup = InterWeaveClient(
        "setup", X86_32,
        lambda name, client_id: TCPChannel("127.0.0.1", port, client_id),
        options=ClientOptions(enable_notifications=False))
    pairs = []
    for k in range(segments + 1):
        name = f"bench/idle" if k == segments else f"bench/h{k}"
        segment = setup.open_segment(name)
        setup.wl_acquire(segment)
        setup.wl_release(segment)
        acquire = encode_message(LockAcquireRequest(
            name, LOCK_READ, "load", segment.version,
            COHERENCE_FULL, 0.0, time.time()))
        release = encode_message(LockReleaseRequest(
            name, LOCK_READ, "load", None))
        pairs.append((acquire, release))
    setup.close()
    return pairs[:-1], pairs[-1]


def _connect_idle(port: int, count: int, ping, deadline: _Deadline):
    """Open ``count`` connections, each proving liveness with one seq-0
    handshake round (seq 0 opts out of reply-cache sessions, so 10k
    idle connections do not thrash the dedup window)."""
    acquire, release = ping
    socks = []
    for base in range(0, count, CONNECT_BATCH):
        deadline.check("establishing connections")
        batch = []
        for i in range(base, min(base + CONNECT_BATCH, count)):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(10.0)
            sock.sendall(b"".join(
                request_frame_buffers(b"idle-%d" % i, 0, 0, acquire)
                + request_frame_buffers(b"idle-%d" % i, 0, 0, release)))
            batch.append(sock)
        for sock in batch:
            _read_frames(sock, 2, deadline)
        socks.extend(batch)
    return socks


class _BackgroundPinger:
    """Paced seq-0 pings over the idle fleet during the window.

    A sender cycles through every idle connection about once per
    ``PING_INTERVAL``; a selector thread drains and counts the replies.
    Counted replies (not sends) enter the aggregate rate — backpressure
    from a drowning server shows up as a lower number, never a hang.
    """

    def __init__(self, socks, ping, interval: float):
        self._socks = socks
        self._frames = [
            b"".join(request_frame_buffers(b"idle-%d" % i, 0, 0, ping[0]))
            for i in range(len(socks))]
        self._interval = interval
        self._stop = threading.Event()
        self.sent = 0
        self.replies = 0
        self.errors = 0
        self._selector = selectors.DefaultSelector()
        for sock in socks:
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ,
                                    _FrameCounter())
        self._sender = threading.Thread(target=self._send_loop, daemon=True)
        self._drainer = threading.Thread(target=self._drain_loop, daemon=True)

    def start(self):
        self._sender.start()
        self._drainer.start()

    def _send_loop(self):
        if not self._socks:
            return
        pause = self._interval / len(self._socks)
        chunk = max(1, int(0.01 / pause)) if pause > 0 else len(self._socks)
        index = 0
        while not self._stop.is_set():
            for _ in range(chunk):
                sock = self._socks[index % len(self._socks)]
                try:
                    sock.sendall(self._frames[index % len(self._socks)])
                    self.sent += 1
                except (BlockingIOError, InterruptedError):
                    pass  # kernel buffer full: skip this round
                except OSError:
                    self.errors += 1
                index += 1
            if self._stop.wait(chunk * pause):
                return

    def _drain_loop(self):
        while not self._stop.is_set():
            for key, _events in self._selector.select(timeout=0.1):
                try:
                    data = key.fileobj.recv(65536)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    self.errors += 1
                    try:
                        self._selector.unregister(key.fileobj)
                    except (KeyError, ValueError):
                        pass
                    continue
                if not data:
                    self.errors += 1
                    try:
                        self._selector.unregister(key.fileobj)
                    except (KeyError, ValueError):
                        pass
                    continue
                self.replies += key.data.feed(data)

    def stop(self):
        self._stop.set()
        self._sender.join(timeout=5.0)
        self._drainer.join(timeout=5.0)
        self._selector.close()
        for sock in self._socks:
            sock.setblocking(True)
            sock.settimeout(10.0)


def _hot_loop(port: int, pair, duration: float, index: int,
              latencies, counts, errors):
    """One closed-loop hot worker: read-validate round trips over its
    own connection, recording per-section latency."""
    acquire, release = pair
    client_id = b"hot-%d" % index
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    except OSError:
        errors.append(index)
        return
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(10.0)
    samples = []
    sections = 0
    seq = 0
    deadline = _Deadline(f"hot-{index}")
    stop_at = time.perf_counter() + duration
    try:
        while time.perf_counter() < stop_at:
            started = time.perf_counter()
            seq += 1
            sock.sendall(b"".join(
                request_frame_buffers(client_id, 11, seq, acquire)))
            _read_frames(sock, 1, deadline)
            seq += 1
            sock.sendall(b"".join(
                request_frame_buffers(client_id, 11, seq, release)))
            _read_frames(sock, 1, deadline)
            samples.append(time.perf_counter() - started)
            sections += 1
    except (OSError, RuntimeError):
        errors.append(index)
    finally:
        sock.close()
    latencies.extend(samples)
    counts[index] = sections


def _percentile(samples, fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_point(backend: str, conns: int,
              duration: float = DURATION) -> dict:
    """Measure one (backend, connection-count) point."""
    deadline = _Deadline(f"{backend}@{conns}")
    requested = conns
    hot = _hot_count(conns)
    idle = conns - hot
    limit = _raise_fd_limit(2 * conns + 256)
    if limit < 2 * conns + 256:
        capped = max(64, (limit - 256) // 2)
        idle = max(0, capped - hot)
        conns = hot + idle
        print(f"[bench_connscale] RLIMIT_NOFILE={limit}: "
              f"{backend}@{requested} capped to {conns} connections "
              f"(raise the open-files ulimit for the full point)",
              flush=True)

    server = InterWeaveServer("bench")
    transport = server_cores()[backend](
        server, reply_cache=ReplyCache(max_clients=max(1024, 2 * hot)))
    pinger = None
    socks = []
    try:
        pairs, ping = _encode_lock_messages(transport.port, hot)
        rss_before = _rss_bytes()
        connect_started = time.perf_counter()
        socks = _connect_idle(transport.port, idle, ping, deadline)
        connect_elapsed = time.perf_counter() - connect_started
        rss_per_conn = ((_rss_bytes() - rss_before) / idle) if idle else 0.0

        pinger = _BackgroundPinger(socks, ping, PING_INTERVAL)
        latencies, counts, errors = [], [0] * hot, []
        workers = [threading.Thread(
            target=_hot_loop,
            args=(transport.port, pairs[k], duration, k,
                  latencies, counts, errors))
            for k in range(hot)]
        pinger.start()
        measure_started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=duration + DEADLINE_SECONDS)
        elapsed = time.perf_counter() - measure_started
        pinger.stop()
        deadline.check("measured window")
        if errors:
            raise RuntimeError(
                f"{backend}@{conns}: hot workers {sorted(errors)} failed")

        hot_requests = 2 * sum(counts)
        total = hot_requests + pinger.replies
        return {
            "backend": backend,
            "requested_connections": requested,
            "connections": conns,
            "hot_connections": hot,
            "idle_connections": idle,
            "duration_s": elapsed,
            "requests_per_s": total / elapsed,
            "hot_requests_per_s": hot_requests / elapsed,
            "idle_replies_per_s": pinger.replies / elapsed,
            "idle_pings_sent": pinger.sent,
            "idle_errors": pinger.errors,
            "hot_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "hot_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "rss_per_connection_bytes": rss_per_conn,
            "connect_s": connect_elapsed,
        }
    finally:
        if pinger is not None and not pinger._stop.is_set():
            pinger.stop()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        transport.close()
        deadline.check("teardown")


def measure(duration: float = DURATION) -> list:
    """Every point, on every server core the importable ``repro`` has."""
    points = []
    for conns in POINTS:
        for backend in server_cores():
            if backend == "threads" and conns > THREADED_MAX:
                continue  # 2 threads/conn: not a survivable scale
            points.append(run_point(backend, conns, duration))
    return points


def _stored() -> dict:
    try:
        with open(RESULTS_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def _write(results: dict) -> None:
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_all(duration: float = DURATION) -> dict:
    registry = get_registry()
    registry.reset()
    results = {
        "points": measure(duration),
        "config": {"points": POINTS, "duration_s": duration,
                   "ping_interval_s": PING_INTERVAL,
                   "threaded_max_connections": THREADED_MAX,
                   "workload": "idle-mostly fleet with paced pings plus a "
                               "closed-loop read-validate hot subset"},
    }
    # measured against another src/: this run cannot reproduce it
    baseline = _stored().get("baseline")
    if baseline is not None:
        results["baseline"] = baseline
    os.makedirs(OUT_DIR, exist_ok=True)
    _write(results)
    write_sidecar(os.path.join(OUT_DIR, "bench_connscale.metrics.json"),
                  registry.snapshot())
    return results


def record_baseline(label: str) -> dict:
    """Measure whatever ``repro`` is importable and store it as the
    baseline, leaving the rest of BENCH_connscale.json alone."""
    baseline = {"label": label, "points": measure()}
    results = _stored()
    results["baseline"] = baseline
    _write(results)
    return baseline


_cache: dict = {}


def _results() -> dict:
    if "results" not in _cache:
        _cache["results"] = run_all()
    return _cache["results"]


def _point(points, backend, conns):
    for point in points:
        if (point["backend"] == backend
                and point["requested_connections"] == conns):
            return point
    return None


def test_core_beats_both_baseline_cores_at_5k():
    """At the 5k point the core sustains >= 2x the recorded threaded
    baseline's aggregate requests/s (that core measured at its own
    survivable scale, capped by THREADED_MAX) and at least the recorded
    asyncio baseline's."""
    results = _results()
    baseline = results.get("baseline")
    assert baseline is not None, \
        "no baseline recorded: measure the parent with --baseline LABEL"
    target = 5000 if 5000 in POINTS else max(POINTS)
    core = _point(results["points"], "epoll", target)
    assert core is not None and core["requests_per_s"] > 0
    threaded_points = [p for p in baseline["points"]
                       if p["backend"] == "threads"]
    assert threaded_points, "the baseline holds no threaded point"
    threaded = max(threaded_points, key=lambda p: p["connections"])
    assert core["requests_per_s"] >= 2.0 * threaded["requests_per_s"], \
        (core, threaded)
    asyncio_point = _point(baseline["points"], "asyncio", target)
    assert asyncio_point is not None, "the baseline holds no asyncio point"
    assert core["requests_per_s"] >= asyncio_point["requests_per_s"], \
        (core, asyncio_point)


def test_core_completes_10k_point():
    """The largest point must complete without error (run_point raises
    on any hot-worker failure)."""
    core = _point(_results()["points"], "epoll", max(POINTS))
    assert core is not None
    assert core["requests_per_s"] > 0
    assert core["hot_p99_ms"] > 0


def test_connections_cost_under_6k_each():
    """A connection costs no thread: at most 6 KiB of RSS each, at every
    point (client and server halves both live in this process)."""
    for point in _results()["points"]:
        assert point["rss_per_connection_bytes"] <= 6 * 1024, point


def test_results_file_written():
    _results()
    with open(RESULTS_PATH) as handle:
        doc = json.load(handle)
    assert doc["points"]


def _print_points(title: str, points: list) -> None:
    print(title)
    print(f"{'core':>8s} {'conns':>6s} {'req/s':>9s} {'hot p50':>9s} "
          f"{'hot p99':>9s} {'rss/conn':>9s} {'connect':>8s}")
    for point in points:
        print(f"{point['backend']:>8s} {point['connections']:6d} "
              f"{point['requests_per_s']:9.0f} "
              f"{point['hot_p50_ms']:8.2f}m {point['hot_p99_ms']:8.2f}m "
              f"{point['rss_per_connection_bytes'] / 1024:8.1f}K "
              f"{point['connect_s']:7.1f}s")


def main() -> None:
    if sys.argv[1:2] == ["--baseline"]:
        baseline = record_baseline(sys.argv[2])
        _print_points(f"baseline [{baseline['label']}]", baseline["points"])
        return
    results = _results()
    config = results["config"]
    _print_points(f"connection scale (idle-mostly fleet, "
                  f"{config['duration_s']:.1f}s window, pings every "
                  f"{config['ping_interval_s']:.1f}s)", results["points"])
    if "baseline" in results:
        _print_points(f"baseline [{results['baseline']['label']}]",
                      results["baseline"]["points"])
    print(f"[results -> {os.path.relpath(RESULTS_PATH)}]")


if __name__ == "__main__":
    main()
