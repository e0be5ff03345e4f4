#!/usr/bin/env python3
"""Durability and failover: kill -9 under write load, zero lost commits
(not a paper figure).

The paper's servers checkpoint "periodically" and accept that recent
commits die with the process.  The diff write-ahead log closes that
window: every committed release is fsynced into a per-segment WAL before
the client sees its reply, so a SIGKILL'd server restarts with **zero
lost acknowledged versions** — checkpoint plus WAL-replay-over-it.
Primary-backup replication then bounds recovery *time*: a coordinator
promotes the backup and clients re-resolve to it without any disk replay
at all.

Two scenarios, both with real concurrency:

- **crash_recovery**: a stand-alone ``repro.tools.server_main`` process
  over TCP (``--wal-dir`` + ``--checkpoint-dir``), several writer
  threads committing monotonically increasing values.  Mid-load the
  process is killed with SIGKILL — no atexit, no flush, exactly the
  failure the WAL exists for — then restarted with ``--restore``.
  Writers treat an errored release as *ambiguous* (the reply cache died
  with the process) and never blindly retry it; the acceptance bar is
  ``recovered version >= acknowledged releases`` for every segment:
  zero lost acked commits.  Recovery time (restart exec to first
  successful client operation) is measured and reported.

- **failover**: an in-process primary-backup pair on one hub with a
  ``ReplicationSender``, writers hammering one segment through
  ``DirectoryResolver`` clients.  The primary's dispatcher starts
  refusing connections (the transport-level face of kill -9), the
  coordinator promotes the backup and rebinds the directory, and the
  writers follow via the client's failover re-resolve path.  Accounting
  is *exact* here — a refused request never committed — so the bar is
  ``final version == seed + acknowledged sections`` and zero failed
  client operations.

- **relay_failover**: the same machine loss with a ``CachingProxy`` in
  the request path — writers *and* readers only ever talk to the relay.
  The relay re-resolves through the directory, re-attaches its upstream
  channels at the promoted backup, and keeps serving; the bar is again
  exact version accounting, zero failed downstream operations, and the
  relay re-attach time is reported.

- **quorum**: release-latency comparison between async replication and
  ``quorum_ack=True``, then a *machine* kill — the primary dies together
  with its replication sender (``abandon()``, no flush), so every version
  the dead machine's sender had not shipped is lost.  Async replication may lose
  the tail; quorum-ack may not: every acked release was already applied
  by the backup, so the bar is ``max(0, acked - backup_version) == 0``
  for the quorum run, with the latency cost reported alongside.

Results land in ``BENCH_durability.json`` at the repo root plus a
metrics sidecar in ``benchmarks/out/``.  The crash_recovery scenario is
deadline-guarded (``REPRO_BENCH_DURABILITY_DEADLINE`` seconds): a hung
recovery kills the server processes and fails fast instead of stalling
CI until the job timeout.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_durability.py

or as a test::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py -q
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

from repro import (
    ClientOptions,
    ClusterCoordinator,
    DirectoryResolver,
    InProcHub,
    InterWeaveClient,
    InterWeaveServer,
    MetricsRegistry,
    ReplicationSender,
    SegmentDirectory,
    TCPChannel,
)
from repro.arch import X86_32
from repro.obs import get_registry, write_sidecar
from repro.errors import ServerError, TransportError
from repro.proxy import CachingProxy
from repro.transport.base import Dispatcher
from repro.types import INT

WRITERS = int(os.environ.get("REPRO_BENCH_DURABILITY_WRITERS", "3"))
LOAD_SECONDS = float(os.environ.get("REPRO_BENCH_DURABILITY_SECONDS", "1.2"))
QUORUM_SECTIONS = int(os.environ.get(
    "REPRO_BENCH_DURABILITY_QUORUM_SECTIONS", "150"))
DEADLINE_SECONDS = float(os.environ.get(
    "REPRO_BENCH_DURABILITY_DEADLINE", "45"))
CHECKPOINT_EVERY = 8
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_durability.json")

_BANNER = re.compile(r"\((\d+) segment\(s\) restored, (\d+) WAL record\(s\) "
                     r"replayed\)")


# =============================================================================
# scenario 1: SIGKILL a real server process, recover from checkpoint + WAL
# =============================================================================

def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """A ``repro.tools.server_main`` subprocess with captured stdout."""

    def __init__(self, port: int, checkpoint_dir: str, wal_dir: str):
        self.port = port
        self.lines: list = []
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.server_main",
             "--name", "dur", "--port", str(port),
             "--checkpoint-dir", checkpoint_dir,
             "--checkpoint-every", str(CHECKPOINT_EVERY),
             "--wal-dir", wal_dir, "--restore"],
            cwd=REPO_ROOT,
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(REPO_ROOT, "src")),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def wait_ready(self, timeout: float = 15.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                socket.create_connection(("127.0.0.1", self.port),
                                         timeout=0.2).close()
                return
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited early: {''.join(self.lines)}")
                time.sleep(0.02)
        raise RuntimeError("server did not come up")

    def restore_counts(self):
        """(segments restored, WAL records replayed) from the banner."""
        for line in self.lines:
            match = _BANNER.search(line)
            if match:
                return int(match.group(1)), int(match.group(2))
        return None

    def kill(self) -> None:
        self.proc.kill()  # SIGKILL: no cleanup, no flush
        self.proc.wait()


class CrashWriter:
    """One writer thread committing an increasing counter to its own
    segment, resilient to the server dying underneath it.

    An errored release is counted *ambiguous*, never retried: the commit
    may or may not have reached the WAL, and the reply cache that would
    deduplicate a retry died with the process.  The thread reconnects
    with a fresh client and moves on to the next value.
    """

    def __init__(self, index: int, port: int, stop: threading.Event):
        self.index = index
        self.segment_name = f"dur/w{index}"
        self.port = port
        self.stop = stop
        self.acked = 0
        self.ambiguous = 0
        self.last_acked_value = 0
        self.success_times: list = []
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name=f"crash-writer-{index}")

    def _connect(self):
        def connector(server_name, client_id):
            return TCPChannel("127.0.0.1", self.port, client_id)

        return InterWeaveClient(f"w{self.index}", X86_32, connector)

    def _run(self) -> None:
        client = None
        value = 0
        in_flight = False
        while not self.stop.is_set():
            try:
                if client is None:
                    client = self._connect()
                    seg = client.open_segment(self.segment_name)
                value += 1
                client.wl_acquire(seg)
                in_flight = True
                if seg.heap.blk_name_tree.get("v") is None:
                    client.malloc(seg, INT, name="v").set(value)
                else:
                    client.accessor_for(seg, "v").set(value)
                client.wl_release(seg)
                self.acked += 1
                self.last_acked_value = value
                self.success_times.append(time.perf_counter())
            except Exception:  # noqa: BLE001 — server is being killed
                if in_flight:
                    self.ambiguous += 1
                try:
                    if client is not None:
                        client.close()
                except Exception:  # noqa: BLE001
                    pass
                client = None
                time.sleep(0.05)
            finally:
                in_flight = False
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001
                pass


def run_crash_recovery(load_seconds: float = LOAD_SECONDS) -> dict:
    import tempfile

    workdir = tempfile.mkdtemp(prefix="bench_durability_")
    checkpoint_dir = os.path.join(workdir, "ck")
    wal_dir = os.path.join(workdir, "wal")
    port = _free_port()

    server = ServerProcess(port, checkpoint_dir, wal_dir)
    server.wait_ready()
    stop = threading.Event()
    writers = [CrashWriter(k, port, stop) for k in range(WRITERS)]
    for writer in writers:
        writer.thread.start()

    time.sleep(load_seconds)          # let load build WAL + checkpoints
    kill_time = time.perf_counter()
    server.kill()                     # SIGKILL, mid-load
    time.sleep(0.3)                   # writers churn against a dead port

    restart_start = time.perf_counter()
    restart = ServerProcess(port, checkpoint_dir, wal_dir)
    restart.wait_ready(timeout=DEADLINE_SECONDS)
    # recovery time = restart exec to the first acked client operation;
    # deadline-guarded so a hung recovery fails fast instead of stalling
    # CI until the job timeout
    recovery_deadline = restart_start + DEADLINE_SECONDS
    while time.perf_counter() < recovery_deadline:
        if any(t > restart_start
               for w in writers for t in w.success_times[-3:]):
            break
        time.sleep(0.01)
    first_success = min((t for w in writers for t in w.success_times
                         if t > restart_start), default=None)
    if first_success is None:
        stop.set()
        restart.kill()
        raise RuntimeError(
            f"crash recovery missed the {DEADLINE_SECONDS:.0f}s deadline: "
            "no writer completed an operation against the restarted "
            "server")
    time.sleep(load_seconds / 2)      # keep writing on the recovered server
    stop.set()
    for writer in writers:
        writer.thread.join(timeout=10)

    # final audit with a fresh client: every acked release must be a
    # version the recovered server still has
    def connector(server_name, client_id):
        return TCPChannel("127.0.0.1", port, client_id)

    auditor = InterWeaveClient("audit", X86_32, connector)
    per_writer = []
    lost = 0
    for writer in writers:
        seg = auditor.open_segment(writer.segment_name, create=False)
        auditor.rl_acquire(seg)
        final_value = auditor.accessor_for(seg, "v").get()
        auditor.rl_release(seg)
        version = seg.version
        writer_lost = max(0, writer.acked - version)
        lost += writer_lost
        per_writer.append({
            "segment": writer.segment_name,
            "acked_releases": writer.acked,
            "ambiguous_releases": writer.ambiguous,
            "recovered_version": version,
            "final_value": final_value,
            "last_acked_value": writer.last_acked_value,
            "lost_acked_versions": writer_lost,
        })
    auditor.close()
    restore = restart.restore_counts()
    restart.kill()

    return {
        "writers": WRITERS,
        "per_writer": per_writer,
        "acked_releases": sum(w.acked for w in writers),
        "ambiguous_releases": sum(w.ambiguous for w in writers),
        "lost_acked_versions": lost,
        "segments_restored": restore[0] if restore else None,
        "wal_records_replayed": restore[1] if restore else None,
        "recovery_seconds": (first_success - restart_start
                             if first_success else None),
        "config": {
            "checkpoint_every": CHECKPOINT_EVERY,
            "load_seconds": load_seconds,
            "kill": "SIGKILL mid-load; restart with --restore "
                    "(checkpoints + WAL replay)",
        },
    }


# =============================================================================
# scenario 2: primary-backup failover under write load
# =============================================================================

class FailableDispatcher(Dispatcher):
    """Once ``dead``, every request fails like a refused connection.

    ``active`` counts dispatches already past the liveness check — the
    promotion sequence waits for it to reach zero so every commit that
    beat the crash has announced its version to the replication sender
    before the final flush.
    """

    def __init__(self, inner: Dispatcher):
        self.inner = inner
        self.dead = False
        self.active = 0
        self._gate = threading.Lock()

    def dispatch(self, client_id: str, data: bytes) -> bytes:
        with self._gate:
            if self.dead:
                raise TransportError("connection refused (primary killed)")
            self.active += 1
        try:
            return self.inner.dispatch(client_id, data)
        finally:
            with self._gate:
                self.active -= 1


def run_failover(load_seconds: float = LOAD_SECONDS) -> dict:
    hub = InProcHub()
    primary = InterWeaveServer("primary", sink=hub, lease_duration=5.0,
                               metrics=MetricsRegistry())
    backup = InterWeaveServer("backup", sink=hub, lease_duration=5.0,
                              role="backup", metrics=MetricsRegistry())
    failable = FailableDispatcher(primary)
    hub.register_server("primary", failable)
    hub.register_server("backup", backup)
    directory = SegmentDirectory("directory", origins=["primary"])
    hub.register_server("directory", directory)
    coordinator = ClusterCoordinator(directory, hub.connect)
    sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                               metrics=MetricsRegistry())
    primary.attach_replicator(sender)

    def make_client(name):
        return InterWeaveClient(
            name, X86_32, hub.connect,
            resolver=DirectoryResolver(hub.connect, client_id=name),
            options=ClientOptions(enable_notifications=False))

    segment_name = "app/hot"
    seed = make_client("seed")
    seg = seed.open_segment(segment_name)
    seed.wl_acquire(seg)
    seed.malloc(seg, INT, name="v").set(0)
    seed.wl_release(seg)
    seed_version = seg.version
    seed.close()

    writer_count = WRITERS
    writers = []
    for k in range(writer_count):
        client = make_client(f"fw{k}")
        writers.append((client, client.open_segment(segment_name,
                                                    create=False)))
    stop = threading.Event()
    sections = [0] * writer_count
    success_times = [[] for _ in range(writer_count)]
    failures: list = []

    def write_loop(k: int, client, segment) -> None:
        while not stop.is_set():
            try:
                if segment.lock_mode is None:
                    client.wl_acquire(segment)
                # distinct residues mod writer_count: every write changes
                # the value, so every acked release bumped the version
                client.accessor_for(segment, "v").set(
                    k + writer_count * (sections[k] + 1))
                client.wl_release(segment)
                sections[k] += 1
                success_times[k].append(time.perf_counter())
            except TransportError:
                # the blackout between the crash and the promotion: the
                # re-resolve found no new binding yet.  Nothing committed
                # (the refusal happens before dispatch), so retrying the
                # section — including a still-pending release — is safe.
                time.sleep(0.02)
            except Exception as exc:  # noqa: BLE001 — the acceptance bar
                failures.append(exc)
                return

    threads = [threading.Thread(target=write_loop, args=(k, c, s))
               for k, (c, s) in enumerate(writers)]
    for thread in threads:
        thread.start()

    time.sleep(load_seconds / 2)
    kill_time = time.perf_counter()
    failable.dead = True              # primary stops answering
    while failable.active:            # in-flight dispatches drain
        time.sleep(0.002)
    sender.flush(timeout=30)          # backup catches up to every commit
    coordinator.promote_backup("primary", "backup")
    promote_done = time.perf_counter()
    time.sleep(load_seconds / 2)      # writers continue against the backup
    stop.set()
    for thread in threads:
        thread.join(timeout=30)

    first_after = min((t for times in success_times for t in times
                       if t > promote_done), default=None)
    committed = sum(sections)
    state = backup.segments[segment_name].state
    result = {
        "writers": writer_count,
        "write_sections": committed,
        "failed_operations": len(failures),
        "failovers_followed": sum(c.stats.failovers_followed
                                  for c, _ in writers),
        "final_version": state.version,
        "expected_version": seed_version + committed,
        "lost_versions": (seed_version + committed) - state.version,
        "promotion_seconds": promote_done - kill_time,
        "blackout_seconds": (first_after - kill_time
                             if first_after else None),
        "config": {
            "load_seconds": load_seconds,
            "replication": "async sender, flushed before promotion",
        },
    }
    for client, _ in writers:
        try:
            client.close()
        except Exception:  # noqa: BLE001 — a lock still held at stop time
            pass
    sender.close()
    coordinator.close()
    if failures:
        raise failures[0]
    return result


# =============================================================================
# scenario 3: the same machine loss with a caching relay in the path
# =============================================================================

def run_relay_failover(load_seconds: float = LOAD_SECONDS) -> dict:
    """Writers and readers behind a ``CachingProxy``; the primary origin
    dies mid-load and the relay re-resolves to the promoted backup.

    Downstream clients never talk to an origin: a lost write or a failed
    operation here means the *relay's* failover path dropped it.
    """
    hub = InProcHub()
    primary = InterWeaveServer("h-primary", sink=hub, lease_duration=5.0,
                               metrics=MetricsRegistry())
    backup = InterWeaveServer("h-backup", sink=hub, lease_duration=5.0,
                              role="backup", metrics=MetricsRegistry())
    failable = FailableDispatcher(primary)
    hub.register_server("h-primary", failable)
    hub.register_server("h-backup", backup)
    directory = SegmentDirectory("directory", origins=["h-primary"])
    hub.register_server("directory", directory)
    coordinator = ClusterCoordinator(directory, hub.connect)
    sender = ReplicationSender(primary, hub.connect("h-backup", "!repl"),
                               metrics=MetricsRegistry())
    primary.attach_replicator(sender)
    proxy = CachingProxy("h", connector=hub.connect, origin="h-primary",
                         sink=hub, metrics=MetricsRegistry(),
                         max_staleness=0.05,
                         resolver=DirectoryResolver(hub.connect))
    hub.register_server("h", proxy)

    def make_client(name):
        return InterWeaveClient(
            name, X86_32, hub.connect,
            options=ClientOptions(enable_notifications=False))

    segment_name = "h/hot"
    seed = make_client("seed")
    seg = seed.open_segment(segment_name)
    seed.wl_acquire(seg)
    seed.malloc(seg, INT, name="v").set(0)
    seed.wl_release(seg)
    seed_version = seg.version
    seed.close()

    writer_count = WRITERS
    reader_count = 2
    writers = []
    for k in range(writer_count):
        client = make_client(f"rw{k}")
        writers.append((client, client.open_segment(segment_name,
                                                    create=False)))
    readers = []
    for k in range(reader_count):
        client = make_client(f"rr{k}")
        readers.append((client, client.open_segment(segment_name,
                                                    create=False)))
    stop = threading.Event()
    sections = [0] * writer_count
    reads = [0] * reader_count
    success_times = [[] for _ in range(writer_count)]
    failures: list = []

    # During the blackout (crash -> promotion) the relay's re-resolve
    # finds no new binding yet and the upstream loss surfaces downstream
    # as a typed error — TransportError, or ServerError once the relay
    # wrapped it into a reply.  The primary refuses *before* dispatch,
    # so nothing committed and retrying the section is safe; exact
    # version accounting at the end catches any double-commit.
    retryable = (TransportError, ServerError)

    def write_loop(k: int, client, segment) -> None:
        while not stop.is_set():
            try:
                if segment.lock_mode is None:
                    client.wl_acquire(segment)
                client.accessor_for(segment, "v").set(
                    k + writer_count * (sections[k] + 1))
                client.wl_release(segment)
                sections[k] += 1
                success_times[k].append(time.perf_counter())
            except retryable:
                time.sleep(0.02)
            except Exception as exc:  # noqa: BLE001 — the acceptance bar
                failures.append(exc)
                return

    def read_loop(k: int, client, segment) -> None:
        while not stop.is_set():
            try:
                client.rl_acquire(segment)
                client.accessor_for(segment, "v").get()
                client.rl_release(segment)
                reads[k] += 1
            except retryable:
                time.sleep(0.02)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)
                return

    threads = [threading.Thread(target=write_loop, args=(k, c, s))
               for k, (c, s) in enumerate(writers)]
    threads += [threading.Thread(target=read_loop, args=(k, c, s))
                for k, (c, s) in enumerate(readers)]
    for thread in threads:
        thread.start()

    time.sleep(load_seconds / 2)
    kill_time = time.perf_counter()
    failable.dead = True              # the origin machine is gone
    while failable.active:            # in-flight dispatches drain
        time.sleep(0.002)
    coordinator.promote_backup("h-primary", "h-backup", sender=sender)
    promote_done = time.perf_counter()
    time.sleep(load_seconds / 2)      # traffic continues through the relay
    stop.set()
    for thread in threads:
        thread.join(timeout=30)

    first_after = min((t for times in success_times for t in times
                       if t > promote_done), default=None)
    committed = sum(sections)
    state = backup.segments[segment_name].state
    result = {
        "writers": writer_count,
        "readers": reader_count,
        "write_sections": committed,
        "reads": sum(reads),
        "failed_operations": len(failures),
        "relay_failovers_followed": proxy.stats.failovers_followed,
        "final_version": state.version,
        "expected_version": seed_version + committed,
        "lost_versions": (seed_version + committed) - state.version,
        "promotion_seconds": promote_done - kill_time,
        "relay_reattach_seconds": (first_after - kill_time
                                   if first_after else None),
        "config": {
            "load_seconds": load_seconds,
            "topology": "clients -> CachingProxy -> primary+backup; "
                        "relay re-resolves through the directory",
        },
    }
    for client, _ in writers + readers:
        try:
            client.close()
        except Exception:  # noqa: BLE001 — a lock still held at stop time
            pass
    proxy.close()
    sender.close()
    coordinator.close()
    if failures:
        raise failures[0]
    return result


# =============================================================================
# scenario 4: quorum-ack vs async replication under a machine kill
# =============================================================================

def _latency_stats(samples: list) -> dict:
    ordered = sorted(samples)
    return {
        "samples": len(ordered),
        "mean_ms": sum(ordered) / len(ordered) * 1e3,
        "p95_ms": ordered[int(0.95 * (len(ordered) - 1))] * 1e3,
        "max_ms": ordered[-1] * 1e3,
    }


def _quorum_mode(quorum: bool, sections: int) -> dict:
    """One primary-backup run: measure release latency, then model a
    *machine* kill — the primary dies together with its replication
    sender, so unshipped versions are abandoned, never flushed."""
    hub = InProcHub()
    primary = InterWeaveServer("primary", sink=hub, lease_duration=5.0,
                               quorum_ack=quorum, quorum_timeout=2.0,
                               metrics=MetricsRegistry())
    backup = InterWeaveServer("backup", sink=hub, lease_duration=5.0,
                              role="backup", metrics=MetricsRegistry())
    failable = FailableDispatcher(primary)
    hub.register_server("primary", failable)
    hub.register_server("backup", backup)
    directory = SegmentDirectory("directory", origins=["primary"])
    hub.register_server("directory", directory)
    coordinator = ClusterCoordinator(directory, hub.connect)
    sender = ReplicationSender(primary, hub.connect("backup", "!repl"),
                               metrics=MetricsRegistry())
    primary.attach_replicator(sender)

    client = InterWeaveClient(
        "qw", X86_32, hub.connect,
        resolver=DirectoryResolver(hub.connect, client_id="qw"),
        options=ClientOptions(enable_notifications=False))
    segment_name = "app/q"
    seg = client.open_segment(segment_name)
    client.wl_acquire(seg)
    client.malloc(seg, INT, name="v").set(0)
    client.wl_release(seg)
    seed_version = seg.version

    acked = 0
    latencies: list = []
    for value in range(1, sections + 1):
        client.wl_acquire(seg)
        client.accessor_for(seg, "v").set(value)
        started = time.perf_counter()
        client.wl_release(seg)
        latencies.append(time.perf_counter() - started)
        acked += 1

    # the machine kill: primary and sender die in the same instant — no
    # flush, the versions the sender had not shipped are gone
    failable.dead = True
    abandoned = sender.abandon()
    # the record the worker already had in hand still lands (or fails):
    # wait for it, so the count below is a fact and not a race
    sender.flush()
    # in async mode the backup may never have seen the segment at all
    replica = backup.segments.get(segment_name)
    backup_version = replica.state.version if replica is not None else 0
    lost = max(0, (seed_version + acked) - backup_version)
    coordinator.promote_backup("primary", "backup")

    result = {
        "mode": "quorum_ack" if quorum else "async",
        "acked_releases": acked,
        "abandoned_records": abandoned,
        "backup_version_at_kill": backup_version,
        "lost_acked_versions": lost,
        "release_latency": _latency_stats(latencies),
    }
    if quorum:
        result["quorum_acks"] = primary._m_quorum_acks.value
        result["quorum_degrades"] = primary._m_quorum_degrades.value
    client.close()
    sender.close()
    coordinator.close()
    return result


def run_quorum(sections: int = QUORUM_SECTIONS) -> dict:
    async_run = _quorum_mode(False, sections)
    quorum_run = _quorum_mode(True, sections)
    return {
        "async": async_run,
        "quorum": quorum_run,
        "latency_cost_x": (quorum_run["release_latency"]["mean_ms"] /
                           async_run["release_latency"]["mean_ms"]),
        "config": {"sections": sections, "quorum_timeout": 2.0},
    }


# =============================================================================
# orchestration, acceptance tests, CLI
# =============================================================================

def run_all(load_seconds: float = LOAD_SECONDS) -> dict:
    registry = get_registry()
    registry.reset()
    results = {
        "crash_recovery": run_crash_recovery(load_seconds),
        "failover": run_failover(load_seconds),
        "relay_failover": run_relay_failover(load_seconds),
        "quorum": run_quorum(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_sidecar(os.path.join(OUT_DIR, "bench_durability.metrics.json"),
                  registry.snapshot())
    return results


_cache: dict = {}


def _results() -> dict:
    if "results" not in _cache:
        _cache["results"] = run_all()
    return _cache["results"]


def test_crash_recovery_loses_no_acked_writes():
    """SIGKILL mid-load, restart with --restore: every acknowledged
    release is still a version the recovered server serves."""
    crash = _results()["crash_recovery"]
    assert crash["acked_releases"] > 0, crash
    assert crash["lost_acked_versions"] == 0, crash
    for row in crash["per_writer"]:
        assert row["final_value"] >= row["last_acked_value"], row


def test_crash_recovery_replays_the_wal():
    """The restart actually recovered state (segments restored; writers
    resumed within the measurement window)."""
    crash = _results()["crash_recovery"]
    assert crash["segments_restored"] == crash["writers"], crash
    assert crash["recovery_seconds"] is not None, crash
    assert crash["recovery_seconds"] < 30.0, crash


def test_failover_loses_no_committed_versions():
    """Promoting the backup under write load: exact version accounting
    (a refused request never committed) and zero failed operations."""
    failover = _results()["failover"]
    assert failover["write_sections"] > 0, failover
    assert failover["lost_versions"] == 0, failover
    assert failover["failed_operations"] == 0, failover
    assert failover["failovers_followed"] >= 1, failover


def test_relay_failover_loses_nothing_downstream():
    """With the relay in the path: the relay re-resolved at least once,
    no acked write was lost, and no downstream operation failed."""
    relay = _results()["relay_failover"]
    assert relay["write_sections"] > 0, relay
    assert relay["reads"] > 0, relay
    assert relay["lost_versions"] == 0, relay
    assert relay["failed_operations"] == 0, relay
    assert relay["relay_failovers_followed"] >= 1, relay
    assert relay["relay_reattach_seconds"] is not None, relay


def test_quorum_ack_survives_a_machine_kill():
    """Quorum-ack mode: the primary machine dies with its replication
    sender unflushed, yet every acked release is already at the backup."""
    quorum = _results()["quorum"]
    assert quorum["quorum"]["acked_releases"] > 0, quorum
    assert quorum["quorum"]["lost_acked_versions"] == 0, quorum
    assert quorum["quorum"]["quorum_acks"] > 0, quorum
    assert quorum["latency_cost_x"] > 0, quorum


def main() -> None:
    results = _results()
    crash = results["crash_recovery"]
    print(f"crash recovery ({crash['writers']} writers, SIGKILL mid-load):")
    print(f"  acked releases:      {crash['acked_releases']}")
    print(f"  ambiguous releases:  {crash['ambiguous_releases']}")
    print(f"  lost acked versions: {crash['lost_acked_versions']} "
          "(acceptance bar: 0)")
    print(f"  segments restored:   {crash['segments_restored']}, "
          f"WAL records replayed: {crash['wal_records_replayed']}")
    if crash["recovery_seconds"] is not None:
        print(f"  recovery time:       {crash['recovery_seconds'] * 1e3:.0f} ms "
              "(restart exec -> first acked op)")
    failover = results["failover"]
    print(f"failover ({failover['writers']} writers, async replication):")
    print(f"  write sections:      {failover['write_sections']}")
    print(f"  lost versions:       {failover['lost_versions']} "
          "(acceptance bar: 0, exact)")
    print(f"  failed operations:   {failover['failed_operations']}")
    print(f"  failovers followed:  {failover['failovers_followed']}")
    print(f"  promotion:           {failover['promotion_seconds'] * 1e3:.0f} ms, "
          f"blackout: {failover['blackout_seconds'] * 1e3:.0f} ms")
    relay = results["relay_failover"]
    print(f"relay failover ({relay['writers']} writers + "
          f"{relay['readers']} readers behind the relay):")
    print(f"  write sections:      {relay['write_sections']}, "
          f"reads: {relay['reads']}")
    print(f"  lost versions:       {relay['lost_versions']} "
          "(acceptance bar: 0, exact)")
    print(f"  failed operations:   {relay['failed_operations']}")
    print(f"  relay failovers:     {relay['relay_failovers_followed']}")
    print(f"  relay re-attach:     "
          f"{relay['relay_reattach_seconds'] * 1e3:.0f} ms "
          "(crash -> first downstream ack)")
    quorum = results["quorum"]
    for mode in ("async", "quorum"):
        row = quorum[mode]
        latency = row["release_latency"]
        print(f"{row['mode']} replication, machine kill "
              f"(sender dies with the primary):")
        print(f"  acked releases:      {row['acked_releases']}, "
              f"abandoned records: {row['abandoned_records']}")
        print(f"  lost acked versions: {row['lost_acked_versions']}"
              + (" (acceptance bar: 0)" if mode == "quorum" else ""))
        print(f"  release latency:     {latency['mean_ms']:.2f} ms mean, "
              f"{latency['p95_ms']:.2f} ms p95")
    print(f"  quorum latency cost: {quorum['latency_cost_x']:.1f}x async")
    print(f"[results -> {os.path.relpath(RESULTS_PATH)}]")


if __name__ == "__main__":
    main()
