"""The closed-loop load driver: set-up, warm-up, measured window.

One driver process plays both clients.  On the alternating workloads a
single thread runs write section → read section → write section …, so
nothing contends and every section's cost is its own.  On
``small_sections`` two threads (``nproc`` is 2) run the writer and the
reader concurrently, each waiting for its own replies — a closed loop
with two callers.

End-to-end numbers are only ever taken with tracing off.  A traced run
(:mod:`ledger`) reuses the same loops with spans and probes switched on.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from typing import Dict, List, Optional

from repro import Tracer

from topology import Reaper, Topology, wait_until
from workloads import FULL_CHECK_EVERY, WORKLOADS, Workload

#: complete set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: discarded lead-in before anything is measured
WARMUP_SECONDS = 3.0


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class Samples:
    """What one window of sections produced."""

    def __init__(self):
        self.write: List[float] = []
        self.read: List[float] = []
        self.failed = 0
        #: raised sections never finished, so they carry no latency
        self.raised = 0
        self.errors: List[str] = []
        #: seconds of driver bookkeeping (prepare, full compares) that
        #: are not part of any section
        self.overhead = 0.0
        self.elapsed = 0.0
        self._lock = threading.Lock()

    @property
    def attempted(self) -> int:
        return len(self.write) + len(self.read) + self.raised

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 8:
                self.errors.append(what)

    def section_raised(self, what: str) -> None:
        with self._lock:
            self.raised += 1
        self.fail(what)


class Session:
    """One workload attached to one live topology."""

    def __init__(self, workload: Workload, topology: Topology,
                 tracer: Tracer):
        self.workload = workload
        self.topology = topology
        self.tracer = tracer
        #: spans around the driver's own steps (traced windows only)
        self.tracing = False
        #: (write-section span id, word-diff seconds, translate seconds):
        #: the client's collect timers read around each traced release
        self.collect_times: List[tuple] = []
        self.cycle = 0

    def span(self, name: str, **attrs):
        if self.tracing:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext()

    def _write_section(self, cycle: int, modify) -> None:
        workload = self.workload
        timers = workload.writer.stats.collect
        with self.span("driver.write_section", cycle_id=cycle) as section:
            workload.writer.wl_acquire(workload.wseg)
            with self.span("memory.modify"):
                modify()
            word, translate = timers.word_diff_seconds, timers.translate_seconds
            workload.writer.wl_release(workload.wseg)
            if section is not None:
                self.collect_times.append(
                    (section.span_id, timers.word_diff_seconds - word,
                     timers.translate_seconds - translate))

    def _read_section(self, cycle: int, read):
        workload = self.workload
        with self.span("driver.read_section", cycle_id=cycle):
            workload.reader.rl_acquire(workload.rseg)
            seen = read()
            workload.reader.rl_release(workload.rseg)
        return seen

    # -- alternating: one thread, write then read -----------------------------

    def _alternate(self, seconds: float, samples: Samples, after_cycle) -> None:
        workload = self.workload
        started = time.perf_counter()
        deadline = started + seconds
        while True:
            mark = time.perf_counter()
            if mark >= deadline:
                break
            self.cycle += 1
            cycle = self.cycle
            workload.prepare(cycle)
            begin = time.perf_counter()
            try:
                self._write_section(cycle, workload.modify)
                middle = time.perf_counter()
                right = self._read_section(cycle, workload.sentinel)
            except Exception as exc:  # noqa: BLE001 — counted, then the run stops
                samples.section_raised(f"cycle {cycle}: {exc!r}")
                break
            end = time.perf_counter()
            samples.write.append(middle - begin)
            samples.read.append(end - middle)
            if not right:
                samples.fail(f"cycle {cycle}: sentinel read wrong")
            if cycle % FULL_CHECK_EVERY == 0 and not workload.verify_full():
                samples.fail(f"cycle {cycle}: full compare wrong")
            if after_cycle is not None:
                after_cycle(cycle)
            samples.overhead += (begin - mark) + (time.perf_counter() - end)
        samples.elapsed = time.perf_counter() - started

    # -- concurrent: writer thread and reader thread --------------------------

    def _concurrent(self, seconds: float, samples: Samples) -> None:
        workload = self.workload
        #: [last write started, last write completed]; plain ints written
        #: by one thread and read by the other
        progress = [workload.wvalue.get(), workload.wvalue.get()]
        stop = threading.Event()

        def write_loop() -> None:
            value = workload.wvalue
            while not stop.is_set():
                number = progress[0] + 1
                begin = time.perf_counter()
                progress[0] = number
                try:
                    self._write_section(number, lambda: value.set(number))
                except Exception as exc:  # noqa: BLE001
                    samples.section_raised(f"write {number}: {exc!r}")
                    stop.set()
                    return
                samples.write.append(time.perf_counter() - begin)
                progress[1] = number

        def read_loop() -> None:
            value = workload.rvalue
            last = 0
            count = 0
            while not stop.is_set():
                count += 1
                floor = progress[1]
                begin = time.perf_counter()
                try:
                    seen = self._read_section(count, value.get)
                except Exception as exc:  # noqa: BLE001
                    samples.section_raised(f"read {count}: {exc!r}")
                    stop.set()
                    return
                samples.read.append(time.perf_counter() - begin)
                ceiling = progress[0]
                # Full coherence: at least every write that completed
                # before the acquire, nothing not yet started, never
                # going backwards
                if not (floor <= seen <= ceiling and seen >= last):
                    samples.fail(f"read {count}: saw {seen}, expected "
                                 f"[{max(floor, last)}, {ceiling}]")
                last = seen

        threads = [threading.Thread(target=write_loop, name="bench-writer"),
                   threading.Thread(target=read_loop, name="bench-reader")]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        try:
            stop.wait(seconds)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        samples.elapsed = time.perf_counter() - started
        if not workload.verify_full():
            samples.fail("final validated read does not see the last write")

    def run_window(self, seconds: float, after_cycle=None) -> Samples:
        samples = Samples()
        if self.workload.concurrent:
            self._concurrent(seconds, samples)
        else:
            self._alternate(seconds, samples, after_cycle)
        return samples

    # -- end of run -------------------------------------------------------------

    def final_checks(self, samples: Samples) -> None:
        """Outside every timed window: whole-content compare, and on the
        replicated topology backup == primary with no degraded quorum."""
        if not self.workload.verify_full():
            samples.fail("final full compare wrong")
        if not self.workload.relay:
            return
        name = self.workload.segment_name
        version = self.workload.wseg.version

        def backup_caught_up() -> bool:
            segments = self.topology.stats()["backup"]["server"]["segments"]
            return segments.get(name, {}).get("version") == version

        try:
            wait_until(backup_caught_up, 5.0, "the backup to reach the "
                       f"primary's version {version}")
        except RuntimeError as exc:
            samples.fail(str(exc))
        stats = self.topology.stats()
        origin = stats["origin"]
        if origin["server"]["segments"][name]["version"] != version:
            samples.fail("primary version differs from the writer's")
        degrades = origin["metrics"]["counters"].get("server.quorum_degrades", 0)
        if degrades:
            samples.fail(f"{degrades} quorum-ack release(s) degraded to async")


def open_session(name: str, seed: int, workdir: str, reaper: Reaper,
                 tracer: Tracer, tag: str, wrap=None) -> Session:
    """Process launch → ready → segment created, filled and cached (and
    verified) at the reader.  ``wrap`` (traced runs) decorates the
    client connector."""
    workload = WORKLOADS[name](seed)
    topology = Topology(workdir, relay=workload.relay, tag=tag)
    reaper.topologies.append(topology)
    session = Session(workload, topology, tracer)
    connector = topology.connector if wrap is None else wrap(topology.connector)
    try:
        workload.attach(connector, tracer)
    except BaseException:
        close_session(session, reaper)
        raise
    return session


def close_session(session: Session, reaper: Reaper) -> None:
    try:
        session.workload.detach()
    finally:
        session.topology.stop()
        reaper.topologies.remove(session.topology)


def timed_setups(name: str, seed: int, workdir: str, reaper: Reaper,
                 tracer: Tracer, repeats: int = SETUP_REPEATS, wrap=None):
    """Set up ``repeats`` times; returns (median seconds, the last
    session, left open for measuring)."""
    durations = []
    session: Optional[Session] = None
    for attempt in range(repeats):
        if session is not None:
            close_session(session, reaper)
        started = time.perf_counter()
        session = open_session(name, seed, workdir, reaper, tracer,
                               tag=str(attempt), wrap=wrap)
        durations.append(time.perf_counter() - started)
    return statistics.median(durations), session


def wire_bytes(client) -> int:
    """Bytes a client's channels have sent plus received."""
    return sum(channel["bytes_sent"] + channel["bytes_received"]
               for channel in client.session_state()["channels"].values())


def warm_up(session: Session, seconds: float, after_cycle=None) -> None:
    """The discarded lead-in (shortened for short ``--seconds``)."""
    warmup = session.run_window(min(WARMUP_SECONDS, seconds / 4.0),
                                after_cycle)
    if warmup.failed:
        raise RuntimeError(f"warm-up failed: {warmup.errors}")


def end_to_end(session: Session, seconds: float, setup_seconds: float):
    """The untraced measured window → (samples, end-to-end metrics)."""
    warm_up(session, seconds)
    writer, reader = session.workload.writer, session.workload.reader
    written, read = wire_bytes(writer), wire_bytes(reader)
    samples = session.run_window(seconds)
    written, read = wire_bytes(writer) - written, wire_bytes(reader) - read
    rss = session.topology.peak_rss_mib()
    session.final_checks(samples)
    metrics: Dict[str, float] = {"setup_s": setup_seconds,
                                 "server_rss_mb": rss}
    if samples.write and samples.read:
        sections = len(samples.write) + len(samples.read)
        metrics.update({
            "write_section_p50_ms": 1e3 * statistics.median(samples.write),
            "write_section_p90_ms": 1e3 * percentile(samples.write, 90),
            "read_section_p50_ms": 1e3 * statistics.median(samples.read),
            "read_section_p90_ms": 1e3 * percentile(samples.read, 90),
            "sections_per_s": sections / (samples.elapsed - samples.overhead),
            # the mean of a write section's and a read section's bytes;
            # per kind, so the concurrent workload's write:read mix (which
            # scheduling decides) does not move it
            "wire_bytes_per_section": (written / len(samples.write)
                                       + read / len(samples.read)) / 2.0,
        })
    return samples, metrics
